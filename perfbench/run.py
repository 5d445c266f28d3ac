"""Benchmark entry point for the ``actinv`` library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Each measurement runs in a fresh worker process with
the BLAS/OpenMP thread pools pinned to one thread before numpy loads.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``:
set-up time (median of three fresh processes), operation latency
percentiles, throughput and peak memory.  ``--trace 1`` reports the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the environment and the
workload-specific figures.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zak-stream", "check-mix", "approx-fit", "cli-cold")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Workload-specific names of the raw latency figures: (prefix, unit, tail percentile).
NAMED = {
    "zak-stream": ("zak_batch", "ms", 90),
    "check-mix": ("check", "ms", 90),
    "approx-fit": ("fit", "ms", 90),
    "cli-cold": ("cli", "s", 75),
}


class BenchmarkError(RuntimeError):
    pass


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_env() -> dict:
    env = dict(os.environ)
    for key in THREAD_PINS:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args, mode: str, work_dir: Path, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--work-dir", str(work_dir),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def kind_median_ms(latencies: list[float], round_size: int) -> float:
    """Median latency of each operation kind, geometric mean over the kinds.

    Kinds differ in cost by up to 30x, so the median of the pooled latencies
    sits in the gap between two kinds and jumps with noise; this does not.
    """
    medians = [statistics.median(latencies[i::round_size]) for i in range(round_size)]
    return 1000.0 * statistics.geometric_mean(medians)


def end_to_end(workload: str, setups: list[float], main: dict) -> tuple[dict, dict]:
    """End-to-end metrics and the detail figures of an untraced run.

    Operation timings are scaled to reference machine speed (see
    ``worker.SpeedProbe``); the detail keeps them as measured too.
    """
    lat, scaled = main["latencies"], main["scaled_latencies"]
    busy = sum(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": kind_median_ms(scaled, main["round_size"]),
        "ops_per_s": len(scaled) / sum(scaled),
        "peak_rss_mib": main["peak_rss_mib"],
    }
    prefix, unit, tail = NAMED[workload]
    per_unit = 1.0 if unit == "s" else 1000.0
    p50, ptail = statistics.median(lat) * per_unit, percentile(lat, tail) * per_unit
    named = {
        f"{prefix}_p50_{unit}": p50,
        f"{prefix}_p{tail}_{unit}": ptail,
        "samples": len(lat),
        "samples_beyond_p50": sum(t * per_unit > p50 for t in lat),
        f"samples_beyond_p{tail}": sum(t * per_unit > ptail for t in lat),
        "error_rate": main["failed"] / len(lat),
        "setup_samples_s": setups,
        "raw_op_p50_ms": kind_median_ms(lat, main["round_size"]),
        "raw_ops_per_s": len(lat) / busy,
        "measured_wall_s": main["wall_s"],
        "latencies_s": lat,
        "probes_s": main["probes"],
    }
    if workload == "zak-stream":
        named["zak_fn_per_s"] = main["items"] / busy
    return metrics, named


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, one set-up")
    parser.add_argument(
        "--inject", help="corrupt outputs before verification (self-test of the checks)"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "actinv" / "__init__.py").is_file():
        print(f"no actinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    (HERE / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    env = child_env()
    try:
        if args.trace:
            main_out = run_worker(args, "trace", work_dir, env, deadline)
            values = main_out["layers"]
            detail = {
                key: main_out[key]
                for key in ("latencies", "setup_ops", "traced_ops", "scenarios")
            }
        else:
            probes = 0 if args.tiny else SETUP_SAMPLES - 1
            setups = [
                run_worker(args, "setup", work_dir, env, deadline)["setup_s"]
                for _ in range(probes)
            ]
            main_out = run_worker(args, "run", work_dir, env, deadline)
            values, detail = end_to_end(args.workload, setups + [main_out["setup_s"]], main_out)
    except (BenchmarkError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 4
    attempted = len(main_out["latencies"])
    failed = main_out["failed"]
    print(
        json.dumps(
            {
                "detail": {
                    "workload": args.workload,
                    "trace": args.trace,
                    "environment": main_out["environment"],
                    **detail,
                }
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
