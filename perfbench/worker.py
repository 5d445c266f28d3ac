"""One benchmark process: set up a workload, measure it, print one JSON line.

Started by ``run.py`` with the thread pins already in its environment, so
they hold before numpy loads.  Modes:

* ``setup`` - time the set-up alone (``run.py`` asks for several of these);
* ``run``   - time the set-up, then whole rounds of operations until
  ``--seconds`` have passed, verifying each operation outside its timed span;
* ``trace`` - trace the set-up and a fixed number of rounds, after timing
  the same rounds untraced, and report per-layer counts and self times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import actinv
from actinv.errors import TheoremViolationError
from tracer import TARGETS, Recorder
from workloads import INJECTIONS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
STARTUP_SAMPLES = 5
# Nominal time of one SpeedProbe kernel: about its median on the 2-vCPU KVM
# guest the README baseline was measured on.  It sets only the level of the
# scaled figures, not how they compare between runs.
REFERENCE_S = 1.5e-3


class SpeedProbe:
    """Times a fixed reference kernel to track how fast the machine runs now.

    On a shared host the same code runs up to 40% slower for tens of seconds
    at a time.  The probe kernel mixes interpreter work (tuple arithmetic in a
    loop) with a complex matrix product, like the library does.  One probe runs
    right after each operation, outside its timed span, and the operation's
    latency is reported scaled by ``REFERENCE_S / probe time`` so that runs
    made at different machine speeds compare.  Set-up is one long call that
    cannot be interleaved with probes, and probes around it tracked its speed
    worse than no scaling, so set-up time is reported as measured.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.samples: list[float] = []

    @staticmethod
    def _interpreter_work() -> int:
        acc = (0, 0)
        for i in range(6000):
            acc = ((acc[0] + i) % 97, (acc[1] + 3 * i) % 89)
        return acc[0] + acc[1]

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._interpreter_work()
        self._a @ self._a
        self.samples.append(time.perf_counter() - t0)

    def scaled(self, latencies: list[float]) -> list[float]:
        return [t * REFERENCE_S / p for t, p in zip(latencies, self.samples, strict=True)]


def blas_warmup() -> None:
    """First BLAS/LAPACK calls load and initialise the kernels."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    scipy.linalg.qr(a, mode="economic", pivoting=True)
    scipy.linalg.svd(a, full_matrices=False)
    a @ a


def measure(
    wl,
    rounds: int | None,
    seconds: float,
    recorder: Recorder | None = None,
    probe: SpeedProbe | None = None,
):
    """Closed loop of operations; stops after ``rounds`` or once ``seconds`` passed.

    Returns per-operation latencies, work items and the failure count.
    Verification (with the recorder paused) and the speed probe run outside
    the timed span.
    """
    rng = wl.op_rng(2)
    latencies, items, failed = [], 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        if k % wl.round_size == 0:
            done = k // wl.round_size
            if (rounds is not None and done >= rounds) or (
                rounds is None and time.perf_counter() - start >= seconds
            ):
                break
        inputs = wl.prepare(k, rng)
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs)
            error = None
        except (ValueError, TheoremViolationError) as exc:
            error = exc
        latencies.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.enabled = False
            wl.collect(recorder)
        if error is not None:
            ok = False
            traceback.print_exception(error, file=sys.stderr)
        else:
            ok = wl.verify(inputs, out)
        if recorder is not None:
            recorder.enabled = True
        failed += not ok
        items += wl.items(inputs)
        if probe is not None:
            probe.sample()
        k += 1
    return latencies, items, failed


def timed_setup(wl, recorder: Recorder | None = None) -> float:
    t0 = time.perf_counter()
    blas_warmup()
    if recorder is not None:
        recorder.install()
    wl.setup()
    return time.perf_counter() - t0


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def per_layer(wl, recorder: Recorder) -> dict[str, float]:
    agg = recorder.aggregate()
    out: dict[str, float] = {}
    for name in dict.fromkeys(t[0] for t in TARGETS):
        entry = agg.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    useful, total = recorder.outcomes["extra.masked_component"]
    out["extra.masked_component.nonempty_ratio"] = useful / total if total else 0.0
    out["scenario.cached_bytes"] = wl.cached_bytes()
    imports = agg.get("cli.import")
    out["cli.import_s"] = imports["self_s"] / imports["calls"] if imports else 0.0
    return out


def startup_s(env: dict) -> float:
    """Median wall time of a bare interpreter, start to exit."""
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject", choices=INJECTIONS)
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(actinv.__file__).resolve().parents:
        raise SystemExit(f"actinv imported from {actinv.__file__}, not from {src}")
    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.work_dir, args.inject)
    wl.env = dict(os.environ)
    result: dict = {"environment": environment(args.seed)}

    if args.mode == "setup":
        result["setup_s"] = timed_setup(wl)
    elif args.mode == "run":
        result["setup_s"] = timed_setup(wl)
        probe = SpeedProbe()
        t0 = time.perf_counter()
        latencies, items, failed = measure(wl, None, args.seconds, probe=probe)
        result.update(
            latencies=latencies,
            scaled_latencies=probe.scaled(latencies),
            probes=probe.samples,
            round_size=wl.round_size,
            items=items,
            failed=failed,
            wall_s=time.perf_counter() - t0,
            peak_rss_mib=peak_rss_mib(children=args.workload == "cli-cold"),
        )
    else:
        recorder = Recorder()
        timed_setup(wl, recorder)
        recorder.uninstall()
        # alternate untraced and traced cycles so drift and warm-up hit both
        plain_probe, traced_probe = SpeedProbe(), SpeedProbe()
        plain, traced, failed = [], [], 0
        for _ in range(wl.trace_rounds):
            lat, _, bad = measure(wl, 1, args.seconds, probe=plain_probe)
            plain += lat
            failed += bad
            recorder.install()
            if args.workload == "cli-cold":
                wl.spans_path = args.work_dir / "spans.json"
            lat, _, bad = measure(wl, 1, args.seconds, recorder, traced_probe)
            traced += lat
            failed += bad
            recorder.uninstall()
            if args.workload == "cli-cold":
                wl.spans_path = None
        layers = per_layer(wl, recorder)
        layers["cli.startup_s"] = startup_s(wl.env) if args.workload == "cli-cold" else 0.0
        layers["trace_overhead_ratio"] = sum(plain_probe.scaled(plain)) / sum(
            traced_probe.scaled(traced)
        )
        result.update(
            latencies=plain + traced,
            items=len(plain) + len(traced),
            failed=failed,
            layers=layers,
            setup_ops=wl.warmup_ops,
            traced_ops=len(traced),
            scenarios=len(wl.scenarios),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
