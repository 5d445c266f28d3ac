"""Self-test of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/selftest.py -q

Checks that every workload prints every metric named in ``BENCHMARK.json``
with its unit, that the exact layer counts match the code, that injected
faults are caught by the output checks, and that the benchmark refuses to
run without the library sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENVIRONMENT_KEYS = {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed", "git_commit"}


def bench(workload: str, trace: int = 0, inject: str | None = None, run_py: Path = HERE / "run.py"):
    cmd = [
        sys.executable, str(run_py),
        "--workload", workload, "--seed", "7", "--seconds", "0.5",
        "--trace", str(trace), "--tiny",
    ]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    detail, result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert ENVIRONMENT_KEYS <= set(detail["environment"])
    if not trace:
        assert detail["error_rate"] == 0


@pytest.mark.parametrize("workload", ["zak-stream", "check-mix", "approx-fit"])
def test_exact_counts_match_the_code_and_repeat(workload):
    detail, result = result_of(bench(workload, trace=1))
    counts = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    # once in Scenario() and once more inside tiling_sets
    assert counts["actions.validate_action.calls"] == 2 * detail["scenarios"]
    if workload == "check-mix":
        # once directly and once inside check_decomposable, per operation
        ops = detail["setup_ops"] + detail["traced_ops"]
        assert counts["extra.check_extra_invariance.calls"] == 2 * ops
    _, again = result_of(bench(workload, trace=1))
    assert {k: again["metrics"][k]["value"] for k in counts} == counts


@pytest.mark.parametrize(
    "workload,inject",
    [("zak-stream", "roundtrip"), ("check-mix", "verdict"), ("approx-fit", "approx-error")],
)
def test_injected_fault_raises_error_rate(workload, inject):
    detail, result = result_of(bench(workload, inject=inject))
    assert result["correct"] is False
    assert result["failed"] > 0
    assert detail["error_rate"] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("check-mix", run_py=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
