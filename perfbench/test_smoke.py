"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced.  Not under the Tier-1 ``testpaths``; run it explicitly with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    return out


def assert_metrics(out: dict, listed: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        entry = out["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and entry["value"] == entry["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    out = result(proc)
    assert_metrics(out, SPEC["end_to_end"])
    assert all(out["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert "fail_frac" in proc.stdout
    if workload == "cli_sessions":
        # the documented known defect: the fit --weighting 2I+1 op fails its check
        assert out["failed"] * 8 == out["attempted"]
        assert "known defect" in proc.stdout and "143.00 vs chi2 119.04" in proc.stdout
    else:
        assert out["failed"] == 0
    if workload == "fit_study":
        assert "r_coverage" in proc.stdout
    if workload == "spectrum_scan":
        assert "t_containment" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_every_per_layer_metric(workload):
    proc = run(workload, 1)
    out = result(proc)
    assert_metrics(out, SPEC["per_layer"])
    assert out["metrics"]["xsection.term_count"]["value"] == 195.0
    assert "trace_overhead" in proc.stdout and "self.bench" in proc.stdout
    trace = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed3.json").read_text())
    assert trace["spans"] and {"span_id", "parent_id", "op_id", "name", "start", "end"} <= set(trace["spans"][0])


def test_output_checks_catch_a_wrong_result():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    ctx = workloads.Context(ROOT, ROOT / "src", ROOT / ".bench_out", 3)
    scan = workloads.ModelScan(ctx)
    label, series, values, u = scan.run_op(0, workloads.NoTracer())
    assert scan.check(0, (label, series, values, u)) == []
    assert scan.check(0, (label, series, values * 1.001, u))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
