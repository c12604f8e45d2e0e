"""The benchmark's own tests: tiny smoke runs and the negative checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import railplan as rp  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("solve", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def tiny(tmp_path):
    return lambda name: workloads.make(name, 5, "tiny", str(tmp_path))


def test_wrong_objective_fails(tiny):
    w = tiny("solve")
    refs = w.compute_refs()
    result = w.tasks[0].run()[0]
    record, errors = w.settle(result)
    assert errors == [] and w.compare(record, refs[result["key"]]) == []

    result["sol"].objective += 1
    record, errors = w.settle(result)
    assert any("evaluated" in e for e in errors)
    assert w.compare(record, refs[result["key"]])


def test_solver_that_gives_up_fails(tiny):
    w = tiny("solve")
    refs = w.compute_refs()
    result = w.tasks[0].run()[0]
    ref, sol = refs[result["key"]], result["sol"]
    assert sol.status == "optimal"

    gave_up = rp.Solution("budget_exceeded", None, None, (-math.inf, math.inf), 0)
    record, errors = w.settle(dict(result, sol=gave_up, kpis=None))
    assert errors == []
    assert any("without an incumbent" in e for e in w.compare(record, ref))

    # An incumbent and bounds, but stopped before the node cap.
    cap = w.params["solve_nodes"]
    early = dataclasses.replace(sol, status="budget_exceeded", bounds=(sol.objective - 1, sol.objective), node_count=1)
    record, _ = w.settle(dict(result, sol=early))
    assert any(f"after 1 of {cap} nodes" in e for e in w.compare(record, ref))

    # Spending the cap is a valid stop, unless the stored status was optimal.
    spent = dataclasses.replace(early, node_count=cap)
    record, errors = w.settle(dict(result, sol=spent))
    assert errors == [] and w.compare(record, ref) == []
    assert any("stored status optimal" in e for e in w.compare(record, dict(ref, status="optimal")))


def test_wrong_row_objective_fails(tiny):
    w = tiny("sweep")
    refs = w.compute_refs()
    row = w.tasks[0].run()[0]
    record, errors = w.settle(row)
    assert errors == [] and w.compare(record, refs[row["key"]]) == []

    row = dict(row, objective=row["objective"] + 1, lower_bound=row["objective"] + 1)
    record, errors = w.settle(row)
    assert errors  # cost columns no longer sum to the objective
    assert w.compare(record, refs[row["key"]])


def test_altered_mps_byte_fails(tiny):
    w = tiny("build")
    refs = w.compute_refs()
    result = w.tasks[0].run()[0]
    record, errors = w.settle(result)
    assert errors == [] and w.compare(record, refs[result["key"]]) == []

    result = w.tasks[0].run()[0]
    size = os.path.getsize(result["path"])
    with open(result["path"], "r+b") as fh:
        fh.seek(size // 2)
        byte = fh.read(1)
        fh.seek(size // 2)
        fh.write(b"#" if byte != b"#" else b"%")
    record, errors = w.settle(result)
    assert any("sha256" in e for e in w.compare(record, refs[result["key"]]))


@pytest.mark.xfail(strict=True, reason="solve_mcf does not terminate on this instance with its default alpha")
def test_mcf_terminates_on_large_instance():
    """Why build times exact arcs only: restore mcf there once this passes."""
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "sys.path.insert(0, 'src'); import railplan as rp; "
        "rp.solve_mcf(rp.build_mcf(rp.generate_synthetic(1, 16, 320, 4)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, timeout=10)
    assert proc.returncode == 0
