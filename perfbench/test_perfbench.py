"""Tests of the benchmark itself, in smoke mode (tiny inputs, no timing bound).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric(workload, trace):
    result = last_json(run_bench(ROOT, "--workload", workload, "--trace", trace, "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = CONFIG["per_layer"] if trace == "1" else CONFIG["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        calls = result["metrics"]["envelope_oracle.wlc_numeric.calls"]["value"]
        assert (calls > 0) == (workload == "certify")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_names_and_tolerates_missing_ones():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import lamlab.envelope_oracle as oracle
        import lamlab.regions as regions
        from spans import Tracer
    finally:
        del sys.path[:2]
    original = regions.region_map
    tracer = Tracer(["lamlab.regions", "lamlab.no_such_module"], [])
    with tracer:
        tracer.install(["regions.region_map", "regions.no_such_function"])
        assert oracle.region_map is regions.region_map is not original
        oracle.region_map(oracle.SlipSystem.orthogonal(), 3.0, 2)
    assert oracle.region_map is regions.region_map is original
    assert tracer.absent == ["lamlab.no_such_module", "regions.no_such_function"]
    table = tracer.table()
    assert table.calls("regions.region_map") == 1
    assert table.calls("regions.classify") == 4
    assert table.calls("regions.no_such_function") == 0


def test_queries_count_the_same_failures_for_every_seed():
    results = [last_json(subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", seed,
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)) for seed in ("1", "2")]
    assert [(r["attempted"], r["failed"]) for r in results] == \
        [(results[0]["attempted"], results[0]["failed"])] * 2


def test_ledger_counts_operations_once_and_flags_changed_repeats():
    sys.path.insert(0, str(HERE))
    try:
        from run import Ledger, Outcome
    finally:
        del sys.path[0]
    ledger = Ledger()
    ledger.add([Outcome(("q", 0), "query", 1e-4, True),
                Outcome(("q", 1), "query", 1e-4, False, "check: x", wide=True)])
    ledger.add([Outcome(("q", 0), "query", 1e-4, True),
                Outcome(("q", 1), "query", 1e-4, False, "check: x", wide=True)])
    assert (ledger.attempted, ledger.failed, ledger.unexpected) == (2, 1, 0)
    ledger.add([Outcome(("q", 0), "query", 1e-4, False, "check: y")])
    assert (ledger.attempted, ledger.failed, ledger.unexpected) == (2, 1, 1)
