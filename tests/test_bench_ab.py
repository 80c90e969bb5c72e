"""The summary that scripts/bench_ab.py writes, on canned run records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
BETTER = {"pipeline_s": "lower", "ok_ratio": "higher", "stored_bytes": "lower"}


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(pair, side, seed, pipeline_s, failed=0, workload="fixture1024-chain"):
    metrics = {"pipeline_s": pipeline_s, "ok_ratio": 1.0, "stored_bytes": 1000.0}
    return {"workload": workload, "pair": pair, "seed": seed, "side": side,
            "machine": {"nproc": 2},
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}


def canned():
    """Five pairs; the change is faster in all but pair 3, and pair 4 lacks its parent."""
    parent = [10.0, 11.0, 12.0, 9.0, 13.0]
    change = [8.0, 9.0, 10.0, 9.5, 7.0]
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        if k < 4:
            runs.append(record(k, "parent", 100 + k, p, failed=int(k == 2)))
        runs.append(record(k, "change", 100 + k, c))
    return runs


def test_parse_seeds(bench_ab):
    assert bench_ab.parse_seeds("41-43") == [41, 42, 43]
    assert bench_ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_ab.parse_seeds("9-3")


def test_spread_uses_inclusive_quartiles(bench_ab):
    s = bench_ab.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0, "iqr": 2.0}
    one = bench_ab.spread([2.5])
    assert one["q1"] == one["median"] == one["q3"] == 2.5 and one["iqr"] == 0.0


def test_summary_counts_complete_pairs_and_wins(bench_ab):
    summary = bench_ab.summarize(canned(), BETTER)["fixture1024-chain"]
    assert summary["pairs"] == 4
    assert summary["seeds"] == [100, 101, 102, 103]
    parent, change = summary["sides"]["parent"], summary["sides"]["change"]
    assert parent["failed_ops"] == 1 and change["failed_ops"] == 0
    assert parent["metrics"]["pipeline_s"]["median"] == 10.5
    assert change["metrics"]["pipeline_s"]["median"] == 9.25
    assert change["metrics"]["pipeline_s"]["q1"] == 8.75
    assert change["metrics"]["pipeline_s"]["iqr"] == 9.625 - 8.75
    # strictly better only: equal ok_ratio and stored_bytes win no pair
    assert summary["change_wins_pairs"] == {"ok_ratio": 0, "pipeline_s": 3, "stored_bytes": 0}


def test_higher_is_better_metrics_win_upward(bench_ab):
    runs = [record(0, "parent", 1, 5.0), record(0, "change", 1, 5.0)]
    runs[1]["result"]["metrics"]["ok_ratio"]["value"] = 1.0
    runs[0]["result"]["metrics"]["ok_ratio"]["value"] = 0.5
    wins = bench_ab.summarize(runs, BETTER)["fixture1024-chain"]["change_wins_pairs"]
    assert wins["ok_ratio"] == 1 and wins["pipeline_s"] == 0


def test_write_bench_summarizes_each_workload_and_keeps_other_keys(bench_ab, tmp_path):
    out = tmp_path / "BENCH.json"
    runs = canned() + [record(0, "parent", 5, 2.0, workload="desk-chain"),
                       record(0, "change", 5, 1.0, workload="desk-chain")]
    base = {"change": "what changed", "note": "confirmation seeds"}
    bench_ab.write_bench(out, runs, BETTER, base)
    doc = json.loads(out.read_text())
    assert doc["change"] == "what changed" and doc["note"] == "confirmation seeds"
    assert set(doc["summary"]) == {"fixture1024-chain", "desk-chain"}
    assert doc["summary"]["desk-chain"]["change_wins_pairs"]["pipeline_s"] == 1
    assert set(doc["machine"]) == {"fixture1024-chain", "desk-chain"}
    assert len(doc["runs"]) == len(runs)
    assert doc["command"] == bench_ab.COMMAND and doc["protocol"] == bench_ab.PROTOCOL
