"""The package API that the benchmark's workloads call still works.

``perfbench/workloads.py`` reaches the package through ``cli.main`` and by
module attribute. A renamed or deleted public name would otherwise show up
only when the benchmark runs, as failed operations. This module runs each
workload's code paths once, at a small size, in a temporary directory.
"""

import importlib.util
import math
import sys
import time
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def timed_once(workloads, monkeypatch):
    """Replace the repeated median timing by one timed call."""

    def once(fn, *_, **__):
        t = time.perf_counter()
        fn()
        return time.perf_counter() - t

    monkeypatch.setattr(workloads, "median_time", once)


def _all_finite(metrics: dict) -> bool:
    return all(math.isfinite(v) for v in metrics.values())


def test_chain_workload(workloads, timed_once, tmp_path):
    c = workloads.desk_configs(0)[0]
    c.fermigrad = workloads._with_flag(c.fermigrad, "--iters", "20")
    c.compare = workloads._with_flag(c.compare, "--grid-step", "32")
    w = workloads.ChainWorkload([c], 0, tmp_path, requests=4)
    ops = workloads.Ops()
    passes = [w.run_pass(ops, k) for k in range(2)]
    w.check(ops, passes)
    assert ops.failed == 0, ops.messages
    assert passes[0]["stored_bytes"] == passes[1]["stored_bytes"] > 0
    assert len(passes[0]["latencies"]) == 4
    quality = w.quality(passes)
    assert quality["iterations"] == 20 and _all_finite(quality)
    assert w.mflop_per_iter(passes) > 0
    standalone = w.standalone(passes)
    assert "fermigrad.grad_mu_us" in standalone and "pivga.forward_us" in standalone
    assert _all_finite(standalone)


def test_pivga_serve_workload(workloads, timed_once, tmp_path):
    w = workloads.PivgaServeWorkload(0, tmp_path, n=64, r=16, requests=4)
    ops = workloads.Ops()
    passes = [w.run_pass(ops, k) for k in range(2)]
    w.check(ops, passes)
    assert ops.failed == 0, ops.messages
    assert passes[0]["stored_bytes"] == passes[1]["stored_bytes"] > 0
    standalone = w.standalone(passes)
    assert "pivga.forward_us" in standalone and _all_finite(standalone)
