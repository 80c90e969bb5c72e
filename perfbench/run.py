"""lrcompress benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-chain --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics.
``--trace 1`` times one untraced pass, repeats it with every public function
of the package wrapped, and prints the per-layer metrics. Either way the
outputs are checked, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
metric names and units are those declared in ``BENCHMARK.json``. See
``perfbench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS threads per workload; others use every usable CPU. Every desk matrix
# is 64x64: threads buy nothing there, and waking them made the small SVDs
# of one command swing 10x (20-220 ms) on a shared 2-CPU machine.
BLAS_THREADS = {"desk-chain": 1}

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Spans shorter than this are left out of the spans file (a parent always
# lasts at least as long as its children, so the kept spans form a tree).
SPAN_FILE_MIN_S = 1e-3

# Units of the chain-only outcomes printed alongside the end-to-end metrics.
CHAIN_EXTRAS = {"allocate_s": "s", "kl_eval": "nats", "budget_gap_params": "params",
                "failed_ratio": "ratio"}


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(n: int) -> None:
    """Limit BLAS threads to n in this process's environment (children inherit it)."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "blas": blas_name,
        "blas_version": blas_version,
        "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure passes until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args, ops) -> list[float]:
    """Time imports plus input generation in fresh interpreters."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = WORK_DIR / f"probe-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
            ok = proc.returncode == 0
            if ok:
                samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
            ops.record(ok, f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        except subprocess.TimeoutExpired:
            ops.record(False, f"setup probe exceeded {PROBE_TIMEOUT_S} s")
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def untraced_run(args, wl, ops, setup: list[float]):
    from workloads import SERVE_BATCH

    passes = []
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < args.seconds:
        passes.append(wl.run_pass(ops, len(passes)))
    wl.check(ops, passes)
    latencies = [t for p in passes for t in p["latencies"]]
    metrics = {
        "setup_s": median(setup) if setup else 0.0,
        "pipeline_s": median(p["wall"] for p in passes),
        "compress_s": median(p["compress"] for p in passes),
        "infer_samples_per_s": SERVE_BATCH / median(latencies) if latencies else 0.0,
        "stored_bytes": median(p["stored_bytes"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - ops.failed / ops.attempted,
    }
    extras = {k: v for k, v in wl.quality(passes).items() if k in CHAIN_EXTRAS}
    if extras:
        extras["failed_ratio"] = ops.failed / ops.attempted
    info = {"passes": len(passes), "requests": len(latencies),
            "serve_batch": SERVE_BATCH, "setup_samples": setup,
            "pass_walls": [p["wall"] for p in passes],
            "stages": [p["stages"] for p in passes]}
    return metrics, extras, info


def traced_run(wl, ops):
    import layers
    from spans import Tracer

    base = wl.run_pass(ops, 0)
    before = layers.snapshot()
    tracer = Tracer()
    with tracer:
        rebound = layers.install(tracer)
        with tracer.span("bench.pass") as root_idx:
            traced = wl.run_pass(ops, 1)
    ops.record(layers.snapshot() == before, "traced names were not all restored")
    passes = [base, traced]
    wl.check(ops, passes)
    try:
        standalone = wl.standalone(passes)
        mflop = wl.mflop_per_iter(passes)
    except Exception as exc:
        ops.record(False, f"standalone timings raised {exc!r}")
        standalone, mflop = {}, 0.0
    metrics = layers.per_layer_metrics(tracer, root_idx, traced, base, wl.quality(passes),
                                       mflop, standalone)
    keep = [i for i, s in enumerate(tracer.spans) if s.duration >= SPAN_FILE_MIN_S]
    new_index = {old: new for new, old in enumerate(keep)}
    t0 = tracer.spans[root_idx].start
    spans_out = [[tracer.spans[i].name, tracer.spans[i].start - t0, tracer.spans[i].end - t0,
                  new_index.get(tracer.spans[i].parent, -1)] for i in keep]
    info = {"names_rebound": rebound, "summary": tracer.summary(),
            "spans_over_1ms": spans_out}
    return metrics, {}, info


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads(min(BLAS_THREADS.get(args.workload, usable_cpus()), usable_cpus()))
    if not (SRC / "lrcompress" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"perfbench: needs src/lrcompress and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.make_workload(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    spec = json.loads(SPEC_FILE.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only if no other run is using it


def measure(args, workdir: Path, units: dict) -> int:
    from workloads import Ops, make_workload, warm_up

    import lrcompress

    if Path(lrcompress.__file__).resolve().parent != SRC / "lrcompress":
        print(f"perfbench: imported lrcompress from {lrcompress.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    ops = Ops()
    setup = [] if args.trace else measure_setup(args, ops)
    wl = make_workload(args.workload, args.seed, workdir)
    warm_up(ops, workdir, wl.largest_dim)
    if args.trace:
        metrics, extras, info = traced_run(wl, ops)
    else:
        metrics, extras, info = untraced_run(args, wl, ops, setup)

    missing = sorted(set(units) - set(metrics))
    ops.record(not missing, f"metrics not produced: {missing}")
    facts = machine_facts()
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"args": vars(args), "machine": facts, "result": result,
                                    "extras": extras, "failures": ops.messages,
                                    "info": info}, indent=1, default=float))
    for msg in ops.messages[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ops.attempted} failed={ops.failed} details={out_file.name}")
    rows = [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()]
    rows += [(n, v, CHAIN_EXTRAS[n]) for n, v in extras.items()]
    for name, value, unit in rows:
        print(f"# {name:<36} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
