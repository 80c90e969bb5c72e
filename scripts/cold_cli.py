"""Time each command of the desk CLI chain as a fresh process, for one or more checkouts.

    python3 scripts/cold_cli.py --tree DIR [--tree DIR ...] --pairs N --out FILE

Each command runs as ``python -m lrcompress.cli`` with the tree's src/ on
PYTHONPATH, one BLAS thread, in a new temporary directory per chain, so its
time includes interpreter start and imports: what a user of the CLI waits
for. The chain is the benchmark's desk chain on teacher 0 in linear mode:
gen-teacher, calibrate, fermigrad, compress --pivga and compare, with the
flags of ``desk_configs`` in perfbench/workloads.py of this checkout, as
scripts/equiv_ab.py runs them. Every pair runs the chain once from each
tree; the tree that goes first rotates from pair to pair. FILE gets, per
tree, the median seconds of each command and of the whole chain, and
every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import equiv_ab  # noqa: E402  (also puts this checkout's perfbench on sys.path)
from perfbench import workloads as wl  # noqa: E402

COMMANDS = ("gen-teacher", "calibrate", "fermigrad", "compress", "compare")


def chain_argvs() -> list[list[str]]:
    """The five desk-chain commands, with paths relative to the chain's directory."""
    c = wl.desk_configs(equiv_ab.COMPARE_SEED)[0]
    return [*equiv_ab.producer_argvs(".", c),
            *equiv_ab.desk_consumer_argvs(".", ".", c, "linear")]


def time_chain(tree: Path) -> dict[str, float]:
    """Wall seconds of each command of one chain run from ``tree``."""
    env = {**os.environ, **{v: "1" for v in equiv_ab.THREAD_VARS},
           "PYTHONPATH": str(tree / "src")}
    times = {}
    with tempfile.TemporaryDirectory(prefix="cold_cli-") as tmp:
        for name, argv in zip(COMMANDS, chain_argvs()):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "lrcompress.cli", *argv], env=env,
                                  cwd=tmp, capture_output=True, text=True)
            times[name] = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"{tree}: {name} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()}")
    times["chain"] = sum(times.values())
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", action="append", required=True, type=Path,
                   help="checkout with src/lrcompress (repeatable)")
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    trees = [t.resolve() for t in args.tree]
    samples = {str(t): {name: [] for name in (*COMMANDS, "chain")} for t in trees}
    for k in range(args.pairs):
        for tree in trees[k % len(trees):] + trees[:k % len(trees)]:
            for name, seconds in time_chain(tree).items():
                samples[str(tree)][name].append(seconds)
    doc = {"pairs": args.pairs, "python": sys.version.split()[0],
           "trees": {t: {"median_s": {name: median(v) for name, v in s.items()},
                         "samples_s": s} for t, s in samples.items()}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for t, entry in doc["trees"].items():
        print(t, " ".join(f"{name} {v:.3f}" for name, v in entry["median_s"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
