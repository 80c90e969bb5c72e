"""Time each command of the desk CLI chain as a fresh process, for one or more checkouts.

    python3 scripts/cold_cli.py --tree DIR [--tree DIR ...] --pairs N --out FILE

Each command runs as ``python -m lrcompress.cli`` with the tree's src/ on
PYTHONPATH, one BLAS thread, in a new temporary directory per chain, so its
time includes interpreter start and imports: what a user of the CLI waits
for. The chain is the benchmark's desk chain on teacher 0: gen-teacher,
calibrate (512 samples), fermigrad (target 0.6, step 10, up to 1500
iterations), compress --pivga and compare (uniform and brute force, grid 8).
Every pair runs the chain once from each tree; the tree that goes first
rotates from pair to pair. FILE gets, per tree, the median seconds of each
command and of the whole chain, and every sample.
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

COMMANDS = ("gen-teacher", "calibrate", "fermigrad", "compress", "compare")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def chain_argvs(work: Path) -> list[list[str]]:
    """The five desk-chain commands, writing under ``work``."""
    T, C, R = str(work / "teacher"), str(work / "calib"), str(work / "ranks.json")
    common = ["--model", T, "--calib", C]
    return [
        ["gen-teacher", "--out", T, "--seed", "0"],
        ["calibrate", "--model", T, "--samples", "512", "--seed", "11", "--out", C],
        ["fermigrad", *common, "--target-ratio", "0.6", "--mode", "linear", "--step", "10",
         "--iters", "1500", "--kl-samples", "512", "--seed", "11", "--out-ranks", R,
         "--trajectory", str(work / "trajectory.csv"), "--report", str(work / "fg.json")],
        ["compress", *common, "--ranks", R, "--pivga", "--out", str(work / "student"),
         "--report", str(work / "compress.json")],
        ["compare", *common, "--ranks", f"optimized={R}", "--uniform", "--brute-force",
         "--grid-step", "8", "--target-ratio", "0.6", "--r-min", "8", "--seed", "1",
         "--out", str(work / "compare.json")],
    ]


def time_chain(tree: Path) -> dict[str, float]:
    """Wall seconds of each command of one chain run from ``tree``."""
    env = {**os.environ, **{v: "1" for v in THREAD_VARS}, "PYTHONPATH": str(tree / "src")}
    times = {}
    with tempfile.TemporaryDirectory(prefix="cold_cli-") as tmp:
        for name, argv in zip(COMMANDS, chain_argvs(Path(tmp))):
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
