"""A/B the benchmark between two checkouts and write a BENCH_*.json file.

    python3 scripts/bench_ab.py --parent DIR --change DIR --workload desk-chain \
        --seeds 1900-1909 --out BENCH_9.json [--note TEXT]

For each seed, in order, one pair of runs of

    python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0

is made, one from each checkout (each with its own src/, perfbench/ and
BENCHMARK.json). Pairs alternate which side runs first: even pairs start
with the parent. Each run's last output line is its result. If ``--out``
already exists, the new runs are added to its runs and every summary is
recomputed, so one file can hold several workloads.

A summary gives, per workload, each side's min, quartiles, median,
max and IQR of every end-to-end metric, its failed operations, and the
number of pairs in which the change was strictly better (the direction comes
from the change's BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

PROTOCOL = ("parent and change each run from their own copy of src/, perfbench/ and "
            "BENCHMARK.json; pairs alternate which side runs first (even pair: parent "
            "first); runs[].result is each run's last output line")
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds 25 --trace 0"
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'A-B' (inclusive) or a single seed."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run from ``tree``: its machine facts and result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "25", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    return {"machine": machine, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    """min, q1, median, q3, max and IQR (inclusive quartiles, as numpy's linear)."""
    q1, med, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"min": min(values), "q1": q1, "median": med, "q3": q3, "max": max(values),
            "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: pairs, seeds, per-side spreads and change wins per metric."""
    groups: dict = {}
    for r in runs:
        groups.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r
    out: dict = {}
    for workload, pairs in groups.items():
        complete = [pairs[k] for k in sorted(pairs) if set(pairs[k]) == set(SIDES)]
        metrics = sorted(complete[0]["change"]["result"]["metrics"]) if complete else []
        sides = {}
        for side in SIDES:
            results = [p[side]["result"] for p in complete]
            sides[side] = {
                "failed_ops": sum(res["failed"] for res in results),
                "metrics": {m: spread([res["metrics"][m]["value"] for res in results])
                            for m in metrics},
            }
        wins = {}
        for m in metrics:
            sign = -1.0 if better.get(m, "lower") == "lower" else 1.0
            wins[m] = sum(sign * (p["change"]["result"]["metrics"][m]["value"]
                                  - p["parent"]["result"]["metrics"][m]["value"]) > 0
                          for p in complete)
        out[workload] = {
            "pairs": len(complete),
            "seeds": [p["parent"]["seed"] for p in complete],
            "sides": sides,
            "change_wins_pairs": wins,
        }
    return out


def write_bench(path: Path, runs: list[dict], better: dict[str, str], base: dict) -> dict:
    """``base`` with the runs, machine facts and recomputed summaries, written to ``path``."""
    doc = dict(base)
    doc["command"] = COMMAND
    doc["protocol"] = PROTOCOL
    doc["runs"] = runs
    doc["machine"] = {}
    for r in runs:
        doc["machine"].setdefault(r["workload"], r["machine"])
    doc["summary"] = summarize(runs, better)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--note", help="what the runs are, stored as the file's note")
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base = json.loads(args.out.read_text()) if args.out.is_file() else {}
    runs = list(base.get("runs", []))
    if args.note:
        base["note"] = args.note
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # pairs continue the numbering of earlier runs of the same workload
    first = 1 + max((r["pair"] for r in runs if r["workload"] == args.workload), default=-1)
    for k, seed in enumerate(args.seeds, start=first):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            run = run_once(trees[side], args.workload, seed)
            runs.append({"workload": args.workload, "pair": k, "seed": seed, "side": side,
                         **run})
            m = run["result"]["metrics"]
            print(f"{args.workload} seed {seed} {side}: pipeline_s "
                  f"{m['pipeline_s']['value']:.3f} failed {run['result']['failed']}",
                  flush=True)
        write_bench(args.out, runs, better, base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
