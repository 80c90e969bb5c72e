"""Check that two checkouts write the same files from the same CLI chains and factors.

    python3 scripts/equiv_ab.py --parent DIR --change DIR --out FILE

For each tree, one subprocess with the tree's src/ on PYTHONPATH and one
BLAS thread runs in-process (the CLI through ``lrcompress.cli.main``):

- the desk chain: for each of the benchmark's desk teachers 0-3,
  gen-teacher and calibrate, then for each of ``--mode linear`` and
  ``--mode parabolic`` fermigrad, compress with and without --pivga and
  compare (uniform and brute force), with fermigrad and compare in that mode;
- the fixture chain: the 2x1024^2 fixture of acceptance test 07 through
  the same six commands;
- the pivga-serve write side: for each of the benchmark's pivga-serve
  seeds 0 and 1, ``pivga_factorize`` and ``save_model_package`` of its
  2048^2, r=512 factors.

Every command's flags are the benchmark's own (``desk_configs`` and
``fixture_configs`` in perfbench/workloads.py of this checkout), and so are
the pivga-serve factors (``PivgaServeWorkload``), which both trees read
from the same .npy files. Both trees write into same-named directories
(every path is relative to the tree's own work directory), so reports name
the same paths. FILE gets each command's exit code, each file's byte
identity, the largest relative difference of every trajectory CSV column
and of every numeric report field (``wall_time_s`` and ``timings_s``
excluded), the leaf paths of a JSON file that only one side has, and a
summary. A file matches if its bytes are identical or, for JSON, if it is
identical apart from the excluded fields. The script exits 1 unless all
files match with no difference and every command succeeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
from perfbench import workloads as wl  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXCLUDED = ("wall_time_s", "timings_s")
SIDES = ("parent", "change")
TEACHERS = (0, 1, 2, 3)
MODES = ("linear", "parabolic")
# the seed of compare's evaluation set (the benchmark draws it per run)
COMPARE_SEED = 1
FIXTURE_DIR = "fixture"
SERVE_SEEDS = (0, 1)
SERVE_DIR = "pivga-serve"
# the pivga-serve factors both trees read, beside their work directories
FACTORS_DIR = "factors"

# Runs each argv of the JSON object's "argvs" through lrcompress.cli.main,
# then writes the PivGa package of each (A.npy, B.npy, out) of its "serve"
# list, and prints one JSON line with each exit code.
DRIVER = """
import contextlib, io, json, sys
import numpy as np
from lrcompress import LowRankFactors, matrixio, pivga_factorize
from lrcompress.cli import main
jobs = json.load(sys.stdin)
codes = []
for argv in jobs["argvs"]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes.append({"argv": argv, "exit": main(argv), "stderr": err.getvalue().strip()})
for a, b, out in jobs["serve"]:
    try:
        pf = pivga_factorize(LowRankFactors(A=np.load(a), B=np.load(b)))
        matrixio.save_model_package(out, None, [pf])
        code, err = 0, ""
    except Exception as exc:
        code, err = 1, repr(exc)
    codes.append({"argv": ["pivga_factorize+save_model_package", a, b, out],
                  "exit": code, "stderr": err})
print(json.dumps(codes))
"""


def producer_argvs(d: str, c) -> list[list[str]]:
    """gen-teacher and calibrate of config ``c``, writing under ``d``."""
    return [["gen-teacher", "--out", f"{d}/teacher", *c.gen],
            ["calibrate", "--model", f"{d}/teacher", "--out", f"{d}/calib", *c.calibrate]]


def consumer_argvs(d: str, src: str, fermi: list, compare: list) -> list[list[str]]:
    """fermigrad, compress with and without --pivga and compare of the teacher
    and calibration under ``src``, writing under ``d``."""
    common = ["--model", f"{src}/teacher", "--calib", f"{src}/calib"]
    R = f"{d}/ranks.json"
    return [
        ["fermigrad", *common, *fermi, "--out-ranks", R, "--trajectory",
         f"{d}/trajectory.csv", "--report", f"{d}/fermigrad.json"],
        ["compress", *common, "--ranks", R, "--pivga", "--out", f"{d}/student",
         "--report", f"{d}/compress.json"],
        ["compress", *common, "--ranks", R, "--out", f"{d}/student_plain",
         "--report", f"{d}/compress_plain.json"],
        ["compare", *common, "--ranks", f"optimized={R}", *compare,
         "--out", f"{d}/compare.json"],
    ]


def desk_consumer_argvs(d: str, src: str, c, mode: str) -> list[list[str]]:
    """``consumer_argvs`` of desk config ``c``, with fermigrad and compare in ``mode``."""
    return consumer_argvs(d, src, wl._with_flag(c.fermigrad, "--mode", mode),
                          [*c.compare, "--mode", mode])


def chain_argvs(teachers, modes, fixture: bool):
    """The directories the chains write into and every command of the chains,
    in order, with paths relative to the work directory."""
    desk = wl.desk_configs(COMPARE_SEED)
    dirs, argvs = [], []
    for t in teachers:
        c = desk[t]
        d = f"desk/{c.label}"
        argvs += producer_argvs(d, c)
        for mode in modes:
            dirs.append(f"{d}/{mode}")
            argvs += desk_consumer_argvs(f"{d}/{mode}", d, c, mode)
    if fixture:
        c, = wl.fixture_configs(COMPARE_SEED, Path(FIXTURE_DIR, "spec.json"))
        dirs.append(FIXTURE_DIR)
        argvs += producer_argvs(FIXTURE_DIR, c)
        argvs += consumer_argvs(FIXTURE_DIR, FIXTURE_DIR, c.fermigrad, c.compare)
    return dirs, argvs


def write_serve_factors(work: Path, seeds) -> list[list[str]]:
    """Save the factors of each pivga-serve seed under ``work``; returns the
    (A, B, package) paths of each, relative to a tree's work directory."""
    jobs = []
    for seed in seeds:
        # one request: only the factors are used, and the inputs drawn after them stay small
        f = wl.PivgaServeWorkload(seed, work, requests=1).factors
        src = work / FACTORS_DIR / f"seed{seed}"
        src.mkdir(parents=True)
        np.save(src / "A.npy", f.A)
        np.save(src / "B.npy", f.B)
        rel = f"../{FACTORS_DIR}/seed{seed}"
        jobs.append([f"{rel}/A.npy", f"{rel}/B.npy", f"{SERVE_DIR}/seed{seed}/student"])
    return jobs


def run_tree(tree: Path, work: Path, dirs: list[str], argvs: list[list[str]],
             serve: list[list[str]]) -> list[dict]:
    """Run the chains and write the ``serve`` packages from ``tree`` in ``work``;
    returns each command's exit code."""
    work.mkdir()
    for d in dirs:
        (work / d).mkdir(parents=True)
    if FIXTURE_DIR in dirs:
        (work / FIXTURE_DIR / "spec.json").write_text(json.dumps(wl.FIXTURE_SPEC))
    env = {**os.environ, **{v: "1" for v in THREAD_VARS}, "PYTHONPATH": str(tree / "src")}
    jobs = json.dumps({"argvs": argvs, "serve": serve})
    proc = subprocess.run([sys.executable, "-c", DRIVER], input=jobs, env=env,
                          cwd=work, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rel_diff(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values (NaNs included), inf for a NaN
    against a number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def leaves(value, path: str = ""):
    """(path, leaf) of every leaf of a JSON value, excluded keys left out."""
    if isinstance(value, dict):
        for key in sorted(value):
            if key not in EXCLUDED:
                yield from leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_json(a: Path, b: Path) -> tuple[bool, dict, dict]:
    """Whether two JSON files agree apart from the excluded fields, the
    largest relative difference of each numeric field, and the leaf paths
    only one side has (``only_in_parent`` and ``only_in_change``, each left
    out when empty)."""
    la = dict(leaves(json.loads(a.read_text())))
    lb = dict(leaves(json.loads(b.read_text())))
    diffs = {k: rel_diff(float(la[k]), float(lb[k])) for k in la.keys() & lb.keys()
             if _is_number(la[k]) and _is_number(lb[k])}
    same = la.keys() == lb.keys() and all(
        diffs[k] == 0.0 if k in diffs else la[k] == lb[k] for k in la)
    only = {f"only_in_{side}": sorted(keys) for side, keys in
            (("parent", la.keys() - lb.keys()), ("change", lb.keys() - la.keys())) if keys}
    return same, dict(sorted(diffs.items())), only


def compare_csv(a: Path, b: Path) -> dict:
    """Largest relative difference of each column of two trajectory CSVs
    (inf where the row counts or headers differ)."""
    ra = [line.split(",") for line in a.read_text().split()]
    rb = [line.split(",") for line in b.read_text().split()]
    if ra[0] != rb[0] or len(ra) != len(rb):
        return {col: math.inf for col in ra[0]}
    return {col: max((rel_diff(float(x[i]), float(y[i])) for x, y in zip(ra[1:], rb[1:])),
                     default=0.0)
            for i, col in enumerate(ra[0])}


def compare_trees(pa: Path, pb: Path) -> tuple[dict, dict]:
    """Per file under either directory: byte identity and whether it matches,
    and for JSON the leaf paths only one side has; per CSV and JSON file: the
    largest relative difference of each column or field."""
    names = sorted({str(p.relative_to(root)) for root in (pa, pb)
                    for p in root.rglob("*") if p.is_file()})
    files, diffs = {}, {}
    for name in names:
        a, b = pa / name, pb / name
        if not (a.is_file() and b.is_file()):
            files[name] = {"identical_bytes": False, "match": False,
                           "missing_in": "parent" if not a.is_file() else "change"}
            continue
        identical = a.read_bytes() == b.read_bytes()
        match, only = identical, {}
        if name.endswith(".json"):
            same, diffs[name], only = compare_json(a, b)
            match = identical or same
        elif name.endswith(".csv"):
            diffs[name] = compare_csv(a, b)
        files[name] = {"identical_bytes": identical, "match": match, **only}
    return files, diffs


def summarize(commands: dict, files: dict, diffs: dict) -> dict:
    failed = [c["argv"] for side in SIDES for c in commands[side] if c["exit"] != 0]
    largest = max((v for d in diffs.values() for v in d.values()), default=0.0)
    mismatched = [name for name, f in files.items() if not f["match"]]
    return {
        "files": len(files),
        "identical_bytes": sum(f["identical_bytes"] for f in files.values()),
        "matching": len(files) - len(mismatched),
        "mismatched": mismatched,
        "failed_commands": failed,
        "largest_rel_diff": largest,
        "equivalent": not mismatched and not failed and largest == 0.0,
    }


def check(parent: Path, change: Path, out: Path, teachers, modes, fixture: bool,
          serve_seeds=()) -> dict:
    """Run the chains of the given desk teachers and modes, the fixture chain
    if ``fixture``, and the pivga-serve write side of each of ``serve_seeds``
    from both trees; write the comparison to ``out`` and return it."""
    dirs, argvs = chain_argvs(teachers, modes, fixture)
    trees = {"parent": parent.resolve(), "change": change.resolve()}
    with tempfile.TemporaryDirectory(prefix="equiv_ab-") as tmp:
        work = Path(tmp)
        serve = write_serve_factors(work, serve_seeds)
        commands = {side: run_tree(trees[side], work / side, dirs, argvs, serve)
                    for side in SIDES}
        files, diffs = compare_trees(work / "parent", work / "change")
    doc = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "scope": {"teachers": list(teachers), "modes": list(modes), "fixture": fixture,
                  "pivga_serve_seeds": list(serve_seeds)},
        "excluded_fields": list(EXCLUDED),
        "commands": commands,
        "files": files,
        "max_rel_diff": diffs,
        "summary": summarize(commands, files, diffs),
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    s = check(args.parent, args.change, args.out, TEACHERS, MODES, True, SERVE_SEEDS)["summary"]
    print(f"{s['matching']}/{s['files']} files match ({s['identical_bytes']} byte-identical); "
          f"largest relative difference {s['largest_rel_diff']:.3g}; "
          f"{len(s['failed_commands'])} failed commands; equivalent: {s['equivalent']}")
    return 0 if s["equivalent"] else 1


if __name__ == "__main__":
    sys.exit(main())
