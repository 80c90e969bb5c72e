"""Property tests: every CLI run ends in a documented exit code, and a failing
run prints exactly one JSON line to stderr and leaves its inputs untouched.

In the first, each example starts from a valid run of one of the five
subcommands on a 2-layer 16x16 teacher and makes one or two changes to its
argv, each a flag dropped, duplicated or retyped, a value replaced by an edge
value, or an output aimed at one of the run's inputs. Whatever the outcome,
every file of the input packages keeps its sha256.

In the second, each example is a ``gen-teacher --spec`` file of that teacher
with one or two fields, or entries of list fields, replaced by edge values.
A run warns of nothing, and a teacher it writes has finite, nonzero weights.
"""

import copy
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from lrcompress import matrixio as mio
from lrcompress import toymodels as tm
from lrcompress.cli import EXIT_OK, main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EXIT_CODES = {0, 2, 3, 4, 5}
# Edge values a flag's value is replaced by. 2**63 is one past int64 and far
# beyond any size numpy can allocate; an --iters that large need not end.
# 1e308 is finite, but its product with a parameter count is not.
EDGE_VALUES = ["0", "-1", str(2**63), "1e308", "nan", "inf", ""]
# Values of another type a flag's value is retyped to.
RETYPED = ["x", "1.5", "[]"]

SPEC = {
    "layer_shapes": [[16, 16], [16, 16]],
    "planted_ranks": [3, 12],
    "spectrum_decay": 3.0,
    "noise_floor": 1e-3,
    "output_dim": 16,
    "nonlinearity": "tanh",
    "seed": 5,
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input packages, and each subcommand's valid run as (flag, value) pairs.

    Outputs are relative paths, so each run writes into its own working
    directory. A value of None marks a flag that takes none.
    """
    root = tmp_path_factory.mktemp("clifuzz")
    spec = root / "spec" / "spec.json"
    spec.parent.mkdir()
    spec.write_text(json.dumps(SPEC))
    teacher, calib, ranks = root / "teacher", root / "calib", root / "ranks.json"
    assert main(["gen-teacher", "--spec", str(spec), "--out", str(teacher)]) == EXIT_OK
    assert main(["calibrate", "--model", str(teacher), "--samples", "64", "--seed", "1",
                 "--out", str(calib)]) == EXIT_OK
    ranks.write_text(json.dumps({"ranks": [4, 8]}))
    T, C, R = str(teacher), str(calib), str(ranks)
    runs = {
        "gen-teacher": [("--spec", str(spec)), ("--seed", "3"), ("--out", "t")],
        "calibrate": [("--model", T), ("--samples", "64"), ("--seed", "2"), ("--out", "c")],
        "compress": [("--model", T), ("--calib", C), ("--ranks", R), ("--pivga", None),
                     ("--out", "s"), ("--report", "rep.json")],
        "fermigrad": [("--model", T), ("--calib", C), ("--target-ratio", "0.6"),
                      ("--r-min", "2"), ("--n-scale", "1e7"), ("--iters", "20"),
                      ("--kl-samples", "64"),
                      ("--out-ranks", "r.json"), ("--trajectory", "t.csv"),
                      ("--report", "f.json")],
        "compare": [("--model", T), ("--calib", C), ("--ranks", f"mine={R}"),
                    ("--uniform", None), ("--brute-force", None), ("--grid-step", "4"),
                    ("--r-min", "2"), ("--target-ratio", "0.6"), ("--samples", "64"),
                    ("--out", "cmp.json")],
    }
    # paths an output is aimed at: an input package itself, or a path inside it
    aimed = {
        "gen-teacher": [str(spec)],
        "calibrate": [T, str(teacher / "manifest.json"), str(teacher / "sub")],
        "compress": [T, C, R, str(calib / "manifest.json"), str(teacher / "sub")],
        "fermigrad": [T, C, str(teacher / "manifest.json"), str(calib / "sub")],
        "compare": [T, C, R, str(calib / "manifest.json")],
    }
    outputs = {"--out", "--report", "--out-ranks", "--trajectory"}
    files = [spec, ranks, *teacher.iterdir(), *calib.iterdir()]
    return runs, aimed, outputs, files


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _change(draw, pairs, aimed, outputs):
    """Make one change to ``pairs`` in place."""
    i = draw(st.integers(0, len(pairs) - 1))
    flag, value = pairs[i]
    kinds = ["drop", "duplicate", "retype"]
    if value is not None:
        kinds.append("edge")
    if flag in outputs:
        kinds.append("aim")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del pairs[i]
    elif kind == "duplicate":
        pairs.insert(i + 1, pairs[i])
    elif kind == "retype":
        pairs[i] = (flag, draw(st.sampled_from(RETYPED)))
    elif kind == "edge":
        edges = [v for v in EDGE_VALUES if not (flag == "--iters" and v == str(2**63))]
        pairs[i] = (flag, draw(st.sampled_from(edges)))
    else:
        pairs[i] = (flag, draw(st.sampled_from(aimed)))


@st.composite
def mutations(draw, runs, aimed, outputs):
    """One subcommand's argv with one or two changes."""
    command = draw(st.sampled_from(sorted(runs)))
    pairs = list(runs[command])
    for _ in range(draw(st.integers(1, 2))):
        _change(draw, pairs, aimed[command], outputs)
    argv = [command]
    for flag, value in pairs:
        argv += [flag] if value is None else [flag, value]
    return argv


def test_one_json_line_contract(inputs, capsys):
    runs, aimed, outputs, files = inputs
    original = {p: p.read_bytes() for p in files}
    digests = {p: _sha256(p) for p in files}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutations(runs, aimed, outputs))
    def check(argv):
        capsys.readouterr()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                code = main(argv)
            finally:
                os.chdir(cwd)
        err = capsys.readouterr().err
        assert code in EXIT_CODES, (argv, code)
        if code != EXIT_OK:
            lines = err.strip().splitlines()
            assert len(lines) == 1, (argv, err)
            payload = json.loads(lines[0])
            assert set(payload) == {"error", "message"}, (argv, payload)
            assert "Traceback" not in err
        changed = [p for p in files if _sha256(p) != digests[p]]
        # put the inputs back, so that only the run that changed them fails
        for p in changed:
            p.write_bytes(original[p])
        assert not changed, (argv, changed)

    check()


# Edge values a spec field, or one entry of a list field, is replaced by.
SPEC_EDGES = [0, -1, 1e308, -1e308, 2**63, "", [], None]
# Layer sizes far beyond memory. Building such a teacher is made to fail as
# numpy's allocation would (see test_spec_field_contract): a real attempt
# may be killed, not refused.
HUGE_SIZES = [10**7, 2**31]
MAX_ROWS = 4096


def _spec_fields():
    """A copy of the first test's spec with every optional field given, and a
    per-layer spectrum_decay, so that each field can be drawn."""
    return {**copy.deepcopy(SPEC), "spectrum_decay": [3.0, 2.0], "signal_gain": 5.0}


@st.composite
def spec_mutations(draw):
    """A spec with one or two fields, or entries of list fields, replaced.

    The second target is never the first or nested under it: a replaced
    ``layer_shapes`` has no entries left to edit.
    """
    spec = _spec_fields()
    targets = [(key,) for key in sorted(spec)]
    targets += [("layer_shapes", l, i) for l in range(2) for i in range(2)]
    targets += [(key, l) for key in ("planted_ranks", "spectrum_decay") for l in range(2)]
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(targets))
        targets = [t for t in targets if t[:len(target)] != target]
        edges = SPEC_EDGES + HUGE_SIZES if target[0] == "layer_shapes" and len(target) == 3 \
            else SPEC_EDGES
        *path, last = target
        holder = spec
        for key in path:
            holder = holder[key]
        holder[last] = draw(st.sampled_from(edges))
    return spec


def test_spec_field_contract(capsys, monkeypatch):
    orthonormal = tm._seeded_orthonormal

    def refuse_huge(rng, rows, cols):
        if rows > MAX_ROWS:
            raise MemoryError(f"Unable to allocate an array with shape ({rows}, {rows}) "
                              "and data type float64")
        return orthonormal(rng, rows, cols)

    monkeypatch.setattr(tm, "_seeded_orthonormal", refuse_huge)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(spec_mutations())
    def check(spec):
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "spec.json", Path(tmp) / "t"
            path.write_text(json.dumps(spec))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["gen-teacher", "--spec", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert not caught, (spec, [str(w.message) for w in caught])
            assert code in EXIT_CODES, (spec, code)
            if code == EXIT_OK:
                for layer in mio.load_model_package(out).layers:
                    W = layer.payload
                    assert np.isfinite(W).all() and np.any(W), spec
            else:
                lines = err.strip().splitlines()
                assert len(lines) == 1, (spec, err)
                assert set(json.loads(lines[0])) == {"error", "message"}, (spec, err)
                assert not out.exists(), spec

    check()
