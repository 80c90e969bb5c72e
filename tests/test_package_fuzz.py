"""Property test: a damaged package fails with PackageFormatError only.

Each example takes a small saved package, either a model package (dense +
lowrank + pivga layers) or a calibration package holding full-rank factors,
and applies one damage: drop or retype a manifest key, truncate a file, or
overwrite one of its bytes. Loading may then fail, but only with
PackageFormatError (or OSError for a file that is gone); a package that
still loads must hold only finite values and run. A further damage
overwrites one whole float64 value of a matrix file with NaN or Inf, which
loading must refuse. Last, damaged desk calibration packages are handed to
the fermigrad, compress and compare commands, and damaged desk teacher
packages to those and calibrate. Each must exit 0, 3 or 4, and on a
refusal print one JSON line and write nothing.
"""

import contextlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lrcompress import PackageFormatError, pivga_factorize, plain_svd_compress
from lrcompress import fermigrad
from lrcompress import matrixio as mio
from lrcompress import toymodels as tm
from lrcompress.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Values of other JSON types that a manifest key is retyped to.
RETYPED = [None, True, 0, -1, 3, 2**70, 1.5, "x", "", [], [4], [4, 4], {}, {"a": 1}]
# Values one whole payload value is overwritten with.
NONFINITE = [np.nan, np.inf, -np.inf]


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    rng = np.random.default_rng(0)
    W = rng.standard_normal((8, 8))
    f = plain_svd_compress(rng.standard_normal((8, 8)), 3)
    pf = pivga_factorize(plain_svd_compress(rng.standard_normal((6, 8)), 3))
    out = tmp_path_factory.mktemp("fuzz") / "pkg"
    mio.save_model_package(out, tm.default_spec(seed=1), [W, f, pf])
    return out


@pytest.fixture(scope="module")
def calib_package(tmp_path_factory):
    """A calibration package with factors, and the teacher it was made for."""
    spec = tm.ToyModelSpec(layer_shapes=[(6, 8), (5, 6)], planted_ranks=[2, 3])
    model = tm.build_teacher(spec)
    mats = tm.layer_calibration_matrices(model, tm.gen_calibration(spec, 40, seed=2))
    tm.attach_factors_from_calibration(model, mats)
    out = tmp_path_factory.mktemp("fuzz") / "calib"
    mio.save_calibration_package(out, mats, samples=40, seed=2, model=model)
    return out, model


def _all_finite(matrices) -> bool:
    return all(np.isfinite(M).all() for M in matrices)


def _key_paths(manifest) -> list:
    """Paths (tuples of keys/indices) to every key of the manifest worth damaging."""
    paths = [(k,) for k in manifest]
    for l, entry in enumerate(manifest["layers"]):
        paths += [("layers", l, k) for k in entry]
        paths += [("layers", l, k, sub) for k, files in entry.items()
                  if isinstance(files, dict) for sub in files]
    return paths


@st.composite
def damages(draw, package):
    manifest = json.loads((package / "manifest.json").read_text())
    kind = draw(st.sampled_from(["drop", "retype", "truncate", "corrupt"]))
    if kind in ("drop", "retype"):
        path = draw(st.sampled_from(_key_paths(manifest)))
        return kind, path, draw(st.sampled_from(RETYPED))
    files = sorted(p.name for p in package.iterdir() if p.name != "manifest.json")
    name = draw(st.sampled_from(files))
    size = (package / name).stat().st_size
    return kind, name, (draw(st.integers(0, size - 1)), draw(st.integers(0, 255)))


@st.composite
def nonfinite_damages(draw, package):
    """One whole float64 value of one matrix file overwritten with NaN or +-Inf."""
    files = sorted(p.name for p in package.iterdir() if p.suffix == ".lrmx")
    name = draw(st.sampled_from(files))
    values = ((package / name).stat().st_size - mio._HEADER.size) // 8
    offset = mio._HEADER.size + 8 * draw(st.integers(0, values - 1))
    return "nonfinite", name, (offset, draw(st.sampled_from(NONFINITE)))


def _apply(pkg_dir: Path, damage) -> Path | None:
    """Damage the package in place; returns the damaged data file, if any."""
    kind, where, value = damage
    if kind in ("drop", "retype"):
        manifest = json.loads((pkg_dir / "manifest.json").read_text())
        node = manifest
        for key in where[:-1]:
            node = node[key]
        if kind == "drop":
            del node[where[-1]]
        else:
            node[where[-1]] = value
        (pkg_dir / "manifest.json").write_text(json.dumps(manifest))
        return None
    path = pkg_dir / where
    raw = bytearray(path.read_bytes())
    offset, new = value
    if kind == "truncate":
        del raw[offset:]
    elif kind == "nonfinite":
        raw[offset:offset + 8] = struct.pack("<d", new)
    else:
        raw[offset] = new
    path.write_bytes(bytes(raw))
    return path


def test_damaged_package_fails_cleanly(package):
    X = np.random.default_rng(1).standard_normal((8, 5))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(damages(package))
    def check(damage):
        with tempfile.TemporaryDirectory() as tmp:
            pkg_dir = Path(tmp) / "pkg"
            shutil.copytree(package, pkg_dir)
            damaged = _apply(pkg_dir, damage)
            if damaged is not None:
                reader = mio.read_indices if damaged.suffix == ".idx" else mio.read_matrix
                try:
                    reader(damaged)
                except PackageFormatError:
                    pass
            try:
                loaded = mio.load_model_package(pkg_dir)
            except (PackageFormatError, OSError):
                return
            W, f, pf = (l.payload for l in loaded.layers)
            assert _all_finite([W, f.A, f.B, pf.Cmat, pf.D])
            assert mio.package_forward(loaded, X).shape == (6, 5)

    check()


def test_damaged_calibration_factors_fail_cleanly(calib_package):
    package, model = calib_package
    X = np.random.default_rng(3).standard_normal((8, 5))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(damages(package))
    def check(damage):
        with tempfile.TemporaryDirectory() as tmp:
            pkg_dir = Path(tmp) / "calib"
            shutil.copytree(package, pkg_dir)
            damaged = _apply(pkg_dir, damage)
            if damaged is not None:
                try:
                    mio.read_matrix(damaged)
                except PackageFormatError:
                    pass
            try:
                factors = mio.load_calibration_factors(pkg_dir, model)
            except (PackageFormatError, OSError):
                return
            assert [f.shape for f in factors] == [(6, 8), (5, 6)]
            assert _all_finite([M for f in factors for M in (f.A, f.B)])
            assert fermigrad.run(factors, model.nonlinearity, X).shape == (5, 5)

    check()


@pytest.mark.parametrize("kind", ["model", "calib"])
def test_nonfinite_value_is_refused(kind, package, calib_package):
    if kind == "model":
        source, load = package, mio.load_model_package
    else:
        source, model = calib_package

        def load(pkg_dir):
            mio.load_calibration_package(pkg_dir)
            mio.load_calibration_factors(pkg_dir, model)

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(nonfinite_damages(source))
    def check(damage):
        with tempfile.TemporaryDirectory() as tmp:
            pkg_dir = Path(tmp) / "pkg"
            shutil.copytree(source, pkg_dir)
            damaged = _apply(pkg_dir, damage)
            message = f"{damaged.name}: payload holds NaN or Inf"
            with pytest.raises(PackageFormatError, match=message):
                mio.read_matrix(damaged)
            with pytest.raises(PackageFormatError, match=message):
                load(pkg_dir)

    check()


@pytest.fixture(scope="module")
def desk_chain(tmp_path_factory):
    """A desk teacher, its calibration package and a ranks file, made through the CLI."""
    root = tmp_path_factory.mktemp("fuzzcli")
    teacher, calib, ranks = root / "teacher", root / "calib", root / "ranks.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-teacher", "--seed", "0", "--out", str(teacher)]) == EXIT_OK
        assert main(["calibrate", "--model", str(teacher), "--samples", "128", "--seed", "11",
                     "--out", str(calib)]) == EXIT_OK
    ranks.write_text(json.dumps({"ranks": [8, 16, 24, 40]}))
    return teacher, calib, ranks


def _commands(teacher: Path, calib: Path, ranks: Path, out: Path) -> dict:
    """fermigrad, compress and compare on the package ``calib``, each writing only
    into its own directory under ``out``."""
    T, C = str(teacher), str(calib)
    f, k, q = out / "fermigrad", out / "compress", out / "compare"
    return {
        f: ["fermigrad", "--model", T, "--calib", C, "--target-ratio", "0.6", "--iters", "20",
            "--kl-samples", "64", "--out-ranks", str(f / "r.json"),
            "--trajectory", str(f / "t.csv"), "--report", str(f / "f.json")],
        k: ["compress", "--model", T, "--calib", C, "--ranks", str(ranks),
            "--out", str(k / "student"), "--report", str(k / "k.json")],
        q: ["compare", "--model", T, "--calib", C, "--ranks", f"mine={ranks}", "--uniform",
            "--target-ratio", "0.6", "--samples", "64", "--out", str(q / "q.json")],
    }


def test_damaged_calibration_package_under_the_cli(desk_chain):
    teacher, package, ranks = desk_chain

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(damages(package), nonfinite_damages(package)))
    def check(damage):
        with tempfile.TemporaryDirectory() as tmp:
            calib = Path(tmp) / "calib"
            shutil.copytree(package, calib)
            _apply(calib, damage)
            _check_exits(damage, _commands(teacher, calib, ranks, Path(tmp)))

    check()


def _check_exits(damage, commands: dict) -> None:
    """Run each argv of ``commands`` through the CLI: it exits 0, 3 or 4, and a
    refusal prints one JSON line and leaves its output directory empty."""
    for out, argv in commands.items():
        out.mkdir()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_IO, EXIT_FORMAT), (damage, argv[0], code)
        if code != EXIT_OK:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1, (damage, argv[0], lines)
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not any(out.iterdir()), (damage, argv[0])


def test_damaged_teacher_package_under_the_cli(desk_chain):
    package, _, ranks = desk_chain

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(damages(package), nonfinite_damages(package)))
    def check(damage):
        with tempfile.TemporaryDirectory() as tmp:
            teacher, c = Path(tmp) / "teacher", Path(tmp) / "calibrate"
            shutil.copytree(package, teacher)
            _apply(teacher, damage)
            # the later commands read what calibrate made of the damaged teacher
            commands = {c: ["calibrate", "--model", str(teacher), "--samples", "64",
                            "--seed", "11", "--out", str(c / "calib")]}
            commands.update(_commands(teacher, c / "calib", ranks, Path(tmp)))
            _check_exits(damage, commands)

    check()
