"""CLI pipeline: subcommands, determinism, exit codes, error mapping."""

import json
import shutil

import numpy as np
import pytest

from lrcompress import matrixio as mio
from lrcompress import toymodels as tm
from lrcompress.cli import EXIT_FORMAT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from lrcompress.svdcompress import plain_svd_compress


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small teacher + calibration shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "layer_shapes": [[16, 16], [16, 16]],
        "planted_ranks": [3, 12],
        "spectrum_decay": 3.0,
        "noise_floor": 1e-3,
        "output_dim": 16,
        "nonlinearity": "tanh",
        "seed": 5,
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    teacher = root / "teacher"
    calib = root / "calib"
    assert run(["gen-teacher", "--spec", str(spec_path), "--out", str(teacher)]) == EXIT_OK
    assert run(["calibrate", "--model", str(teacher), "--samples", "256",
                "--seed", "21", "--out", str(calib)]) == EXIT_OK
    return root, teacher, calib


class TestGenTeacher:
    def test_default_spec(self, tmp_path):
        out = tmp_path / "teacher"
        assert run(["gen-teacher", "--out", str(out), "--seed", "3"]) == EXIT_OK
        pkg = mio.load_model_package(out)
        assert len(pkg.layers) == 4
        assert pkg.spec.seed == 3

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen-teacher", "--out", str(a), "--seed", "9"])
        run(["gen-teacher", "--out", str(b), "--seed", "9"])
        for name in ("manifest.json", "layer_00.W.lrmx"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCalibrate:
    def test_deterministic_matrix_file(self, pipeline, tmp_path):
        _, teacher, _ = pipeline
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        for c in (c1, c2):
            assert run(["calibrate", "--model", str(teacher), "--samples", "128",
                        "--seed", "7", "--out", str(c)]) == EXIT_OK
        assert (c1 / "layer_00.C.lrmx").read_bytes() == (c2 / "layer_00.C.lrmx").read_bytes()
        assert (c1 / "layer_01.C.lrmx").read_bytes() == (c2 / "layer_01.C.lrmx").read_bytes()


class TestCompress:
    def test_full_rank_forward_equivalent(self, pipeline, tmp_path):
        root, teacher, calib = pipeline
        ranks = tmp_path / "full.json"
        ranks.write_text(json.dumps({"ranks": [16, 16]}))
        out = tmp_path / "student"
        assert run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--ranks", str(ranks), "--out", str(out)]) == EXIT_OK
        tpkg = mio.load_model_package(teacher)
        spkg = mio.load_model_package(out)
        X = tm.gen_calibration(tpkg.spec, 32, seed=99)
        yt = mio.package_forward(tpkg, X)
        ys = mio.package_forward(spkg, X)
        assert np.linalg.norm(yt - ys) <= 1e-8 * np.linalg.norm(yt)

    def test_pivga_package(self, pipeline, tmp_path):
        root, teacher, calib = pipeline
        out = tmp_path / "pivga_student"
        report = tmp_path / "report.json"
        assert run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--uniform", "0.5", "--pivga", "--out", str(out),
                    "--report", str(report)]) == EXIT_OK
        pkg = mio.load_model_package(out)
        assert all(l.kind == "pivga" for l in pkg.layers)
        rep = json.loads(report.read_text())
        assert rep["ranks"] == [8, 8]
        assert rep["stored_params"] == 2 * (8 * 32 - 64)
        assert "wall_time_s" in rep

    def test_uniform_fraction(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        out = tmp_path / "u"
        assert run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--uniform", "0.25", "--out", str(out)]) == EXIT_OK
        pkg = mio.load_model_package(out)
        assert [l.payload.rank for l in pkg.layers] == [4, 4]


class TestFermigrad:
    def test_run_and_outputs(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        ranks = tmp_path / "ranks.json"
        traj = tmp_path / "traj.csv"
        report = tmp_path / "report.json"
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--n-scale", "1e7",
                    "--step", "0.5", "--iters", "400", "--seed", "11",
                    "--out-ranks", str(ranks), "--trajectory", str(traj),
                    "--report", str(report)]) == EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["achieved_params"] <= rep["target_params"]
        rows = mio.read_trajectory_csv(traj)
        assert len(rows) == rep["iterations_run"]
        assert mio.read_ranks_file(ranks).tolist() == rep["final_ranks"]

    def test_byte_identical_reruns(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        trajs, reports = [], []
        for tag in ("x", "y"):
            ranks = tmp_path / f"r_{tag}.json"
            traj = tmp_path / f"t_{tag}.csv"
            report = tmp_path / f"rep_{tag}.json"
            assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                        "--target-ratio", "0.6", "--r-min", "2", "--n-scale", "1e7",
                        "--step", "0.5", "--iters", "150", "--seed", "4",
                        "--out-ranks", str(ranks), "--trajectory", str(traj),
                        "--report", str(report)]) == EXIT_OK
            trajs.append(traj.read_bytes())
            reports.append(json.loads(report.read_text()))
        assert trajs[0] == trajs[1]
        # reports are identical apart from the wall-time field
        for rep in reports:
            rep.pop("wall_time_s")
            rep["trajectory_csv"] = None
        assert reports[0] == reports[1]


class TestCompare:
    def test_table_and_report(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        ranks = tmp_path / "ranks.json"
        ranks.write_text(json.dumps({"ranks": [3, 6]}))
        out = tmp_path / "cmp.json"
        assert run(["compare", "--model", str(teacher), "--calib", str(calib),
                    "--ranks", f"mine={ranks}", "--uniform", "--brute-force",
                    "--target-ratio", "0.6", "--r-min", "2", "--grid-step", "1",
                    "--seed", "3", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        labels = [row["label"] for row in rep["allocations"]]
        assert labels == ["mine", "uniform", "brute-force"]
        table = capsys.readouterr().out
        assert "brute-force" in table

    def test_brute_force_not_worse(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        out = tmp_path / "cmp2.json"
        assert run(["compare", "--model", str(teacher), "--calib", str(calib),
                    "--uniform", "--brute-force", "--target-ratio", "0.6",
                    "--r-min", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        by_label = {row["label"]: row for row in rep["allocations"]}
        assert by_label["brute-force"]["kl"] <= by_label["uniform"]["kl"] + 1e-12


class TestDefaults:
    def test_fermigrad_defaults_match_documented_values(self):
        from lrcompress.cli import build_parser
        args = build_parser().parse_args(
            ["fermigrad", "--model", "m", "--calib", "c", "--out-ranks", "r"])
        assert args.T == 0.01
        assert args.r_min == 8
        assert args.rho0 == 1.0
        assert args.rho_max == 2000.0
        assert args.n_scale == 1e9
        assert 1.01 <= args.alpha <= 1.05
        assert args.step == 0.5


class TestErrorMapping:
    def test_missing_model_dir_is_io_error(self, tmp_path, capsys):
        code = run(["calibrate", "--model", str(tmp_path / "nope"),
                    "--samples", "8", "--seed", "0", "--out", str(tmp_path / "c")])
        assert code == EXIT_IO
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err

    def test_bad_manifest_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        code = run(["calibrate", "--model", str(bad), "--samples", "8",
                    "--seed", "0", "--out", str(tmp_path / "c")])
        assert code == EXIT_FORMAT
        assert json.loads(capsys.readouterr().err.strip())["error"] == "PackageFormatError"

    def test_infeasible_budget_is_numeric_error(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-params", "150", "--r-min", "8",
                    "--out-ranks", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InfeasibleBudget"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["fermigrad", "--bogus-flag"])
        assert exc.value.code == 2

    def test_missing_target_is_format_error(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--out-ranks", str(tmp_path / "r.json")])
        assert code == EXIT_FORMAT
        capsys.readouterr()

    def test_bad_config_value_is_usage_error(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--iters", "0",
                    "--out-ranks", str(tmp_path / "r.json")])
        assert code == 2
        capsys.readouterr()

    def test_unknown_spec_key_is_format_error(self, tmp_path, capsys):
        bad_spec = tmp_path / "spec.json"
        bad_spec.write_text(json.dumps({"layer_shapes": [[4, 4]],
                                        "planted_ranks": [2],
                                        "frobulation": 7}))
        code = run(["gen-teacher", "--spec", str(bad_spec),
                    "--out", str(tmp_path / "t")])
        assert code == EXIT_FORMAT
        assert json.loads(capsys.readouterr().err.strip())["error"] == "PackageFormatError"


def _one_error_line(capsys) -> dict:
    """The single JSON line a failing command prints to stderr."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def _edit_manifest(package, edit):
    path = package / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestMalformedInput:
    @pytest.mark.parametrize("key", ["files", "repr", "shape", "rank"])
    def test_manifest_entry_missing_key(self, pipeline, tmp_path, capsys, key):
        _, teacher, _ = pipeline
        pkg = mio.load_model_package(teacher)
        W0, W1 = (l.payload for l in pkg.layers)
        model = tmp_path / "model"
        mio.save_model_package(model, pkg.spec, [plain_svd_compress(W0, 4), W1])
        _edit_manifest(model, lambda m: m["layers"][0].pop(key))
        code = run(["calibrate", "--model", str(model), "--samples", "8",
                    "--seed", "0", "--out", str(tmp_path / "c")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"

    @pytest.mark.parametrize("content", ['{"rank": [3, 6]}', '[1.5, 6]', '["3", 6]',
                                         '{"ranks": 3}'])
    def test_malformed_ranks_file(self, pipeline, tmp_path, capsys, content):
        _, teacher, calib = pipeline
        ranks = tmp_path / "ranks.json"
        ranks.write_text(content)
        code = run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--ranks", str(ranks), "--out", str(tmp_path / "s")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"

    @pytest.mark.parametrize("key", ["name", "file", "dim"])
    def test_calibration_manifest_missing_key(self, pipeline, tmp_path, capsys, key):
        _, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        _edit_manifest(bad, lambda m: m["layers"][1].pop(key))
        code = run(["compress", "--model", str(teacher), "--calib", str(bad),
                    "--uniform", "0.5", "--out", str(tmp_path / "s")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"

    @pytest.mark.parametrize("fields", [
        {"noise_floor": "x"},
        {"nonlinearity": 5},
        {"layer_shapes": [[16, 16], [16, 12]]},
        {"spectrum_decay": [3.0]},
        {"signal_gain": float("nan")},
        {"layer_shapes": [], "planted_ranks": []},
    ], ids=["noise_floor_str", "nonlinearity_int", "shapes_not_chaining",
            "decay_per_layer_count", "signal_gain_nan", "no_layers"])
    def test_malformed_spec_fields(self, tmp_path, capsys, fields):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"layer_shapes": [[16, 16], [16, 16]],
                                    "planted_ranks": [4, 6], **fields}))
        code = run(["gen-teacher", "--spec", str(spec), "--out", str(tmp_path / "t")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"

    def test_spec_list_with_seed(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([[16, 16], [16, 16]]))
        code = run(["gen-teacher", "--spec", str(spec), "--seed", "3",
                    "--out", str(tmp_path / "t")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"


class TestNonFiniteFlags:
    @pytest.mark.parametrize("flags, topic", [
        (["-T", "nan"], "temperature"),
        (["--step", "inf", "--iters", "1"], "optimizer"),
        (["--rho0", "nan"], "rho0"),
        (["--alpha", "inf"], "alpha"),
        (["--rho-max", "inf"], "rho_max"),
        (["--n-scale", "nan"], "n_scale"),
        (["--mu-tol", "nan"], "optimizer"),
        (["--constraint-tol", "inf"], "optimizer"),
        (["--target-ratio", "inf"], "target-ratio"),
    ])
    def test_fermigrad_rejects(self, pipeline, tmp_path, capsys, flags, topic):
        _, teacher, calib = pipeline
        ranks = tmp_path / "r.json"
        argv = ["fermigrad", "--model", str(teacher), "--calib", str(calib),
                "--target-ratio", "0.6", "--r-min", "2", "--n-scale", "1e7",
                "--out-ranks", str(ranks)]
        code = run(argv + flags)
        assert code == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and topic in err["message"]
        assert not ranks.exists()

    def test_compress_rejects_nonfinite_uniform(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        out = tmp_path / "s"
        code = run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--uniform", "nan", "--out", str(out)])
        assert code == EXIT_USAGE
        assert _one_error_line(capsys)["error"] == "ValueError"
        assert not out.exists()
