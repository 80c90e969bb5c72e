"""CLI pipeline: subcommands, determinism, exit codes, error mapping."""

import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lrcompress
from lrcompress import fermigrad as fg
from lrcompress import linalg
from lrcompress import matrixio as mio
from lrcompress import toymodels as tm
from lrcompress.cli import (EXIT_FORMAT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                            _load_factored, main)
from lrcompress.errors import PackageFormatError
from lrcompress.svdcompress import plain_svd_compress


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small teacher + calibration shared across CLI tests, and a plain-list
    ranks file ``ranks.json`` that keeps half of each layer's rank cap."""
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
    (root / "ranks.json").write_text("[8, 8]")
    return root, teacher, calib


def _consumer_argvs(root, teacher, calib, out):
    """One fermigrad, compress and compare run on the given teacher and calibration;
    compress reads the ranks file of the pipeline under ``root``."""
    common = ["--model", str(teacher), "--calib", str(calib)]
    return {
        "fermigrad": ["fermigrad", *common, "--target-ratio", "0.6", "--r-min", "2",
                      "--n-scale", "1e7", "--iters", "20", "--out-ranks", str(out / "r.json")],
        "compress": ["compress", *common, "--ranks", str(root / "ranks.json"), "--pivga",
                     "--out", str(out / "student")],
        "compare": ["compare", *common, "--uniform", "--brute-force", "--grid-step", "4",
                    "--target-ratio", "0.6", "--r-min", "2", "--out", str(out / "cmp.json")],
    }


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

    def test_report_times_each_stage(self, pipeline, tmp_path, capsys):
        _, teacher, _ = pipeline
        capsys.readouterr()
        start = time.perf_counter()
        assert run(["calibrate", "--model", str(teacher), "--samples", "64",
                    "--out", str(tmp_path / "c")]) == EXIT_OK
        wall = time.perf_counter() - start
        stages = json.loads(capsys.readouterr().out)["timings_s"]
        assert sorted(stages) == ["calibrate", "factorize", "load", "write"]
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= wall


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
                    "--ranks", str(root / "ranks.json"), "--pivga", "--out", str(out),
                    "--report", str(report)]) == EXIT_OK
        pkg = mio.load_model_package(out)
        assert all(l.kind == "pivga" for l in pkg.layers)
        rep = json.loads(report.read_text())
        assert rep["ranks"] == [8, 8]
        assert rep["stored_params"] == 2 * (8 * 32 - 64)
        assert "wall_time_s" in rep

    def test_plain_list_ranks_file(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        students = []
        for name, ranks in [("plain", [4, 4]), ("fermigrad", {"ranks": [4, 4]})]:
            (tmp_path / f"{name}.json").write_text(json.dumps(ranks))
            assert run(["compress", "--model", str(teacher), "--calib", str(calib),
                        "--ranks", str(tmp_path / f"{name}.json"),
                        "--out", str(tmp_path / name)]) == EXIT_OK
            pkg = mio.load_model_package(tmp_path / name)
            assert [l.payload.rank for l in pkg.layers] == [4, 4]
            students.append(_files(tmp_path / name))
        assert students[0] == students[1]

    def test_report_times_each_stage(self, pipeline, tmp_path):
        root, teacher, calib = pipeline
        report = tmp_path / "report.json"
        assert run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--ranks", str(root / "ranks.json"), "--pivga",
                    "--out", str(tmp_path / "s"),
                    "--report", str(report)]) == EXIT_OK
        rep = json.loads(report.read_text())
        stages = rep["timings_s"]
        assert sorted(stages) == ["factorize", "load", "write"]
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= rep["wall_time_s"]


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
        # reports are identical apart from the wall-time and stage-time fields
        for rep in reports:
            rep.pop("wall_time_s")
            rep.pop("timings_s")
            rep["trajectory_csv"] = None
        assert reports[0] == reports[1]

    def test_report_times_each_stage(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        report = tmp_path / "report.json"
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--iters", "20",
                    "--out-ranks", str(tmp_path / "r.json"),
                    "--report", str(report)]) == EXIT_OK
        rep = json.loads(report.read_text())
        stages = rep["timings_s"]
        assert sorted(stages) == ["evaluate", "load", "optimize", "write"]
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= rep["wall_time_s"]

    @pytest.mark.parametrize("iters, reason", [(5, "iteration_cap"), (2000, "converged")])
    def test_report_says_why_it_stopped(self, pipeline, tmp_path, capsys, iters, reason):
        _, teacher, calib = pipeline
        traj, report = tmp_path / "traj.csv", tmp_path / "report.json"
        capsys.readouterr()
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--n-scale", "1e7",
                    "--step", "0.5", "--iters", str(iters), "--seed", "11",
                    "--out-ranks", str(tmp_path / "r.json"), "--trajectory", str(traj),
                    "--report", str(report)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        rep = json.loads(report.read_text())
        assert rep["stop_reason"] == printed["stop_reason"] == reason
        if reason == "iteration_cap":
            assert rep["iterations_run"] == iters
        else:
            assert rep["iterations_run"] < iters
        last = mio.read_trajectory_csv(traj)[-1]
        target = rep["target_params"]
        assert rep["final_violation"] == printed["final_violation"] \
            == abs(last["n_param"] - target) / target
        assert rep["budget_gap_params"] == printed["budget_gap_params"] \
            == target - rep["achieved_params"] >= 0


    def test_training_and_evaluation_draws(self, pipeline, tmp_path, monkeypatch):
        _, teacher, calib = pipeline
        seen = {}
        optimize, evaluate = fg.optimize_ranks, tm.evaluate_allocations

        def recording_optimize(model, data, *args):
            seen["train"] = data
            return optimize(model, data, *args)

        def recording_evaluate(model, data, *args):
            seen["eval"] = data
            return evaluate(model, data, *args)

        monkeypatch.setattr(fg, "optimize_ranks", recording_optimize)
        monkeypatch.setattr(tm, "evaluate_allocations", recording_evaluate)
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--iters", "5",
                    "--kl-samples", "48", "--seed", "8",
                    "--out-ranks", str(tmp_path / "r.json")]) == EXIT_OK
        monkeypatch.undo()
        spec = mio.load_model_package(teacher).spec
        assert np.array_equal(seen["train"], tm.gen_calibration(spec, 48, 8))
        assert np.array_equal(seen["eval"], tm.gen_calibration(spec, 48, 9))

    def _fermigrad_with_report(self, teacher, calib, tmp_path, capsys):
        """fermigrad at ratio 0.6 and r_min 2; returns its stdout line and report."""
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--n-scale", "1e7",
                    "--step", "0.5", "--iters", "400", "--kl-samples", "48", "--seed", "11",
                    "--out-ranks", str(tmp_path / "r.json"),
                    "--report", str(report)]) == EXIT_OK
        return json.loads(capsys.readouterr().out), json.loads(report.read_text())

    def test_uniform_row_scored_on_the_held_out_draw(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        printed, rep = self._fermigrad_with_report(teacher, calib, tmp_path, capsys)
        model = _load_factored(SimpleNamespace(model=str(teacher), calib=str(calib)))
        budget = fg.BudgetConstraint.from_shapes(
            model.spec.layer_shapes, n_target=rep["target_params"], mode="linear",
            n_inc=model.n_inc)
        uniform = fg.uniform_ranks(model.spec.layer_shapes, budget, r_min=2).ranks
        want, = tm.evaluate_allocations(model, tm.gen_calibration(model.spec, 48, 12),
                                        [uniform])
        assert rep["kl_uniform_eval"] == printed["kl_uniform_eval"] == want.kl
        assert rep["final_ranks"] != uniform.tolist()
        assert rep["equals_uniform"] is printed["equals_uniform"] is False

    def test_uniform_final_ranks_are_flagged_and_scored_once(self, pipeline, tmp_path,
                                                             capsys, monkeypatch):
        _, teacher, calib = pipeline
        optimize, hard_forward = fg.optimize_ranks, fg.hard_forward
        students = []

        def optimize_to_uniform(model, data, budget, fermi_cfg, *args):
            trajectory, _ = optimize(model, data, budget, fermi_cfg, *args)
            students.clear()   # count the held-out scoring's forwards only
            return trajectory, fg.uniform_ranks(model.spec.layer_shapes, budget,
                                                r_min=fermi_cfg.r_min)

        monkeypatch.setattr(fg, "optimize_ranks", optimize_to_uniform)
        monkeypatch.setattr(fg, "hard_forward",
                            lambda *a: students.append(tuple(a[3])) or hard_forward(*a))
        printed, rep = self._fermigrad_with_report(teacher, calib, tmp_path, capsys)
        assert rep["equals_uniform"] is printed["equals_uniform"] is True
        assert rep["kl_uniform_eval"] == rep["kl_eval"] == printed["kl_uniform_eval"]
        assert students == [tuple(rep["final_ranks"])]

    def test_overflow_outside_the_gates_is_a_numeric_error(self, pipeline, tmp_path,
                                                            capsys):
        # the penalty gradient overflows to inf: one JSON line, no warning
        _, teacher, calib = pipeline
        capsys.readouterr()
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--n-scale", "5e-324",
                    "--out-ranks", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC
        assert _one_error_line(capsys)["error"] == "NonFiniteGradient"
        assert not (tmp_path / "r.json").exists()


class TestFloat32Loop:
    """From FLOAT32_MIN_WIDTH on, the loop runs in float32."""

    def test_values_beyond_float32_are_a_non_finite_gradient(self, tmp_path, capsys):
        # a gain of 1e39 puts B_0 x and the logits past float32's 3.4e38 but well
        # inside float64, where the teacher and its calibration stay finite
        spec = {"layer_shapes": [[256, 256], [256, 256]], "planted_ranks": [64, 128],
                "seed": 3, "signal_gain": 1e39}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        teacher, calib, out = tmp_path / "teacher", tmp_path / "calib", tmp_path / "out"
        assert run(["gen-teacher", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(teacher)]) == EXIT_OK
        assert run(["calibrate", "--model", str(teacher), "--samples", "512", "--seed", "1",
                    "--out", str(calib)]) == EXIT_OK
        out.mkdir()
        capsys.readouterr()
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.75", "--step", "0.03", "--iters", "5",
                    "--kl-samples", "64", "--seed", "2", "--out-ranks", str(out / "r.json"),
                    "--report", str(out / "report.json"),
                    "--trajectory", str(out / "trajectory.csv")])
        assert code == EXIT_NUMERIC
        assert _one_error_line(capsys)["error"] == "NonFiniteGradient"
        assert list(out.iterdir()) == []


class TestStiffness:
    """A linear-mode run is refused at the iteration where its penalty step would diverge."""

    SPEC = {"layer_shapes": [[128, 64], [64, 128], [128, 64], [64, 128]],
            "planted_ranks": [4, 8, 16, 48], "seed": 20}

    @pytest.fixture(scope="class")
    def rectangular(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rect")
        (root / "spec.json").write_text(json.dumps(self.SPEC))
        teacher, calib = root / "teacher", root / "calib"
        assert run(["gen-teacher", "--spec", str(root / "spec.json"),
                    "--out", str(teacher)]) == EXIT_OK
        assert run(["calibrate", "--model", str(teacher), "--samples", "512", "--seed", "11",
                    "--out", str(calib)]) == EXIT_OK
        return teacher, calib

    def test_rectangular_linear_refused_parabolic_runs(self, rectangular, tmp_path, capsys):
        # step * rho_max * sum(a_l^2) / n_scale = 10 * 2000 * 4 * 192^2 / 1e9 = 2.95:
        # a linear-mode run would overshoot and end at the r_min ranks [8, 8, 8, 8]
        teacher, calib = rectangular
        argv = ["fermigrad", "--model", str(teacher), "--calib", str(calib),
                "--target-ratio", "0.6", "--step", "10", "--iters", "1500",
                "--kl-samples", "512", "--seed", "11"]
        capsys.readouterr()
        assert run([*argv, "--out-ranks", str(tmp_path / "linear.json")]) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError"
        assert "= 2.949 >= 2" in err["message"] and "--step" in err["message"] \
            and "--n-scale" in err["message"]
        assert list(tmp_path.iterdir()) == []
        # in parabolic mode the count slope a - 2 mu is below a, and the run converges
        assert run([*argv, "--mode", "parabolic",
                    "--out-ranks", str(tmp_path / "parabolic.json")]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["final_ranks"] == [30, 30, 30, 31]

    def test_overflowing_step_refused(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "2", "--step", "1e308",
                    "--out-ranks", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        assert "= inf >= 2" in _one_error_line(capsys)["message"]
        assert list(tmp_path.iterdir()) == []


class TestParabolicMode:
    """Parabolic (gauge-fixed) budgets through the CLI: the contract, not quality."""

    def test_fermigrad_stays_within_a_parabolic_budget(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        report = tmp_path / "report.json"
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--mode", "parabolic", "--target-ratio", "0.6", "--r-min", "2",
                    "--n-scale", "1e7", "--out-ranks", str(tmp_path / "r.json"),
                    "--report", str(report)]) == EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["config"]["mode"] == "parabolic"
        assert rep["stop_reason"] in ("converged", "iteration_cap")
        assert rep["achieved_params"] <= rep["target_params"]
        model = mio.load_model_package(teacher)
        budget = fg.BudgetConstraint.from_shapes(model.spec.layer_shapes,
                                                 rep["target_params"], mode="parabolic",
                                                 n_inc=model.n_inc)
        assert rep["achieved_params"] == fg.count_params(rep["final_ranks"], budget)

    def test_compare_baselines_within_a_parabolic_budget(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        out = tmp_path / "cmp.json"
        assert run(["compare", "--model", str(teacher), "--calib", str(calib),
                    "--mode", "parabolic", "--uniform", "--brute-force", "--grid-step", "4",
                    "--r-min", "2", "--target-ratio", "0.6", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["config"]["mode"] == "parabolic"
        rows = {row["label"]: row for row in rep["allocations"]}
        assert sorted(rows) == ["brute-force", "uniform"]
        for row in rows.values():
            assert row["params_parabolic"] <= rep["config"]["target_params"]


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

    def test_report_times_each_stage(self, pipeline, tmp_path):
        _, teacher, calib = pipeline
        out = tmp_path / "cmp.json"
        assert run(["compare", "--model", str(teacher), "--calib", str(calib),
                    "--uniform", "--target-ratio", "0.6", "--r-min", "2",
                    "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        stages = rep["timings_s"]
        assert sorted(stages) == ["evaluate", "load"]
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= rep["wall_time_s"]


class TestDefaults:
    def test_fermigrad_defaults_match_documented_values(self):
        from lrcompress.cli import build_parser
        args = build_parser().parse_args(
            ["fermigrad", "--model", "m", "--calib", "c", "--out-ranks", "r"])
        assert args.T == 0.01
        assert args.r_min == 8
        assert args.n_scale == 1e9
        assert args.step == 0.5
        sched = fg.RhoSchedule()
        assert sched.rho0 == 1.0
        assert sched.rho_max == 2000.0
        assert 1.01 <= sched.alpha <= 1.05


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

    def test_r_min_above_a_layer_cap_is_named(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        code = run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--r-min", "17",
                    "--out-ranks", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC
        err = _one_error_line(capsys)
        assert err == {"error": "InfeasibleBudget",
                       "message": "a layer cap is below r_min=17"}
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exit_code(self, capsys):
        for argv, topic in [(["fermigrad", "--model", "m", "--calib", "c", "--out-ranks", "r",
                              "--bogus-flag"], "unrecognized arguments: --bogus-flag"),
                            (["compress", "--model", "m", "--calib", "c"], "--out"),
                            (["calibrate", "--model", "m", "--samples", "abc", "--out", "c"],
                             "invalid int value")]:
            assert main(argv) == EXIT_USAGE
            err = _one_error_line(capsys)
            assert err["error"] == "ValueError" and topic in err["message"], argv

    @pytest.mark.parametrize("cmd, flags, topic", [
        ("fermigrad", ["--out-ranks", "r.json"], "--target-ratio is required"),
        ("compress", ["--out", "s"], "the following arguments are required: --ranks"),
        ("compare", ["--uniform"], "need --target-params"),
        ("compare", [], "nothing to compare"),
    ], ids=["target", "ranks", "uniform-needs-target", "nothing-to-compare"])
    def test_missing_flag_is_usage_error(self, pipeline, tmp_path, capsys, monkeypatch,
                                         cmd, flags, topic):
        _, teacher, calib = pipeline
        monkeypatch.chdir(tmp_path)
        code = run([cmd, "--model", str(teacher), "--calib", str(calib), *flags])
        assert code == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and topic in err["message"]
        assert list(tmp_path.iterdir()) == []

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
        root, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        _edit_manifest(bad, lambda m: m["layers"][1].pop(key))
        code = run(["compress", "--model", str(teacher), "--calib", str(bad),
                    "--ranks", str(root / "ranks.json"), "--out", str(tmp_path / "s")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"

    @pytest.mark.parametrize("fields", [
        {"noise_floor": "x"},
        {"nonlinearity": 5},
        {"layer_shapes": [[16, 16], [16, 12]]},
        {"spectrum_decay": [3.0]},
        {"signal_gain": float("nan")},
        {"layer_shapes": [], "planted_ranks": []},
        {"signal_gain": 0},
        {"noise_floor": -1e-3},
        {"seed": -1},
        {"signal_gain": 1e308},
        {"noise_floor": 1e308},
        {"spectrum_decay": -1000},
        {"signal_gain": 5e-324},
    ], ids=["noise_floor_str", "nonlinearity_int", "shapes_not_chaining",
            "decay_per_layer_count", "signal_gain_nan", "no_layers", "signal_gain_zero",
            "noise_floor_negative", "seed_negative", "signal_gain_overflows",
            "noise_floor_overflows", "spectrum_decay_overflows", "signal_gain_subnormal"])
    def test_malformed_spec_fields(self, tmp_path, capsys, fields):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"layer_shapes": [[16, 16], [16, 16]],
                                    "planted_ranks": [4, 6], **fields}))
        code = run(["gen-teacher", "--spec", str(spec), "--out", str(tmp_path / "t")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"
        assert not (tmp_path / "t").exists()

    def test_negative_seed_flag_with_spec_is_usage_error(self, pipeline, tmp_path, capsys):
        root, _, _ = pipeline
        for seed in ("-1", "18446744073709551616"):
            code = run(["gen-teacher", "--spec", str(root / "spec.json"), "--seed", seed,
                        "--out", str(tmp_path / "t")])
            assert code == EXIT_USAGE
            err = _one_error_line(capsys)
            assert err["error"] == "ValueError" and "seed" in err["message"]

    @pytest.mark.parametrize("seed", ["-1", "9223372036854775808", "18446744073709551616"])
    def test_seed_flag_outside_int64_is_usage_error(self, tmp_path, capsys, seed):
        code = run(["gen-teacher", "--seed", seed, "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and "seed" in err["message"]
        assert not (tmp_path / "t").exists()

    def test_spec_list_with_seed(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([[16, 16], [16, 16]]))
        code = run(["gen-teacher", "--spec", str(spec), "--seed", "3",
                    "--out", str(tmp_path / "t")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys)["error"] == "PackageFormatError"


    @pytest.mark.parametrize("flags", [["--brute-force", "--grid-step", "0"],
                                       ["--brute-force", "--grid-step", "-1"],
                                       ["--brute-force", "--r-min", "0"],
                                       ["--uniform", "--r-min", "0"]])
    def test_brute_force_grid_below_one_is_usage_error(self, pipeline, tmp_path, capsys,
                                                        flags):
        _, teacher, calib = pipeline
        out = tmp_path / "cmp.json"
        code = run(["compare", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", *flags, "--out", str(out)])
        assert code == EXIT_USAGE
        message = _one_error_line(capsys)["message"]
        assert "must be >= 1" in message
        assert flags[1].lstrip("-").replace("-", "_") in message
        assert not out.exists()

    @pytest.mark.parametrize("cmd, flags", [("compress", ["--out", "s"]), ("compare", [])])
    def test_ranks_file_of_wrong_length(self, pipeline, tmp_path, capsys, monkeypatch,
                                        cmd, flags):
        _, teacher, calib = pipeline
        monkeypatch.chdir(tmp_path)
        (tmp_path / "short.json").write_text("[3]")
        ranks = "short.json" if cmd == "compress" else "x=short.json"
        code = run([cmd, "--model", str(teacher), "--calib", str(calib),
                    "--ranks", ranks, *flags])
        assert code == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError"
        assert err["message"] == "1 ranks for 2 layers in short.json"

    @pytest.mark.parametrize("rank", [0, 17], ids=["zero", "cap-plus-one"])
    @pytest.mark.parametrize("cmd, flags", [("compress", ["--out", "s"]),
                                            ("compare", ["--out", "cmp.json"])])
    def test_ranks_file_out_of_range(self, pipeline, tmp_path, capsys, monkeypatch,
                                     cmd, flags, rank):
        _, teacher, calib = pipeline
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(json.dumps([rank, 8]))
        ranks = "bad.json" if cmd == "compress" else "x=bad.json"
        code = run([cmd, "--model", str(teacher), "--calib", str(calib),
                    "--ranks", ranks, *flags])
        assert code == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError"
        assert err["message"] == f"bad.json: layer 0 rank {rank} outside [1, 16]"
        assert [q.name for q in tmp_path.iterdir()] == ["bad.json"]


def _files(root) -> dict:
    """Every file under ``root`` with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestTeacherManifest:
    """A teacher package that disagrees with itself is refused by every command."""

    def _argvs(self, teacher, calib, tmp_path, n_layers):
        (tmp_path / "ranks.json").write_text(json.dumps([8] * n_layers))
        common = ["--model", str(teacher), "--calib", str(calib)]
        return {
            "calibrate": ["calibrate", "--model", str(teacher), "--samples", "64",
                          "--out", str(tmp_path / "c")],
            "compress": ["compress", *common, "--ranks", str(tmp_path / "ranks.json"),
                         "--out", str(tmp_path / "s")],
            "fermigrad": ["fermigrad", *common, "--target-ratio", "0.6", "--r-min", "2",
                          "--iters", "5", "--out-ranks", str(tmp_path / "r.json")],
        }

    @pytest.mark.parametrize("spec_edit", [
        {"layer_shapes": [[16, 16]], "planted_ranks": [3]},
        {"layer_shapes": [[16, 12], [12, 16]], "output_dim": 12},
    ], ids=["fewer-layers", "other-shapes"])
    def test_spec_disagreeing_with_weights_is_format_error(self, pipeline, tmp_path, capsys,
                                                            spec_edit):
        _, teacher, calib = pipeline
        bad = tmp_path / "teacher"
        shutil.copytree(teacher, bad)
        _edit_manifest(bad, lambda m: m["spec"].update(spec_edit))
        argvs = self._argvs(bad, calib, tmp_path, len(spec_edit["layer_shapes"]))
        before = _files(tmp_path)
        for cmd, argv in argvs.items():
            assert run(argv) == EXIT_FORMAT, cmd
            err = _one_error_line(capsys)
            assert err["error"] == "PackageFormatError" and "disagree" in err["message"], cmd
        assert _files(tmp_path) == before

    def test_negative_n_inc_is_format_error(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        bad = tmp_path / "teacher"
        shutil.copytree(teacher, bad)
        _edit_manifest(bad, lambda m: m.update(n_inc=-16000))
        argvs = self._argvs(bad, calib, tmp_path, 2)
        before = _files(tmp_path)
        for cmd, argv in argvs.items():
            assert run(argv) == EXIT_FORMAT, cmd
            err = _one_error_line(capsys)
            assert err["error"] == "PackageFormatError" and "'n_inc'" in err["message"], cmd
        assert _files(tmp_path) == before

    def test_nonfinite_weight_is_format_error(self, pipeline, tmp_path, capsys):
        _, teacher, calib = pipeline
        bad = tmp_path / "teacher"
        shutil.copytree(teacher, bad)
        W = mio.read_matrix(bad / "layer_01.W.lrmx")
        W[3, 2] = np.inf
        mio.write_matrix(bad / "layer_01.W.lrmx", W)
        argvs = self._argvs(bad, calib, tmp_path, 2)
        before = _files(tmp_path)
        for cmd, argv in argvs.items():
            assert run(argv) == EXIT_FORMAT, cmd
            err = _one_error_line(capsys)
            assert err["error"] == "PackageFormatError" and "NaN or Inf" in err["message"], cmd
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("kind, message", [
        ("student", "package is not a dense teacher package"),
        ("no-spec", "package has no model spec"),
    ], ids=["student", "no-spec"])
    def test_calibrate_needs_a_dense_teacher_with_spec(self, pipeline, tmp_path, capsys,
                                                       kind, message):
        _, teacher, _ = pipeline
        pkg = mio.load_model_package(teacher)
        W0, W1 = (l.payload for l in pkg.layers)
        model = tmp_path / "model"
        if kind == "student":
            mio.save_model_package(model, pkg.spec, [plain_svd_compress(W0, 4), W1])
        else:
            mio.save_model_package(model, None, [W0, W1])
        code = run(["calibrate", "--model", str(model), "--samples", "8",
                    "--seed", "0", "--out", str(tmp_path / "c")])
        assert code == EXIT_FORMAT
        assert _one_error_line(capsys) == {"error": "PackageFormatError", "message": message}
        assert not (tmp_path / "c").exists()


class TestManifestFileNames:
    """Every file a manifest names is a file in its package directory: a name
    that is a path, or a directory, is a format error before anything is read."""

    # (package, manifest edit, file of layer 1 the edited name stands for)
    WHERE = {
        "model-files": ("teacher", lambda m, name: m["layers"][1]["files"].update(W=name),
                        "layer_01.W.lrmx"),
        "calib-factors": ("calib", lambda m, name: m["layers"][1]["factors"].update(A=name),
                          "layer_01.A.lrmx"),
        "calib-file": ("calib", lambda m, name: m["layers"][1].update(file=name),
                       "layer_01.C.lrmx"),
    }
    NAMES = {
        "absolute": lambda pkg, file: str(pkg / file),
        "parent": lambda pkg, file: f"../{pkg.name}/{file}",
        "subdirectory": lambda pkg, file: f"sub/{file}",
        "dot": lambda pkg, file: ".",
        "dotdot": lambda pkg, file: "..",
        "empty": lambda pkg, file: "",
        "nul": lambda pkg, file: f"{file}\0",
    }

    def _damaged(self, pipeline, tmp_path, where, name):
        """Copies of the teacher and calibration in which one manifest names
        layer 1's file by ``name``; where that name is a path, it leads to a
        copy of the right file."""
        _, teacher, calib = pipeline
        shutil.copytree(teacher, tmp_path / "teacher")
        shutil.copytree(calib, tmp_path / "calib")
        package, edit, file = self.WHERE[where]
        pkg = tmp_path / package
        (pkg / "sub").mkdir()
        shutil.copy(pkg / file, pkg / "sub" / file)
        _edit_manifest(pkg, lambda m: edit(m, self.NAMES[name](pkg, file)))
        return tmp_path / "teacher", tmp_path / "calib"

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("where", WHERE)
    def test_library_refuses(self, pipeline, tmp_path, where, name):
        teacher, calib = self._damaged(pipeline, tmp_path, where, name)
        with pytest.raises(PackageFormatError, match="must be file name"):
            model = mio.load_model_package(teacher).to_toy_model()
            mio.load_calibration_factors(calib, model)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("where", WHERE)
    def test_cli_refuses(self, pipeline, tmp_path, capsys, where, name):
        teacher, calib = self._damaged(pipeline, tmp_path, where, name)
        root = pipeline[0]
        before = _files(tmp_path)
        capsys.readouterr()
        assert run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--ranks", str(root / "ranks.json"), "--out", str(tmp_path / "s"),
                    "--report", str(tmp_path / "report.json")]) == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError" and "file name" in err["message"]
        assert _files(tmp_path) == before


class TestOutputDirectory:
    @pytest.mark.parametrize("cmd, out", [("calibrate", "teacher"), ("compress", "teacher"),
                                          ("compress", "calib")])
    def test_out_that_is_an_input_is_usage_error(self, pipeline, tmp_path, capsys,
                                                 monkeypatch, cmd, out):
        root, teacher, calib = pipeline
        shutil.copytree(teacher, tmp_path / "teacher")
        shutil.copytree(calib, tmp_path / "calib")
        monkeypatch.chdir(tmp_path)
        inputs = ["--model", str(tmp_path / "teacher")]
        if cmd == "compress":
            inputs += ["--calib", str(tmp_path / "calib"), "--ranks", str(root / "ranks.json")]
        before = _files(tmp_path)
        # the inputs are given as absolute paths, --out as a relative one
        assert run([cmd, *inputs, "--out", f"./{out}"]) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and "--out" in err["message"]
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("cmd, flag, target", [
        ("fermigrad", "--out-ranks", "teacher/manifest.json"),
        ("fermigrad", "--report", "calib/manifest.json"),
        ("fermigrad", "--trajectory", "teacher/trajectory.csv"),
        ("compress", "--report", "calib/manifest.json"),
        ("compress", "--out", "teacher/student"),
        ("compare", "--out", "teacher/manifest.json"),
        ("calibrate", "--out", "teacher/calib"),
    ])
    def test_output_inside_an_input_is_usage_error(self, pipeline, tmp_path, capsys,
                                                   monkeypatch, cmd, flag, target):
        root, teacher, calib = pipeline
        shutil.copytree(teacher, tmp_path / "teacher")
        shutil.copytree(calib, tmp_path / "calib")
        monkeypatch.chdir(tmp_path)
        argv = {
            "fermigrad": ["--target-ratio", "0.6", "--r-min", "2", "--iters", "5",
                          "--out-ranks", "r.json"],
            "compress": ["--ranks", str(root / "ranks.json"), "--out", "student"],
            "compare": ["--uniform", "--target-ratio", "0.6", "--r-min", "2"],
            "calibrate": ["--out", "c2"],
        }[cmd]
        if cmd != "calibrate":
            argv += ["--calib", str(tmp_path / "calib")]
        before = _files(tmp_path)
        # the inputs are given as absolute paths, the output as a relative one;
        # a repeated flag takes its last value
        assert run([cmd, "--model", str(tmp_path / "teacher"), *argv,
                    flag, f"./{target}"]) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and flag in err["message"]
        assert "directory" in err["message"]
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("cmd, argv, message", [
        ("fermigrad", ["--out-ranks", "r.json", "--report", "r.json"],
         "--report ./r.json is the --out-ranks output"),
        ("fermigrad", ["--out-ranks", "r.json", "--trajectory", "r.json"],
         "--trajectory ./r.json is the --out-ranks output"),
        ("compress", ["--out", "s", "--report", "s/manifest.json"],
         "--report ./s/manifest.json lies inside the --out output"),
    ], ids=["report-is-ranks", "trajectory-is-ranks", "report-inside-out"])
    def test_output_that_is_another_output_is_usage_error(self, pipeline, tmp_path, capsys,
                                                         monkeypatch, cmd, argv, message):
        root, teacher, calib = pipeline
        monkeypatch.chdir(tmp_path)
        # the second output is given with a ./ prefix: paths compare resolved
        argv = [*argv[:-1], f"./{argv[-1]}"]
        if cmd == "fermigrad":
            argv = ["--target-ratio", "0.6", "--r-min", "2", "--iters", "5", *argv]
        else:
            argv = ["--ranks", str(root / "ranks.json"), *argv]
        assert run([cmd, "--model", str(teacher), "--calib", str(calib), *argv]) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and err["message"] == message
        assert _files(tmp_path) == {}

    @pytest.mark.parametrize("cmd, argv, message", [
        ("compress", ["--ranks", "r.json", "--out", "s", "--report", "./r.json"],
         "--report ./r.json is the --ranks file"),
        ("compare", ["--ranks", "mine=r.json", "--out", "./r.json"],
         "--out ./r.json is the --ranks file"),
    ], ids=["compress-report", "compare-out"])
    def test_output_that_is_the_ranks_file_is_usage_error(self, pipeline, tmp_path, capsys,
                                                          monkeypatch, cmd, argv, message):
        _, teacher, calib = pipeline
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text(json.dumps({"ranks": [4, 8]}))
        before = _files(tmp_path)
        assert run([cmd, "--model", str(teacher), "--calib", str(calib), *argv]) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and err["message"] == message
        assert _files(tmp_path) == before


class TestNonFiniteFlags:
    # fixed ids, so each case keeps its name when cases are added or removed
    @pytest.mark.parametrize("flags, topic", [
        (["-T", "nan"], "temperature"),
        (["--step", "inf", "--iters", "1"], "optimizer"),
        (["--n-scale", "nan"], "n_scale"),
        (["--target-ratio", "inf"], "target-ratio"),
    ], ids=["flags0-temperature", "flags1-optimizer", "flags5-n_scale", "flags8-target-ratio"])
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

    def test_compress_has_no_uniform_flag(self, pipeline, tmp_path, capsys):
        # uniform ranks are a ranks file away; compress computes no ranks itself
        root, teacher, calib = pipeline
        code = run(["compress", "--model", str(teacher), "--calib", str(calib),
                    "--ranks", str(root / "ranks.json"), "--uniform", "0.5",
                    "--out", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and "--uniform" in err["message"]
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("cmd", ["fermigrad", "compare"])
    def test_target_ratio_overflowing_the_target(self, pipeline, tmp_path, capsys, cmd):
        # a finite ratio whose product with the dense count is not
        root, teacher, calib = pipeline
        argv = _consumer_argvs(root, teacher, calib, tmp_path)[cmd]
        argv[argv.index("--target-ratio") + 1] = "1e308"
        capsys.readouterr()
        assert run(argv) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError" and "--target-ratio" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestTooLargeToAllocate:
    """A sample count or a spec's layer shapes numpy cannot allocate is a usage
    error of its flag, not a traceback; any other MemoryError is not a usage
    error. The allocation is made to raise: a real attempt may be killed, not
    refused."""

    @staticmethod
    def refuse(*args):
        raise MemoryError("Unable to allocate 4.66 TiB for an array with shape "
                          "(64, 10000000000) and data type float64")

    @pytest.mark.parametrize("cmd, flag", [("calibrate", "--samples"),
                                           ("fermigrad", "--kl-samples"),
                                           ("compare", "--samples")])
    def test_sample_count_is_usage_error(self, pipeline, tmp_path, capsys, monkeypatch,
                                         cmd, flag):
        root, teacher, calib = pipeline
        monkeypatch.setattr(tm, "gen_calibration", self.refuse)
        argv = {**_consumer_argvs(root, teacher, calib, tmp_path),
                "calibrate": ["calibrate", "--model", str(teacher),
                              "--out", str(tmp_path / "c")]}[cmd]
        capsys.readouterr()
        assert run(argv) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{flag} 512 is too large to allocate: Unable")
        assert list(tmp_path.iterdir()) == []

    def test_layer_shapes_are_usage_error(self, pipeline, tmp_path, capsys, monkeypatch):
        root, _, _ = pipeline
        monkeypatch.setattr(tm, "build_teacher", self.refuse)
        spec = str(root / "spec.json")
        capsys.readouterr()
        assert run(["gen-teacher", "--spec", spec, "--out", str(tmp_path / "t")]) == EXIT_USAGE
        err = _one_error_line(capsys)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"--spec {spec}: layer shapes too large to allocate")
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_elsewhere_is_not_a_usage_error(self, pipeline, tmp_path,
                                                         monkeypatch):
        root, teacher, calib = pipeline
        monkeypatch.setattr(fg, "optimize_ranks", self.refuse)
        with pytest.raises(MemoryError):
            run(_consumer_argvs(root, teacher, calib, tmp_path)["fermigrad"])


class TestFactorStore:
    """calibrate stores the full-rank factors; the other commands only read them."""

    def test_loaded_factors_equal_refactorized(self, pipeline):
        _, teacher, calib = pipeline
        loaded = _load_factored(SimpleNamespace(model=str(teacher), calib=str(calib)))
        model = mio.load_model_package(teacher).to_toy_model()
        ref = tm.attach_factors_from_calibration(model, mio.load_calibration_package(calib))
        assert len(loaded.factors) == len(ref.factors) == 2
        for f, g in zip(loaded.factors, ref.factors):
            assert np.array_equal(f.A, g.A) and np.array_equal(f.B, g.B)

    def test_only_calibrate_factorizes(self, pipeline, tmp_path, monkeypatch):
        root, teacher, _ = pipeline
        calls = {"cholesky_whiten": 0, "left_singular_vectors": 0}
        for name in calls:
            original = getattr(linalg, name)

            def counted(*a, _name=name, _original=original, **k):
                calls[_name] += 1
                return _original(*a, **k)

            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("lrcompress") \
                        and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        calib = tmp_path / "calib"
        assert run(["calibrate", "--model", str(teacher), "--samples", "64",
                    "--seed", "2", "--out", str(calib)]) == EXIT_OK
        assert calls == {"cholesky_whiten": 2, "left_singular_vectors": 2}
        for cmd, argv in _consumer_argvs(root, teacher, calib, tmp_path).items():
            assert run(argv) == EXIT_OK, cmd
        assert calls == {"cholesky_whiten": 2, "left_singular_vectors": 2}

    @pytest.mark.parametrize("cmd", ["fermigrad", "compress", "compare"])
    def test_regenerated_teacher_is_format_error(self, pipeline, tmp_path, capsys, cmd):
        root, teacher, calib = pipeline
        shutil.copytree(teacher, tmp_path / "teacher")
        assert run(["gen-teacher", "--spec", str(root / "spec.json"), "--seed", "6",
                    "--out", str(tmp_path / "teacher")]) == EXIT_OK
        capsys.readouterr()
        code = run(_consumer_argvs(root, tmp_path / "teacher", calib, tmp_path)[cmd])
        assert code == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError" and "another teacher" in err["message"]

    @pytest.mark.parametrize("cmd", ["fermigrad", "compress", "compare"])
    def test_teacher_with_other_nonlinearity_is_format_error(self, pipeline, tmp_path,
                                                             capsys, cmd):
        # same seed and shapes, so the dense weights are identical; only the spec differs
        root, teacher, calib = pipeline
        shutil.copytree(teacher, tmp_path / "teacher")
        spec = json.loads((root / "spec.json").read_text())
        (tmp_path / "spec.json").write_text(json.dumps({**spec, "nonlinearity": "identity"}))
        assert run(["gen-teacher", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(tmp_path / "teacher")]) == EXIT_OK
        for name in ("layer_00.W.lrmx", "layer_01.W.lrmx"):
            assert (tmp_path / "teacher" / name).read_bytes() == (teacher / name).read_bytes()
        capsys.readouterr()
        code = run(_consumer_argvs(root, tmp_path / "teacher", calib, tmp_path)[cmd])
        assert code == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError" and "re-run calibrate" in err["message"]

    def test_package_without_factors_is_format_error(self, pipeline, tmp_path, capsys):
        root, teacher, calib = pipeline
        bare = tmp_path / "calib"
        shutil.copytree(calib, bare)
        _edit_manifest(bare, lambda m: m.pop("teacher_sha256"))
        code = run(_consumer_argvs(root, teacher, bare, tmp_path)["compress"])
        assert code == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError" and "re-run calibrate" in err["message"]

    def test_wrong_factor_shape_is_format_error(self, pipeline, tmp_path, capsys):
        root, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        A = mio.read_matrix(bad / "layer_00.A.lrmx")
        mio.write_matrix(bad / "layer_00.A.lrmx", A[:, :-1])
        code = run(_consumer_argvs(root, teacher, bad, tmp_path)["fermigrad"])
        assert code == EXIT_FORMAT
        assert "A is (16, 15)" in _one_error_line(capsys)["message"]

    def test_nonfinite_factor_is_format_error(self, pipeline, tmp_path, capsys):
        root, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        A = mio.read_matrix(bad / "layer_01.A.lrmx")
        A[0, 0] = np.nan
        mio.write_matrix(bad / "layer_01.A.lrmx", A)
        before = _files(tmp_path)
        for cmd, argv in _consumer_argvs(root, teacher, bad, tmp_path).items():
            assert run(argv) == EXIT_FORMAT, cmd
            err = _one_error_line(capsys)
            assert err["error"] == "PackageFormatError", cmd
            assert err["message"] == f"{bad / 'layer_01.A.lrmx'}: payload holds NaN or Inf"
        assert _files(tmp_path) == before

    def test_layer_entry_removed_is_format_error(self, pipeline, tmp_path, capsys):
        root, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        _edit_manifest(bad, lambda m: m["layers"].pop())
        code = run(_consumer_argvs(root, teacher, bad, tmp_path)["compress"])
        assert code == EXIT_FORMAT
        assert "1 layers for 2 teacher layers" in _one_error_line(capsys)["message"]
        assert not (tmp_path / "student").exists()

    @pytest.mark.parametrize("damage, message", [
        # cut to 30 bytes: a whole header, 6 bytes of payload
        (lambda path: path.write_bytes(path.read_bytes()[:30]),
         "payload is 6 bytes, expected 2048"),
        (lambda path: mio.write_matrix(path, np.eye(16)[:, :15]), "C is (16, 15); needs (16, 16)"),
    ])
    def test_damaged_calibration_matrix_is_format_error(self, pipeline, tmp_path, capsys,
                                                        damage, message):
        root, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        damage(bad / "layer_00.C.lrmx")
        capsys.readouterr()
        code = run(_consumer_argvs(root, teacher, bad, tmp_path)["compress"])
        assert code == EXIT_FORMAT
        err = _one_error_line(capsys)
        assert err["error"] == "PackageFormatError" and message in err["message"]
        assert not (tmp_path / "student").exists()

    def test_missing_factor_file_is_io_error(self, pipeline, tmp_path, capsys):
        root, teacher, calib = pipeline
        bad = tmp_path / "calib"
        shutil.copytree(calib, bad)
        (bad / "layer_01.B.lrmx").unlink()
        code = run(_consumer_argvs(root, teacher, bad, tmp_path)["compare"])
        assert code == EXIT_IO
        assert _one_error_line(capsys)["error"] == "FileNotFoundError"


def _weakly_recorded(refs, f, keep=lambda *args: True):
    """``f``, recording a weak reference to each result whose arguments pass ``keep``;
    the wrapper holds no strong reference once it returns."""
    def recorded(*args, **kwargs):
        out = f(*args, **kwargs)
        if keep(*args):
            refs.append(weakref.ref(out))
        return out
    return recorded


class TestArrayLifetimes:
    """Which large arrays are alive where a command reaches its memory peak."""

    @pytest.mark.parametrize("spec", [None, {"layer_shapes": [[24, 16], [12, 24]],
                                             "planted_ranks": [4, 6], "seed": 3}],
                             ids=["square", "tall-and-wide"])
    def test_calibrate_eigh_sees_neither_whitening_nor_product(self, tmp_path, monkeypatch,
                                                              spec):
        gen = ["gen-teacher", "--out", str(tmp_path / "teacher")]
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            gen += ["--spec", str(tmp_path / "spec.json")]
        assert run(gen) == EXIT_OK
        whitening, products, at_eigh = [], [], []
        monkeypatch.setattr(tm, "cholesky_whiten", _weakly_recorded(whitening, tm.cholesky_whiten))
        # left_singular_vectors reads its argument, W @ S, through as_matrix(M, "M")
        monkeypatch.setattr(linalg, "as_matrix", _weakly_recorded(
            products, linalg.as_matrix, keep=lambda a, name="matrix": name == "M"))
        eigh = np.linalg.eigh

        def recorded_eigh(G, *args, **kwargs):
            at_eigh.append((len(whitening), len(products),
                            [r() is not None for r in whitening + products]))
            return eigh(G, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        assert run(["calibrate", "--model", str(tmp_path / "teacher"), "--samples", "64",
                    "--out", str(tmp_path / "calib")]) == EXIT_OK
        layers = len(mio.load_model_package(tmp_path / "teacher").layers)
        assert len(at_eigh) == layers
        for l, (n_whitening, n_products, alive) in enumerate(at_eigh):
            assert (n_whitening, n_products) == (l + 1, l + 1)
            assert not any(alive), f"layer {l}: S or W @ S alive at eigh"

    def test_fermigrad_frees_training_draw_and_factors(self, tmp_path, monkeypatch):
        teacher, calib = tmp_path / "teacher", tmp_path / "calib"
        assert run(["gen-teacher", "--out", str(teacher)]) == EXIT_OK
        assert run(["calibrate", "--model", str(teacher), "--samples", "128",
                    "--out", str(calib)]) == EXIT_OK
        models, draws, factors_at_draw, draw_alive_at_net = [], {}, {}, []
        load_factors, gen_calibration, net = mio.load_calibration_factors, tm.gen_calibration, \
            fg._Net

        def recorded_load(path, model):
            models.append(model)
            return load_factors(path, model)

        def recorded_draw(spec, n_samples, seed):
            factors_at_draw[seed] = models[-1].factors
            X = gen_calibration(spec, n_samples, seed)
            draws[seed] = weakref.ref(X)
            return X

        def recorded_net(*args, **kwargs):
            draw_alive_at_net.append(draws[7]() is not None)
            return net(*args, **kwargs)

        monkeypatch.setattr(mio, "load_calibration_factors", recorded_load)
        monkeypatch.setattr(tm, "gen_calibration", recorded_draw)
        monkeypatch.setattr(fg, "_Net", recorded_net)
        assert run(["fermigrad", "--model", str(teacher), "--calib", str(calib),
                    "--target-ratio", "0.6", "--n-scale", "1e7", "--iters", "20",
                    "--kl-samples", "64", "--seed", "7",
                    "--out-ranks", str(tmp_path / "r.json")]) == EXIT_OK
        assert sorted(draws) == [7, 8]
        assert factors_at_draw[7] is not None
        assert factors_at_draw[8] is None, "factors alive while the held-out set is drawn"
        assert draw_alive_at_net == [False], "training draw alive when the loop is set up"
        assert len({id(m) for m in models}) == 1 and models[0].factors is not None

    def test_compare_draws_before_reading_factors(self, pipeline, tmp_path, monkeypatch):
        root, teacher, calib = pipeline
        events = []
        load_factors, gen_calibration = mio.load_calibration_factors, tm.gen_calibration
        monkeypatch.setattr(mio, "load_calibration_factors",
                            lambda *a: events.append("factors") or load_factors(*a))
        monkeypatch.setattr(tm, "gen_calibration",
                            lambda *a: events.append("draw") or gen_calibration(*a))
        assert run(_consumer_argvs(root, teacher, calib, tmp_path)["compare"]) == EXIT_OK
        assert events == ["draw", "factors"]


class TestColdStart:
    def test_only_pivga_imports_scipy(self, pipeline, tmp_path):
        """In a fresh interpreter the commands without PivGa leave SciPy unloaded;
        compress --pivga then loads it and succeeds."""
        root, _, _ = pipeline
        script = f"""
import sys
from lrcompress.cli import main
root, out = {str(root)!r}, {str(tmp_path)!r}
T, C = out + "/teacher", out + "/calib"
for argv in (["gen-teacher", "--spec", root + "/spec.json", "--out", T],
             ["calibrate", "--model", T, "--samples", "64", "--out", C],
             ["fermigrad", "--model", T, "--calib", C, "--target-ratio", "0.6",
              "--r-min", "2", "--iters", "5", "--out-ranks", out + "/r.json"],
             ["compare", "--model", T, "--calib", C, "--ranks", out + "/r.json"]):
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
assert main(["compress", "--model", T, "--calib", C, "--ranks", out + "/r.json",
             "--pivga", "--out", out + "/student"]) == 0
assert "scipy.linalg" in sys.modules
"""
        src = str(Path(lrcompress.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert mio.load_model_package(tmp_path / "student").layers[0].kind == "pivga"
