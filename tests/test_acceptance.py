"""End-to-end acceptance suite.

Each test enforces one toolkit-level verification criterion at its stated
tolerance and prints one pass line (visible under ``pytest -s``). The slow
criteria (7-9, 11) drive full optimization runs and take tens of seconds.
"""

import numpy as np
import pytest

from lrcompress import (
    LowRankFactors,
    brute_force_rank_search,
    breakeven_rank,
    build_teacher,
    cholesky_whiten,
    data_aware_svd,
    default_spec,
    evaluate_allocations,
    fermi_factors,
    gen_calibration,
    grad_mu,
    kl_divergence,
    optimize_ranks,
    param_count,
    penalty_loss,
    pivga_factorize,
    pivga_forward,
    plain_svd_compress,
    rho_schedule,
    svd_descending,
    uniform_ranks,
)
from lrcompress import fermigrad as fg
from lrcompress import matrixio as mio
from lrcompress import toymodels as tm
from lrcompress.cli import EXIT_OK, main as cli_main
from lrcompress.fermigrad import (
    BudgetConstraint,
    FermiConfig,
    MuVector,
    OptimizerConfig,
    RhoSchedule,
)


def _report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_01_eckart_young_optimality():
    rng = np.random.default_rng(164)
    W = rng.standard_normal((64, 48))
    r = 10
    err = np.linalg.norm(W - plain_svd_compress(W, r).reconstruct())
    # independent spectrum oracle: eigenvalues of W^T W
    eigs = np.sort(np.linalg.eigvalsh(W.T @ W))[::-1]
    tail = np.sqrt(np.sum(eigs[r:]))
    assert abs(err - tail) <= 1e-10 * tail
    for trial in range(100):
        if trial % 2 == 0:
            M = rng.standard_normal((64, r)) @ rng.standard_normal((r, 48))
            M *= np.linalg.norm(W) / np.linalg.norm(M)
        else:
            f = plain_svd_compress(W, r)
            M = (f.A + 0.05 * rng.standard_normal(f.A.shape)) @ f.B
        assert err <= np.linalg.norm(W - M) + 1e-12
    _report(1, f"rank-10 error {err:.6f} equals tail spectrum, beats 100 competitors")


def test_02_data_aware_optimality():
    rng = np.random.default_rng(232)
    W = rng.standard_normal((32, 32))
    Xc = rng.standard_normal((32, 96))
    S = cholesky_whiten(Xc @ Xc.T)
    r = 6
    f = data_aware_svd(W, S, r)
    err = np.linalg.norm((W - f.reconstruct()) @ S)
    tail = np.sqrt(np.sum(svd_descending(W @ S).sigma[r:] ** 2))
    assert abs(err - tail) <= 1e-10 * tail
    for trial in range(100):
        if trial % 2 == 0:
            alt = rng.standard_normal((32, r)) @ rng.standard_normal((r, 32))
            alt *= np.linalg.norm(W) / np.linalg.norm(alt)
        else:
            alt = (f.A + 0.05 * rng.standard_normal(f.A.shape)) @ f.B
        assert err <= np.linalg.norm((W - alt) @ S) + 1e-12
    _report(2, f"whitened rank-6 residual {err:.6f} is the svd(WS) tail, beats 100 alternatives")


def test_03_pivga_losslessness_sweep():
    rng = np.random.default_rng(3)
    worst_rec = 0.0
    worst_fwd = 0.0
    for case in range(200):
        m = int(rng.integers(2, 513))
        n = int(rng.integers(2, 513))
        r = int(rng.integers(1, min(m, n, 128) + 1))
        f = LowRankFactors(A=rng.standard_normal((m, r)),
                           B=rng.standard_normal((r, n)))
        pf = pivga_factorize(f)
        ab = f.reconstruct()
        scale = np.linalg.norm(ab)
        worst_rec = max(worst_rec, np.linalg.norm(pf.reconstruct() - ab) / scale)
        X = rng.standard_normal((n, 32))
        dense = ab @ X
        worst_fwd = max(worst_fwd,
                        np.linalg.norm(pivga_forward(X, pf) - dense) / np.linalg.norm(dense))
        assert worst_rec <= 1e-8
        assert worst_fwd <= 1e-8
    _report(3, f"200 cases lossless: worst reconstruction {worst_rec:.2e}, "
               f"worst forward {worst_fwd:.2e}")


def test_04_parameter_count_algebra():
    shapes = [(m, n) for m in (1, 2, 3, 5, 8, 13, 32, 64) for n in (1, 2, 3, 5, 8, 13, 32, 64)]
    for m, n in shapes:
        for r in range(1, min(m, n) + 1):
            lin = param_count(m, n, r, "linear").decomposed
            par = param_count(m, n, r, "parabolic").decomposed
            assert par == lin - r * r
            assert par <= m * n
            assert (par == m * n) == (r == min(m, n))
            if m == n:
                assert (par == m * n) == (r == m == n)
    assert breakeven_rank(1024, 1024) == 512
    assert param_count(1024, 1024, 512, "linear").decomposed == 1024 * 1024
    _report(4, "parabolic <= dense on the full shape grid; breakeven(1024^2) = 512")


def test_05_fermi_function():
    for mu in (5, 17, 40):
        F = fermi_factors(float(mu), 64, 0.01)
        assert F[mu] == 0.5
    for mu in (5.0, 17.3, 40.0):
        F = fermi_factors(mu, 64, 0.02)
        assert np.all(np.diff(F) < 0)
    grids = [fermi_factors(mu, 64, 0.02) for mu in np.linspace(5, 40, 12)]
    for lo, hi in zip(grids, grids[1:]):
        assert np.all(hi >= lo)
    for N in (30, 64, 100):
        F = fermi_factors(float(N), N, 1.0 / N)   # N*T = 1
        assert abs(F[0] - 1.0) <= 1e-10
        F = fermi_factors(float(-N), N, 1.0 / N)
        assert F[0] <= 1e-10
    _report(5, "midpoint exactly 0.5; monotone in j and mu; saturated limits within 1e-10")


def test_06_gradient_matches_finite_differences():
    spec = default_spec(seed=12)
    model = build_teacher(spec)
    X = gen_calibration(spec, 256, seed=5)
    tm.attach_data_aware_factors(model, X)
    cfg = FermiConfig(T=0.01, r_min=8)
    caps = spec.caps()
    budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=9830,
                                          mode="linear")
    batch = X[:, :32]
    teacher = fg.dense_forward(model.dense_weights, spec.nonlinearity, batch)

    def loss(m, rho):
        logits = fg.soft_forward(model.factors, spec.nonlinearity, batch, m, cfg)
        kl = kl_divergence(teacher.T, logits.T)
        n_par = float(budget.count(m))
        return kl + penalty_loss(n_par, budget, rho)

    h = 1e-3
    worst = 0.0
    for mu0, rho in (([12.0, 12.0, 20.0, 32.0], 7.0),
                     ([19.5, 18.5, 17.5, 25.0], 100.0),
                     ([9.0, 15.0, 30.0, 50.0], 0.5)):
        mu0 = np.array(mu0)
        g = grad_mu(model, teacher, batch, MuVector(mu0, caps, cfg.r_min),
                    budget, rho, cfg)
        fd = np.array([(loss(mu0 + h * e, rho) - loss(mu0 - h * e, rho)) / (2 * h)
                       for e in np.eye(4)])
        for gi, fdi in zip(g, fd):
            if abs(gi) < 1e-12:
                assert abs(gi - fdi) <= 1e-8
            else:
                rel = abs(gi - fdi) / abs(fdi)
                worst = max(worst, rel)
                assert rel <= 1e-4
    _report(6, f"grad_mu vs central differences: worst relative error {worst:.2e}")


def test_07_constraint_satisfaction_1024_fixture():
    spec = tm.ToyModelSpec(layer_shapes=[(1024, 1024), (1024, 1024)],
                           planted_ranks=[256, 512], seed=7)
    model = build_teacher(spec)
    X = gen_calibration(spec, 2048, seed=31)
    tm.attach_data_aware_factors(model, X)
    target = 1_572_864
    budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=target,
                                          mode="linear")
    opt = OptimizerConfig(step_size=0.03, max_iters=800, batch_size=32)
    traj, alloc = optimize_ranks(model, X, budget, FermiConfig(T=0.01, r_min=8),
                                 RhoSchedule(alpha=1.02), opt)
    violation = abs(traj[-1].n_param - target) / target
    assert violation <= 5e-3
    assert alloc.achieved_params <= target
    assert target - alloc.achieved_params < 2048
    _report(7, f"1.57M fixture: pre-rounding violation {violation:.2e}, "
               f"rounded shortfall {target - alloc.achieved_params}")


def test_08_global_optimality_proxy_vs_brute_force():
    spec = tm.ToyModelSpec(layer_shapes=[(16, 16), (16, 16)], planted_ranks=[3, 12],
                           seed=5)
    model = build_teacher(spec)
    Xtrain = gen_calibration(spec, 512, seed=21)
    tm.attach_data_aware_factors(model, Xtrain)
    target = int(0.6 * spec.dense_param_count())
    budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=target,
                                          mode="linear", n_scale=1e7)
    cfg = FermiConfig(T=0.01, r_min=2)
    opt = OptimizerConfig(step_size=0.5, max_iters=6000, batch_size=32, mu_tol=1e-6)
    _, alloc = optimize_ranks(model, Xtrain, budget, cfg, RhoSchedule(alpha=1.02), opt)

    Xeval = gen_calibration(spec, 512, seed=777)
    oracle = brute_force_rank_search(model, Xeval, budget, grid_step=1, r_min=2)
    kl_fg = evaluate_allocations(model, Xeval, [alloc.ranks])[0].kl
    kl_bf = evaluate_allocations(model, Xeval, [oracle.ranks])[0].kl
    assert kl_fg <= 1.10 * kl_bf
    _report(8, f"fermigrad {list(alloc.ranks)} KL {kl_fg:.4e} vs brute-force "
               f"{list(oracle.ranks)} KL {kl_bf:.4e} (gap {(kl_fg - kl_bf) / kl_bf:+.1%})")


def test_09_beats_uniform_across_seeds():
    wins = 0
    not_worse = 0
    n_seeds = 20
    for seed in range(n_seeds):
        spec = default_spec(seed=seed)
        model = build_teacher(spec)
        Xtrain = gen_calibration(spec, 512, seed=1000 + seed)
        tm.attach_data_aware_factors(model, Xtrain)
        target = int(0.6 * spec.dense_param_count())
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=target,
                                              mode="linear")
        cfg = FermiConfig(T=0.01, r_min=8)
        opt = OptimizerConfig(step_size=10.0, max_iters=4000, batch_size=32)
        _, alloc = optimize_ranks(model, Xtrain, budget, cfg, RhoSchedule(), opt)
        uni = uniform_ranks(spec.layer_shapes, budget, r_min=cfg.r_min)
        Xeval = gen_calibration(spec, 512, seed=7777 + seed)
        kl_fg = evaluate_allocations(model, Xeval, [alloc.ranks])[0].kl
        kl_un = evaluate_allocations(model, Xeval, [uni.ranks])[0].kl
        not_worse += kl_fg <= kl_un
        wins += kl_fg < kl_un
    assert not_worse == n_seeds
    assert wins >= 0.9 * n_seeds
    _report(9, f"fermigrad <= uniform on {not_worse}/{n_seeds} seeds, "
               f"strictly better on {wins}/{n_seeds}")


def test_10_rho_protocol(tmp_path):
    sched = RhoSchedule(rho0=1.0, alpha=1.02, rho_max=2000.0)
    assert rho_schedule(0, sched) == 1.0
    vals = [rho_schedule(t, sched) for t in range(0, 2000, 13)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert max(vals) == 2000.0
    assert rho_schedule(10**9, sched) == 2000.0

    spec = tm.ToyModelSpec(layer_shapes=[(16, 16), (16, 16)], planted_ranks=[3, 12],
                           seed=5)
    model = build_teacher(spec)
    X = gen_calibration(spec, 128, seed=21)
    tm.attach_data_aware_factors(model, X)
    budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=307,
                                          mode="linear", n_scale=1e7)
    opt = OptimizerConfig(step_size=0.5, max_iters=40, batch_size=16)
    traj, _ = optimize_ranks(model, X, budget, FermiConfig(r_min=2), sched, opt)
    csv_path = tmp_path / "traj.csv"
    mio.write_trajectory_csv(csv_path, traj)
    rows = mio.read_trajectory_csv(csv_path)
    for row in rows:
        assert row["rho"] == rho_schedule(row["iter"], sched)
    _report(10, "rho(0)=1.0, non-decreasing, capped at 2000.0; recorded in the CSV")


def test_11_end_to_end_determinism(tmp_path):
    import subprocess
    import sys

    teacher = tmp_path / "teacher"
    calib = tmp_path / "calib"
    assert cli_main(["gen-teacher", "--out", str(teacher), "--seed", "3"]) == EXIT_OK
    assert cli_main(["calibrate", "--model", str(teacher), "--samples", "256",
                     "--seed", "11", "--out", str(calib)]) == EXIT_OK
    blobs = []
    for tag in ("a", "b"):
        traj = tmp_path / f"traj_{tag}.csv"
        ranks = tmp_path / f"ranks_{tag}.json"
        # fresh interpreter each run: determinism must survive process boundaries
        proc = subprocess.run(
            [sys.executable, "-m", "lrcompress.cli", "fermigrad",
             "--model", str(teacher), "--calib", str(calib),
             "--target-ratio", "0.6", "--step", "2.0", "--iters", "300",
             "--seed", "11", "--out-ranks", str(ranks), "--trajectory", str(traj)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        blobs.append(traj.read_bytes())
    assert blobs[0] == blobs[1]
    assert (tmp_path / "ranks_a.json").read_bytes() == (tmp_path / "ranks_b.json").read_bytes()
    _report(11, f"two cmd_fermigrad processes: trajectory CSVs byte-identical "
                f"({len(blobs[0])} bytes)")
