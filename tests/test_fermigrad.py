"""Fermi gates, penalty machinery, exact gradients, and the rank optimizer."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lrcompress import (
    BudgetConstraint,
    ConvergenceFailure,
    FermiConfig,
    InfeasibleBudget,
    MuVector,
    NonFiniteGradient,
    OptimizerConfig,
    RhoSchedule,
    fermi_factors,
    grad_mu,
    kl_divergence,
    optimize_ranks,
    param_count,
    penalty_loss,
    rho_schedule,
    round_and_repair,
    uniform_ranks,
)
from lrcompress import fermigrad as fg
from lrcompress import toymodels as tm
from lrcompress.errors import DimensionMismatch
from lrcompress.svdcompress import LowRankFactors


def small_model(seed=0, shapes=((24, 24), (24, 24), (24, 24)), planted=(3, 6, 12)):
    spec = tm.ToyModelSpec(layer_shapes=list(shapes), planted_ranks=list(planted),
                           seed=seed)
    model = tm.build_teacher(spec)
    X = tm.gen_calibration(spec, 256, seed=seed + 100)
    tm.attach_data_aware_factors(model, X)
    return spec, model, X


class TestFermiFactors:
    def test_midpoint_exact_half(self):
        F = fermi_factors(10.0, 100, 0.01)
        assert F[10] == 0.5

    def test_scalar_value(self):
        # N*T = 1, mu = 10, j = 12: F = 1/(1 + e^2)
        F = fermi_factors(10.0, 100, 0.01)
        assert F[12] == pytest.approx(1.0 / (1.0 + np.exp(2.0)), abs=1e-15)

    def test_saturated_top(self):
        F = fermi_factors(64.0, 64, 0.01 * (1 / 0.64))  # N*T = 1
        assert abs(F[0] - 1.0) <= 1e-10

    def test_open_interval_and_saturation(self):
        F = fermi_factors(20.0, 64, 0.01)
        assert np.all(F >= 0.0) and np.all(F <= 1.0)
        # far outside the transition the gates saturate to exactly 0/1
        assert np.all(fermi_factors(500.0, 64, 0.01) == 1.0)
        assert np.all(fermi_factors(-500.0, 64, 0.01) == 0.0)

    def test_monotone_in_j_and_mu(self):
        for mu in (5.0, 17.3, 40.0):
            F = fermi_factors(mu, 64, 0.05)
            assert np.all(np.diff(F) < 0)
        j_grid = fermi_factors(10.0, 64, 0.05)
        for mu_lo, mu_hi in [(5.0, 6.0), (20.0, 30.0)]:
            lo = fermi_factors(mu_lo, 64, 0.05)
            hi = fermi_factors(mu_hi, 64, 0.05)
            assert np.all(hi >= lo)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            fermi_factors(5.0, 10, 0.0)

    def test_one_layer_only(self):
        with pytest.raises(DimensionMismatch):
            fermi_factors(np.array([3.25, 40.0]), 64, 0.05)
        with pytest.raises(DimensionMismatch):
            fermi_factors(3.25, [64, 64], 0.05)

    def test_matches_expit(self):
        from scipy.special import expit

        # mu spans both saturation ends: gates of exactly 0 and exactly 1
        mu = np.linspace(-900.0, 960.0, 1861)
        F = np.array([fermi_factors(m, 64, 1.0 / 64) for m in mu])  # N*T = 1: exponent j - mu
        ref = expit(mu[:, None] - np.arange(64.0))
        assert np.any(F == 0.0) and np.any(F == 1.0)
        assert np.array_equal(F == 0.0, ref == 0.0) and np.array_equal(F == 1.0, ref == 1.0)
        # np.exp and libm's exp may differ by an ulp, which the rounding of
        # 1 + e and 1/(1 + e) carries into a few-eps relative difference
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(F - ref) <= 4 * eps * np.maximum(F, ref))


class TestParamCountSoft:
    def f1024(self, mode):
        return BudgetConstraint.from_shapes([(1024, 1024), (1024, 1024)],
                                            n_target=1_572_864, mode=mode)

    def test_linear_full_rank(self):
        mu = MuVector([1024.0, 1024.0], [1024, 1024])
        assert float(self.f1024("linear").count(mu.mu)) == 4_194_304

    def test_parabolic_full_rank_is_dense_size(self):
        mu = MuVector([1024.0, 1024.0], [1024, 1024])
        assert float(self.f1024("parabolic").count(mu.mu)) == 2_097_152

    def test_integer_mu_matches_discrete_count(self):
        shapes = [(16, 24), (13, 16), (40, 13)]
        for mode in ("linear", "parabolic"):
            budget = BudgetConstraint.from_shapes(shapes, n_target=10_000, mode=mode,
                                                  n_inc=17)
            ranks = np.array([5, 9, 2])
            mu = MuVector(ranks.astype(float), [min(m, n) for m, n in shapes])
            soft = float(budget.count(mu.mu))
            discrete = sum(
                param_count(m, n, int(r), mode).decomposed
                for (m, n), r in zip(shapes, ranks)
            ) + 17
            assert soft == discrete
            assert fg.count_params(ranks, budget) == discrete


class TestBudgetSlope:
    @pytest.mark.parametrize("mode", ["linear", "parabolic"])
    def test_half_step_slope_is_exact_count_change(self, mode):
        rng = np.random.default_rng(70)
        for _ in range(50):
            shapes = [tuple(rng.integers(2, 40, size=2)) for _ in range(rng.integers(1, 5))]
            caps = np.array([min(m, n) for m, n in shapes])
            budget = BudgetConstraint.from_shapes(shapes, n_target=10**6, mode=mode,
                                                  n_inc=int(rng.integers(0, 100)))
            r = rng.integers(1, caps + 1)
            down, up = budget.slope(r - 0.5), budget.slope(r + 0.5)
            for l, e in enumerate(np.eye(len(r), dtype=np.int64)):
                assert down[l] == fg.count_params(r, budget) - fg.count_params(r - e, budget)
                assert up[l] == fg.count_params(r + e, budget) - fg.count_params(r, budget)


class TestPenaltyLoss:
    def budget(self):
        return BudgetConstraint.from_shapes([(8, 8)], n_target=100, n_scale=1e9)

    def test_satisfied_constraint_is_zero(self):
        assert penalty_loss(100.0, self.budget(), 5.0) == 0.0

    def test_scalar_value(self):
        # rho (dev)^2 / (2 N_scale) = 1 * (1e6)^2 / 2e9 = 500
        assert penalty_loss(100.0 + 1e6, self.budget(), 1.0) == pytest.approx(500.0)

    def test_even_in_deviation(self):
        b = self.budget()
        assert penalty_loss(100.0 + 345.0, b, 2.5) == penalty_loss(100.0 - 345.0, b, 2.5)

    def test_monotone_in_rho(self):
        b = self.budget()
        vals = [penalty_loss(150.0, b, rho) for rho in (0.0, 1.0, 10.0, 2000.0)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            penalty_loss(120.0, self.budget(), -1.0)


class TestRhoSchedule:
    def test_default_protocol_endpoints(self):
        s = RhoSchedule(rho0=1.0, alpha=1.02, rho_max=2000.0)
        assert rho_schedule(0, s) == 1.0
        assert rho_schedule(10**6, s) == 2000.0

    def test_geometric_value(self):
        s = RhoSchedule(rho0=1.0, alpha=1.05, rho_max=2000.0)
        assert rho_schedule(10, s) == pytest.approx(1.05**10)

    def test_monotone_nondecreasing_capped(self):
        s = RhoSchedule(rho0=1.0, alpha=1.03, rho_max=2000.0)
        vals = [rho_schedule(t, s) for t in range(0, 800, 7)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        assert max(vals) <= 2000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RhoSchedule(alpha=1.0)

    @pytest.mark.parametrize("make", [
        lambda: RhoSchedule(rho0=np.nan),
        lambda: RhoSchedule(alpha=np.inf),
        lambda: RhoSchedule(rho_max=np.inf),
        lambda: OptimizerConfig(mu_tol=np.nan),
        lambda: OptimizerConfig(constraint_tol=np.inf),
    ], ids=["rho0-nan", "alpha-inf", "rho_max-inf", "mu_tol-nan", "constraint_tol-inf"])
    def test_nonfinite_loop_settings_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestKlDivergence:
    def test_identical_logits_zero(self):
        rng = np.random.default_rng(60)
        L = rng.standard_normal((5, 8))
        assert kl_divergence(L, L) <= 1e-15

    def test_point_mass_vs_uniform(self):
        t = np.array([[40.0, -40.0]])
        s = np.array([[0.0, 0.0]])
        assert kl_divergence(t, s) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_two_sample_mean(self):
        rng = np.random.default_rng(61)
        t = rng.standard_normal((2, 6))
        s = rng.standard_normal((2, 6))
        whole = kl_divergence(t, s)
        parts = [kl_divergence(t[i:i + 1], s[i:i + 1]) for i in range(2)]
        assert whole == pytest.approx(np.mean(parts), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            t = rng.standard_normal((4, 9))
            s = rng.standard_normal((4, 9))
            assert kl_divergence(t, s) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_exact_where_a_student_probability_underflows(self):
        # q_1 = e^-100 / (1 + e^-100): every term is the exact log-softmax,
        # with no floor under the student probability
        exact = np.log(0.5) + 50.0 + np.log1p(np.exp(-100.0))
        assert kl_divergence([[0.0, 0.0]], [[0.0, -100.0]]) == pytest.approx(exact, rel=1e-12)


class TestGradMu:
    def test_saturated_teacher_student_gradient_vanishes(self):
        spec, model, X = small_model(seed=4)
        caps = spec.caps()
        # tiny T saturates every gate to exactly 1 at mu = caps
        cfg = FermiConfig(T=1e-3, r_min=1)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=5000)
        batch = X[:, :16]
        teacher = fg.dense_forward(model.dense_weights, spec.nonlinearity, batch)
        mu = MuVector(caps.astype(float), caps, 1)
        g = grad_mu(model, teacher, batch, mu, budget, 0.0, cfg)
        assert np.all(np.abs(g) <= 1e-8)

    def test_penalty_only_closed_form(self):
        spec, model, X = small_model(seed=5)
        caps = spec.caps()
        cfg = FermiConfig(T=1e-3, r_min=1)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=1200,
                                              mode="linear")
        batch = X[:, :16]
        teacher = fg.dense_forward(model.dense_weights, spec.nonlinearity, batch)
        mu = MuVector(caps.astype(float), caps, 1)
        rho = 3.0
        g = grad_mu(model, teacher, batch, mu, budget, rho, cfg)
        dev = float(budget.count(mu.mu)) - budget.n_target
        expected = rho * dev * budget.a / budget.n_scale
        assert np.allclose(g, expected, rtol=0, atol=1e-8)

    def test_matches_central_differences(self):
        spec, model, X = small_model(seed=6)
        caps = spec.caps()
        cfg = FermiConfig(T=0.01, r_min=1)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=1500,
                                              mode="parabolic", n_scale=1e6)
        batch = X[:, :24]
        teacher = fg.dense_forward(model.dense_weights, spec.nonlinearity, batch)
        mu0 = np.array([4.0, 7.5, 11.0])
        g = grad_mu(model, teacher, batch, MuVector(mu0, caps, 1), budget, 2.0, cfg)

        def loss(m):
            logits = fg.soft_forward(model.factors, spec.nonlinearity, batch, m, cfg)
            kl = kl_divergence(teacher.T, logits.T)
            n_par = float(budget.count(m))
            return kl + penalty_loss(n_par, budget, 2.0)

        h = 1e-3
        fd = np.array([(loss(mu0 + h * e) - loss(mu0 - h * e)) / (2 * h)
                       for e in np.eye(3)])
        for gi, fdi in zip(g, fd):
            if abs(gi) < 1e-12:
                assert abs(gi - fdi) <= 1e-8
            else:
                assert abs(gi - fdi) <= 1e-4 * abs(fdi)

    def test_wrong_mu_length_raises(self):
        spec, model, X = small_model(seed=7)
        cfg = FermiConfig(T=0.01, r_min=1)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes[:2], n_target=1500)
        batch = X[:, :8]
        teacher = fg.dense_forward(model.dense_weights, spec.nonlinearity, batch)
        short = MuVector([4.0, 7.0], spec.caps()[:2], 1)
        with pytest.raises(DimensionMismatch, match="2 mu values for 3 layers"):
            fg.soft_forward(model.factors, spec.nonlinearity, batch, short.mu, cfg)
        with pytest.raises(DimensionMismatch, match="2 mu values for 3 layers"):
            grad_mu(model, teacher, batch, short, budget, 1.0, cfg)

    @pytest.mark.parametrize("mu", [[[4.0], [7.0], [2.0]], 4.0])
    def test_mu_not_one_value_per_layer_raises(self, mu):
        # a column of 3 values broadcasts against the gate grid: refuse it
        spec, model, X = small_model(seed=7)
        cfg = FermiConfig(T=0.01, r_min=1)
        with pytest.raises(DimensionMismatch, match=r"mu of shape \(.*\) for 3 layers"):
            fg.soft_forward(model.factors, spec.nonlinearity, X[:, :8], mu, cfg)

    def test_nonfinite_raises(self):
        spec, model, X = small_model(seed=7)
        caps = spec.caps()
        model.factors[0].A[0, 0] = np.inf
        cfg = FermiConfig(T=0.01, r_min=1)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=1500)
        batch = X[:, :8]
        teacher = np.zeros((spec.output_dim, 8))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteGradient):
                grad_mu(model, teacher, batch, MuVector(caps.astype(float), caps, 1),
                        budget, 1.0, cfg)


class TestOptimizeRanks:
    def test_full_size_parabolic_budget_stays_at_caps(self):
        spec, model, X = small_model(seed=8, shapes=((16, 16), (16, 16)),
                                     planted=(3, 10))
        dense = spec.dense_param_count()
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=dense,
                                              mode="parabolic")
        cfg = FermiConfig(T=0.01, r_min=2)
        opt = OptimizerConfig(step_size=0.1, max_iters=50, batch_size=16)
        traj, alloc = optimize_ranks(model, X, budget, cfg, RhoSchedule(), opt)
        assert np.array_equal(alloc.ranks, spec.caps())
        assert alloc.achieved_params == dense
        assert np.allclose(traj[-1].mu, spec.caps())

    def test_infeasible_budget_raises(self):
        spec, model, X = small_model(seed=9, shapes=((16, 16), (16, 16)),
                                     planted=(3, 10))
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=100,
                                              mode="linear")
        cfg = FermiConfig(T=0.01, r_min=8)   # minimum count 2*8*32 = 512 > 100
        with pytest.raises(InfeasibleBudget):
            optimize_ranks(model, X, budget, cfg)

    def test_trajectory_deterministic_and_boxed(self):
        spec, model, X = small_model(seed=10)
        target = int(0.5 * spec.dense_param_count())
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=target,
                                              mode="linear", n_scale=1e7)
        cfg = FermiConfig(T=0.01, r_min=2)
        opt = OptimizerConfig(step_size=0.5, max_iters=120, batch_size=16)
        t1, a1 = optimize_ranks(model, X, budget, cfg, RhoSchedule(), opt)
        t2, a2 = optimize_ranks(model, X, budget, cfg, RhoSchedule(), opt)
        assert len(t1) == len(t2)
        for p1, p2 in zip(t1, t2):
            assert np.array_equal(p1.mu, p2.mu)
            assert p1.kl == p2.kl and p1.rho == p2.rho and p1.n_param == p2.n_param
        assert np.array_equal(a1.ranks, a2.ranks)
        caps = spec.caps()
        for p in t1:
            assert np.all(p.mu >= cfg.r_min - 1e-12)
            assert np.all(p.mu <= caps + 1e-12)

    def test_kl_column_is_batch_kl_before_the_step(self):
        spec, model, X = small_model(seed=12)
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.3 * spec.dense_param_count()),
            mode="linear", n_scale=1e6)
        cfg = FermiConfig(T=0.01, r_min=2)
        bs = 16
        # a long step moves mu far from the caps, so late rows carry a KL near 1e-2
        opt = OptimizerConfig(step_size=20.0, max_iters=60, batch_size=bs)
        traj, _ = optimize_ranks(model, X, budget, cfg, RhoSchedule(), opt)
        assert len(traj) == 60
        for t in (0, 1, 17, 40, 59):
            batch = X[:, (t * bs + np.arange(bs)) % X.shape[1]]
            teacher = fg.dense_forward(model.dense_weights, spec.nonlinearity, batch)
            mu_before = spec.caps() if t == 0 else traj[t - 1].mu
            student = fg.soft_forward(model.factors, spec.nonlinearity, batch, mu_before, cfg)
            assert traj[t].kl > 0.0
            assert traj[t].kl == kl_divergence(teacher.T, student.T)

    def test_rho_column_follows_schedule(self):
        spec, model, X = small_model(seed=11)
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.7 * spec.dense_param_count()),
            mode="linear", n_scale=1e7)
        sched = RhoSchedule(rho0=1.0, alpha=1.05, rho_max=2000.0)
        opt = OptimizerConfig(step_size=0.5, max_iters=40, batch_size=16)
        traj, _ = optimize_ranks(model, X, budget, FermiConfig(r_min=2), sched, opt)
        for pt in traj:
            assert pt.rho == rho_schedule(pt.iteration, sched)


def reference_optimize(model, data, budget, cfg, sched, opt):
    """optimize_ranks as a plain loop: every iteration slices its batch, runs
    B_0 @ X, and takes A^T delta and B^T (F*w) with a transposed operand.
    Returns the (mu, kl, n_param) rows, the ranks and the stop reason."""
    act, act_deriv = fg.ACTIVATIONS[model.nonlinearity]
    caps = np.array([f.rank for f in model.factors], dtype=np.int64)
    mu = caps.astype(np.float64)
    n_samples = data.shape[1]
    bs = min(opt.batch_size, n_samples)
    last = len(model.factors) - 1
    log_ps, rows, stop = {}, [], "iteration_cap"
    for t in range(opt.max_iters):
        start = (t * bs) % n_samples
        X = data[:, (start + np.arange(bs)) % n_samples]
        if start not in log_ps:
            log_ps[start] = fg._log_softmax(
                fg.dense_forward(model.dense_weights, model.nonlinearity, X), axis=0)
        log_p = log_ps[start]
        p = np.exp(log_p)
        h, cache = X, []
        for l, f in enumerate(model.factors):
            F = fermi_factors(mu[l], f.rank, cfg.T)
            u = f.B @ h
            z = f.A @ (F[:, None] * u)
            cache.append((h, u, F))
            h = act(z) if l < last else z
        log_q = fg._log_softmax(z, axis=0)
        q = np.exp(log_q)
        kl = max(0.0, float(np.mean(np.sum(p * (log_p - log_q), axis=0))))
        delta = (q - p) / bs
        g = np.zeros(len(caps))
        for l in range(last, -1, -1):
            f = model.factors[l]
            h_in, u, F = cache[l]
            w = f.A.T @ delta
            g[l] = np.sum(w * u, axis=1) @ (F * (1.0 - F) / (f.rank * cfg.T))
            if l > 0:
                delta = (f.B.T @ (F[:, None] * w)) * act_deriv(h_in)
        rho = rho_schedule(t, sched)
        g += fg.penalty_grad(MuVector(mu, caps, cfg.r_min), budget, rho)
        new_mu = np.clip(mu - opt.step_size * g, cfg.r_min, caps)
        step = float(np.max(np.abs(new_mu - mu)))
        mu = new_mu
        n_param = float(budget.count(mu))
        rows.append((mu, kl, n_param))
        if step < opt.mu_tol and fg.budget_violation(n_param, budget) < opt.constraint_tol:
            stop = "converged"
            break
    return rows, round_and_repair(MuVector(mu, caps, cfg.r_min), budget).ranks, stop


class CountingMatrix(np.ndarray):
    """A matrix that counts the products it is the left operand of."""

    def __matmul__(self, other):
        self.products += 1
        return self.view(np.ndarray) @ other


class TestLoopEquivalence:
    """optimize_ranks holds the teacher's log p and B0 x per sample for the
    batches its run can reach and uses row products in the backward; its
    trajectory must match the plain loop above."""

    @pytest.mark.parametrize("mode", ["linear", "parabolic"])
    @pytest.mark.parametrize("nonlinearity", ["tanh", "identity"])
    def test_matches_reference_loop_row_by_row(self, nonlinearity, mode):
        spec = tm.ToyModelSpec(layer_shapes=[(20, 28), (16, 20), (12, 16)],
                               planted_ranks=[4, 6, 5], nonlinearity=nonlinearity, seed=21)
        model = tm.build_teacher(spec)
        tm.attach_data_aware_factors(model, tm.gen_calibration(spec, 256, seed=22))
        data = tm.gen_calibration(spec, 200, seed=23)    # 200 = 12 batches of 16 + 8
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.6 * spec.dense_param_count()), mode=mode,
            n_scale=1e5)
        cfg = FermiConfig(T=0.02, r_min=2)
        sched = RhoSchedule(rho0=1.0, alpha=1.05, rho_max=500.0)
        opt = OptimizerConfig(step_size=2.0, max_iters=300, batch_size=16)
        if mode == "linear":
            # stiff at the cap (43.8), but the run converges before the ramp
            # brings step * rho * sum(a_l^2) / n_scale to 2, so it is not refused
            assert opt.step_size * sched.rho_max * (budget.a @ budget.a) / budget.n_scale > 2
        traj, alloc = optimize_ranks(model, data, budget, cfg, sched, opt)
        rows, ranks, stop = reference_optimize(model, data, budget, cfg, sched, opt)
        assert len(traj) == len(rows)
        for pt, (mu, kl, n_param) in zip(traj, rows):
            assert np.max(np.abs(pt.mu - mu) / np.abs(mu)) <= 1e-12
            assert abs(pt.kl - kl) <= 1e-14
        # the run moved mu off the caps, so the comparison covers the gates' slopes
        assert np.any(traj[-1].mu < spec.caps() - 1.0)
        assert np.array_equal(alloc.ranks, ranks)
        assert alloc.stop_reason == stop

    @pytest.mark.parametrize("nonlinearity", ["tanh", "identity"])
    def test_float32_loop_matches_float64_reference(self, nonlinearity):
        # At FLOAT32_MIN_WIDTH the loop runs in float32 and the reference in
        # float64. Measured over these 110 iterations: mu within 5.3e-12
        # relative and batch KL within 1.2e-7 absolute (2.1e-3 relative).
        width = fg.FLOAT32_MIN_WIDTH
        spec = tm.ToyModelSpec(layer_shapes=[(width, width)] * 2, planted_ranks=[64, 128],
                               nonlinearity=nonlinearity, seed=31)
        model = tm.build_teacher(spec)
        tm.attach_data_aware_factors(model, tm.gen_calibration(spec, 512, seed=32))
        data = tm.gen_calibration(spec, 1000, seed=33)
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.6 * spec.dense_param_count()), n_scale=1e6)
        cfg = FermiConfig(T=0.02, r_min=8)
        sched = RhoSchedule(rho0=1.0, alpha=1.02, rho_max=500.0)
        opt = OptimizerConfig(step_size=0.05, max_iters=150, batch_size=32)
        assert fg._Net(model.factors, nonlinearity, cfg).dtype == np.float32
        traj, alloc = optimize_ranks(model, data, budget, cfg, sched, opt)
        rows, ranks, stop = reference_optimize(model, data, budget, cfg, sched, opt)
        assert len(traj) == len(rows)
        for pt, (mu, kl, n_param) in zip(traj, rows):
            assert np.max(np.abs(pt.mu - mu) / np.abs(mu)) <= 1e-10
            assert abs(pt.kl - kl) <= 1e-6
        assert np.any(traj[-1].mu < spec.caps() - 1.0)
        assert np.array_equal(alloc.ranks, ranks)
        assert alloc.stop_reason == stop
        # the KL column is soft_forward's KL, float32 included (batches of the
        # first epoch, where the loop's B_0 x has the same operands)
        for t in (0, 10, 30):
            batch = data[:, t * 32 + np.arange(32)]
            teacher = fg.dense_forward(model.dense_weights, nonlinearity, batch)
            mu_before = spec.caps() if t == 0 else traj[t - 1].mu
            student = fg.soft_forward(model.factors, nonlinearity, batch, mu_before, cfg)
            assert traj[t].kl == kl_divergence(teacher.T, student.T)

    def test_loop_dtype_follows_the_widest_layer(self):
        def net(shapes):
            layers = [LowRankFactors(np.ones((m, min(m, n))), np.ones((min(m, n), n)))
                      for m, n in shapes]
            return fg._Net(layers, "tanh", FermiConfig())

        cutoff = fg.FLOAT32_MIN_WIDTH
        for shapes in ([(64, 64)] * 4, [(cutoff - 1, 16), (16, cutoff - 1)]):
            narrow = net(shapes)
            assert narrow.dtype == np.float64
            (A0, B0, _), *rest = narrow.layers
            assert A0.dtype == np.float64 and B0 is None
            assert all(M.dtype == np.float64 for A, B, _ in rest for M in (A, B))
        for shapes in ([(16, cutoff), (16, 16)], [(16, 16), (cutoff, 16)],
                       [(1024, 1024)] * 2):
            wide = net(shapes)
            assert wide.dtype == np.float32
            (A0, B0, _), *rest = wide.layers
            # the loop reads B_0 only through B_0 @ x, which callers form in float64
            assert A0.dtype == np.float32 and B0 is None
            assert all(M.dtype == np.float32 for A, B, _ in rest for M in (A, B))

    def test_aligned_data_runs_teacher_once_per_reachable_batch(self, monkeypatch):
        spec, model, X = small_model(seed=13)
        bs = 16
        data = X[:, :4 * bs]                             # 4 whole batches
        teacher_runs = []

        def counting_dense_forward(*args):
            teacher_runs.append(1)
            return fg.run(args[0], args[1], args[2])

        monkeypatch.setattr(fg, "dense_forward", counting_dense_forward)
        B0 = model.factors[0].B.view(CountingMatrix)
        B0.products = 0
        model.factors[0].B = B0
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.5 * spec.dense_param_count()), n_scale=1e6)
        opt = OptimizerConfig(step_size=0.5, max_iters=12, mu_tol=1e-300, batch_size=bs)
        traj, _ = optimize_ranks(model, data, budget, FermiConfig(r_min=2), RhoSchedule(), opt)
        assert len(traj) == 12                           # 3 epochs of 4 batches
        assert len(teacher_runs) == 4
        assert B0.products == 4

    @pytest.mark.parametrize("n_samples, iters, passes", [
        (4 * 16 - 1, 13, 4),     # 3 epochs and more, every batch start a new one
        (10 * 16, 3, 3),         # the cap reaches 3 of the 10 batches
    ])
    def test_teacher_and_first_layer_product_once_per_reachable_batch(
            self, monkeypatch, n_samples, iters, passes):
        spec, model, _ = small_model(seed=13)
        data = tm.gen_calibration(spec, n_samples, seed=113)
        teacher_runs = []

        def counting_dense_forward(*args):
            teacher_runs.append(args[2].shape[1])
            return fg.run(args[0], args[1], args[2])

        monkeypatch.setattr(fg, "dense_forward", counting_dense_forward)
        B0 = model.factors[0].B.view(CountingMatrix)
        B0.products = 0
        model.factors[0].B = B0
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.5 * spec.dense_param_count()), n_scale=1e6)
        opt = OptimizerConfig(step_size=0.5, max_iters=iters, mu_tol=1e-300, batch_size=16)
        traj, _ = optimize_ranks(model, data, budget, FermiConfig(r_min=2), RhoSchedule(), opt)
        assert len(traj) == iters
        assert len(teacher_runs) == B0.products == passes
        assert sum(teacher_runs) == min(n_samples, iters * 16)

    def test_memory_held_does_not_grow_with_unaligned_sample_counts(self):
        # at 16k - 1 samples every iteration starts a batch at a new sample; at
        # n_scale 1e7 the linear penalty step stays below the stiffness bound
        spec, model, _ = small_model(seed=13, shapes=((64, 64), (64, 64)), planted=(8, 16))
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.5 * spec.dense_param_count()), n_scale=1e7)
        opt = OptimizerConfig(step_size=0.5, max_iters=300, mu_tol=1e-300, batch_size=16)
        peaks = []
        for n_samples in (16 * 16, 16 * 16 - 1):
            data = tm.gen_calibration(spec, n_samples, seed=113)
            tracemalloc.start()
            try:
                optimize_ranks(model, data, budget, FermiConfig(r_min=2), RhoSchedule(), opt)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestPerRunSetUp:
    """optimize_ranks builds what no iteration changes once per run; its gate
    kernel and its overflow handling must behave as the public functions do."""

    @pytest.mark.parametrize("mu", [
        [9.3, 4.5, 2.25],          # inside every transition
        [500.0, 500.0, 500.0],     # far above the caps: every gate exactly 1
        [-500.0, -500.0, -500.0],  # far below: every gate exactly 0 (exp overflows)
        [-500.0, 4.5, 500.0],
    ])
    def test_loop_gate_rows_equal_fermi_factors(self, mu):
        spec, model, _ = small_model(seed=14, shapes=((24, 20), (12, 24), (6, 12)),
                                     planted=(3, 4, 2))
        caps = spec.caps()
        assert len(set(caps.tolist())) == 3
        cfg = FermiConfig(T=0.03, r_min=1)
        net = fg._Net(model.factors, spec.nonlinearity, cfg)
        mu = np.array(mu)
        with np.errstate(over="ignore"):
            gates = fg._gates(net.j, mu, net.widths)
        for l, cap in enumerate(caps):
            assert np.array_equal(gates[l, :cap], fermi_factors(mu[l], cap, cfg.T))
        if mu[0] == 500.0:
            assert np.all(gates == 1.0)
        if mu[0] == -500.0:
            assert np.all(gates[0] == 0.0)

    def test_saturating_gates_warn_nothing(self):
        # at T = 1e-4 a gate 1.7 indices above mu has an exponent past 709:
        # exp overflows and the gate is exactly 0, with no RuntimeWarning
        spec, model, X = small_model(seed=15)
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.5 * spec.dense_param_count()), n_scale=1e6)
        cfg = FermiConfig(T=1e-4, r_min=2)
        opt = OptimizerConfig(step_size=2.0, max_iters=30, batch_size=16)
        traj, _ = optimize_ranks(model, X, budget, cfg, RhoSchedule(), opt)
        mu = traj[-1].mu
        assert np.all(mu < spec.caps() - 3.0)
        assert any(np.any(fermi_factors(m, cap, cfg.T) == 0.0) for m, cap in zip(mu, spec.caps()))

    def test_overflow_elsewhere_is_a_non_finite_gradient(self):
        # the penalty gradient rho * dev * slope / n_scale overflows to inf
        spec, model, X = small_model(seed=15)
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.5 * spec.dense_param_count()),
            n_scale=5e-324)
        opt = OptimizerConfig(max_iters=5, batch_size=16)
        with pytest.raises(NonFiniteGradient):
            optimize_ranks(model, X, budget, FermiConfig(r_min=2), RhoSchedule(), opt)


class TestStiffnessBound:
    """In linear mode optimize_ranks refuses the first step at which the
    penalty's curvature step * rho * sum(a_l^2) / n_scale reaches 2."""

    @pytest.fixture(scope="class")
    def rectangular(self):
        # the CLI's stiffness teacher, calibrated and trained on 512 samples of seed 11
        spec = tm.ToyModelSpec(layer_shapes=[(128, 64), (64, 128), (128, 64), (64, 128)],
                               planted_ranks=[4, 8, 16, 48], seed=20)
        model = tm.build_teacher(spec)
        X = tm.gen_calibration(spec, 512, seed=11)
        tm.attach_data_aware_factors(model, X)
        return spec, model, X

    @staticmethod
    def optimize(rectangular, mode):
        spec, model, X = rectangular
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.6 * spec.dense_param_count()), mode=mode)
        opt = OptimizerConfig(step_size=10.0, max_iters=1500)
        return optimize_ranks(model, X, budget, FermiConfig(), RhoSchedule(), opt)

    def test_linear_run_refused_where_the_bound_binds(self, rectangular):
        # 10 * rho * 4 * 192^2 / 1e9 = 2 at rho = 1356.3, which the 1.02 ramp
        # passes at iteration 365; at the cap (2000) it is 2.949
        with pytest.raises(ValueError, match=r"= 2\.949 >= 2 .* at iteration 365 ") as exc:
            self.optimize(rectangular, "linear")
        message = str(exc.value)
        assert "OptimizerConfig.step_size" in message and "BudgetConstraint.n_scale" in message

    def test_parabolic_run_is_unchecked(self, rectangular):
        _, alloc = self.optimize(rectangular, "parabolic")
        assert alloc.ranks.tolist() == [30, 30, 30, 31]


class TestRoundAndRepair:
    def budget2(self, target, mode="linear"):
        return BudgetConstraint.from_shapes([(1024, 1024), (1024, 1024)],
                                            n_target=target, mode=mode)

    def test_integer_mu_under_budget_unchanged(self):
        mu = MuVector([100.0, 200.0], [1024, 1024], r_min=8)
        alloc = round_and_repair(mu, self.budget2(1_000_000))
        assert alloc.ranks.tolist() == [100, 200]
        assert alloc.achieved_params == 300 * 2048

    def test_fixture_rounding_hits_target_exactly(self):
        mu = MuVector([384.6, 383.4], [1024, 1024], r_min=8)
        alloc = round_and_repair(mu, self.budget2(1_572_864))
        assert alloc.ranks.tolist() == [385, 383]
        assert alloc.achieved_params == 1_572_864

    def test_single_decrement(self):
        budget = BudgetConstraint.from_shapes([(5, 5), (3, 3)], n_target=46,
                                              mode="linear")
        mu = MuVector([4.0, 2.0], [5, 3], r_min=1)   # 4*10 + 2*6 = 52, over by 6
        alloc = round_and_repair(mu, budget)
        assert alloc.ranks.tolist() == [3, 2]        # largest marginal cost first
        assert alloc.achieved_params == 42
        assert budget.n_target - alloc.achieved_params < 10

    def test_tie_breaks_to_lowest_index(self):
        budget = BudgetConstraint.from_shapes([(4, 4), (4, 4)], n_target=30,
                                              mode="linear")
        mu = MuVector([2.0, 2.0], [4, 4], r_min=1)   # 32 > 30, equal costs
        alloc = round_and_repair(mu, budget)
        assert alloc.ranks.tolist() == [1, 2]

    def test_parabolic_marginal_cost(self):
        budget = BudgetConstraint.from_shapes([(6, 6), (10, 10)], n_target=1,
                                              mode="parabolic")
        # marginal of lowering r -> r-1 is a - 2r + 1; verify against counts
        for (m, n), r in [((6, 6), 4), ((10, 10), 7)]:
            hi = param_count(m, n, r, "parabolic").decomposed
            lo = param_count(m, n, r - 1, "parabolic").decomposed
            assert hi - lo == (m + n) - 2 * r + 1

    def test_repair_exhaustion_raises(self):
        budget = BudgetConstraint.from_shapes([(4, 4), (4, 4)], n_target=10,
                                              mode="linear")
        mu = MuVector([2.0, 2.0], [4, 4], r_min=1)   # floor count 16 > 10
        with pytest.raises(InfeasibleBudget):
            round_and_repair(mu, budget)

    @pytest.mark.parametrize("bad", [[np.nan, 10.0, 30.0, 20.0],
                                     [12.0, 10.0, np.inf, 20.0],
                                     [12.0, -np.inf, 30.0, 20.0],
                                     [np.nan, 10.0, np.inf, 20.0]])
    def test_non_finite_mu_refused(self, bad):
        budget = BudgetConstraint.from_shapes([(64, 64)] * 4, n_target=10**6,
                                              mode="linear")
        with pytest.raises(ConvergenceFailure, match="non-finite mu"):
            round_and_repair(MuVector(bad, [64] * 4, r_min=1), budget)


def reference_uniform_ranks(shapes, budget, r_min):
    """uniform_ranks by scanning every kappa candidate r / N_l: build one
    Fraction per (r, N_l) pair, sort them in descending order and take the
    first whose ranks floor(kappa * N_l), clipped to [r_min, N_l], fit the
    budget; then the same greedy fill."""
    caps = np.array([min(m, n) for (m, n) in shapes], dtype=np.int64)
    if np.any(caps < r_min):
        raise InfeasibleBudget(f"a layer cap is below r_min={r_min}")
    candidates = sorted({Fraction(r, int(c)) for c in caps for r in range(r_min, int(c) + 1)},
                        reverse=True)
    for frac in candidates:
        raw = np.array([(frac.numerator * int(c)) // frac.denominator for c in caps])
        ranks = np.clip(raw, r_min, caps).astype(np.int64)
        if fg.count_params(ranks, budget) <= budget.n_target:
            break
    else:
        raise InfeasibleBudget(f"even kappa for r_min={r_min} exceeds target {budget.n_target}")
    achieved = fg.count_params(ranks, budget)
    while True:
        cost = budget.slope(ranks + 0.5)
        cost[ranks >= caps] = np.inf
        cost[achieved + cost > budget.n_target] = np.inf
        pick = int(np.argmin(cost))
        if not np.isfinite(cost[pick]):
            break
        ranks[pick] += 1
        achieved = fg.count_params(ranks, budget)
    return fg.RankAllocation(ranks=ranks, achieved_params=achieved,
                             target_params=budget.n_target)


class TestUniformRanks:
    def test_two_equal_layers_fixture(self):
        budget = BudgetConstraint.from_shapes([(1024, 1024), (1024, 1024)],
                                              n_target=1_572_864, mode="linear")
        alloc = uniform_ranks([(1024, 1024), (1024, 1024)], budget)
        assert alloc.ranks.tolist() == [384, 384]    # kappa = 0.375
        assert alloc.achieved_params == 1_572_864

    def test_single_layer_max_rank(self):
        budget = BudgetConstraint.from_shapes([(10, 10)], n_target=125,
                                              mode="linear")
        alloc = uniform_ranks([(10, 10)], budget)
        assert alloc.ranks.tolist() == [6]           # 6*20 = 120 <= 125 < 140
        assert alloc.achieved_params == 120

    def test_heterogeneous_shared_kappa(self):
        shapes = [(8, 8), (16, 16), (32, 32)]
        budget = BudgetConstraint.from_shapes(shapes, n_target=1344, mode="linear")
        alloc = uniform_ranks(shapes, budget)
        assert alloc.ranks.tolist() == [4, 8, 16]    # kappa = 1/2, exact fit
        assert alloc.achieved_params == 1344

    def test_upward_repair_spends_leftover(self):
        shapes = [(8, 8), (32, 32)]
        budget = BudgetConstraint.from_shapes(shapes, n_target=600, mode="linear")
        alloc = uniform_ranks(shapes, budget)
        assert alloc.achieved_params <= 600
        # no further increment can fit
        for l, (m, n) in enumerate(shapes):
            if alloc.ranks[l] < min(m, n):
                bumped = alloc.ranks.copy()
                bumped[l] += 1
                assert fg.count_params(bumped, budget) > 600

    def test_infeasible(self):
        budget = BudgetConstraint.from_shapes([(8, 8)], n_target=10, mode="linear")
        with pytest.raises(InfeasibleBudget):
            uniform_ranks([(8, 8)], budget, r_min=2)

    def test_r_min_below_one_refused(self):
        # r_min = 0 would otherwise allow rank-0 layers: [2, 0, 0, 0] here
        budget = BudgetConstraint.from_shapes([(64, 64)] * 4, n_target=300, mode="linear")
        with pytest.raises(ValueError, match="r_min must be >= 1"):
            uniform_ranks([(64, 64)] * 4, budget, r_min=0)

    @pytest.mark.parametrize("mode", ["linear", "parabolic"])
    def test_walk_matches_fraction_scan(self, mode):
        rng = np.random.default_rng(1401)
        cases = infeasible = 0
        for r_min in range(1, 9):
            for _ in range(10):
                shapes = [tuple(int(d) for d in rng.integers(r_min, 25, size=2))
                          for _ in range(rng.integers(1, 6))]
                n_inc = int(rng.integers(0, 40))
                full = BudgetConstraint.from_shapes(shapes, 10**9, mode=mode, n_inc=n_inc)
                caps = [min(s) for s in shapes]
                lo = fg.count_params([r_min] * len(shapes), full)
                hi = fg.count_params(caps, full)
                targets = {lo - 1, lo, hi, *rng.integers(lo, hi + 1, size=3).tolist()}
                for target in sorted(t for t in targets if t > n_inc):
                    budget = BudgetConstraint.from_shapes(shapes, target, mode=mode,
                                                          n_inc=n_inc)
                    try:
                        ref = reference_uniform_ranks(shapes, budget, r_min)
                    except InfeasibleBudget:
                        infeasible += 1
                        with pytest.raises(InfeasibleBudget):
                            uniform_ranks(shapes, budget, r_min)
                        continue
                    alloc = uniform_ranks(shapes, budget, r_min)
                    assert alloc.ranks.tolist() == ref.ranks.tolist()
                    assert alloc.achieved_params == ref.achieved_params
                    cases += 1
        assert cases > 300 and infeasible > 30


class TestValidation:
    def test_fermi_config(self):
        with pytest.raises(ValueError):
            FermiConfig(T=-1.0)
        with pytest.raises(ValueError):
            FermiConfig(r_min=0)

    def test_mu_vector_shapes(self):
        with pytest.raises(DimensionMismatch):
            MuVector([1.0, 2.0], [4])

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            BudgetConstraint(n_target=100, a=[10, 10], mode="cubic")
        with pytest.raises(InfeasibleBudget):
            BudgetConstraint(n_target=5, a=[10], n_inc=5)


class CountingLayer:
    """A dense layer that counts how often it is applied."""

    def __init__(self, W):
        self.W = W
        self.calls = 0

    def __matmul__(self, h):
        self.calls += 1
        return self.W @ h


class TestForwardPath:
    def test_layer_inputs_never_applies_last_layer(self):
        rng = np.random.default_rng(3)
        weights = [rng.standard_normal((5, 5)) for _ in range(4)]
        layers = [CountingLayer(W) for W in weights]
        X = rng.standard_normal((5, 3))
        inputs = list(fg.layer_inputs(layers, "tanh", X))
        assert len(inputs) == 4
        assert [l.calls for l in layers] == [1, 1, 1, 0]
        assert inputs[0] is X
        for W, h_in, h_out in zip(weights, inputs, inputs[1:]):
            assert np.array_equal(h_out, np.tanh(W @ h_in))

    def test_run_applies_each_layer_once(self):
        rng = np.random.default_rng(4)
        weights = [rng.standard_normal((6, 5)), rng.standard_normal((3, 6))]
        layers = [CountingLayer(W) for W in weights]
        X = rng.standard_normal((5, 2))
        y = fg.run(layers, "identity", X)
        assert [l.calls for l in layers] == [1, 1]
        assert np.array_equal(y, weights[1] @ (weights[0] @ X))
        assert np.array_equal(y, fg.dense_forward(weights, "identity", X))
