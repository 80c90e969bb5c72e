"""Fermi gates, penalty machinery, exact gradients, and the rank optimizer."""

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
    param_count_soft,
    penalty_loss,
    plain_svd_compress,
    rho_schedule,
    round_and_repair,
    soft_truncate_effective,
    uniform_ranks,
)
from lrcompress import fermigrad as fg
from lrcompress import toymodels as tm
from lrcompress.errors import DimensionMismatch


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


class TestSoftTruncate:
    def setup_method(self):
        rng = np.random.default_rng(50)
        W = rng.standard_normal((12, 10))
        self.f = plain_svd_compress(W, 10)
        self.ab = self.f.reconstruct()

    def test_saturated_equals_full_product(self):
        cfg = FermiConfig(T=0.01, r_min=1)
        # mu far above every index: all gates ~1
        out = soft_truncate_effective(self.f, 50.0, cfg)
        assert np.linalg.norm(out - self.ab) <= 1e-10 * np.linalg.norm(self.ab)

    def test_half_rank_matches_hard_truncation_at_midpoint(self):
        # the gate at j = mu is exactly 1/2, so the hard-truncation match
        # holds at mu = r - 0.5 (midpoint between kept and dropped indices)
        cfg = FermiConfig(T=1e-5, r_min=1)
        r = 6
        hard = self.f.truncated(r).reconstruct()
        soft = soft_truncate_effective(self.f, r - 0.5, cfg)
        assert np.linalg.norm(soft - hard) <= 1e-6 * np.linalg.norm(self.ab)

    def test_integer_mu_leaves_half_gate(self):
        cfg = FermiConfig(T=1e-5, r_min=1)
        r = 6
        hard = self.f.truncated(r).reconstruct()
        soft = soft_truncate_effective(self.f, float(r), cfg)
        half_dir = 0.5 * np.outer(self.f.A[:, r], self.f.B[r, :])
        assert np.linalg.norm(soft - hard - half_dir) <= 1e-6 * np.linalg.norm(self.ab)

    def test_mu_below_zero_kills_everything(self):
        cfg = FermiConfig(T=0.01, r_min=1)
        out = soft_truncate_effective(self.f, -2.0, cfg)
        assert np.linalg.norm(out) <= 1e-6 * np.linalg.norm(self.ab)


class TestParamCountSoft:
    def f1024(self, mode):
        return BudgetConstraint.from_shapes([(1024, 1024), (1024, 1024)],
                                            n_target=1_572_864, mode=mode)

    def test_linear_full_rank(self):
        mu = MuVector([1024.0, 1024.0], [1024, 1024])
        assert param_count_soft(mu, self.f1024("linear")) == 4_194_304

    def test_parabolic_full_rank_is_dense_size(self):
        mu = MuVector([1024.0, 1024.0], [1024, 1024])
        assert param_count_soft(mu, self.f1024("parabolic")) == 2_097_152

    def test_integer_mu_matches_discrete_count(self):
        shapes = [(16, 24), (13, 16), (40, 13)]
        for mode in ("linear", "parabolic"):
            budget = BudgetConstraint.from_shapes(shapes, n_target=10_000, mode=mode,
                                                  n_inc=17)
            ranks = np.array([5, 9, 2])
            mu = MuVector(ranks.astype(float), [min(m, n) for m, n in shapes])
            soft = param_count_soft(mu, budget)
            discrete = sum(
                param_count(m, n, int(r), mode).decomposed
                for (m, n), r in zip(shapes, ranks)
            ) + 17
            assert soft == discrete
            assert fg.count_params(ranks, budget) == discrete


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
        dev = param_count_soft(mu, budget) - budget.n_target
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
            n_par = param_count_soft(MuVector(m, caps, 1), budget)
            return kl + penalty_loss(n_par, budget, 2.0)

        h = 1e-3
        fd = np.array([(loss(mu0 + h * e) - loss(mu0 - h * e)) / (2 * h)
                       for e in np.eye(3)])
        for gi, fdi in zip(g, fd):
            if abs(gi) < 1e-12:
                assert abs(gi - fdi) <= 1e-8
            else:
                assert abs(gi - fdi) <= 1e-4 * abs(fdi)

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
