"""Planted-rank teachers, calibration generation, mode agreement, oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from lrcompress import (
    InfeasibleBudget,
    SearchSpaceTooLarge,
    brute_force_rank_search,
    build_teacher,
    default_spec,
    evaluate_allocations,
    gen_calibration,
    kl_divergence,
    pivga_factorize,
    svd_descending,
    truncation_error,
    uniform_ranks,
)
from lrcompress import fermigrad as fg
from lrcompress import toymodels as tm
from lrcompress.errors import DimensionMismatch
from lrcompress.fermigrad import BudgetConstraint, FermiConfig
from lrcompress.svdcompress import LowRankFactors
from lrcompress.toymodels import ToyModelSpec, attach_data_aware_factors


@pytest.fixture(scope="module")
def default_model():
    spec = default_spec(seed=2)
    model = build_teacher(spec)
    X = tm.gen_calibration(spec, 512, seed=1)
    attach_data_aware_factors(model, X)
    return spec, model, X


class TestSpecValidation:
    def test_shapes_must_compose(self):
        with pytest.raises(DimensionMismatch):
            ToyModelSpec(layer_shapes=[(8, 8), (8, 10)], planted_ranks=[2, 2])

    def test_planted_rank_bounds(self):
        with pytest.raises(DimensionMismatch):
            ToyModelSpec(layer_shapes=[(8, 8)], planted_ranks=[9])

    def test_output_dim_inferred_and_checked(self):
        spec = ToyModelSpec(layer_shapes=[(6, 4)], planted_ranks=[2])
        assert spec.output_dim == 6
        with pytest.raises(DimensionMismatch):
            ToyModelSpec(layer_shapes=[(6, 4)], planted_ranks=[2], output_dim=5)

    def test_no_layers(self):
        with pytest.raises(DimensionMismatch, match="no layers"):
            ToyModelSpec(layer_shapes=[], planted_ranks=[])

    def test_one_spectrum_decay_per_layer(self):
        with pytest.raises(DimensionMismatch, match="one spectrum_decay per layer"):
            ToyModelSpec(layer_shapes=[(8, 8), (8, 8)], planted_ranks=[2, 2],
                         spectrum_decay=[3.0])

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValueError):
            ToyModelSpec(layer_shapes=[(4, 4)], planted_ranks=[2],
                         nonlinearity="sigmoidal-frobulator")

    def test_round_trips_through_dict(self):
        spec = default_spec(seed=9)
        again = ToyModelSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


class TestBuildTeacher:
    def test_full_rank_when_planted_is_min(self):
        spec = ToyModelSpec(layer_shapes=[(8, 8)], planted_ranks=[8],
                            noise_floor=0.0, seed=3)
        W = build_teacher(spec).dense_weights[0]
        assert np.linalg.matrix_rank(W) == 8

    def test_exact_planted_rank_with_zero_floor(self):
        spec = ToyModelSpec(layer_shapes=[(12, 12)], planted_ranks=[4],
                            noise_floor=0.0, seed=4)
        W = build_teacher(spec).dense_weights[0]
        assert truncation_error(W, 4) <= 1e-10 * np.linalg.norm(W)

    def test_noise_floor_ratio(self):
        spec = ToyModelSpec(layer_shapes=[(32, 32)], planted_ranks=[8],
                            noise_floor=1e-3, seed=5)
        sigma = svd_descending(build_teacher(spec).dense_weights[0]).sigma
        assert sigma[8] / sigma[0] == pytest.approx(1e-3, rel=0.1)

    def test_deterministic(self):
        spec = default_spec(seed=6)
        a = build_teacher(spec).dense_weights
        b = build_teacher(spec).dense_weights
        for Wa, Wb in zip(a, b):
            assert np.array_equal(Wa, Wb)


class TestGenCalibration:
    def test_single_sample(self):
        spec = default_spec()
        X = gen_calibration(spec, 1, seed=0)
        assert X.shape == (64, 1)

    def test_same_seed_identical(self):
        spec = default_spec()
        assert np.array_equal(gen_calibration(spec, 32, seed=7),
                              gen_calibration(spec, 32, seed=7))

    def test_covariance_condition_number(self):
        spec = default_spec()
        X = gen_calibration(spec, 4096, seed=8)
        cond = np.linalg.cond(X @ X.T / 4096)
        assert 50 <= cond <= 200

    def test_distribution_fixed_by_spec_seed(self):
        spec = default_spec(seed=11)
        C1 = np.cov(gen_calibration(spec, 8192, seed=1))
        C2 = np.cov(gen_calibration(spec, 8192, seed=2))
        # different draws, same underlying covariance
        assert np.linalg.norm(C1 - C2) <= 0.2 * np.linalg.norm(C1)


class TestLayerCalibrationMatrices:
    """The one way C is formed: C_l = h_l h_l^T of each layer's input h_l."""

    @pytest.fixture(scope="class", params=["desk", "rectangular"])
    def calibrated(self, request):
        if request.param == "desk":
            spec = default_spec(seed=2)
        else:
            spec = ToyModelSpec(layer_shapes=[(20, 28), (16, 20), (12, 16)],
                                planted_ranks=[4, 6, 5], seed=21)
        model = build_teacher(spec)
        X = gen_calibration(spec, 256, seed=22)
        return model, X, tm.layer_calibration_matrices(model, X)

    def test_one_square_matrix_per_layer(self, calibrated):
        model, _, mats = calibrated
        assert [C.shape for C in mats] == [(n, n) for _, n in model.spec.layer_shapes]

    def test_exactly_symmetric_and_psd(self, calibrated):
        *_, mats = calibrated
        for C in mats:
            assert np.array_equal(C, C.T)
            eigs = np.linalg.eigvalsh(C)
            assert eigs.min() >= -1e-12 * eigs.max()

    def test_first_is_the_input_product(self, calibrated):
        _, X, mats = calibrated
        assert np.array_equal(mats[0], X @ X.T)

    def test_each_is_the_product_of_its_layer_input(self, calibrated):
        model, X, mats = calibrated
        inputs = fg.layer_inputs(model.dense_weights, model.nonlinearity, X)
        for C, h in zip(mats, inputs, strict=True):
            assert np.array_equal(C, h @ h.T)


class TestAttachFactors:
    def test_full_rank_factors_reconstruct_dense(self, default_model):
        _, model, _ = default_model
        for W, f in zip(model.dense_weights, model.factors):
            assert np.linalg.norm(W - f.reconstruct()) <= 1e-10 * np.linalg.norm(W)

    def test_from_calibration_matrices_matches(self, default_model):
        spec, model, X = default_model
        mats = tm.layer_calibration_matrices(model, X)
        other = tm.ToyModel(spec=spec, dense_weights=model.dense_weights)
        tm.attach_factors_from_calibration(other, mats)
        for f1, f2 in zip(model.factors, other.factors):
            assert np.array_equal(f1.A, f2.A)
            assert np.array_equal(f1.B, f2.B)


class TestForwardModes:
    def test_dense_equals_hard_at_full_rank(self, default_model):
        spec, model, X = default_model
        Xb = X[:, :32]
        dense = fg.dense_forward(model.dense_weights, model.nonlinearity, Xb)
        hard = fg.hard_forward(model.factors, model.nonlinearity, Xb, spec.caps())
        assert np.linalg.norm(dense - hard) <= 1e-8 * np.linalg.norm(dense)

    def test_hard_equals_soft_at_midpoint_saturation(self, default_model):
        spec, model, X = default_model
        Xb = X[:, :32]
        ranks = np.array([5, 9, 17, 40])
        hard = fg.hard_forward(model.factors, model.nonlinearity, Xb, ranks)
        soft = fg.soft_forward(model.factors, model.nonlinearity, Xb, ranks - 0.5,
                               FermiConfig(T=1e-5, r_min=1))
        assert np.linalg.norm(hard - soft) <= 1e-5 * np.linalg.norm(hard)

    def test_hard_equals_pivga(self, default_model):
        spec, model, X = default_model
        Xb = X[:, :32]
        ranks = np.array([5, 9, 17, 40])
        hard = fg.hard_forward(model.factors, model.nonlinearity, Xb, ranks)
        piv = fg.run([pivga_factorize(f.truncated(int(r))) for f, r in zip(model.factors, ranks)],
                     model.nonlinearity, Xb)
        assert np.linalg.norm(hard - piv) <= 1e-8 * np.linalg.norm(hard)

    def test_soft_saturated_equals_dense(self, default_model):
        spec, model, X = default_model
        Xb = X[:, :32]
        dense = fg.dense_forward(model.dense_weights, model.nonlinearity, Xb)
        soft = fg.soft_forward(model.factors, model.nonlinearity, Xb, spec.caps().astype(float),
                               FermiConfig(T=1e-4, r_min=1))
        assert np.linalg.norm(dense - soft) <= 1e-8 * np.linalg.norm(dense)

    def test_width_check(self, default_model):
        spec, model, _ = default_model
        budget = BudgetConstraint.from_shapes(
            spec.layer_shapes, n_target=int(0.5 * spec.dense_param_count()), mode="linear")
        wrong = np.zeros((63, 4))
        for call in (lambda: tm.layer_calibration_matrices(model, wrong),
                     lambda: attach_data_aware_factors(build_teacher(spec), wrong),
                     lambda: evaluate_allocations(model, wrong, [spec.caps()])[0],
                     lambda: brute_force_rank_search(model, wrong, budget, grid_step=16)):
            with pytest.raises(DimensionMismatch, match="input width 63, model expects 64"):
                call()


class TestEvaluateAllocation:
    def test_caps_allocation_lossless(self, default_model):
        spec, model, X = default_model
        rep = evaluate_allocations(model, X[:, :64], [spec.caps()])[0]
        assert rep.kl <= 1e-10
        assert np.all(rep.per_layer_residual <= 1e-10)

    def test_planted_allocation_lossless_with_zero_floor(self):
        spec = ToyModelSpec(layer_shapes=[(24, 24)] * 3, planted_ranks=[3, 6, 12],
                            noise_floor=0.0, seed=13)
        model = build_teacher(spec)
        X = gen_calibration(spec, 256, seed=14)
        attach_data_aware_factors(model, X)
        rep = evaluate_allocations(model, X[:, :64], [spec.planted_ranks])[0]
        assert rep.kl <= 1e-8

    def test_kl_matches_definition(self, default_model):
        spec, model, X = default_model
        Xe = X[:, :48]
        ranks = np.array([6, 10, 14, 30])
        rep = evaluate_allocations(model, Xe, [ranks])[0]
        t = fg.dense_forward(model.dense_weights, model.nonlinearity, Xe)
        s = fg.hard_forward(model.factors, model.nonlinearity, Xe, ranks)
        assert rep.kl == kl_divergence(t.T, s.T)

    def test_one_teacher_pass_for_several_allocations(self, default_model, monkeypatch):
        spec, model, X = default_model
        Xe = X[:, :48]
        allocations = [np.array([6, 10, 14, 30]), spec.caps(), [1, 64, 2, 8]]
        singles = [evaluate_allocations(model, Xe, [ranks])[0] for ranks in allocations]
        calls = []
        dense_forward = fg.dense_forward
        monkeypatch.setattr(fg, "dense_forward",
                            lambda *a: calls.append(None) or dense_forward(*a))
        reports = evaluate_allocations(model, Xe, allocations)
        assert len(calls) == 1
        for got, want in zip(reports, singles, strict=True):
            assert got.to_dict() == want.to_dict()
            assert got.ranks.dtype == want.ranks.dtype
            assert got.per_layer_residual.tobytes() == want.per_layer_residual.tobytes()

    def test_nan_factor_gives_nan_kl(self, default_model):
        # a NaN must not read as KL 0, the best possible score
        spec, model, X = default_model
        factors = list(model.factors)
        A = factors[1].A.copy()
        A[0, 0] = np.nan
        factors[1] = LowRankFactors(A=A, B=factors[1].B)
        broken = tm.ToyModel(spec, model.dense_weights, factors=factors)
        reports = evaluate_allocations(broken, X[:, :48], [spec.caps(), [6, 10, 14, 30]])
        assert all(np.isnan(rep.kl) for rep in reports)

    def test_param_counts_match_formulas(self, default_model):
        spec, model, _ = default_model
        ranks = np.array([6, 10, 14, 30])
        rep = evaluate_allocations(model, gen_calibration(spec, 16, seed=0), [ranks])[0]
        assert rep.params_linear == int(np.sum(ranks * 128))
        assert rep.params_parabolic == int(np.sum(ranks * 128 - ranks**2))

    def test_kl_trend_along_rank_chains(self, default_model):
        # adding rank helps overall; tiny local upticks are possible through
        # the nonlinearity, so per-step checks carry a 5% allowance
        spec, model, X = default_model
        Xe = gen_calibration(spec, 256, seed=15)
        rng = np.random.default_rng(16)
        for _ in range(4):
            ranks = rng.integers(3, 16, size=4)
            kl_start = kl_prev = evaluate_allocations(model, Xe, [ranks])[0].kl
            for _ in range(10):
                l = int(rng.integers(0, 4))
                if ranks[l] >= 64:
                    continue
                ranks[l] += 1
                kl = evaluate_allocations(model, Xe, [ranks])[0].kl
                assert kl <= kl_prev * 1.05 + 1e-9
                kl_prev = kl
            assert kl_prev < kl_start



class TestBlockedScoring:
    """evaluate_allocations scores samples in column blocks: 64 samples wide on
    the desk model once ``_BLOCK_VALUES`` is 64 x 64."""

    ALLOCATIONS = [[6, 10, 14, 30], [64, 64, 64, 64], [1, 64, 2, 8]]

    @pytest.fixture
    def held_out(self, default_model):
        """Three blocks of 64 samples and a ragged one of 40."""
        spec, model, _ = default_model
        return model, gen_calibration(spec, 232, seed=21)

    def test_blocks_give_the_bits_of_one_block(self, held_out, monkeypatch):
        model, X = held_out
        monkeypatch.setattr(tm, "_BLOCK_VALUES", 10**9)
        whole = evaluate_allocations(model, X, self.ALLOCATIONS)
        monkeypatch.setattr(tm, "_BLOCK_VALUES", 64 * 64)
        blocked = evaluate_allocations(model, X, self.ALLOCATIONS)
        for got, want in zip(blocked, whole, strict=True):
            assert np.float64(got.kl).tobytes() == np.float64(want.kl).tobytes()
            assert got.to_dict() == want.to_dict()

    def test_teacher_runs_once_per_block(self, held_out, monkeypatch):
        model, X = held_out
        widths = []
        dense_forward = fg.dense_forward
        monkeypatch.setattr(fg, "dense_forward",
                            lambda *a: widths.append(a[2].shape[1]) or dense_forward(*a))
        monkeypatch.setattr(tm, "_BLOCK_VALUES", 64 * 64)
        evaluate_allocations(model, X, self.ALLOCATIONS)
        assert widths == [64, 64, 64, 40]

    def test_duplicates_scored_once_and_reported_apart(self, held_out, monkeypatch):
        model, X = held_out
        a, b = [6, 10, 14, 30], [1, 64, 2, 8]
        students = []
        hard_forward = fg.hard_forward
        monkeypatch.setattr(fg, "hard_forward",
                            lambda *args: students.append(tuple(args[3])) or hard_forward(*args))
        monkeypatch.setattr(tm, "_BLOCK_VALUES", 64 * 64)
        reports = evaluate_allocations(model, X, [a, b, np.array(a), a])
        assert students == [tuple(a), tuple(b)] * 4
        assert reports[0].to_dict() == reports[2].to_dict() == reports[3].to_dict()
        assert reports[1].to_dict() == evaluate_allocations(model, X, [b])[0].to_dict()
        arrays = [x for rep in reports for x in (rep.ranks, rep.per_layer_residual)]
        assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(arrays, 2))

    @pytest.mark.parametrize("bad, message", [
        ([0, 10, 14, 30], "outside boxes"),
        ([6, 10, 14], "ranks \\[6, 10, 14\\] for 4 layers"),
    ], ids=["outside-box", "too-few"])
    def test_every_tuple_checked_before_any_forward(self, held_out, monkeypatch, bad, message):
        model, X = held_out
        calls = []
        monkeypatch.setattr(fg, "dense_forward", lambda *a: calls.append("teacher"))
        monkeypatch.setattr(fg, "hard_forward", lambda *a: calls.append("student"))
        with pytest.raises(DimensionMismatch, match=message):
            evaluate_allocations(model, X, [[6, 10, 14, 30], bad])
        assert calls == []

    def test_holds_a_block_of_activations_not_all_samples(self, default_model, monkeypatch):
        spec, model, _ = default_model
        X = gen_calibration(spec, 4096, seed=22)   # 64 blocks
        monkeypatch.setattr(tm, "_BLOCK_VALUES", 64 * 64)
        allocations = [[6, 10, 14, 30], spec.caps()]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            evaluate_allocations(model, X, allocations)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 64 x 4096 activation is 2 MiB and a block of it 32 KiB: the bound
        # is 16 blocks, where scoring all samples at once held about six
        # whole activations
        assert peak - before < X.nbytes / 4


def reference_brute_force(model, data, budget, grid_step=1, r_min=1):
    """The flat itertools.product search, kept as the test oracle of the pruned walk.

    Returns (ranks, achieved, kl) of the first KL-minimal feasible tuple, or
    None when no tuple fits the budget.
    """
    grids = [np.arange(r_min, int(c) + 1, grid_step) for c in model.spec.caps()]
    teacher = fg.dense_forward(model.dense_weights, model.nonlinearity, data).T
    best = None
    for combo in itertools.product(*grids):
        ranks = np.array(combo, dtype=np.int64)
        achieved = fg.count_params(ranks, budget)
        if achieved > budget.n_target:
            continue
        student = fg.hard_forward(model.factors, model.nonlinearity, data, ranks)
        kl = kl_divergence(teacher, student.T)
        if best is None or kl < best[2]:
            best = (ranks, achieved, kl)
    return best


def feasible_tuples(model, budget, grid_step, r_min):
    """Every grid tuple within the budget, in itertools.product order."""
    grids = [range(r_min, int(c) + 1, grid_step) for c in model.spec.caps()]
    return [combo for combo in itertools.product(*grids)
            if fg.count_params(combo, budget) <= budget.n_target]


def feasible_prefixes(model, budget, grid_step, r_min):
    """Per depth, the grid prefixes that still fit the budget when completed
    with each remaining layer's lowest grid rank."""
    grids = [range(r_min, int(c) + 1, grid_step) for c in model.spec.caps()]
    floor = [g[0] for g in grids]
    levels = [[()]]
    for l, g in enumerate(grids):
        levels.append([(*p, r) for p in levels[-1] for r in g
                       if fg.count_params([*p, r, *floor[l + 1:]], budget) <= budget.n_target])
    return levels[1:]


def _factored_teacher(shapes, planted, seed):
    spec = ToyModelSpec(layer_shapes=shapes, planted_ranks=planted, seed=seed)
    model = build_teacher(spec)
    attach_data_aware_factors(model, gen_calibration(spec, 128, seed=seed + 1))
    return model, gen_calibration(spec, 64, seed=seed + 2)


EQUIVALENCE_TEACHERS = {
    "3-layer": ([(12, 16), (10, 12), (16, 10)], [3, 6, 2], 31),
    "4-layer": ([(8, 10), (10, 8), (8, 10), (9, 8)], [2, 5, 3, 6], 32),
    "1-layer": ([(16, 16)], [6], 33),
}


def _budget_between(model, mode, frac, r_min):
    """Target a fraction of the way from the all-r_min count to the full-rank count."""
    shapes = model.spec.layer_shapes
    caps = model.spec.caps()
    probe = fg.BudgetConstraint.from_shapes(shapes, n_target=10**12, mode=mode)
    lo = fg.count_params(np.minimum(r_min, caps), probe)
    hi = fg.count_params(caps, probe)
    return fg.BudgetConstraint.from_shapes(shapes, n_target=max(1, int(lo + frac * (hi - lo))),
                                           mode=mode)


class TestBruteForceMatchesReference:
    """The pruned prefix walk returns what the flat product loop returns."""

    @pytest.fixture(scope="class", params=sorted(EQUIVALENCE_TEACHERS))
    def teacher(self, request):
        return _factored_teacher(*EQUIVALENCE_TEACHERS[request.param])

    @pytest.mark.parametrize("mode", ["linear", "parabolic"])
    @pytest.mark.parametrize("grid_step", [1, 3, 8])
    @pytest.mark.parametrize("r_min", [1, 2, 8])
    def test_same_ranks_count_and_kl(self, teacher, monkeypatch, mode, grid_step, r_min):
        model, X = teacher
        seen = []
        kl_against = fg._kl_against
        monkeypatch.setattr(fg, "_kl_against", lambda *a: seen.append(kl_against(*a)) or seen[-1])
        for frac in (0.0, 0.3, 0.65):
            budget = _budget_between(model, mode, frac, r_min)
            ref = reference_brute_force(model, X, budget, grid_step, r_min)
            if ref is None:
                with pytest.raises(InfeasibleBudget):
                    brute_force_rank_search(model, X, budget, grid_step, r_min)
                continue
            seen.clear()
            got = brute_force_rank_search(model, X, budget, grid_step, r_min)
            assert np.array_equal(got.ranks, ref[0]), (frac, got.ranks, ref[0])
            assert got.achieved_params == ref[1]
            assert got.target_params == budget.n_target
            assert min(seen) == ref[2]          # bit-equal: same per-layer arithmetic

    def test_only_the_floor_fits(self, teacher):
        model, X = teacher
        for mode in ("linear", "parabolic"):
            floor = np.minimum(2, model.spec.caps())
            budget = fg.BudgetConstraint.from_shapes(
                model.spec.layer_shapes, mode=mode,
                n_target=fg.count_params(floor, _budget_between(model, mode, 0.0, 2)))
            assert feasible_tuples(model, budget, 1, 2) == [tuple(floor)]
            got = brute_force_rank_search(model, X, budget, grid_step=1, r_min=2)
            assert got.ranks.tolist() == floor.tolist()
            assert got.achieved_params == budget.n_target


class TestBruteForceWalk:
    """Tie rule, work counts and the empty grid of the pruned walk."""

    @pytest.fixture(scope="class")
    def teacher(self):
        return _factored_teacher(*EQUIVALENCE_TEACHERS["4-layer"])

    @pytest.mark.parametrize("winner", [0, 1, 7, -1])
    def test_ties_go_to_the_first_tuple_in_product_order(self, teacher, monkeypatch, winner):
        # every KL before the winner's call is 1 and every KL from it on is 0,
        # so with the strict < rule the winner-th feasible tuple must come back
        model, X = teacher
        budget = _budget_between(model, "linear", 0.4, 2)
        feasible = feasible_tuples(model, budget, 1, 2)
        assert len(feasible) > 8
        first_zero = winner % len(feasible)
        calls = []

        def kl_stub(terms, s):
            calls.append(None)
            return 0.0 if len(calls) > first_zero else 1.0

        monkeypatch.setattr(fg, "_kl_against", kl_stub)
        got = brute_force_rank_search(model, X, budget, grid_step=1, r_min=2)
        assert tuple(got.ranks.tolist()) == feasible[first_zero]
        assert len(calls) == len(feasible)

    @pytest.mark.parametrize("mode", ["linear", "parabolic"])
    def test_one_kl_per_feasible_tuple_and_one_teacher(self, teacher, monkeypatch, mode):
        model, X = teacher
        budget = _budget_between(model, mode, 0.5, 1)
        counts = {"_teacher_terms": 0, "_kl_against": 0, "dense_forward": 0, "truncated": 0,
                  "count_params": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*a, **k):
                counts[name] += 1
                return original(*a, **k)

            monkeypatch.setattr(owner, name, wrapper)

        counted(fg, "_teacher_terms")
        counted(fg, "_kl_against")
        counted(fg, "dense_forward")
        counted(LowRankFactors, "truncated")
        counted(tm, "count_params")
        brute_force_rank_search(model, X, budget, grid_step=1, r_min=1)
        levels = feasible_prefixes(model, budget, 1, 1)
        assert levels[-1] == feasible_tuples(model, budget, 1, 1)
        # one layer application per feasible prefix; each parent checks its
        # feasible children plus at most the one infeasible rank it stops at
        nodes = sum(map(len, levels))
        assert counts.pop("count_params") <= nodes + 1 + sum(map(len, levels[:-1]))
        assert counts == {"_teacher_terms": 1, "_kl_against": len(levels[-1]),
                          "dense_forward": 1, "truncated": nodes}

    def test_rank_floor_above_a_cap_is_infeasible(self, teacher):
        model, X = teacher
        budget = _budget_between(model, "linear", 1.0, 1)
        assert reference_brute_force(model, X, budget, grid_step=1, r_min=10) is None
        with pytest.raises(InfeasibleBudget, match="no grid point"):
            brute_force_rank_search(model, X, budget, grid_step=1, r_min=10)


class TestBruteForce:
    def small_fixture(self):
        spec = ToyModelSpec(layer_shapes=[(16, 16), (16, 16)], planted_ranks=[3, 12],
                            seed=5)
        model = build_teacher(spec)
        X = gen_calibration(spec, 256, seed=21)
        attach_data_aware_factors(model, X)
        return spec, model, X

    def test_single_layer_takes_largest_feasible_rank(self):
        spec = ToyModelSpec(layer_shapes=[(16, 16)], planted_ranks=[6], seed=1)
        model = build_teacher(spec)
        X = gen_calibration(spec, 128, seed=2)
        attach_data_aware_factors(model, X)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=330,
                                              mode="linear")
        alloc = brute_force_rank_search(model, X, budget, grid_step=1, r_min=1)
        assert alloc.ranks.tolist() == [10]          # 10*32 = 320 <= 330 < 352

    def test_optimum_beats_uniform_and_random(self):
        spec, model, X = self.small_fixture()
        Xe = gen_calibration(spec, 256, seed=22)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=307,
                                              mode="linear")
        best = brute_force_rank_search(model, Xe, budget, grid_step=1, r_min=2)
        best_kl = evaluate_allocations(model, Xe, [best.ranks])[0].kl
        uni = uniform_ranks(spec.layer_shapes, budget, r_min=2)
        assert best_kl <= evaluate_allocations(model, Xe, [uni.ranks])[0].kl + 1e-12
        rng = np.random.default_rng(23)
        tried = 0
        while tried < 20:
            ranks = rng.integers(2, 17, size=2)
            if fg.count_params(ranks, budget) > budget.n_target:
                continue
            tried += 1
            assert best_kl <= evaluate_allocations(model, Xe, [ranks])[0].kl + 1e-12

    def test_lexicographic_tie_break_and_determinism(self):
        spec, model, X = self.small_fixture()
        Xe = gen_calibration(spec, 128, seed=24)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=307,
                                              mode="linear")
        a = brute_force_rank_search(model, Xe, budget, grid_step=1, r_min=2)
        b = brute_force_rank_search(model, Xe, budget, grid_step=1, r_min=2)
        assert np.array_equal(a.ranks, b.ranks)
        # independently enumerate the near-tie set; the result must be its
        # lexicographic minimum
        best_kl = evaluate_allocations(model, Xe, [a.ranks])[0].kl
        ties = []
        for r0 in range(2, 17):
            for r1 in range(2, 17):
                ranks = np.array([r0, r1])
                if fg.count_params(ranks, budget) > budget.n_target:
                    continue
                kl = evaluate_allocations(model, Xe, [ranks])[0].kl
                if kl <= best_kl * (1 + 1e-12):
                    ties.append((r0, r1))
        assert tuple(a.ranks.tolist()) == min(ties)

    def test_search_space_guard(self):
        spec = default_spec(seed=2)
        model = build_teacher(spec)
        X = gen_calibration(spec, 64, seed=3)
        attach_data_aware_factors(model, X)
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=9830,
                                              mode="linear")
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_rank_search(model, X, budget, grid_step=1, r_min=1)

    def test_infeasible_budget(self):
        spec, model, X = self.small_fixture()
        budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=100,
                                              mode="linear")
        with pytest.raises(InfeasibleBudget):
            brute_force_rank_search(model, X, budget, grid_step=1, r_min=2)
