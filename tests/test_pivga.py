"""Pivoted gauge fixing: skeleton selection, losslessness, forward pass, counts."""

import numpy as np
import pytest
import scipy.linalg

from lrcompress import (
    IllConditioned,
    LowRankFactors,
    RankDeficient,
    breakeven_rank,
    param_count,
    pivga_factorize,
    pivga_forward,
    plain_svd_compress,
    select_skeleton_columns,
)
from lrcompress import matrixio as mio
from lrcompress.errors import DimensionMismatch


def seeded_factors(seed, m, n, r):
    rng = np.random.default_rng(seed)
    return LowRankFactors(A=rng.standard_normal((m, r)), B=rng.standard_normal((r, n)))


class TestSelectSkeletonColumns:
    def test_leading_identity(self):
        r, n = 3, 7
        B = np.hstack([np.eye(r), np.zeros((r, n - r))])
        assert select_skeleton_columns(B).tolist() == list(range(n))

    def test_zero_columns_first(self):
        r = 4
        B = np.hstack([np.zeros((r, r)), np.eye(r)])
        perm = select_skeleton_columns(B)
        assert perm[:r].tolist() == [4, 5, 6, 7]
        # column-pivoted QR must pick the same column set
        _, _, qr_piv = scipy.linalg.qr(B, pivoting=True)
        assert set(perm[:r].tolist()) == set(qr_piv[:r].tolist())

    def test_duplicated_column_not_picked_twice(self):
        rng = np.random.default_rng(77)
        b1 = rng.standard_normal(2)
        b2 = rng.standard_normal(2)
        B = np.column_stack([b1, b1, b2, b1 + b2])
        perm = select_skeleton_columns(B)
        first = set(perm[:2].tolist())
        assert not {0, 1} <= first
        assert np.linalg.matrix_rank(B[:, perm[:2]]) == 2

    def test_permutation_property(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 17))
        perm = select_skeleton_columns(B)
        assert sorted(perm.tolist()) == list(range(17))

    def test_rank_deficient_propagates(self):
        B = np.ones((3, 5))
        with pytest.raises(RankDeficient):
            select_skeleton_columns(B)


class TestPivgaFactorize:
    def test_hand_computed_rank_one(self):
        f = LowRankFactors(A=np.array([[1.0], [2.0]]), B=np.array([[3.0, 6.0]]))
        pf = pivga_factorize(f)
        assert pf.perm.tolist() == [1, 0]
        assert np.allclose(pf.Cmat, [[6.0], [12.0]])
        assert np.allclose(pf.D, [[0.5]])
        assert np.allclose(pf.reconstruct(), f.reconstruct())

    def test_construct_then_recover_d(self):
        rng = np.random.default_rng(90)
        r, extra = 5, 8
        B0 = rng.standard_normal((r, r)) + 3 * np.eye(r)
        D_true = rng.standard_normal((r, extra))
        # leading block dominant: pivoting keeps it in front, identity perm on it
        B = np.hstack([B0 * 10, B0 @ D_true * 1e-3])
        A = rng.standard_normal((7, r))
        pf = pivga_factorize(LowRankFactors(A=A, B=B))
        rec = pf.reconstruct()
        ab = A @ B
        assert np.linalg.norm(rec - ab) <= 1e-10 * np.linalg.norm(ab)

    def test_zero_first_column_never_pivoted(self):
        rng = np.random.default_rng(91)
        B = rng.standard_normal((3, 6))
        B[:, 0] = 0.0
        f = LowRankFactors(A=rng.standard_normal((4, 3)), B=B)
        pf = pivga_factorize(f)
        assert 0 not in pf.perm[:3].tolist()

    def test_losslessness_sweep(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            m = int(rng.integers(4, 80))
            n = int(rng.integers(4, 80))
            r = int(rng.integers(1, min(m, n) + 1))
            f = seeded_factors(1000 + seed, m, n, r)
            pf = pivga_factorize(f)
            ab = f.reconstruct()
            assert np.linalg.norm(pf.reconstruct() - ab) <= 1e-8 * np.linalg.norm(ab)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(2)
        f = seeded_factors(3, 12, 15, 4)
        G = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        g = LowRankFactors(A=f.A @ np.linalg.inv(G), B=G @ f.B)
        ab = f.reconstruct()
        assert np.linalg.norm(pivga_factorize(g).reconstruct() - ab) <= 1e-8 * np.linalg.norm(ab)

    def test_full_width_rank_no_d_block(self):
        f = seeded_factors(4, 9, 5, 5)
        pf = pivga_factorize(f)
        assert pf.D.shape == (5, 0)
        ab = f.reconstruct()
        assert np.linalg.norm(pf.reconstruct() - ab) <= 1e-8 * np.linalg.norm(ab)
        x = np.arange(5.0)
        assert np.allclose(pivga_forward(x, pf), ab @ x)

    def test_condition_number_computed_once(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counting_cond(M, *args, **kwargs):
            calls.append(np.shape(M))
            return cond(M, *args, **kwargs)

        f = seeded_factors(16, 20, 30, 6)
        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        pf = pivga_factorize(f)
        assert calls == [(6, 6)]
        assert pf.cond_b0 == cond(f.B[:, pf.perm[:6]])

    def test_one_getrf_and_no_second_factorization(self, monkeypatch):
        calls = []
        getrf = scipy.linalg.lapack.dgetrf

        def counting_getrf(a, *args, **kwargs):
            calls.append(np.shape(a))
            return getrf(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("D must come from the selection's own LU")

        monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counting_getrf)
        monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        for seed, (m, n, r) in enumerate([(20, 30, 6), (9, 5, 5), (2, 2, 1)]):
            calls.clear()
            pivga_factorize(seeded_factors(50 + seed, m, n, r))
            assert calls == [(n, r)]

    def test_factors_independent_of_b_layout(self):
        # getrf is handed B^T itself, which is column-major only for a C-ordered B
        rng = np.random.default_rng(61)
        r, n = 12, 40
        A = rng.standard_normal((30, r))
        B_wide = rng.standard_normal((r, 2 * n))
        B = np.ascontiguousarray(B_wide[:, ::2])
        want = pivga_factorize(LowRankFactors(A=A, B=B))
        for other in (np.asfortranarray(B), B_wide[:, ::2]):
            assert not other.flags.c_contiguous
            got = pivga_factorize(LowRankFactors(A=A, B=other))
            assert np.array_equal(select_skeleton_columns(other), want.perm)
            for name in ("perm", "Cmat", "D"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.cond_b0 == want.cond_b0

    @pytest.mark.parametrize("graded", [False, True], ids=["gaussian", "graded-rows"])
    def test_d_matches_reference_solve(self, graded):
        rng = np.random.default_rng(60)
        r, n = 24, 80
        B = rng.standard_normal((r, n))
        if graded:
            # row scales falling like the singular values of data-aware factors
            B *= np.logspace(0, -3, r)[:, None]
        pf = pivga_factorize(LowRankFactors(A=rng.standard_normal((30, r)), B=B))
        Bp = B[:, pf.perm]
        D_ref = np.linalg.solve(Bp[:, :r], Bp[:, r:])
        assert np.linalg.norm(pf.D - D_ref) <= 1e-12 * np.linalg.norm(D_ref)

    def test_factors_c_contiguous_before_and_after_round_trip(self, tmp_path):
        pf = pivga_factorize(seeded_factors(17, 24, 40, 8))
        mio.save_model_package(tmp_path / "pkg", None, [pf])
        loaded = mio.load_model_package(tmp_path / "pkg").layers[0].payload
        for factors in (pf, loaded):
            assert factors.Cmat.flags.c_contiguous
            assert factors.D.flags.c_contiguous
        assert np.array_equal(loaded.D, pf.D)

    def test_ill_conditioned_skeleton_block_refused(self):
        # B^T = I - (strictly lower ones): every getrf pivot is 1, so the
        # selection succeeds, but the block's condition grows like 2^r
        # (9.0e12 at r = 40, 1.16e16 at r = 50)
        r = 50
        B = (np.eye(r) - np.tril(np.ones((r, r)), -1)).T
        assert select_skeleton_columns(B).tolist() == list(range(r))
        with pytest.raises(IllConditioned, match="^leading block condition .* exceeds 1e"):
            pivga_factorize(LowRankFactors(A=np.ones((3, r)), B=B))


class TestPivgaForward:
    def test_identity_factors(self):
        r, n = 3, 8
        f = LowRankFactors(A=np.eye(r), B=np.hstack([np.eye(r), np.zeros((r, n - r))]))
        pf = pivga_factorize(f)
        x = np.arange(1.0, n + 1)
        assert np.allclose(pivga_forward(x, pf), x[:r])

    def test_zero_input(self):
        pf = pivga_factorize(seeded_factors(10, 6, 9, 2))
        assert np.array_equal(pivga_forward(np.zeros(9), pf), np.zeros(6))

    def test_matches_dense_on_batch(self):
        f = seeded_factors(11, 40, 30, 7)
        pf = pivga_factorize(f)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 32))
        dense = f.reconstruct() @ X
        assert np.linalg.norm(pivga_forward(X, pf) - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_batch_equals_columnwise(self):
        # same arithmetic either way; BLAS gemv/gemm blocking may differ in
        # the last bits, so compare at round-off level rather than bitwise
        f = seeded_factors(13, 9, 14, 4)
        pf = pivga_factorize(f)
        rng = np.random.default_rng(14)
        X = rng.standard_normal((14, 5))
        Y = pivga_forward(X, pf)
        for j in range(5):
            y = pivga_forward(X[:, j], pf)
            assert np.max(np.abs(Y[:, j] - y)) <= 1e-13 * np.max(np.abs(y))

    def test_width_mismatch(self):
        pf = pivga_factorize(seeded_factors(15, 5, 7, 2))
        with pytest.raises(DimensionMismatch):
            pivga_forward(np.zeros(6), pf)


class TestParamCount:
    def test_breakeven_linear_equals_dense(self):
        assert breakeven_rank(1024, 1024) == 512
        assert param_count(1024, 1024, 512, "linear").decomposed == 1024 * 1024

    def test_full_rank_parabolic_equals_dense(self):
        pc = param_count(1024, 1024, 1024, "parabolic")
        assert pc.decomposed == 1024 * 1024
        assert pc.permutation_indices == 1024

    def test_small_parabolic_case(self):
        assert param_count(64, 48, 10, "parabolic").decomposed == 1020

    def test_parabolic_below_linear_below_dense(self):
        for m, n in [(6, 6), (10, 4), (17, 23), (64, 64)]:
            for r in range(1, min(m, n) + 1):
                lin = param_count(m, n, r, "linear").decomposed
                par = param_count(m, n, r, "parabolic").decomposed
                assert par <= lin
                assert par <= m * n
                assert (par == m * n) == (r == min(m, n))

    def test_permutation_indices_only_parabolic(self):
        assert param_count(8, 10, 3, "linear").permutation_indices == 0
        assert param_count(8, 10, 3, "parabolic").permutation_indices == 10

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            param_count(4, 4, 2, "quadratic")


class TestPivotingImprovesConditioning:
    def test_statistical_dominance(self):
        # pivoted leading block should not condition worse than unpivoted
        # on at least 95% of seeds
        wins = 0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(20000 + seed)
            m = int(rng.integers(6, 40))
            n = int(rng.integers(6, 40))
            r = int(rng.integers(2, min(m, n) + 1))
            W = rng.standard_normal((m, n))
            f = plain_svd_compress(W, r)
            perm = select_skeleton_columns(f.B)
            cond_piv = np.linalg.cond(f.B[:, perm[:r]])
            cond_unp = np.linalg.cond(f.B[:, :r])
            if cond_piv <= cond_unp * (1 + 1e-9):
                wins += 1
        assert wins >= 0.95 * trials
