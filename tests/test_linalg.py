"""Numeric-core contracts: SVD, Gram-route left singular vectors, Cholesky whitening,
and the row pivots of PivGa's skeleton selection against elimination written out."""

import re

import numpy as np
import pytest

from lrcompress import (
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
    cholesky_whiten,
    left_singular_vectors,
    select_skeleton_columns,
    svd_descending,
)
from lrcompress.errors import DimensionMismatch
from lrcompress.pivga import PIVOT_RTOL


def skeleton_pivots(M, r):
    """The first r pivot rows of row-pivoted elimination on M[:, :r], in pivot order."""
    return select_skeleton_columns(M[:, :r].T)[:r]


def reference_row_pivots(M, r):
    """Row-pivoted Gaussian elimination on M[:, :r] written out step by step.

    The oracle for skeleton_pivots: same pivots and the same RankDeficient
    step, with ties going to the lowest row among equal magnitudes.
    """
    A = np.array(M[:, :r], dtype=np.float64)
    rows = A.shape[0]
    idx = np.arange(rows)
    tol = PIVOT_RTOL * float(np.abs(A).max())
    for k in range(r):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if np.abs(A[p, k]) <= tol:
            raise RankDeficient(f"pivot {k} magnitude {np.abs(A[p, k]):.3e}")
        A[[k, p], :] = A[[p, k], :]
        idx[[k, p]] = idx[[p, k]]
        mult = A[k + 1:, k] / A[k, k]
        A[k + 1:, k:] -= np.outer(mult, A[k, k:])
    return idx[:r]


def _failing_step(exc_info) -> int:
    return int(re.match(r"pivot (\d+) ", str(exc_info.value)).group(1))


class TestSvdDescending:
    def test_identity(self):
        res = svd_descending(np.eye(3))
        assert np.allclose(res.sigma, [1.0, 1.0, 1.0])

    def test_diagonal_permutation(self):
        res = svd_descending(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res.sigma, [3.0, 2.0, 1.0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(42)
        W = rng.standard_normal((8, 5))
        res = svd_descending(W)
        rec = res.U @ np.diag(res.sigma) @ res.Vt
        assert np.linalg.norm(W - rec) <= 1e-12 * np.linalg.norm(W)
        assert np.linalg.norm(res.U.T @ res.U - np.eye(5)) <= 1e-12
        assert np.linalg.norm(res.Vt @ res.Vt.T - np.eye(5)) <= 1e-12

    def test_sigma_descending_nonnegative(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((12, 9))
        res = svd_descending(W)
        assert np.all(np.diff(res.sigma) <= 0)
        assert np.all(res.sigma >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            W = rng.standard_normal((6, 6))
            res = svd_descending(W)
            lead = np.argmax(np.abs(res.U), axis=0)
            assert np.all(res.U[lead, np.arange(res.U.shape[1])] >= 0)

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((20, 13))
        a = svd_descending(W)
        b = svd_descending(W)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.Vt, b.Vt)

    def test_energy_identity(self):
        rng = np.random.default_rng(5)
        for shape in [(4, 9), (16, 16), (30, 7)]:
            W = rng.standard_normal(shape)
            sigma = svd_descending(W).sigma
            fro2 = np.linalg.norm(W) ** 2
            assert abs(np.sum(sigma**2) - fro2) <= 1e-10 * fro2

    def test_rejects_nonfinite(self):
        W = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            svd_descending(W)


class TestLeftSingularVectors:
    @pytest.mark.parametrize("shape", [(30, 7), (7, 30), (16, 16)])
    def test_matches_svd_basis_and_signs(self, shape):
        rng = np.random.default_rng(sum(shape))
        W = rng.standard_normal(shape)
        U = left_singular_vectors(W)
        ref = svd_descending(W).U
        assert U.shape == ref.shape
        assert np.linalg.norm(U - ref) <= 1e-10
        assert np.linalg.norm(U.T @ U - np.eye(min(shape))) <= 1e-12

    def test_bit_identical_determinism(self):
        W = np.random.default_rng(12).standard_normal((20, 13))
        assert np.array_equal(left_singular_vectors(W), left_singular_vectors(W))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            left_singular_vectors(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestCholeskyWhiten:
    def test_identity(self):
        assert np.array_equal(cholesky_whiten(np.eye(4)), np.eye(4))

    def test_diagonal_sqrt(self):
        S = cholesky_whiten(np.diag([4.0, 9.0]))
        assert np.allclose(S, np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((16, 64))
        C = X @ X.T
        S = cholesky_whiten(C)
        assert np.linalg.norm(S @ S.T - C) <= 1e-10 * np.linalg.norm(C)

    def test_exactly_lower_triangular_positive_diagonal(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((10, 40))
        S = cholesky_whiten(X @ X.T)
        assert np.all(np.triu(S, 1) == 0.0)
        assert np.all(np.diag(S) > 0)

    def test_jitter_ladder_rescues_singular_psd(self):
        # rank-deficient PSD: plain Cholesky fails, a small jitter succeeds
        rng = np.random.default_rng(31)
        X = rng.standard_normal((12, 5))
        C = X @ X.T
        S = cholesky_whiten(C)
        eps_max = 1e-6 * np.mean(np.diag(C))
        assert np.linalg.norm(S @ S.T - C) <= np.sqrt(C.shape[0]) * eps_max * 1.01

    def test_not_symmetric(self):
        C = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            cholesky_whiten(C)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_whiten(-np.eye(3))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            cholesky_whiten(np.ones((2, 3)))


class TestLuRowPivots:
    """select_skeleton_columns(M[:, :r].T)[:r], the row pivots of one getrf."""

    def test_identity_already_pivoted(self):
        assert skeleton_pivots(np.eye(4), 2).tolist() == [0, 1]

    def test_largest_magnitude_first(self):
        # hand-run elimination: column 0 pivots on |10| (row 1), then |5| (row 2)
        M = np.array([[0.0, 1.0], [10.0, 0.0], [0.0, 5.0]])
        assert skeleton_pivots(M, 2).tolist() == [1, 2]

    def test_duplicate_rows_rank_deficient(self):
        M = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
        with pytest.raises(RankDeficient):
            skeleton_pivots(M, 3)

    def test_indices_distinct_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rows = int(rng.integers(3, 30))
            cols = int(rng.integers(3, 30))
            r = int(rng.integers(1, min(rows, cols) + 1))
            M = rng.standard_normal((rows, cols))
            piv = skeleton_pivots(M, r)
            assert len(set(piv.tolist())) == r
            assert np.all(piv >= 0) and np.all(piv < rows)

    def test_pivot_rows_independent(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((12, 6))
        piv = skeleton_pivots(M, 6)
        sub = M[piv, :]
        assert np.linalg.matrix_rank(sub) == 6

    def test_tie_break_lowest_index(self):
        # both rows have the same leading magnitude; row 0 must win
        M = np.array([[2.0, 0.0], [-2.0, 1.0]])
        assert skeleton_pivots(M, 1).tolist() == [0]

    @pytest.mark.parametrize("shape", ["tall", "wide", "square"])
    def test_matches_reference_elimination(self, shape):
        rng = np.random.default_rng({"tall": 41, "wide": 43, "square": 47}[shape])
        for _ in range(40):
            a, b = sorted(int(v) for v in rng.integers(2, 60, size=2))
            rows, cols = {"tall": (b, a), "wide": (a, b), "square": (a, a)}[shape]
            r = int(rng.integers(1, min(rows, cols) + 1))
            M = rng.standard_normal((rows, cols)) * rng.uniform(1e-3, 1e3)
            assert skeleton_pivots(M, r).tolist() == reference_row_pivots(M, r).tolist()

    def test_rank_deficient_at_reference_step(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            rows = int(rng.integers(4, 40))
            cols = int(rng.integers(4, 40))
            q = int(rng.integers(1, min(rows, cols)))
            M = rng.standard_normal((rows, q)) @ rng.standard_normal((q, cols))
            r = int(rng.integers(q + 1, min(rows, cols) + 1))
            with pytest.raises(RankDeficient) as got:
                skeleton_pivots(M, r)
            with pytest.raises(RankDeficient) as want:
                reference_row_pivots(M, r)
            assert _failing_step(got) == _failing_step(want) == q

    def test_input_untouched(self):
        # a single column is both C- and Fortran-contiguous, so LAPACK could
        # factor it in place if the kernel handed over the caller's buffer
        rng = np.random.default_rng(59)
        for M in (rng.standard_normal((9, 1)), rng.standard_normal((9, 4))):
            before = M.copy()
            skeleton_pivots(M, 1)
            assert np.array_equal(M, before)

    def test_bad_r(self):
        # r = rows(B) outside [1, cols(B)]: refused before any reduction
        with pytest.raises(DimensionMismatch):
            select_skeleton_columns(np.eye(3)[:0])
        with pytest.raises(DimensionMismatch):
            select_skeleton_columns(np.eye(4, 3))
