"""Plain and data-aware truncated-SVD compression contracts."""

import numpy as np
import pytest

from lrcompress import (
    cholesky_whiten,
    data_aware_svd,
    plain_svd_compress,
    svd_descending,
    truncation_error,
)
from lrcompress.errors import DimensionMismatch


def seeded_pd_whitener(n, seed, samples=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, samples or 4 * n))
    return cholesky_whiten(X @ X.T)


def planted_whitened_layer(shape, sigma, seed):
    """W and a whitener S with W @ S = U diag(sigma) V^T for random orthonormal U, V."""
    m, n = shape
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, len(sigma))))[0]
    V = np.linalg.qr(rng.standard_normal((n, len(sigma))))[0]
    S = seeded_pd_whitener(n, seed + 1)
    W = np.linalg.solve(S.T, (U * sigma @ V.T).T).T
    return W, S


# A tall layer is the case a Gram matrix of W @ S alone gets wrong: its
# (m - n)-dimensional null space leaks into A.
LAYER_SHAPES = pytest.mark.parametrize("shape", [(128, 64), (64, 128), (48, 48)],
                                       ids=["tall", "wide", "square"])


class TestPlainSvdCompress:
    def test_full_rank_lossless(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((7, 5))
        f = plain_svd_compress(W, 5)
        assert np.linalg.norm(W - f.reconstruct()) <= 1e-12 * np.linalg.norm(W)

    def test_rank_one_exact(self):
        u = np.arange(1.0, 7.0)
        v = np.array([2.0, -1.0, 0.5])
        W = np.outer(u, v)
        f = plain_svd_compress(W, 1)
        assert np.linalg.norm(W - f.reconstruct()) <= 1e-12 * np.linalg.norm(W)

    def test_error_matches_tail_spectrum(self):
        rng = np.random.default_rng(64)
        W = rng.standard_normal((64, 48))
        f = plain_svd_compress(W, 10)
        err = np.linalg.norm(W - f.reconstruct())
        sigma = svd_descending(W).sigma
        tail = np.sqrt(np.sum(sigma[10:] ** 2))
        assert abs(err - tail) <= 1e-10 * tail

    def test_eckart_young_beats_random(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((20, 15))
        for r in (1, 3, 7):
            err = np.linalg.norm(W - plain_svd_compress(W, r).reconstruct())
            for _ in range(100):
                M = rng.standard_normal((20, r)) @ rng.standard_normal((r, 15))
                scale = np.linalg.norm(W) / np.linalg.norm(M)
                assert err <= np.linalg.norm(W - M * scale) + 1e-12

    def test_bad_rank(self):
        with pytest.raises(DimensionMismatch):
            plain_svd_compress(np.eye(4), 0)
        with pytest.raises(DimensionMismatch):
            plain_svd_compress(np.eye(4), 5)


class TestDataAwareSvd:
    def test_identity_whitener_matches_plain_error(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((12, 12))
        r = 4
        f = data_aware_svd(W, np.eye(12), r)
        err = np.linalg.norm(W - f.reconstruct())
        plain_err = np.linalg.norm(W - plain_svd_compress(W, r).reconstruct())
        assert abs(err - plain_err) <= 1e-10 * max(plain_err, 1.0)

    def test_exact_when_rank_below_r(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 10))
        S = seeded_pd_whitener(10, 80)
        f = data_aware_svd(W, S, 5)
        assert np.linalg.norm(W - f.reconstruct()) <= 1e-10 * np.linalg.norm(W)

    def test_whitened_error_matches_tail_and_beats_random(self):
        rng = np.random.default_rng(32)
        W = rng.standard_normal((32, 32))
        S = seeded_pd_whitener(32, 33)
        r = 6
        f = data_aware_svd(W, S, r)
        err = np.linalg.norm((W - f.reconstruct()) @ S)
        sigma = svd_descending(W @ S).sigma
        tail = np.sqrt(np.sum(sigma[r:] ** 2))
        assert abs(err - tail) <= 1e-10 * tail
        for trial in range(100):
            A = rng.standard_normal((32, r))
            B = rng.standard_normal((r, 32))
            alt = A @ B
            alt *= np.linalg.norm(W) / np.linalg.norm(alt)
            assert err <= np.linalg.norm((W - alt) @ S) + 1e-12

    def test_a_columns_orthonormal(self):
        rng = np.random.default_rng(44)
        W = rng.standard_normal((24, 18))
        S = seeded_pd_whitener(18, 45)
        f = data_aware_svd(W, S, 7)
        assert np.linalg.norm(f.A.T @ f.A - np.eye(7)) <= 1e-10

    def test_whitened_product_matches_truncated_svd(self):
        # A B S must equal the truncated SVD of W S itself
        rng = np.random.default_rng(21)
        W = rng.standard_normal((16, 16))
        S = seeded_pd_whitener(16, 22)
        r = 5
        f = data_aware_svd(W, S, r)
        res = svd_descending(W @ S)
        target = res.U[:, :r] * res.sigma[:r] @ res.Vt[:r, :]
        assert np.linalg.norm(f.reconstruct() @ S - target) <= 1e-10 * np.linalg.norm(target)

    @LAYER_SHAPES
    def test_full_rank_reconstruction(self, shape):
        W, S = planted_whitened_layer(shape, np.logspace(0, -6, min(shape)), 4)
        f = data_aware_svd(W, S, min(shape))
        assert np.linalg.norm(W - f.reconstruct()) <= 1e-13 * np.linalg.norm(W)

    @LAYER_SHAPES
    def test_steep_spectrum_error_matches_tail_at_every_rank(self, shape):
        # sigma_k^2 / sigma_1^2 = 1e-12 still lies above the Gram matrix's round-off
        k = min(shape)
        W, S = planted_whitened_layer(shape, np.logspace(0, -6, k), 5)
        sigma = svd_descending(W @ S).sigma
        for r in range(1, k):
            err = np.linalg.norm((W - data_aware_svd(W, S, r).reconstruct()) @ S)
            tail = np.sqrt(np.sum(sigma[r:] ** 2))
            assert abs(err - tail) <= 1e-8 * tail, r

    @LAYER_SHAPES
    def test_spectrum_below_sqrt_eps_error_within_floor(self, shape):
        # below ~sqrt(eps) * sigma_1 the Gram matrix no longer resolves directions,
        # so the residual is pinned to the tail only up to that floor
        k = min(shape)
        W, S = planted_whitened_layer(shape, np.logspace(0, -12, k), 6)
        sigma = svd_descending(W @ S).sigma
        for r in range(1, k + 1):
            err = np.linalg.norm((W - data_aware_svd(W, S, r).reconstruct()) @ S)
            tail = np.sqrt(np.sum(sigma[r:] ** 2))
            assert abs(err - tail) <= 1e-7 * sigma[0], r

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            data_aware_svd(np.eye(4), np.eye(3), 2)


class TestTruncationError:
    def test_full_rank_zero(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((6, 9))
        assert truncation_error(W, 6) <= 1e-12 * np.linalg.norm(W)

    def test_rank_zero_is_frobenius_norm(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((5, 5))
        assert abs(truncation_error(W, 0) - np.linalg.norm(W)) <= 1e-12

    def test_matches_direct_subtraction(self):
        rng = np.random.default_rng(107)
        W = rng.standard_normal((10, 7))
        direct = np.linalg.norm(W - plain_svd_compress(W, 3).reconstruct())
        assert abs(truncation_error(W, 3) - direct) <= 1e-10 * direct

    def test_non_increasing_in_r(self):
        rng = np.random.default_rng(14)
        W = rng.standard_normal((9, 12))
        errs = [truncation_error(W, r) for r in range(10)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
