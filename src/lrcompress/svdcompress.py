"""Plain and data-aware truncated-SVD compression of a single weight matrix.

The data-aware variant minimizes the reconstruction error as seen through
the second-moment statistics of the layer inputs: with C = sum_b X_b X_b^T
and a whitening factor S (C = S S^T), the rank-r minimizer of
||(W - A B) S||_F is the truncated SVD of W S. Setting A to the leading
left singular vectors of W S and B = A^T W realizes that minimizer without
ever inverting S. Only that basis is needed, so it comes from one symmetric
eigendecomposition of the Gram matrix (W S)(W S)^T, taken after a reduced
QR of W S when the layer is tall (m > n), instead of a full SVD. Squaring
the spectrum limits the accuracy: the whitened residual matches the SVD's
tail to within about sqrt(eps) * sigma_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_matrix, left_singular_vectors, svd_descending


@dataclass
class LowRankFactors:
    """Factor pair (A: m x r, B: r x n) representing W ~ A @ B."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise DimensionMismatch("factors must be 2-D")
        if self.A.shape[1] != self.B.shape[0]:
            raise DimensionMismatch(
                f"inner dimensions differ: A is {self.A.shape}, B is {self.B.shape}"
            )

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.A.shape[0], self.B.shape[1])

    def reconstruct(self) -> np.ndarray:
        return self.A @ self.B

    def __matmul__(self, h) -> np.ndarray:
        """Apply the layer without forming A @ B: A @ (B @ h)."""
        return self.A @ (self.B @ h)

    def truncated(self, r: int) -> "LowRankFactors":
        """Leading-r slice; for SVD-ordered factors this is the rank-r compression."""
        if not 1 <= r <= self.rank:
            raise DimensionMismatch(f"need 1 <= r <= {self.rank}, got {r}")
        return LowRankFactors(A=self.A[:, :r], B=self.B[:r, :])


def plain_svd_compress(W, r: int) -> LowRankFactors:
    """Optimal rank-r approximation of W in the Frobenius norm.

    The singular values are folded into A (A = U_r diag(sigma_r), B = V_r^T),
    mirroring the data-aware split where B carries the row content of W.
    """
    W = as_matrix(W, "W")
    if not 1 <= r <= min(W.shape):
        raise DimensionMismatch(f"need 1 <= r <= min{W.shape}, got r={r}")
    res = svd_descending(W)
    return LowRankFactors(A=res.U[:, :r] * res.sigma[:r], B=res.Vt[:r, :])


def data_aware_svd(W, S, r: int) -> LowRankFactors:
    """Rank-r factors minimizing ||(W - A B) S||_F for whitening factor S.

    A = leading r left singular vectors of W @ S (orthonormal columns),
    B = A.T @ W. The basis comes from ``left_singular_vectors``: an ``eigh``
    of the Gram matrix of W @ S, or of its R factor when m > n, so the
    whitened residual ||(W - A B) S||_F equals the SVD tail of W @ S only to
    within about sqrt(eps) * sigma_1.
    """
    W = as_matrix(W, "W")
    S = as_matrix(S, "S")
    n = W.shape[1]
    if S.shape != (n, n):
        raise DimensionMismatch(f"S must be {n}x{n}, got {S.shape}")
    if not 1 <= r <= min(W.shape):
        raise DimensionMismatch(f"need 1 <= r <= min{W.shape}, got r={r}")
    A = left_singular_vectors(W @ S)[:, :r]
    return LowRankFactors(A=A, B=A.T @ W)


def truncation_error(W, r: int) -> float:
    """Frobenius error of the best rank-r approximation: sqrt(sum_{j>r} sigma_j^2)."""
    W = as_matrix(W, "W")
    if not 0 <= r <= min(W.shape):
        raise DimensionMismatch(f"need 0 <= r <= min{W.shape}, got r={r}")
    sigma = svd_descending(W).sigma
    return float(np.sqrt(np.sum(sigma[r:] ** 2)))
