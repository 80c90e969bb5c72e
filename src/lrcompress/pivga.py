"""Lossless secondary compression of low-rank factors by pivoted gauge fixing.

A product A @ B is unchanged by A -> A G^{-1}, B -> G B for any invertible
r x r G. Choosing G to invert a well-conditioned r x r block of B turns that
block into an implicit identity, dropping r^2 stored parameters:

    W_r = A B = Cmat [I | D] P^T,   Cmat = A B0,  D = B0^{-1} B1,

where P gathers the skeleton columns to the front: the pivot rows of one
LAPACK ``getrf`` of B^T, which at each step takes the first maximum of the
computed magnitudes (as ``idamax`` picks it) and whose row swaps ``dlaswp``
replays. A diagonal entry of U below ``PIVOT_RTOL`` * max|B| is refused as
rank deficiency. That same ``getrf`` gives D: it factors
B^T P = [L11; L21] U with L unit lower, so B0 = U^T L11^T, B1 = U^T L21^T and
D = L11^{-T} L21^T, one triangular solve. Both run on B (r x n) rather than
on the full product: the columns of A @ B are independent exactly when the
corresponding columns of B are, and B is r x n instead of m x n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllConditioned, RankDeficient
from .linalg import as_matrix
from .svdcompress import LowRankFactors

# A getrf pivot below PIVOT_RTOL * max|B| counts as zero.
PIVOT_RTOL = 1e-12

# Condition-number ceiling of the skeleton block B0; above this the 64-bit
# D = B0^{-1} B1 cannot be trusted.
COND_LIMIT = 1e12


@dataclass
class PivGaFactors:
    """Gauge-fixed factors W_r = Cmat @ [I | D] @ P^T.

    ``perm`` holds gather indices: position k of the permuted input reads
    from input coordinate perm[k]. The identity block is never stored.
    ``cond_b0`` records the measured condition number of the inverted block.
    """

    Cmat: np.ndarray    # m x r
    D: np.ndarray       # r x (n - r)
    perm: np.ndarray    # int64, length n
    rank: int
    n_cols: int
    cond_b0: float

    def reconstruct(self) -> np.ndarray:
        """Dense m x n matrix equal to the factored product."""
        E = np.hstack([self.Cmat, self.Cmat @ self.D])
        W = np.empty_like(E)
        W[:, self.perm] = E
        return W

    def __matmul__(self, x) -> np.ndarray:
        return pivga_forward(x, self)


@dataclass
class ParamCount:
    """Stored-value bookkeeping for one compressed layer."""

    decomposed: int
    permutation_indices: int


def _skeleton(B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skeleton permutation of B, the packed LU of B^T and the order of its tail.

    One ``getrf`` of B^T: B^T[order] = L @ U, packed in ``lu`` with rows in
    ``order``. perm is order's first r entries, then the rest ascending, which
    ``tail`` gathers from order[r:]; lu[r:][tail] is L21 in perm's order.
    """
    import scipy.linalg  # only PivGa needs SciPy; the other commands start without it

    B = as_matrix(B, "B")
    r, n = B.shape
    if not 1 <= r <= n:
        raise DimensionMismatch(f"need an r x n B with 1 <= r <= n, got {B.shape}")
    tol = PIVOT_RTOL * float(np.abs(B).max())
    # B^T of a C-ordered B is already column-major, as getrf wants it
    lu, ipiv, _ = scipy.linalg.lapack.dgetrf(B.T)
    pivots = np.abs(np.diagonal(lu))
    small = np.flatnonzero(pivots <= tol)
    if small.size:
        k = int(small[0])
        raise RankDeficient(
            f"pivot {k} magnitude {pivots[k]:.3e} below threshold {tol:.3e}"
        )
    # ipiv[k] is the row swapped with row k at step k; dlaswp replays the swaps.
    order = scipy.linalg.lapack.dlaswp(np.arange(n, dtype=np.float64)[:, None], ipiv)
    order = order[:, 0].astype(np.int64)
    tail = np.argsort(order[r:])
    return np.concatenate([order[:r], order[r:][tail]]), lu, tail


def select_skeleton_columns(B) -> np.ndarray:
    """Permutation putting r independent (skeleton) columns of B first.

    The first r entries are the pivot rows of row-pivoted elimination on
    B^T, in pivot order; the remaining indices follow in ascending order.
    """
    return _skeleton(B)[0]


def pivga_factorize(f: LowRankFactors) -> PivGaFactors:
    """Gauge-fix against the skeleton block B0 of B; D from the selection's own LU.

    Raises IllConditioned if B0's 2-norm condition number exceeds ``COND_LIMIT``.
    """
    import scipy.linalg  # only PivGa needs SciPy; the other commands start without it

    perm, lu, tail = _skeleton(f.B)
    r = f.rank
    B0 = f.B[:, perm[:r]]
    cond = float(np.linalg.cond(B0))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(
            f"leading block condition {cond:.3e} exceeds {COND_LIMIT:.0e}; "
            "keep the plain factors for this layer"
        )
    D = scipy.linalg.solve_triangular(lu[:r], lu[r:][tail].T, trans="T", lower=True,
                                      unit_diagonal=True)
    # D is kept in C order, as load_model_package returns it: D @ x2 is faster.
    return PivGaFactors(Cmat=f.A @ B0, D=np.ascontiguousarray(D), perm=perm, rank=r,
                        n_cols=f.B.shape[1], cond_b0=cond)


def pivga_forward(x, f: PivGaFactors) -> np.ndarray:
    """Apply the factored layer to a vector (length n) or batch (n x batch).

    y = Cmat @ (x1 + D @ x2) with (x1, x2) the split of the perm-gathered
    input at position r; equals reconstruct(f) @ x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != f.n_cols:
        raise DimensionMismatch(f"input width {x.shape[0]}, layer expects {f.n_cols}")
    xp = x[f.perm]
    x1, x2 = xp[: f.rank], xp[f.rank:]
    return f.Cmat @ (x1 + f.D @ x2)


def param_count(m: int, n: int, r: int, mode: str) -> ParamCount:
    """Stored float count of a rank-r factorization of an m x n layer.

    linear     r * (n + m)        plain A, B factors
    parabolic  r * (n + m) - r^2  gauge-fixed factors (identity block free);
                                  the n gather indices are tallied separately
                                  since they are integers, not floats.
    """
    if not 1 <= r <= min(m, n):
        raise DimensionMismatch(f"need 1 <= r <= min({m}, {n}), got r={r}")
    if mode == "linear":
        return ParamCount(decomposed=r * (n + m), permutation_indices=0)
    if mode == "parabolic":
        return ParamCount(decomposed=r * (n + m) - r * r, permutation_indices=n)
    raise ValueError(f"mode must be 'linear' or 'parabolic', got {mode!r}")


def breakeven_rank(m: int, n: int) -> float:
    """Rank above which plain factors store more than the dense matrix: mn/(m+n)."""
    return m * n / (m + n)
