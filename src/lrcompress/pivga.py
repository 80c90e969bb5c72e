"""Lossless secondary compression of low-rank factors by pivoted gauge fixing.

A product A @ B is unchanged by A -> A G^{-1}, B -> G B for any invertible
r x r G. Choosing G to invert a well-conditioned r x r block of B turns that
block into an implicit identity, dropping r^2 stored parameters:

    W_r = A B = Cmat [I | D] P^T,   Cmat = A B0,  D = B0^{-1} B1,

where P gathers the skeleton columns (the pivot rows of one LAPACK ``getrf``
of B^T) to the front. Selection and the D-solve run on B (r x n) rather than on
the full product: the columns of A @ B are independent exactly when the
corresponding columns of B are, and B is r x n instead of m x n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllConditioned
from .linalg import COND_LIMIT, _lu_solve_refined, lu_row_pivots
from .svdcompress import LowRankFactors


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


def select_skeleton_columns(B) -> np.ndarray:
    """Permutation putting r independent (skeleton) columns of B first.

    The first r entries are the pivot rows of row-pivoted elimination on
    B^T, in pivot order; the remaining indices follow in ascending order.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise DimensionMismatch("B must be 2-D")
    r, n = B.shape
    pivots = lu_row_pivots(B.T, r)
    rest = np.setdiff1d(np.arange(n), pivots, assume_unique=False)
    return np.concatenate([pivots, rest]).astype(np.int64)


def _gauge_fix(f: LowRankFactors, perm: np.ndarray) -> PivGaFactors:
    r = f.rank
    Bp = f.B[:, perm]
    B0, B1 = Bp[:, :r], Bp[:, r:]
    cond = float(np.linalg.cond(B0))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(
            f"leading block condition {cond:.3e} exceeds {COND_LIMIT:.0e}; "
            "keep the plain factors for this layer"
        )
    # B0 is guarded above, so skip solve_general's second condition number.
    # D is kept in C order, as load_model_package returns it: D @ x2 is faster.
    D = np.ascontiguousarray(_lu_solve_refined(B0, B1))
    return PivGaFactors(
        Cmat=f.A @ B0,
        D=D,
        perm=perm.astype(np.int64),
        rank=r,
        n_cols=f.B.shape[1],
        cond_b0=cond,
    )


def pivga_factorize(f: LowRankFactors) -> PivGaFactors:
    """Gauge-fix against a pivoted skeleton block of B (the safe default)."""
    return _gauge_fix(f, select_skeleton_columns(f.B))


def gauge_fix_unpivoted(f: LowRankFactors) -> PivGaFactors:
    """Gauge-fix against the leading r x r block of B, no pivoting.

    Frequently fails with IllConditioned on real factors; exists as the
    baseline the pivoted variant improves on. The measured condition
    number is reported in ``cond_b0`` either way.
    """
    return _gauge_fix(f, np.arange(f.B.shape[1], dtype=np.int64))


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
