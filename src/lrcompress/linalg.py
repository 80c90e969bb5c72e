"""Deterministic dense linear-algebra kernels the rest of the toolkit builds on.

SVD and Cholesky delegate to LAPACK (via numpy) with post-processing that
pins down gauge signs and jitter behaviour. Skeleton-column selection reads
its pivot order from one LAPACK ``getrf`` (partial pivoting: at each step the
first maximum of the computed magnitudes, as LAPACK ``idamax`` picks it) and
applies our own rank-deficiency threshold to the diagonal of U.

All computation is in 64-bit floats. Inputs are validated to be finite;
every function is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
    SingularMatrix,
)

# Relative jitter multipliers tried in order; scaled by mean(diag(C)).
# The first rung that makes Cholesky succeed wins, so well-behaved
# calibration matrices are factorized exactly.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

# Condition-number ceiling for square solves; above this the 64-bit
# result cannot be trusted.
COND_LIMIT = 1e12

# A pivot below PIVOT_RTOL * max|M| counts as zero.
PIVOT_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, 2-D float64 array (C order)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return np.ascontiguousarray(m)


@dataclass
class SvdResult:
    """Thin SVD with descending singular values and fixed column signs."""

    U: np.ndarray       # m x k
    sigma: np.ndarray   # k, descending, >= 0
    Vt: np.ndarray      # k x n


def svd_descending(W) -> SvdResult:
    """Thin SVD of ``W`` with a reproducible sign convention.

    Singular values come back descending (LAPACK already guarantees this).
    On top of that, each column of U is flipped so that its
    largest-magnitude entry is non-negative (first such entry on ties),
    with the matching row of Vt flipped too, so repeated calls and
    reconstruction tests are bit-stable.
    """
    W = as_matrix(W, "W")
    try:
        U, sigma, Vt = np.linalg.svd(W, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from None
    # np.argmax returns the first maximizer, so ties go to the lowest row.
    lead = np.argmax(np.abs(U), axis=0)
    flip = U[lead, np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    Vt[flip, :] *= -1.0
    return SvdResult(U=U, sigma=sigma, Vt=Vt)


def cholesky_whiten(C, jitter_ladder=JITTER_LADDER) -> np.ndarray:
    """Lower-triangular S with S @ S.T = C + eps*I for the smallest workable eps.

    ``eps`` is taken from ``jitter_ladder`` (relative multipliers of
    mean(diag(C))), smallest first. Raises NotSymmetric if C is visibly
    asymmetric, NotPositiveDefinite if the whole ladder fails.
    """
    C = as_matrix(C, "C")
    n = C.shape[0]
    if C.shape[1] != n:
        raise DimensionMismatch(f"C must be square, got {C.shape}")
    scale = float(np.abs(C).max()) if C.size else 0.0
    if scale > 0.0 and float(np.abs(C - C.T).max()) > 1e-8 * scale:
        raise NotSymmetric("C deviates from symmetry by more than 1e-8 relative")
    diag_mean = float(np.mean(np.diag(C)))
    for rel in jitter_ladder:
        eps = rel * diag_mean
        try:
            return np.linalg.cholesky(C + eps * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"Cholesky failed for every jitter in {tuple(jitter_ladder)}"
    )


def lu_row_pivots(M, r: int) -> np.ndarray:
    """First ``r`` pivot-row indices of Gaussian elimination with row pivoting.

    Returned in pivot order (the order elimination selected them). At each
    column the row holding the first maximum of the computed magnitudes
    among the remaining rows is chosen (LAPACK ``idamax``). Where
    elimination produces magnitudes that tie exactly, as it can on small
    integer-valued matrices, round-off in LAPACK's scaling by the
    reciprocal pivot may break the tie towards a different, equally valid
    row. Only the first ``r`` columns of M take part. Raises RankDeficient
    if a pivot falls below 1e-12 * max|M| before r pivots are found.
    """
    M = as_matrix(M, "M")
    rows, cols = M.shape
    if not 1 <= r <= min(rows, cols):
        raise DimensionMismatch(f"need 1 <= r <= min{M.shape}, got r={r}")
    tol = PIVOT_RTOL * float(np.abs(M).max())
    lu, ipiv, _ = scipy.linalg.lapack.dgetrf(M[:, :r])
    pivots = np.abs(np.diagonal(lu))
    small = np.flatnonzero(pivots <= tol)
    if small.size:
        k = int(small[0])
        raise RankDeficient(
            f"pivot {k} magnitude {pivots[k]:.3e} below threshold {tol:.3e}"
        )
    # ipiv[k] is the row swapped with row k at step k; replay the swaps.
    idx = np.arange(rows)
    for k, p in enumerate(ipiv):
        idx[k], idx[p] = idx[p], idx[k]
    return idx[:r].copy()


def _lu_solve_refined(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with M @ X = rhs (2-D) by LU, plus up to three refinement passes.

    The passes reuse the factorization and push the residual to the
    round-off floor. The caller validates M and guards its conditioning.
    """
    lu_piv = scipy.linalg.lu_factor(M)
    X = scipy.linalg.lu_solve(lu_piv, rhs)
    rhs_norm = np.linalg.norm(rhs)
    for _ in range(3):
        residual = rhs - M @ X
        if np.linalg.norm(residual) <= 1e-12 * rhs_norm:
            break
        X += scipy.linalg.lu_solve(lu_piv, residual)
    return X


def solve_general(M, RHS) -> np.ndarray:
    """Solve M @ X = RHS for square M, with a condition-number guard.

    Iterative refinement (up to three passes, reusing the factorization)
    pushes the residual to the round-off floor. RHS may be a vector or a
    matrix of right-hand sides (columns). Raises SingularMatrix when the
    estimated 2-norm condition number of M exceeds 1e12.
    """
    M = as_matrix(M, "M")
    n = M.shape[0]
    if M.shape[1] != n:
        raise DimensionMismatch(f"M must be square, got {M.shape}")
    rhs = np.asarray(RHS, dtype=np.float64)
    vector_input = rhs.ndim == 1
    if vector_input:
        rhs = rhs[:, None]
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"RHS has {rhs.shape[0]} rows, expected {n}")
    if rhs.shape[1] == 0:
        return np.zeros((n, 0))
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    X = _lu_solve_refined(M, rhs)
    return X[:, 0] if vector_input else X
