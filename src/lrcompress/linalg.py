"""Deterministic dense linear-algebra kernels the rest of the toolkit builds on.

SVD, symmetric eigendecomposition and Cholesky delegate to LAPACK (via
numpy) with post-processing that pins down gauge signs and jitter behaviour.

All computation is in 64-bit floats. Inputs are validated to be finite;
every function is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Relative jitter multipliers tried in order; scaled by mean(diag(C)).
# The first rung that makes Cholesky succeed wins, so well-behaved
# calibration matrices are factorized exactly.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


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


def _sign_flips(U: np.ndarray) -> np.ndarray:
    """Columns of U whose largest-magnitude entry (first such entry on ties) is negative."""
    # np.argmax returns the first maximizer, so ties go to the lowest row.
    lead = np.argmax(np.abs(U), axis=0)
    return U[lead, np.arange(U.shape[1])] < 0


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
    flip = _sign_flips(U)
    U[:, flip] *= -1.0
    Vt[flip, :] *= -1.0
    return SvdResult(U=U, sigma=sigma, Vt=Vt)


def left_singular_vectors(M) -> np.ndarray:
    """The m x min(m, n) left singular vectors of ``M``, descending, without Vt or sigma.

    Taken from one symmetric eigendecomposition of the Gram matrix M M^T,
    its eigenvectors reversed into descending order and given
    ``svd_descending``'s column signs. A tall M (m > n) is first reduced,
    M = Q R, and the basis is Q times the eigenvectors of the n x n R R^T:
    the m x m Gram would carry an (m - n)-dimensional null space whose
    round-off leaks into the basis. Forming the Gram squares the spectrum,
    so a singular direction is resolved only down to about sqrt(eps) * sigma_1;
    below that the columns are an orthonormal basis of the tail, not its
    singular vectors.
    """
    M = as_matrix(M, "M")
    Q, R = np.linalg.qr(M) if M.shape[0] > M.shape[1] else (None, M)
    G = R @ R.T
    # only the Gram matrix (and Q) reaches eigh: an M passed inline is freed here
    del M, R
    try:
        _, V = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from None
    U = np.ascontiguousarray(V[:, ::-1]) if Q is None else Q @ V[:, ::-1]
    U[:, _sign_flips(U)] *= -1.0
    return U


def cholesky_whiten(C) -> np.ndarray:
    """Lower-triangular S with S @ S.T = C + eps*I for the smallest workable eps.

    ``eps`` is taken from ``JITTER_LADDER`` (relative multipliers of
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
    for rel in JITTER_LADDER:
        try:
            # the zero rung factors C itself, without two n x n temporaries
            return np.linalg.cholesky(C + rel * diag_mean * np.eye(n) if rel else C)
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"Cholesky failed for every jitter in {JITTER_LADDER}"
    )
