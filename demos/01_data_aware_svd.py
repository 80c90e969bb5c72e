#!/usr/bin/env python3
"""Plain vs data-aware truncated SVD on anisotropic inputs.

A rank-r SVD truncation of a weight matrix W is the best rank-r
approximation of W itself, but a layer never sees "all of W": it sees
W applied to whatever inputs actually occur. When the input distribution
is anisotropic, weighting the approximation by the input second-moment
statistics (through a Cholesky whitening factor) preserves the layer's
*behaviour* much better at the same rank.

This script builds a weight matrix, feeds it strongly anisotropic
calibration data, and compares the two compressions both in plain
Frobenius error and in on-data output error.
"""

import numpy as np

from lrcompress import (
    cholesky_whiten,
    data_aware_svd,
    plain_svd_compress,
    truncation_error,
)

rng = np.random.default_rng(42)
m, n, rank = 96, 64, 12

W = rng.standard_normal((m, n))

# anisotropic inputs: a few strong directions, many weak ones
Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
scales = np.logspace(0, -2, n)
X = (Q * scales) @ rng.standard_normal((n, 4096))

# whiten by the calibration matrix C = X X^T, as `lrcompress calibrate` forms it per layer
S = cholesky_whiten(X @ X.T)

plain = plain_svd_compress(W, rank)
aware = data_aware_svd(W, S, rank)

Y = W @ X
err_plain_fro = np.linalg.norm(W - plain.reconstruct()) / np.linalg.norm(W)
err_aware_fro = np.linalg.norm(W - aware.reconstruct()) / np.linalg.norm(W)
err_plain_out = np.linalg.norm(Y - plain.reconstruct() @ X) / np.linalg.norm(Y)
err_aware_out = np.linalg.norm(Y - aware.reconstruct() @ X) / np.linalg.norm(Y)

print(f"weight {m}x{n}, rank {rank}, 4096 calibration samples")
print(f"best possible Frobenius error at this rank: "
      f"{truncation_error(W, rank) / np.linalg.norm(W):.4f}")
print()
print(f"{'':>16}  {'weight error':>12}  {'on-data output error':>20}")
print(f"{'plain SVD':>16}  {err_plain_fro:>12.4f}  {err_plain_out:>20.4f}")
print(f"{'data-aware SVD':>16}  {err_aware_fro:>12.4f}  {err_aware_out:>20.4f}")
print()
print("the data-aware factors give up a little weight-space accuracy to be")
print(f"{err_plain_out / err_aware_out:.1f}x more faithful on the inputs that occur")
