#!/usr/bin/env python3
"""Lossless secondary compression by pivoted gauge fixing.

A low-rank factorization W ~ A B is redundant: inserting any invertible G
as A G^-1 G B leaves the product unchanged. Choosing G to invert an r x r
block of B makes that block the identity, which then never needs storing,
saving r^2 of the r(m+n) parameters. Inverting the *leading* block can be
numerically hopeless: on this layer its condition number is far above the
limit PivGa accepts. Selecting r well-conditioned "skeleton" columns by
pivoted elimination first makes the same trick safe. The price is a
permutation of the input at inference time.
"""

import numpy as np

from lrcompress import (
    breakeven_rank,
    param_count,
    pivga_factorize,
    pivga_forward,
    plain_svd_compress,
)
from lrcompress.pivga import COND_LIMIT

rng = np.random.default_rng(7)
m, n, rank = 256, 192, 48

# rank-48 layer whose *leading* columns are near-duplicates of each other,
# the kind of structure that makes the naive gauge fix blow up
W = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
W[:, 1:rank] = W[:, [0]] + 1e-13 * rng.standard_normal((m, rank - 1))
factors = plain_svd_compress(W, rank)
ab = factors.reconstruct()

print(f"layer {m}x{n} at rank {rank}  (breakeven rank {breakeven_rank(m, n):.1f})")
lin = param_count(m, n, rank, "linear")
par = param_count(m, n, rank, "parabolic")
print(f"dense parameters:       {m * n}")
print(f"plain factors:          {lin.decomposed}")
print(f"gauge-fixed factors:    {par.decomposed} "
      f"(+{par.permutation_indices} integer indices)")
print()

# gauge fixing against the leading block would invert a near-singular block
print(f"leading block condition:   {np.linalg.cond(factors.B[:, :rank]):.2e}  "
      f"(PivGa refuses a block above {COND_LIMIT:.0e})")

pf = pivga_factorize(factors)
rec_err = np.linalg.norm(pf.reconstruct() - ab) / np.linalg.norm(ab)
print(f"skeleton block condition:  {pf.cond_b0:.2e}  (pivoted gauge fix)")
print(f"reconstruction error vs A B:  {rec_err:.2e}  (lossless)")

X = rng.standard_normal((n, 32))
fwd_err = np.linalg.norm(pivga_forward(X, pf) - ab @ X) / np.linalg.norm(ab @ X)
print(f"permuted forward pass vs dense multiply on a batch of 32: {fwd_err:.2e}")

# rough relative throughput (the permutation costs a little speed; no
# correctness claim depends on this number)
import timeit

t_lr = timeit.timeit(lambda: factors.A @ (factors.B @ X), number=200)
t_pg = timeit.timeit(lambda: pivga_forward(X, pf), number=200)
print(f"\nforward timing, 200 reps: plain factors {t_lr * 5:.2f} ms/call, "
      f"gauge-fixed {t_pg * 5:.2f} ms/call ({t_pg / t_lr:.2f}x)")
