#!/usr/bin/env python3
"""Global rank allocation on a planted-rank toy network.

Choosing how much rank each layer keeps under a global parameter budget is
a combinatorial problem. Relaxing the hard truncation with logistic gates
turns it into a smooth one: a per-layer "truncation position" mu_l slides
continuously, driven by the KL divergence between the original network and
its softly truncated version plus a budget penalty that ramps up over the
run. The final mu are rounded to integer ranks and repaired to meet the
budget exactly.

The teacher here has four 64x64 layers with very different intrinsic
ranks, so the best allocation is far from uniform. On a model this small
we can also afford a brute-force search over a coarse rank grid as an
independent reference point.
"""

import numpy as np

from lrcompress import (
    BudgetConstraint,
    FermiConfig,
    OptimizerConfig,
    RhoSchedule,
    build_teacher,
    default_spec,
    evaluate_allocations,
    gen_calibration,
    optimize_ranks,
    uniform_ranks,
)
from lrcompress.toymodels import attach_data_aware_factors

spec = default_spec(seed=3)
model = build_teacher(spec)
print(f"teacher: {len(spec.layer_shapes)} layers {spec.layer_shapes[0]}, "
      f"planted ranks {spec.planted_ranks}")

train = gen_calibration(spec, 512, seed=11)
attach_data_aware_factors(model, train)

target = int(0.6 * spec.dense_param_count())
budget = BudgetConstraint.from_shapes(spec.layer_shapes, n_target=target,
                                      mode="linear")
print(f"budget: {target} of {spec.dense_param_count()} dense parameters (60%)")

cfg = FermiConfig(T=0.01, r_min=8)
opt = OptimizerConfig(step_size=10.0, max_iters=4000, batch_size=32)
trajectory, alloc = optimize_ranks(model, train, budget, cfg, RhoSchedule(), opt)

print(f"\noptimizer ran {len(trajectory)} iterations")
for t in (0, len(trajectory) // 4, len(trajectory) // 2, len(trajectory) - 1):
    pt = trajectory[t]
    print(f"  iter {pt.iteration:4d}: mu = {np.round(pt.mu, 1)}  "
          f"rho = {pt.rho:7.1f}  KL = {pt.kl:.3e}  params = {pt.n_param:,.0f}")

uniform = uniform_ranks(spec.layer_shapes, budget, r_min=cfg.r_min)
eval_data = gen_calibration(spec, 512, seed=999)
rep_opt, rep_uni = evaluate_allocations(model, eval_data, [alloc.ranks, uniform.ranks])

print(f"\n{'':>12}  {'ranks':>20}  {'params':>8}  {'KL vs teacher':>14}")
print(f"{'optimized':>12}  {str([int(r) for r in alloc.ranks]):>20}  "
      f"{rep_opt.params_linear:>8}  {rep_opt.kl:>14.4e}")
print(f"{'uniform':>12}  {str([int(r) for r in uniform.ranks]):>20}  "
      f"{rep_uni.params_linear:>8}  {rep_uni.kl:>14.4e}")
print(f"\noptimized allocation is {rep_uni.kl / rep_opt.kl:.1f}x closer to the "
      f"teacher at the same budget")
