"""Command-line pipeline tying the toolkit together.

Subcommands:

    gen-teacher   build a seeded toy teacher model package
    calibrate     run the teacher on seeded inputs, store per-layer C matrices
                  and the full-rank data-aware factors they give
    compress      data-aware compression of a teacher at the ranks of a ranks file
    fermigrad     optimize per-layer ranks under a parameter budget
    compare       evaluate allocations side by side (optionally vs uniform
                  and the brute-force oracle)

Every random choice is controlled by an explicit --seed, so reruns with the
same flags are byte-identical (reports differ only in the wall-time and
stage-time fields).

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 file-format error,
5 numerical/domain error. Failures print a single JSON line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fermigrad as fg
from . import matrixio as mio
from . import pivga
from . import toymodels as tm
from .errors import PackageFormatError, ToolkitError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

_EPILOG = """exit codes:
  0  success
  2  usage error (unknown, missing or malformed flags, a flag value out of range,
     a sample count or spec layer shapes too large to allocate, or an output path
     that is, or lies inside, an input package directory or another output, or
     a linear-mode fermigrad run refused at the step that would diverge)
  3  I/O error (missing or unwritable file)
  4  file-format error (bad magic or JSON; malformed manifest, ranks file or spec;
     a calibration package made for another teacher or without factors; a
     matrix file holding NaN or Inf)
  5  numerical/domain error (rank-deficient, infeasible budget, ...)
"""


class _StageTimer:
    """Wall seconds of consecutive stages: each lap ends one stage and starts the
    next. ``wall_time_s`` is the seconds since the timer started."""

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._start = self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.stages[name] = now - self._last
        self._last = now

    def wall_time_s(self) -> float:
        return time.perf_counter() - self._start


def _load_spec(spec_arg: str | None, seed: int | None) -> tm.ToyModelSpec:
    if spec_arg is None or spec_arg == "default":
        spec = tm.default_spec(seed=seed if seed is not None else 0)
    else:
        spec = tm.ToyModelSpec.from_dict(mio.check_fields(mio.read_json(spec_arg), spec_arg))
        if seed is not None:
            # A bad --seed is a usage error (ValueError, exit 2), not a format error.
            spec = dataclasses.replace(spec, seed=seed)
    return spec


def _load_factored(args) -> tm.ToyModel:
    """The --model teacher with the full-rank data-aware factors stored in --calib."""
    model = mio.load_model_package(args.model).to_toy_model()
    model.factors = mio.load_calibration_factors(args.calib, model)
    return model


def _read_ranks(path: str, caps: np.ndarray) -> np.ndarray:
    """The ranks in ``path``, one per layer of a model with ``caps``."""
    ranks = mio.read_ranks_file(path)
    if len(ranks) != len(caps):
        raise PackageFormatError(f"{len(ranks)} ranks for {len(caps)} layers in {path}")
    for layer, (r, cap) in enumerate(zip(ranks, caps)):
        if not 1 <= r <= cap:
            raise PackageFormatError(f"{path}: layer {layer} rank {r} outside [1, {cap}]")
    return ranks


def _labelled(item: str) -> tuple[str, str]:
    """A compare --ranks item: label=path, or a bare path that is its own label."""
    label, _, path = item.partition("=")
    return (label, path) if path else (item, item)


def _check_outputs(args, outputs, inputs, files=()) -> None:
    """Refuse an output path (flags ``outputs``, unset ones skipped) that is, or
    lies inside, an input package directory (flags ``inputs``), an input file
    (``files``: (flag, path) pairs) or an output named before it: writing
    there would replace or add files of that package, such as its manifest,
    overwrite the input file, or overwrite the other output."""
    taken = [(flag, Path(getattr(args, flag)).resolve(), "directory") for flag in inputs]
    taken += [(flag, Path(path).resolve(), "file") for flag, path in files]
    for out_flag in outputs:
        given = getattr(args, out_flag)
        if given is None:
            continue
        out = Path(given).resolve()
        for flag, path, kind in taken:
            if out == path or path in out.parents:
                where = "is" if out == path else "lies inside"
                raise ValueError(f"--{out_flag.replace('_', '-')} {given} {where} the "
                                 f"--{flag.replace('_', '-')} {kind}")
        taken.append((out_flag, out, "output"))


def _draw(spec: tm.ToyModelSpec, n_samples: int, seed: int, flag: str) -> np.ndarray:
    """``gen_calibration``, with a sample count too large to allocate refused
    as a usage error of ``flag``."""
    try:
        return tm.gen_calibration(spec, n_samples, seed)
    except MemoryError as exc:
        raise ValueError(f"{flag} {n_samples} is too large to allocate: {exc}") from None


def _budget_from_args(args, spec: tm.ToyModelSpec, n_inc: int,
                      n_scale: float = fg.BudgetConstraint.n_scale) -> fg.BudgetConstraint:
    if args.target_params is not None:
        target = int(args.target_params)
    elif args.target_ratio is not None:
        target = args.target_ratio * spec.dense_param_count(n_inc)
        if not np.isfinite(target):
            raise ValueError(f"--target-ratio {args.target_ratio} gives a non-finite target")
        target = int(target)
    else:
        raise ValueError("one of --target-params / --target-ratio is required")
    return fg.BudgetConstraint.from_shapes(
        spec.layer_shapes, n_target=target, mode=args.mode, n_inc=n_inc, n_scale=n_scale,
    )


def cmd_gen_teacher(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    try:
        model = tm.build_teacher(spec)
    except MemoryError as exc:
        raise ValueError(f"--spec {args.spec}: layer shapes too large to allocate: {exc}") from None
    mio.save_model_package(args.out, spec, model.dense_weights, n_inc=model.n_inc)
    print(json.dumps({"out": args.out, "layers": len(model.dense_weights),
                      "dense_params": spec.dense_param_count(model.n_inc),
                      "seed": spec.seed}, sort_keys=True))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    timings = _StageTimer()
    _check_outputs(args, ["out"], ["model"])
    model = mio.load_model_package(args.model).to_toy_model()
    timings.lap("load")
    X = _draw(model.spec, args.samples, args.seed, "--samples")
    mats = tm.layer_calibration_matrices(model, X)
    del X  # the factorization needs only C; free the samples first
    timings.lap("calibrate")
    tm.attach_factors_from_calibration(model, mats)
    timings.lap("factorize")
    mio.save_calibration_package(args.out, mats, samples=args.samples, seed=args.seed,
                                 model=model)
    timings.lap("write")
    print(json.dumps({"out": args.out, "samples": args.samples, "seed": args.seed,
                      "layers": len(mats), "timings_s": timings.stages}, sort_keys=True))
    return EXIT_OK


def cmd_compress(args) -> int:
    timings = _StageTimer()
    _check_outputs(args, ["out", "report"], ["model", "calib"], [("ranks", args.ranks)])
    model = _load_factored(args)
    ranks = _read_ranks(args.ranks, model.spec.caps())
    timings.lap("load")

    layers = [f.truncated(int(r)) for f, r in zip(model.factors, ranks)]
    if args.pivga:
        layers = [pivga.pivga_factorize(g) for g in layers]
    mode = "parabolic" if args.pivga else "linear"
    counts = [pivga.param_count(m, n, int(r), mode)
              for (m, n), r in zip(model.spec.layer_shapes, ranks)]
    residuals = tm.layer_residuals(model, ranks)
    timings.lap("factorize")
    mio.save_model_package(args.out, model.spec, layers, n_inc=model.n_inc)
    timings.lap("write")

    report = {
        "command": "compress",
        "config": {"model": args.model, "calib": args.calib, "pivga": bool(args.pivga),
                   "ranks_file": args.ranks},
        "ranks": [int(r) for r in ranks],
        "stored_params": sum(c.decomposed for c in counts) + model.n_inc,
        "permutation_indices": sum(c.permutation_indices for c in counts),
        "dense_params": model.spec.dense_param_count(model.n_inc),
        "per_layer_residual": [float(x) for x in residuals],
        "pivga_cond_b0": [pf.cond_b0 for pf in layers] if args.pivga else None,
        "out": args.out,
        "timings_s": timings.stages,
        "wall_time_s": timings.wall_time_s(),
    }
    if args.report:
        mio.write_report(args.report, report)
    print(json.dumps({"out": args.out, "ranks": report["ranks"],
                      "stored_params": report["stored_params"]}, sort_keys=True))
    return EXIT_OK


def cmd_fermigrad(args) -> int:
    timings = _StageTimer()
    _check_outputs(args, ["out_ranks", "report", "trajectory"], ["model", "calib"])
    model = _load_factored(args)
    budget = _budget_from_args(args, model.spec, model.n_inc, args.n_scale)
    cfg = fg.FermiConfig(T=args.T, r_min=args.r_min)
    sched = fg.RhoSchedule()
    opt = fg.OptimizerConfig(step_size=args.step, max_iters=args.iters)
    timings.lap("load")
    # passed inline, the training samples are freed once optimize_ranks has read them
    trajectory, alloc = fg.optimize_ranks(
        model, _draw(model.spec, args.kl_samples, args.seed, "--kl-samples"),
        budget, cfg, sched, opt)
    timings.lap("optimize")
    mio.write_ranks_file(args.out_ranks, alloc)
    if args.trajectory:
        mio.write_trajectory_csv(args.trajectory, trajectory)
    timings.lap("write")

    # the held-out draw's transient and the float64 factors are never alive together
    model.factors = None
    eval_data = _draw(model.spec, args.kl_samples, args.seed + 1, "--kl-samples")
    model.factors = mio.load_calibration_factors(args.calib, model)
    uniform = fg.uniform_ranks(model.spec.layer_shapes, budget, r_min=cfg.r_min)
    evaluation, uniform_eval = tm.evaluate_allocations(model, eval_data,
                                                       [alloc.ranks, uniform.ranks])
    timings.lap("evaluate")
    report = {
        "command": "fermigrad",
        "config": {
            "model": args.model, "calib": args.calib, "mode": args.mode,
            "target_params": budget.n_target, "n_scale": budget.n_scale,
            "T": cfg.T, "r_min": cfg.r_min, "rho0": sched.rho0, "alpha": sched.alpha,
            "rho_max": sched.rho_max, "step": opt.step_size, "iters": opt.max_iters,
            "mu_tol": opt.mu_tol, "constraint_tol": opt.constraint_tol,
            "batch_size": opt.batch_size, "kl_samples": args.kl_samples,
            "seed": args.seed,
        },
        "trajectory_csv": args.trajectory,
        "iterations_run": len(trajectory),
        "final_mu": [float(v) for v in trajectory[-1].mu],
        "final_rho": trajectory[-1].rho,
        "final_n_param_soft": trajectory[-1].n_param,
        "final_violation": fg.budget_violation(trajectory[-1].n_param, budget),
        "stop_reason": alloc.stop_reason,
        "final_ranks": [int(r) for r in alloc.ranks],
        "achieved_params": int(alloc.achieved_params),
        "target_params": int(alloc.target_params),
        "budget_gap_params": int(alloc.target_params - alloc.achieved_params),
        "kl_eval": evaluation.kl,
        "kl_uniform_eval": uniform_eval.kl,
        "equals_uniform": np.array_equal(alloc.ranks, uniform.ranks),
        "per_layer_residual": [float(x) for x in evaluation.per_layer_residual],
        "timings_s": timings.stages,
        "wall_time_s": timings.wall_time_s(),
    }
    if args.report:
        mio.write_report(args.report, report)
    print(json.dumps({key: report[key] for key in (
        "final_ranks", "achieved_params", "target_params", "budget_gap_params", "kl_eval",
        "kl_uniform_eval", "equals_uniform", "stop_reason", "final_violation")},
        sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    timings = _StageTimer()
    ranks_files = [_labelled(item) for item in args.ranks or []]
    _check_outputs(args, ["out"], ["model", "calib"],
                   [("ranks", path) for _, path in ranks_files])
    model = mio.load_model_package(args.model).to_toy_model()
    # drawn before the stored factors are read, so its transient and they never overlap
    data = _draw(model.spec, args.samples, args.seed, "--samples")
    model.factors = mio.load_calibration_factors(args.calib, model)

    entries = [(label, _read_ranks(path, model.spec.caps())) for label, path in ranks_files]
    timings.lap("load")

    budget = None
    if args.target_params is not None or args.target_ratio is not None:
        budget = _budget_from_args(args, model.spec, model.n_inc)
        if args.uniform:
            uni = fg.uniform_ranks(model.spec.layer_shapes, budget, r_min=args.r_min)
            entries.append(("uniform", uni.ranks))
        if args.brute_force:
            bf = tm.brute_force_rank_search(model, data, budget,
                                            grid_step=args.grid_step, r_min=args.r_min)
            entries.append(("brute-force", bf.ranks))
    elif args.uniform or args.brute_force:
        raise ValueError("--uniform/--brute-force need --target-params or --target-ratio")
    if not entries:
        raise ValueError("nothing to compare: give --ranks and/or --uniform")

    reports = tm.evaluate_allocations(model, data, [ranks for _, ranks in entries])
    rows = [{"label": label, **rep.to_dict()} for (label, _), rep in zip(entries, reports)]
    timings.lap("evaluate")
    report = {
        "command": "compare",
        "config": {"model": args.model, "calib": args.calib, "samples": args.samples,
                   "seed": args.seed, "mode": args.mode,
                   "target_params": budget.n_target if budget else None},
        "allocations": rows,
        "timings_s": timings.stages,
        "wall_time_s": timings.wall_time_s(),
    }
    if args.out:
        mio.write_report(args.out, report)
    width = max(len(r["label"]) for r in rows)
    print(f"{'label':<{width}}  {'kl':>12}  {'params(lin)':>12}  {'params(par)':>12}  ranks")
    for r in rows:
        print(f"{r['label']:<{width}}  {r['kl']:>12.5e}  {r['params_linear']:>12}  "
              f"{r['params_parabolic']:>12}  {r['ranks']}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises flag errors as ValueError, so main reports them like any other
    usage error: one JSON line and exit 2. Subparsers inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lrcompress",
        description="Low-rank weight compression toolkit (data-aware SVD, "
                    "pivoted gauge fixing, gradient-based rank allocation).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-teacher", help="build a seeded toy teacher package")
    g.add_argument("--spec", default="default",
                   help="JSON spec file, or 'default' for the built-in 4-layer model")
    g.add_argument("--seed", type=int, default=None, help="override the spec seed")
    g.add_argument("--out", required=True, help="output package directory")
    g.set_defaults(func=cmd_gen_teacher)

    c = sub.add_parser("calibrate",
                       help="store per-layer calibration matrices and full-rank factors")
    c.add_argument("--model", required=True, help="teacher package directory")
    c.add_argument("--samples", type=int, default=512)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True, help="output calibration directory")
    c.set_defaults(func=cmd_calibrate)

    k = sub.add_parser("compress", help="data-aware compression at fixed ranks")
    k.add_argument("--model", required=True)
    k.add_argument("--calib", required=True)
    k.add_argument("--ranks", required=True,
                   help="JSON ranks file (e.g. from fermigrad, or a plain list)")
    k.add_argument("--pivga", action="store_true",
                   help="gauge-fix the factors (lossless secondary compression)")
    k.add_argument("--out", required=True, help="output package directory")
    k.add_argument("--report", help="write a JSON run report here")
    k.set_defaults(func=cmd_compress)

    f = sub.add_parser("fermigrad", help="optimize per-layer ranks under a budget")
    f.add_argument("--model", required=True)
    f.add_argument("--calib", required=True)
    f.add_argument("--target-params", type=int, default=None)
    f.add_argument("--target-ratio", type=float, default=None,
                   help="target as a fraction of the dense parameter count")
    f.add_argument("--mode", choices=["linear", "parabolic"], default=fg.BudgetConstraint.mode)
    f.add_argument("-T", type=float, default=fg.FermiConfig.T, help="Fermi temperature")
    f.add_argument("--r-min", type=int, default=fg.FermiConfig.r_min)
    f.add_argument("--n-scale", type=float, default=fg.BudgetConstraint.n_scale)
    f.add_argument("--step", type=float, default=fg.OptimizerConfig.step_size)
    f.add_argument("--iters", type=int, default=fg.OptimizerConfig.max_iters)
    f.add_argument("--kl-samples", type=int, default=512,
                   help="training samples for the KL loss (seeded)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out-ranks", required=True, help="output ranks JSON")
    f.add_argument("--trajectory", help="output mu-trajectory CSV")
    f.add_argument("--report", help="write a JSON run report here")
    f.set_defaults(func=cmd_fermigrad)

    q = sub.add_parser("compare", help="evaluate allocations side by side")
    q.add_argument("--model", required=True)
    q.add_argument("--calib", required=True)
    q.add_argument("--ranks", action="append",
                   help="label=ranks.json (repeatable)")
    q.add_argument("--uniform", action="store_true",
                   help="include the uniform baseline at the target")
    q.add_argument("--brute-force", action="store_true",
                   help="include the brute-force oracle (small models only)")
    q.add_argument("--grid-step", type=int, default=1)
    q.add_argument("--r-min", type=int, default=1)
    q.add_argument("--target-params", type=int, default=None)
    q.add_argument("--target-ratio", type=float, default=None)
    q.add_argument("--mode", choices=["linear", "parabolic"], default=fg.BudgetConstraint.mode)
    q.add_argument("--samples", type=int, default=512)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", help="write a JSON comparison report here")
    q.set_defaults(func=cmd_compare)
    return p


# Exception type -> exit code, first match wins: PackageFormatError is a
# ToolkitError, so it has to come first.
_EXIT_CODES = (
    (PackageFormatError, EXIT_FORMAT),
    (ToolkitError, EXIT_NUMERIC),
    (OSError, EXIT_IO),
    (ValueError, EXIT_USAGE),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(t for t, _ in _EXIT_CODES) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return next(code for t, code in _EXIT_CODES if isinstance(exc, t))


if __name__ == "__main__":
    sys.exit(main())
