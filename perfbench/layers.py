"""Per-layer instrumentation: which package functions a traced pass wraps,
and how the recorded spans become the per-layer metrics.

The layers are the package's modules. Every public function a module
defines is wrapped, under the name ``<module>.<function>``, at every
module-level name that binds it anywhere in the package, so aliases made
by ``from .linalg import cholesky_whiten`` are traced too.
"""

from __future__ import annotations

import inspect
import os
import sys
from statistics import median

from spans import Tracer

LAYER_MODULES = ("cli", "fermigrad", "toymodels", "svdcompress", "linalg", "pivga",
                 "matrixio")

# matrixio functions whose file size is added to the bytes moved.
_WRITERS = ("write_matrix", "write_indices")
_READERS = ("read_matrix", "read_indices")


def package_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lrcompress" or name.startswith("lrcompress."))]


def _file_size(result, args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def public_functions() -> list[tuple[str, object]]:
    """(span name, function) for every public function of the layer modules."""
    out = []
    for short in LAYER_MODULES:
        module = sys.modules[f"lrcompress.{short}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")):
                out.append((f"{short}.{attr}", value))
    return out


def install(tracer: Tracer) -> int:
    """Wrap every public function at every name that binds it; returns names rebound."""
    namespaces = package_namespaces()
    rebound = 0
    for name, fn in public_functions():
        short = name.split(".", 1)[1]
        measure = _file_size if short in _WRITERS + _READERS else None
        rebound += tracer.patch(namespaces, fn, name, measure)
    return rebound


def snapshot() -> dict:
    """Identity of every attribute of every package module, to prove a restore."""
    return {(m.__name__, attr): id(v) for m in package_namespaces()
            for attr, v in vars(m).items()}


def per_layer_metrics(tracer: Tracer, root_idx: int, traced: dict, base: dict,
                      quality: dict, mflop_per_iter: float, standalone: dict) -> dict:
    """The per-layer metrics of one traced pass.

    ``traced`` and ``base`` are the pass records of the traced pass and of
    an untraced pass of the same work; ``quality`` holds the chain outcomes
    (empty for a workload without FermiGrad).
    """
    table = tracer.summary(within="fermigrad.optimize_ranks")

    def incl(*names):
        return sum(table.get(n, {}).get("inclusive_s", 0.0) for n in names)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def within(name):
        return table.get(name, {}).get("calls_within", 0)

    iterations = quality.get("iterations", 0)
    optimize_s = incl("fermigrad.optimize_ranks")
    pf_spans = tracer.durations("matrixio.package_forward")
    m = {
        "cli.gen_teacher_s": incl("cli.cmd_gen_teacher"),
        "cli.calibrate_s": incl("cli.cmd_calibrate"),
        "cli.fermigrad_s": incl("cli.cmd_fermigrad"),
        "cli.compress_s": incl("cli.cmd_compress"),
        "cli.compare_s": incl("cli.cmd_compare"),
        "fermigrad.optimize_s": optimize_s,
        "fermigrad.iterations": iterations,
        "fermigrad.iter_us": optimize_s / iterations * 1e6 if iterations else 0.0,
        "fermigrad.hit_cap": quality.get("hit_cap", 0),
        "fermigrad.softmax_calls": within("fermigrad.softmax"),
        "fermigrad.fermi_factors_calls": within("fermigrad.fermi_factors"),
        "fermigrad.as_matrix_calls": within("linalg.as_matrix"),
        "fermigrad.teacher_cache_hit_ratio":
            1.0 - within("fermigrad.dense_forward") / iterations if iterations else 0.0,
        "fermigrad.soft_forward_us": standalone.get("fermigrad.soft_forward_us", 0.0),
        "fermigrad.kl_us": standalone.get("fermigrad.kl_us", 0.0),
        "fermigrad.grad_mu_us": standalone.get("fermigrad.grad_mu_us", 0.0),
        "fermigrad.backward_us": standalone.get("fermigrad.backward_us", 0.0),
        "fermigrad.mflop_per_iter": mflop_per_iter,
        "fermigrad.gflops":
            mflop_per_iter * iterations / optimize_s / 1e3 if optimize_s else 0.0,
        "fermigrad.round_and_repair_s": incl("fermigrad.round_and_repair"),
        "fermigrad.uniform_ranks_s": incl("fermigrad.uniform_ranks"),
        "fermigrad.kl_eval": quality.get("kl_eval", 0.0),
        "fermigrad.budget_gap_params": quality.get("budget_gap_params", 0),
        "toymodels.attach_factors_s": incl("toymodels.attach_factors_from_calibration",
                                           "toymodels.attach_data_aware_factors"),
        "toymodels.attach_calls": calls("toymodels.attach_factors_from_calibration")
                                  + calls("toymodels.attach_data_aware_factors"),
        "toymodels.build_teacher_s": incl("toymodels.build_teacher"),
        "toymodels.gen_calibration_s": incl("toymodels.gen_calibration"),
        "toymodels.layer_calibration_s": incl("toymodels.layer_calibration_matrices"),
        "toymodels.evaluate_allocation_s": incl("toymodels.evaluate_allocation"),
        "toymodels.brute_force_s": incl("toymodels.brute_force_rank_search"),
        "toymodels.forward_calls": calls("toymodels.forward"),
        "linalg.cholesky_s": incl("linalg.cholesky_whiten"),
        "linalg.cholesky_calls": calls("linalg.cholesky_whiten"),
        "linalg.svd_s": incl("linalg.svd_descending"),
        "linalg.svd_calls": calls("linalg.svd_descending"),
        "svdcompress.data_aware_svd_s": incl("svdcompress.data_aware_svd"),
        "linalg.lu_row_pivots_s": incl("linalg.lu_row_pivots"),
        "linalg.solve_general_s": incl("linalg.solve_general"),
        "pivga.select_s": incl("pivga.select_skeleton_columns"),
        "pivga.factorize_s": incl("pivga.pivga_factorize"),
        "pivga.cond_b0_max": traced.get("cond_b0_max", 0.0),
        "matrixio.write_bytes": sum(tracer.amounts[f"matrixio.{n}"] for n in _WRITERS),
        "matrixio.write_s": incl(*(f"matrixio.{n}" for n in _WRITERS)),
        "matrixio.read_bytes": sum(tracer.amounts[f"matrixio.{n}"] for n in _READERS),
        "matrixio.read_s": incl(*(f"matrixio.{n}" for n in _READERS)),
        "matrixio.package_forward_us": median(pf_spans) * 1e6 if pf_spans else 0.0,
        "trace.overhead_ratio": traced["wall"] / base["wall"],
        "trace.uncovered_ratio": tracer.self_time(root_idx) / tracer.spans[root_idx].duration,
        "trace.spans": len(tracer.spans),
    }
    for key in ("pivga.forward_us", "pivga.forward_b1_us", "pivga.forward_b1_bytes",
                "pivga.lowrank_forward_us", "pivga.forward_vs_lowrank"):
        m[key] = standalone.get(key, 0.0)
    return m
