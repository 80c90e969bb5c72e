"""The benchmark's workloads: inputs made from a seed, one pass of work, checks.

A pass is one complete unit of a workload's work. ``run.py`` times passes
untraced for the end-to-end metrics, and in a traced run repeats one pass
under the tracer for the per-layer metrics. Everything the package computes
is reached through its public API: the CLI in-process through
``lrcompress.cli.main(argv)``, everything else by direct calls, always by
module attribute so that a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from lrcompress import cli
from lrcompress import fermigrad as fg
from lrcompress import matrixio as mio
from lrcompress import pivga
from lrcompress import toymodels as tm
from lrcompress.svdcompress import LowRankFactors

# Samples per serving request (package_forward call).
SERVE_BATCH = 64

# Relative agreement required between the PivGa student and A_r (B_r x).
PIVGA_REL_TOL = 1e-10

# Distinct request batches generated per workload; requests cycle through them.
SERVE_POOL = 32

# Offset that keeps held-out serving samples apart from the calibration
# and KL seeds of the chains.
SERVE_SEED_OFFSET = 1_000_000


class Ops:
    """Attempted and failed operations of one run, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _failure_text() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_cli(ops: Ops, argv: list[str]) -> float:
    """Run one lrcompress command in-process; returns its wall seconds."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        rc = _failure_text()
    seconds = time.perf_counter() - t0
    ops.record(rc == 0, f"lrcompress {' '.join(argv)}: exit {rc} {err.getvalue().strip()}")
    return seconds


def serve(ops: Ops, package_dir: Path, X: np.ndarray, requests: int):
    """Load a package, then serve requests of SERVE_BATCH samples.

    Request j takes the j-th batch of columns of X, cycling through X.
    Returns (load seconds, per-request seconds).
    """
    t0 = time.perf_counter()
    try:
        pkg = mio.load_model_package(package_dir)
    except Exception:
        ops.record(False, f"load {package_dir}: {_failure_text()}")
        return time.perf_counter() - t0, []
    load_s = time.perf_counter() - t0
    ops.record(True, "load")
    latencies = []
    pool = X.shape[1] // SERVE_BATCH
    for j in range(requests):
        batch = X[:, (j % pool) * SERVE_BATCH:(j % pool + 1) * SERVE_BATCH]
        t = time.perf_counter()
        try:
            y = mio.package_forward(pkg, batch)
        except Exception:
            ops.record(False, f"package_forward: {_failure_text()}")
            continue
        latencies.append(time.perf_counter() - t)
        ops.record(bool(np.isfinite(y).all()), "package_forward returned non-finite values")
    return load_s, latencies


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def rel_err(y, ref) -> float:
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


def median_time(fn, min_reps: int = 7, min_seconds: float = 0.3) -> float:
    """Median seconds of ``fn()`` over at least min_reps calls and min_seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return median(times)


def _read_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def pivga_forward_metrics(pairs, seed: int) -> dict:
    """Standalone forward timings over (PivGaFactors, LowRankFactors) pairs.

    Each pair is one layer in both forms of the same truncation. Times are
    summed over the layers; bytes for a single vector are computed from the
    array sizes (stored operands, input and output), not measured.
    """
    rng = np.random.default_rng([seed, 0xF0])
    fwd = b1 = low = 0.0
    b1_bytes = 0
    for pf, lr in pairs:
        m, n, r = pf.Cmat.shape[0], pf.n_cols, pf.rank
        x = rng.standard_normal((n, SERVE_BATCH))
        v = np.ascontiguousarray(x[:, 0])
        fwd += median_time(lambda: pivga.pivga_forward(x, pf))
        b1 += median_time(lambda: pivga.pivga_forward(v, pf))
        low += median_time(lambda: lr.A @ (lr.B @ x))
        b1_bytes += 8 * (m * r + r * (n - r) + n + n + m)
    return {
        "pivga.forward_us": fwd * 1e6,
        "pivga.forward_b1_us": b1 * 1e6,
        "pivga.forward_b1_bytes": b1_bytes,
        "pivga.lowrank_forward_us": low * 1e6,
        "pivga.forward_vs_lowrank": fwd / low,
    }


# ---------------------------------------------------------------------------
# CLI chains


@dataclass
class ChainConfig:
    """One teacher taken through gen-teacher -> ... -> compare."""

    label: str
    spec: tm.ToyModelSpec
    gen: list
    calibrate: list
    fermigrad: list
    compare: list


def _with_flag(args: list, name: str, value: str) -> list:
    out = list(args)
    out[out.index(name) + 1] = value
    return out


def desk_configs(seed: int) -> list[ChainConfig]:
    """Teachers 0-3 of the default 4x64^2 desk model with the demo-04 flags.

    The FermiGrad inputs are fixed rather than drawn from the workload seed:
    its stop rule makes the iteration count, and with it the command's
    time, swing between ~400 and the 1500 cap from one teacher or data seed
    to the next. The seed draws the compare evaluation set and the held-out
    serving samples.
    """
    configs = []
    for teacher in (0, 1, 2, 3):
        fermi = ["--target-ratio", "0.6", "--mode", "linear", "--step", "10",
                 "--iters", "1500", "--kl-samples", "512", "--seed", "11"]
        configs.append(ChainConfig(
            label=f"teacher{teacher}",
            spec=tm.default_spec(seed=teacher),
            gen=["--seed", str(teacher)],
            calibrate=["--samples", "512", "--seed", "11"],
            fermigrad=fermi,
            compare=["--uniform", "--brute-force", "--grid-step", "8",
                     "--target-ratio", "0.6", "--r-min", "8", "--seed", str(seed)],
        ))
    return configs


FIXTURE_SPEC = {"layer_shapes": [[1024, 1024], [1024, 1024]],
                "planted_ranks": [256, 512], "seed": 7}


def fixture_configs(seed: int, spec_path: Path) -> list[ChainConfig]:
    """The 2x1024^2 fixture of acceptance test 07, through the CLI.

    Brute-force compare is left out: its grid is far too large at this size.
    """
    return [ChainConfig(
        label="fixture1024",
        spec=tm.ToyModelSpec.from_dict(FIXTURE_SPEC),
        gen=["--spec", str(spec_path)],
        calibrate=["--samples", "2048", "--seed", "31"],
        fermigrad=["--target-params", "1572864", "--step", "0.03", "--iters", "800",
                   "--kl-samples", "2048", "--seed", "31"],
        compare=["--uniform", "--target-params", "1572864", "--r-min", "8",
                 "--samples", "2048", "--seed", str(seed)],
    )]


class ChainWorkload:
    """gen-teacher -> calibrate -> fermigrad -> compress --pivga -> compare,
    then load and serve the student, for each config in turn."""

    min_passes = 2

    def __init__(self, configs: list[ChainConfig], seed: int, root: Path, requests: int):
        self.configs = configs
        self.seed = seed
        self.root = root
        self.requests = requests
        n_serve = min(requests, SERVE_POOL) * SERVE_BATCH
        self.serve_X = [tm.gen_calibration(c.spec, n_serve, seed + SERVE_SEED_OFFSET)
                        for c in configs]
        self.largest_dim = max(max(s) for c in configs for s in c.spec.layer_shapes)
        self._refs: dict[int, tm.ToyModel] = {}

    def _paths(self, k: int, c: ChainConfig) -> dict:
        d = self.root / f"pass{k}" / c.label
        return {"dir": d, "teacher": d / "teacher", "calib": d / "calib",
                "ranks": d / "ranks.json", "trajectory": d / "trajectory.csv",
                "fermigrad": d / "fermigrad.json", "student": d / "student",
                "compress": d / "compress.json", "compare": d / "compare.json"}

    def run_pass(self, ops: Ops, k: int) -> dict:
        stages: Counter = Counter()
        latencies: list[float] = []
        t0 = time.perf_counter()
        for c, X in zip(self.configs, self.serve_X):
            p = self._paths(k, c)
            p["dir"].mkdir(parents=True, exist_ok=True)
            T, C = str(p["teacher"]), str(p["calib"])
            stages["gen_teacher"] += run_cli(ops, ["gen-teacher", "--out", T, *c.gen])
            stages["calibrate"] += run_cli(ops, ["calibrate", "--model", T, "--out", C,
                                                 *c.calibrate])
            stages["fermigrad"] += run_cli(ops, [
                "fermigrad", "--model", T, "--calib", C, *c.fermigrad,
                "--out-ranks", str(p["ranks"]), "--trajectory", str(p["trajectory"]),
                "--report", str(p["fermigrad"])])
            stages["compress"] += run_cli(ops, [
                "compress", "--model", T, "--calib", C, "--ranks", str(p["ranks"]),
                "--pivga", "--out", str(p["student"]), "--report", str(p["compress"])])
            stages["compare"] += run_cli(ops, [
                "compare", "--model", T, "--calib", C,
                "--ranks", f"optimized={p['ranks']}", *c.compare, "--out", str(p["compare"])])
            load_s, lat = serve(ops, p["student"], X, self.requests)
            stages["load"] += load_s
            latencies += lat
        wall = time.perf_counter() - t0

        chains = []
        stored = 0
        conds = [0.0]
        for c in self.configs:
            p = self._paths(k, c)
            chains.append({"fermigrad": _read_json(p["fermigrad"]),
                           "compress": _read_json(p["compress"]),
                           "ranks": _read_json(p["ranks"])})
            if p["student"].is_dir():
                stored += dir_bytes(p["student"])
            if chains[-1]["compress"] is not None:
                conds += chains[-1]["compress"]["pivga_cond_b0"] or []
        return {"wall": wall, "stages": dict(stages), "compress": stages["compress"],
                "latencies": latencies, "stored_bytes": stored, "chains": chains,
                "cond_b0_max": max(conds)}

    def reference(self, i: int) -> tm.ToyModel:
        """Pass-0 teacher of config i with its full-rank data-aware factors."""
        if i not in self._refs:
            p = self._paths(0, self.configs[i])
            model = mio.load_model_package(p["teacher"]).to_toy_model()
            tm.attach_factors_from_calibration(model, mio.load_calibration_package(p["calib"]))
            self._refs[i] = model
        return self._refs[i]

    def check(self, ops: Ops, passes: list) -> None:
        for i, c in enumerate(self.configs):
            p0 = self._paths(0, c)
            for k, rec in enumerate(passes):
                ranks = rec["chains"][i]["ranks"]
                ops.record(ranks is not None
                           and ranks["achieved_params"] <= ranks["target_params"],
                           f"{c.label} pass {k}: achieved > target or no ranks file ({ranks})")
                if k == 0:
                    continue
                pk = self._paths(k, c)
                for key in ("ranks", "trajectory"):
                    same = (pk[key].is_file() and p0[key].is_file()
                            and pk[key].read_bytes() == p0[key].read_bytes())
                    ops.record(same, f"{c.label} pass {k}: {key} differs from pass 0")
            self._check_student(ops, i, passes[0]["chains"][i])

    def _check_student(self, ops: Ops, i: int, outputs: dict) -> None:
        c = self.configs[i]
        p0 = self._paths(0, c)
        try:
            ranks = outputs["ranks"]["ranks"]
            ref = self.reference(i)
            pkg = mio.load_model_package(p0["student"])
            X = self.serve_X[i][:, :SERVE_BATCH]
            err = rel_err(mio.package_forward(pkg, X),
                          fg.hard_forward(ref.factors, ref.nonlinearity, X, ranks))
            stored_ranks = [layer.payload.rank for layer in pkg.layers]
        except Exception:
            ops.record(False, f"{c.label}: student check raised {_failure_text()}")
            return
        ops.record(err <= PIVGA_REL_TOL,
                   f"{c.label}: PivGa student differs from A_r(B_r x) by {err:.3e}")
        ops.record(stored_ranks == list(ranks),
                   f"{c.label}: student ranks {stored_ranks} != allocated {ranks}")

    def quality(self, passes: list) -> dict:
        """Chain-only outcomes of pass 0 (deterministic for fixed configs)."""
        reports = [ch["fermigrad"] for ch in passes[0]["chains"]]
        if any(r is None for r in reports):
            return {}
        return {
            "allocate_s": median(p["stages"]["fermigrad"] for p in passes),
            "kl_eval": float(np.mean([r["kl_eval"] for r in reports])),
            "budget_gap_params": min(r["target_params"] - r["achieved_params"]
                                     for r in reports),
            "iterations": sum(r["iterations_run"] for r in reports),
            "hit_cap": sum(r["iterations_run"] >= r["config"]["iters"] for r in reports),
        }

    def mflop_per_iter(self, passes: list) -> float:
        """Computed FermiGrad flops per iteration: soft forward plus backward.

        Per layer (m x n, full rank k, batch b): B h and A (F u) forward,
        A^T delta backward, and B^T (F w) for every layer but the first.
        The teacher forward is cached per batch and left out. Averaged over
        the configs.
        """
        total = 0
        for c, ch in zip(self.configs, passes[0]["chains"]):
            b = ch["fermigrad"]["config"]["batch_size"]
            for l, (m, n) in enumerate(c.spec.layer_shapes):
                k = min(m, n)
                total += 2 * b * (k * n + 2 * m * k + (k * n if l > 0 else 0))
        return total / len(self.configs) / 1e6

    def standalone(self, passes: list) -> dict:
        """Untraced timings at the first config's final mu, and PivGa forwards."""
        c = self.configs[0]
        report = passes[0]["chains"][0]["fermigrad"]
        cfgd = report["config"]
        ref = self.reference(0)
        X = tm.gen_calibration(c.spec, cfgd["kl_samples"], cfgd["seed"])[:, :cfgd["batch_size"]]
        teacher = fg.dense_forward(ref.dense_weights, ref.nonlinearity, X)
        cfg = fg.FermiConfig(T=cfgd["T"], r_min=cfgd["r_min"])
        mu = np.array(report["final_mu"])
        muv = fg.MuVector(mu, c.spec.caps(), cfg.r_min)
        budget = fg.BudgetConstraint.from_shapes(
            c.spec.layer_shapes, n_target=cfgd["target_params"], mode=cfgd["mode"],
            n_scale=cfgd["n_scale"])
        student = fg.soft_forward(ref.factors, ref.nonlinearity, X, mu, cfg)
        soft = median_time(lambda: fg.soft_forward(ref.factors, ref.nonlinearity, X, mu, cfg))
        kl = median_time(lambda: fg.kl_divergence(teacher.T, student.T))
        grad = median_time(lambda: fg.grad_mu(ref, teacher, X, muv, budget,
                                              report["final_rho"], cfg))
        out = {"fermigrad.soft_forward_us": soft * 1e6, "fermigrad.kl_us": kl * 1e6,
               "fermigrad.grad_mu_us": grad * 1e6,
               "fermigrad.backward_us": (grad - soft - kl) * 1e6}

        pkg = mio.load_model_package(self._paths(0, c)["student"])
        pairs = [(layer.payload, f.truncated(layer.payload.rank))
                 for layer, f in zip(pkg.layers, ref.factors)]
        out.update(pivga_forward_metrics(pairs, self.seed))
        return out


# ---------------------------------------------------------------------------
# PivGa serving


class PivgaServeWorkload:
    """Write side: pivga_factorize + save_model_package of seeded 2048^2, r=512
    factors. Read side: load_model_package, then package_forward requests."""

    min_passes = 2

    def __init__(self, seed: int, root: Path, n: int = 2048, r: int = 512,
                 requests: int = 192):
        self.seed = seed
        self.root = root
        rng = np.random.default_rng([seed, 0x9A])
        A, _ = np.linalg.qr(rng.standard_normal((n, r)))
        self.factors = LowRankFactors(A=np.ascontiguousarray(A),
                                      B=rng.standard_normal((r, n)))
        self.X = rng.standard_normal((n, min(requests, SERVE_POOL) * SERVE_BATCH))
        self.requests = requests
        self.largest_dim = n

    def _student(self, k: int) -> Path:
        return self.root / f"pass{k}" / "student"

    def run_pass(self, ops: Ops, k: int) -> dict:
        d = self._student(k)
        t0 = time.perf_counter()
        try:
            pf = pivga.pivga_factorize(self.factors)
            t1 = time.perf_counter()
            mio.save_model_package(d, None, [pf])
            ops.record(True, "factorize+save")
        except Exception:
            ops.record(False, f"factorize+save: {_failure_text()}")
            pf, t1 = None, time.perf_counter()
        t2 = time.perf_counter()
        load_s, latencies = serve(ops, d, self.X, self.requests)
        wall = time.perf_counter() - t0
        return {"wall": wall, "compress": t2 - t0, "latencies": latencies,
                "stages": {"factorize": t1 - t0, "save": t2 - t1, "load": load_s},
                "stored_bytes": dir_bytes(d) if d.is_dir() else 0,
                "cond_b0_max": pf.cond_b0 if pf is not None else 0.0}

    def check(self, ops: Ops, passes: list) -> None:
        d0 = self._student(0)
        try:
            pkg = mio.load_model_package(d0)
            X = self.X[:, :SERVE_BATCH]
            err = rel_err(mio.package_forward(pkg, X), self.factors.A @ (self.factors.B @ X))
        except Exception:
            ops.record(False, f"student check raised {_failure_text()}")
            return
        ops.record(err <= PIVGA_REL_TOL,
                   f"PivGa package differs from A (B x) by {err:.3e}")
        files0 = {p.name: p.read_bytes() for p in d0.iterdir()}
        for k in range(1, len(passes)):
            dk = self._student(k)
            filesk = {p.name: p.read_bytes() for p in dk.iterdir()} if dk.is_dir() else {}
            ops.record(filesk == files0, f"pass {k}: package bytes differ from pass 0")

    def quality(self, passes: list) -> dict:
        return {}

    def mflop_per_iter(self, passes: list) -> float:
        return 0.0

    def standalone(self, passes: list) -> dict:
        pf = mio.load_model_package(self._student(0)).layers[0].payload
        return pivga_forward_metrics([(pf, self.factors)], self.seed)


# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, root: Path):
    """Generate a workload's inputs from its seed (this is the timed set-up)."""
    root.mkdir(parents=True, exist_ok=True)
    if name == "desk-chain":
        return ChainWorkload(desk_configs(seed), seed, root, requests=256)
    if name == "fixture1024-chain":
        spec_path = root / "fixture_spec.json"
        spec_path.write_text(json.dumps(FIXTURE_SPEC))
        return ChainWorkload(fixture_configs(seed, spec_path), seed, root, requests=128)
    if name == "pivga-serve":
        return PivgaServeWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")


def warm_up(ops: Ops, root: Path, n: int) -> None:
    """Untimed pass over every code path at small size.

    Pulls in lazily imported modules, pages in the LAPACK routines and
    starts the BLAS threads, so the first timed call does not pay for them.
    ``n`` is the workload's largest matrix dimension; the large-matrix part
    runs at half of it, so it does not set the workload's peak memory.
    """
    c = desk_configs(0)[0]
    c.fermigrad = _with_flag(c.fermigrad, "--iters", "20")
    c.compare = _with_flag(c.compare, "--grid-step", "32")
    ChainWorkload([c], 0, root / "warmup", requests=4).run_pass(ops, 0)
    if n > 64:
        half = n // 2
        PivgaServeWorkload(0, root / "warmup", n=half, r=half // 4, requests=4).run_pass(ops, 1)
        np.linalg.svd(np.random.default_rng(0).standard_normal((half, half)))
    shutil.rmtree(root / "warmup", ignore_errors=True)
