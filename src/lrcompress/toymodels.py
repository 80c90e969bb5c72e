"""Desk-scale teacher/student models with planted heterogeneous ranks.

These small multilayer networks stand in for a large model: each layer's
weight is built from seeded orthogonal factors with a decaying singular
spectrum, so its effective rank is planted by construction and the best
allocation of ranks across layers is genuinely non-uniform. That makes
"the optimizer beats uniform compression" a sharp, reproducible signal,
and keeps a brute-force search over rank tuples feasible as an oracle.

All constants here (layer sizes, planted ranks, spectrum decay, the
calibration distribution) are desk-scale surrogates chosen for testability,
not measurements of any larger system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import fermigrad, pivga
from .errors import (
    DimensionMismatch,
    InfeasibleBudget,
    PackageFormatError,
    SearchSpaceTooLarge,
)
from .fermigrad import BudgetConstraint, FermiConfig, RankAllocation, count_params
from .linalg import as_matrix, cholesky_whiten
from .svdcompress import CalibState, accumulate_calibration, data_aware_svd

# Condition number of the calibration input covariance.
CALIB_COND = 100.0

# Guard for brute_force_rank_search.
MAX_GRID_POINTS = 10**6


@dataclass
class ToyModelSpec:
    """Recipe for a planted-rank teacher network.

    ``spectrum_decay`` may be a scalar (shared by all layers) or one value
    per layer. ``output_dim`` defaults to the last layer's output width.
    """

    layer_shapes: list            # [(m_l, n_l)], consecutive shapes compose
    planted_ranks: list
    spectrum_decay: float | list = 3.0
    noise_floor: float = 1e-3
    output_dim: int | None = None
    nonlinearity: str = "tanh"
    seed: int = 0
    signal_gain: float = 5.0      # rms amplification per layer, see build_teacher

    def __post_init__(self):
        shapes = [tuple(s) for s in self.layer_shapes]
        self.layer_shapes = shapes
        if len(self.planted_ranks) != len(shapes):
            raise DimensionMismatch("one planted rank per layer required")
        for l in range(len(shapes) - 1):
            if shapes[l + 1][1] != shapes[l][0]:
                raise DimensionMismatch(
                    f"layer {l + 1} input width {shapes[l + 1][1]} does not match "
                    f"layer {l} output width {shapes[l][0]}"
                )
        for (m, n), r in zip(shapes, self.planted_ranks):
            if not 1 <= r <= min(m, n):
                raise DimensionMismatch(f"planted rank {r} invalid for shape {(m, n)}")
        if self.output_dim is None:
            self.output_dim = shapes[-1][0]
        elif self.output_dim != shapes[-1][0]:
            raise DimensionMismatch(
                f"output_dim {self.output_dim} does not match last layer {shapes[-1]}"
            )
        if self.nonlinearity not in fermigrad.ACTIVATIONS:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_shapes[0][1]

    def decay_for(self, l: int) -> float:
        if np.isscalar(self.spectrum_decay):
            return float(self.spectrum_decay)
        return float(self.spectrum_decay[l])

    def caps(self) -> np.ndarray:
        return np.array([min(m, n) for (m, n) in self.layer_shapes], dtype=np.int64)

    def dense_param_count(self, n_inc: int = 0) -> int:
        return sum(m * n for (m, n) in self.layer_shapes) + n_inc

    def to_dict(self) -> dict:
        return {
            "layer_shapes": [list(s) for s in self.layer_shapes],
            "planted_ranks": [int(r) for r in self.planted_ranks],
            "spectrum_decay": self.spectrum_decay
            if np.isscalar(self.spectrum_decay)
            else [float(d) for d in self.spectrum_decay],
            "noise_floor": self.noise_floor,
            "output_dim": self.output_dim,
            "nonlinearity": self.nonlinearity,
            "seed": self.seed,
            "signal_gain": self.signal_gain,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToyModelSpec":
        """Build a spec from parsed JSON; any malformed field raises PackageFormatError."""
        from .matrixio import check_fields  # matrixio imports this module

        where = "bad model spec"
        check_fields(d, where, layer_shapes="int pair list", planted_ranks="int list")
        optional = {"spectrum_decay": "number or number list", "noise_floor": "number",
                    "output_dim": "int or null", "nonlinearity": "str", "seed": "int",
                    "signal_gain": "number"}
        check_fields(d, where, **{k: kind for k, kind in optional.items() if k in d})
        n_layers = len(d["layer_shapes"])
        if n_layers == 0:
            raise PackageFormatError(f"{where}: no layers")
        if isinstance(d.get("spectrum_decay"), list) and len(d["spectrum_decay"]) != n_layers:
            raise PackageFormatError(f"{where}: one spectrum_decay per layer required")
        try:
            return cls(**d)
        except (TypeError, ValueError, DimensionMismatch) as exc:
            raise PackageFormatError(f"{where}: {exc}") from None


@dataclass
class ToyModel:
    """Teacher network: dense weights, plus optional full-rank data-aware factors."""

    spec: ToyModelSpec
    dense_weights: list = field(default_factory=list)
    factors: list | None = None
    n_inc: int = 0

    @property
    def nonlinearity(self) -> str:
        return self.spec.nonlinearity


def default_spec(seed: int = 0) -> ToyModelSpec:
    """The standard 4-layer 64x64 desk model with planted ranks (4, 8, 16, 48)."""
    return ToyModelSpec(
        layer_shapes=[(64, 64)] * 4,
        planted_ranks=[4, 8, 16, 48],
        spectrum_decay=3.0,
        noise_floor=1e-3,
        output_dim=64,
        nonlinearity="tanh",
        seed=seed,
    )


def _seeded_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    """Orthonormal columns with a canonical sign (QR of a Gaussian draw)."""
    G = rng.standard_normal((rows, rows))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    return Q[:, :cols]


def build_teacher(spec: ToyModelSpec) -> ToyModel:
    """Construct dense layer weights with the planted singular spectrum.

    Layer l is U diag(s) V^T with seeded orthogonal U, V and
    s_j proportional to exp(-decay * j / planted_rank) for j below the
    planted rank, noise_floor * s_0 afterwards. Each layer's spectrum is
    scaled so sum(s^2) equals signal_gain^2 times its input width: an
    isotropic input's rms is then amplified by signal_gain per layer,
    driving the nonlinearity into its saturating regime. Without that a
    stack of sub-unit spectra attenuates the signal exponentially with
    depth, the output softmax degenerates to uniform, and output KL goes
    numerically blind to the planted structure.
    """
    weights = []
    for l, (m, n) in enumerate(spec.layer_shapes):
        k = min(m, n)
        rng = np.random.default_rng([spec.seed, l])
        U = _seeded_orthonormal(rng, m, k)
        V = _seeded_orthonormal(rng, n, k)
        r_p = spec.planted_ranks[l]
        s = np.empty(k)
        j = np.arange(k, dtype=np.float64)
        s[:r_p] = np.exp(-spec.decay_for(l) * j[:r_p] / r_p)
        s[r_p:] = spec.noise_floor * s[0]
        s = np.sort(s)[::-1]
        s *= spec.signal_gain * np.sqrt(n / np.sum(s * s))
        weights.append((U * s) @ V.T)
    return ToyModel(spec=spec, dense_weights=weights)


def gen_calibration(spec: ToyModelSpec, n_samples: int, seed: int) -> np.ndarray:
    """Seeded anisotropic Gaussian inputs, one sample per column.

    The covariance has condition number 100 with an orientation fixed by
    the model spec's own seed, so the same spec always sees the same input
    distribution while ``seed`` controls the draw (e.g. train/eval splits).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n0 = spec.input_dim
    orient_rng = np.random.default_rng([spec.seed, 0xCA11B])
    Q = _seeded_orthonormal(orient_rng, n0, n0)
    lam = np.logspace(0.0, -np.log10(CALIB_COND), n0)
    scale = Q * np.sqrt(lam)
    draw_rng = np.random.default_rng([seed, 0xDA7A])
    return scale @ draw_rng.standard_normal((n0, n_samples))


def attach_data_aware_factors(model: ToyModel, X) -> ToyModel:
    """Fit full-rank data-aware factors to every layer, in place.

    Runs the dense network on the calibration samples, accumulates each
    layer's input second-moment matrix, whitens it and factorizes the layer
    at full rank. The factors reconstruct the dense weights exactly (up to
    round-off), so hard truncation of their leading slices is the rank-r
    data-aware compression of each layer.
    """
    X = as_matrix(X, "X")
    if X.shape[0] != model.spec.input_dim:
        raise DimensionMismatch(
            f"calibration width {X.shape[0]}, model expects {model.spec.input_dim}"
        )
    return attach_factors_from_calibration(model, layer_calibration_matrices(model, X))


def attach_factors_from_calibration(model: ToyModel, mats) -> ToyModel:
    """Fit full-rank data-aware factors from precomputed per-layer C matrices."""
    if len(mats) != len(model.dense_weights):
        raise DimensionMismatch(
            f"{len(mats)} calibration matrices for {len(model.dense_weights)} layers"
        )
    factors = []
    for W, C in zip(model.dense_weights, mats):
        if C.shape[0] != W.shape[1]:
            raise DimensionMismatch(
                f"calibration dim {C.shape[0]} does not match layer input {W.shape[1]}"
            )
        S = cholesky_whiten(C)
        factors.append(data_aware_svd(W, S, min(W.shape)))
    model.factors = factors
    return model


def layer_calibration_matrices(model: ToyModel, X) -> list:
    """Per-layer input second-moment matrices C_l = H_l H_l^T along the network."""
    X = as_matrix(X, "X")
    return [accumulate_calibration(CalibState.empty(h.shape[0]), h).C
            for h in fermigrad.layer_inputs(model.dense_weights, model.nonlinearity, X)]


def _require_factors(model: ToyModel):
    if model.factors is None:
        raise ValueError("model has no factors; call attach_data_aware_factors first")


def forward(model: ToyModel, X, mode: str = "dense", mu=None,
            fermi_cfg: FermiConfig | None = None, ranks=None) -> np.ndarray:
    """Run the network in one of its representations; columns are samples.

    mode="dense"  teacher weights as-is
    mode="soft"   A (F * (B h)) with Fermi gates at ``mu`` (needs fermi_cfg)
    mode="hard"   factors truncated to integer ``ranks``
    mode="pivga"  hard truncation followed by pivoted gauge fixing per layer
    """
    X = as_matrix(X, "X")
    if X.shape[0] != model.spec.input_dim:
        raise DimensionMismatch(
            f"input width {X.shape[0]}, model expects {model.spec.input_dim}"
        )
    if mode == "dense":
        return fermigrad.dense_forward(model.dense_weights, model.nonlinearity, X)
    _require_factors(model)
    if mode == "soft":
        if mu is None:
            raise ValueError("soft mode needs mu")
        return fermigrad.soft_forward(
            model.factors, model.nonlinearity, X, mu, fermi_cfg or FermiConfig()
        )
    if mode == "hard":
        if ranks is None:
            raise ValueError("hard mode needs ranks")
        return fermigrad.hard_forward(model.factors, model.nonlinearity, X, ranks)
    if mode == "pivga":
        if ranks is None:
            raise ValueError("pivga mode needs ranks")
        layers = [pivga.pivga_factorize(f.truncated(int(ranks[l])))
                  for l, f in enumerate(model.factors)]
        return fermigrad.run(layers, model.nonlinearity, X)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class AllocationReport:
    """Deterministic evaluation of one integer rank allocation."""

    ranks: np.ndarray
    kl: float
    params_linear: int
    params_parabolic: int
    per_layer_residual: np.ndarray   # relative ||W - A_r B_r||_F per layer

    def to_dict(self) -> dict:
        return {
            "ranks": [int(r) for r in self.ranks],
            "kl": self.kl,
            "params_linear": self.params_linear,
            "params_parabolic": self.params_parabolic,
            "per_layer_residual": [float(x) for x in self.per_layer_residual],
        }


def evaluate_allocation(model: ToyModel, data, ranks) -> AllocationReport:
    """KL against the dense teacher plus parameter counts and layer residuals."""
    _require_factors(model)
    ranks = np.asarray(ranks, dtype=np.int64)
    caps = model.spec.caps()
    if np.any(ranks < 1) or np.any(ranks > caps):
        raise DimensionMismatch(f"ranks {ranks.tolist()} outside boxes {caps.tolist()}")
    teacher = forward(model, data, mode="dense")
    student = forward(model, data, mode="hard", ranks=ranks)
    kl = fermigrad.kl_divergence(teacher.T, student.T)
    shapes = model.spec.layer_shapes
    lin = sum(pivga.param_count(m, n, int(r), "linear").decomposed
              for (m, n), r in zip(shapes, ranks)) + model.n_inc
    par = sum(pivga.param_count(m, n, int(r), "parabolic").decomposed
              for (m, n), r in zip(shapes, ranks)) + model.n_inc
    return AllocationReport(ranks=ranks, kl=kl, params_linear=lin,
                            params_parabolic=par,
                            per_layer_residual=layer_residuals(model, ranks))


def layer_residuals(model: ToyModel, ranks) -> np.ndarray:
    """Relative residual ||W - A_r B_r||_F / ||W||_F of each layer at its rank."""
    return np.array([np.linalg.norm(W - f.truncated(int(r)).reconstruct()) / np.linalg.norm(W)
                     for W, f, r in zip(model.dense_weights, model.factors, ranks)])


def brute_force_rank_search(model: ToyModel, data, budget: BudgetConstraint,
                            grid_step: int = 1, r_min: int = 1) -> RankAllocation:
    """Exhaustive KL-minimal rank tuple on the grid {r_min, r_min+step, ..., N_l}.

    Only feasible for a handful of small layers: the grid size is guarded
    at 10^6 tuples. Ties in KL go to the lexicographically smallest tuple.
    The combinatorial blow-up of this search is exactly what the gradient
    relaxation avoids.
    """
    _require_factors(model)
    data = as_matrix(data, "data")
    caps = model.spec.caps()
    grids = [np.arange(r_min, int(c) + 1, grid_step) for c in caps]
    total = 1
    for g in grids:
        total *= len(g)
        if total > MAX_GRID_POINTS:
            raise SearchSpaceTooLarge(f"grid has more than {MAX_GRID_POINTS} tuples")
    teacher = forward(model, data, mode="dense").T
    best = None
    best_kl = np.inf
    for combo in itertools.product(*grids):
        ranks = np.array(combo, dtype=np.int64)
        achieved = count_params(ranks, budget)
        if achieved > budget.n_target:
            continue
        student = forward(model, data, mode="hard", ranks=ranks).T
        kl = fermigrad.kl_divergence(teacher, student)
        if kl < best_kl:
            best_kl = kl
            best = RankAllocation(ranks=ranks, achieved_params=achieved,
                                  target_params=budget.n_target)
    if best is None:
        raise InfeasibleBudget(
            f"no grid point satisfies the budget {budget.n_target}"
        )
    return best
