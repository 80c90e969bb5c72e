"""Global rank allocation by gradient descent on a softened truncation.

Hard truncation of an SVD factorization at rank r is discrete and cannot be
differentiated. Replacing W ~ A B by W ~ A diag(F) B, where F is a logistic
(Fermi) step in the singular-value index j,

    F_j = 1 / (1 + exp((j - mu_l) / (N_l * T))),

turns the per-layer truncation position mu_l into a continuous trainable
variable. The loss is the KL divergence between teacher and soft student
outputs plus a quadratic penalty tying the (soft) parameter count to the
target budget; the penalty weight rho ramps up geometrically to a cap.
Weights A, B stay frozen throughout: only the mu vector moves, clamped to
the box [r_min, N_l]. At the end the mu are rounded to integer ranks and
greedily repaired to respect the budget exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InfeasibleBudget,
    NonFiniteGradient,
)
from .linalg import as_matrix
from .svdcompress import LowRankFactors

# Probability floor applied to the student distribution before the log.
Q_FLOOR = 1e-30

# activation -> (forward, derivative as a function of the activated output)
ACTIVATIONS = {
    "tanh": (np.tanh, lambda h: 1.0 - h * h),
    "identity": (lambda z: z, lambda h: np.ones_like(h)),
}


@dataclass
class FermiConfig:
    """Soft-truncation shape: temperature and minimum allowed rank."""

    T: float = 0.01
    r_min: int = 8

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.T}")
        if self.r_min < 1:
            raise ValueError(f"r_min must be >= 1, got {self.r_min}")


@dataclass
class MuVector:
    """Per-layer truncation positions with their box [r_min, caps]."""

    mu: np.ndarray      # float, one per compressible layer
    caps: np.ndarray    # N_l = min(m_l, n_l)
    r_min: int = 1

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.caps = np.asarray(self.caps, dtype=np.int64)
        if self.mu.shape != self.caps.shape:
            raise DimensionMismatch("mu and caps must have the same length")

    def clamped(self, mu) -> "MuVector":
        """Copy holding ``mu`` projected into the box."""
        return MuVector(np.clip(mu, self.r_min, self.caps), self.caps, self.r_min)


@dataclass
class BudgetConstraint:
    """Target parameter count and the geometry of the count function."""

    n_target: int
    a: np.ndarray               # a_l = n_l + m_l
    mode: str = "linear"        # "linear" (plain factors) | "parabolic" (gauge-fixed)
    n_inc: int = 0              # parameters excluded from decomposition
    n_scale: float = 1e9

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.mode not in ("linear", "parabolic"):
            raise ValueError(f"mode must be 'linear' or 'parabolic', got {self.mode!r}")
        if np.any(self.a <= 0):
            raise ValueError("all a_l must be positive")
        if not 0 < self.n_scale < np.inf:
            raise ValueError(f"n_scale must be positive and finite, got {self.n_scale}")
        if self.n_target <= self.n_inc:
            raise InfeasibleBudget(
                f"target {self.n_target} does not exceed incompressible count {self.n_inc}"
            )

    @classmethod
    def from_shapes(cls, shapes, n_target, mode="linear", n_inc=0, n_scale=1e9):
        a = [m + n for (m, n) in shapes]
        return cls(n_target=int(n_target), a=a, mode=mode, n_inc=int(n_inc), n_scale=n_scale)


@dataclass
class RhoSchedule:
    """Capped geometric ramp for the penalty weight."""

    rho0: float = 1.0
    alpha: float = 1.02
    rho_max: float = 2000.0

    def __post_init__(self):
        if not (0 < self.rho0 <= self.rho_max < np.inf and 1.0 < self.alpha < np.inf):
            raise ValueError("need finite rho0 > 0, alpha > 1, rho_max >= rho0")


@dataclass
class OptimizerConfig:
    """Projected-gradient loop controls (step size in rank-index units)."""

    step_size: float = 0.5
    max_iters: int = 500
    mu_tol: float = 1e-3
    constraint_tol: float = 5e-3
    batch_size: int = 32

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.step_size, self.max_iters, self.mu_tol,
                                            self.constraint_tol, self.batch_size)):
            raise ValueError("all optimizer controls must be positive and finite")


@dataclass
class RankAllocation:
    """Integer per-layer ranks with the achieved discrete parameter count."""

    ranks: np.ndarray
    achieved_params: int
    target_params: int


@dataclass
class TrajectoryPoint:
    """One optimizer iteration: state after the update, loss terms observed."""

    iteration: int
    mu: np.ndarray
    rho: float
    kl: float
    n_param: float


def fermi_factors(mu, n_cap: int, temperature: float, length: int | None = None) -> np.ndarray:
    """Logistic soft-truncation gates F_j = 1/(1 + exp((j - mu)/(n_cap*T))).

    F crosses 0.5 exactly at j = mu and transitions over a width of about
    n_cap * temperature index units. Overflow saturates to exactly 0 or 1.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if length is None:
        length = n_cap
    j = np.arange(length, dtype=np.float64)
    return expit((mu - j) / (n_cap * temperature))


def fermi_factor_grad(mu, n_cap: int, temperature: float, length: int | None = None) -> np.ndarray:
    """dF_j/dmu = F_j (1 - F_j) / (n_cap * T); exactly zero where F saturates."""
    F = fermi_factors(mu, n_cap, temperature, length)
    return F * (1.0 - F) / (n_cap * temperature)


def soft_truncate_effective(f: LowRankFactors, mu_l: float, cfg: FermiConfig) -> np.ndarray:
    """Materialize A @ diag(F) @ B for a full-rank factor pair."""
    F = fermi_factors(mu_l, f.rank, cfg.T)
    return (f.A * F) @ f.B


def param_count_soft(mu: MuVector, budget: BudgetConstraint) -> float:
    """Continuous parameter count: mu.a + N_inc, minus sum(mu^2) in parabolic mode."""
    total = float(mu.mu @ budget.a) + budget.n_inc
    if budget.mode == "parabolic":
        total -= float(np.sum(mu.mu**2))
    return total


def count_params(ranks, budget: BudgetConstraint) -> int:
    """Discrete parameter count of integer ranks under the budget's mode."""
    r = np.asarray(ranks, dtype=np.int64)
    total = int(np.rint(r @ budget.a)) + budget.n_inc
    if budget.mode == "parabolic":
        total -= int(np.sum(r**2))
    return total


def penalty_loss(n_param: float, budget: BudgetConstraint, rho: float) -> float:
    """Quadratic budget penalty rho * (N_param - N_target)^2 / (2 * N_scale)."""
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    dev = n_param - budget.n_target
    return rho * dev * dev / (2.0 * budget.n_scale)


def penalty_grad(mu: MuVector, budget: BudgetConstraint, rho: float) -> np.ndarray:
    """Closed-form gradient of the budget penalty with respect to mu."""
    dev = param_count_soft(mu, budget) - budget.n_target
    coeff = budget.a.copy()
    if budget.mode == "parabolic":
        coeff -= 2.0 * mu.mu
    return rho * dev * coeff / budget.n_scale


def rho_schedule(t: int, s: RhoSchedule) -> float:
    """Penalty weight at iteration t: min(rho0 * alpha^t, rho_max)."""
    if t < 0:
        raise ValueError(f"iteration must be non-negative, got {t}")
    # alpha**t overflows float range long after the cap binds
    if t * np.log(s.alpha) >= np.log(s.rho_max / s.rho0):
        return s.rho_max
    return min(s.rho0 * s.alpha**t, s.rho_max)


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.exp(_log_softmax(np.asarray(logits, dtype=np.float64), axis))


def kl_divergence(teacher_logits, student_logits) -> float:
    """Mean KL divergence D(P_teacher || Q_student) over rows of logits.

    Both arguments are samples x k matrices of raw logits; each row is
    softmaxed at temperature 1. The student probabilities are floored at
    1e-30 before the log.
    """
    t = as_matrix(teacher_logits, "teacher_logits")
    s = as_matrix(student_logits, "student_logits")
    if t.shape != s.shape:
        raise DimensionMismatch(f"logit shapes differ: {t.shape} vs {s.shape}")
    p = softmax(t, axis=1)
    log_q = np.log(np.maximum(softmax(s, axis=1), Q_FLOOR))
    log_p = np.where(p > 0, np.log(np.maximum(p, Q_FLOOR)), 0.0)
    per_sample = np.sum(p * (log_p - log_q), axis=1)
    # mathematically >= 0; the max guards round-off at q == p
    return max(0.0, float(np.mean(per_sample)))


def layer_inputs(layers, nonlinearity: str, X):
    """Yield the input of each layer in turn, starting with X itself.

    A layer is anything applied as ``layer @ h``: a dense ndarray,
    LowRankFactors or PivGaFactors. The activation follows every layer but
    the last, and the last layer is never applied.
    """
    act, _ = ACTIVATIONS[nonlinearity]
    h = X
    for layer in layers[:-1]:
        yield h
        h = act(layer @ h)
    yield h


def run(layers, nonlinearity: str, X) -> np.ndarray:
    """Network output (logits) on a batch whose columns are samples."""
    # a plain loop keeps only the current input alive, unlike unpacking
    for h in layer_inputs(layers, nonlinearity, X):
        pass
    return layers[-1] @ h


def dense_forward(weights, nonlinearity: str, X) -> np.ndarray:
    """Run the dense network on a batch (columns are samples); returns logits."""
    return run(weights, nonlinearity, as_matrix(X, "X"))


def soft_forward(layers, nonlinearity: str, X, mu, cfg: FermiConfig) -> np.ndarray:
    """Student forward pass with soft-truncated factored layers.

    Each layer applies A (F * (B h)) without materializing A diag(F) B.
    """
    logits, _ = _soft_forward_cached(layers, nonlinearity, X, mu, cfg)
    return logits


def _soft_forward_cached(layers, nonlinearity, X, mu, cfg):
    act, _ = ACTIVATIONS[nonlinearity]
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) != len(layers):
        raise DimensionMismatch(f"{len(mu)} mu values for {len(layers)} layers")
    h = as_matrix(X, "X")
    last = len(layers) - 1
    cache = []
    for l, f in enumerate(layers):
        F = fermi_factors(mu[l], f.rank, cfg.T)
        u = f.B @ h
        z = f.A @ (F[:, None] * u)
        cache.append((h, u, F))
        h = act(z) if l < last else z
    return z, cache


def hard_forward(layers, nonlinearity: str, X, ranks) -> np.ndarray:
    """Forward pass with each factor pair hard-truncated to its integer rank."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if len(ranks) != len(layers):
        raise DimensionMismatch(f"{len(ranks)} ranks for {len(layers)} layers")
    X = as_matrix(X, "X")
    return run([f.truncated(int(r)) for f, r in zip(layers, ranks)], nonlinearity, X)


def _kl_grad_mu(layers, nonlinearity, teacher_logits, X, mu, cfg):
    """KL value and its exact gradient wrt mu, by reverse accumulation."""
    _, act_deriv = ACTIVATIONS[nonlinearity]
    logits, cache = _soft_forward_cached(layers, nonlinearity, X, mu, cfg)
    batch = logits.shape[1]
    p = softmax(teacher_logits, axis=0)
    q = softmax(logits, axis=0)
    kl = kl_divergence(teacher_logits.T, logits.T)
    delta = (q - p) / batch                      # dKL/dlogits
    grad = np.zeros(len(layers))
    for l in range(len(layers) - 1, -1, -1):
        f = layers[l]
        h_in, u, F = cache[l]
        w = f.A.T @ delta                        # dKL/d(F*u)
        g_F = np.sum(w * u, axis=1)              # dKL/dF_j
        dF = fermi_factor_grad(mu[l], f.rank, cfg.T)
        grad[l] = g_F @ dF
        if l > 0:
            # h_in is the activated output of layer l-1: chain through it.
            dh = f.B.T @ (F[:, None] * w)
            delta = dh * act_deriv(h_in)
    return kl, grad


def grad_mu(student, teacher_logits, batch, mu: MuVector, budget: BudgetConstraint,
            rho: float, cfg: FermiConfig) -> np.ndarray:
    """Exact gradient of KL + budget penalty with respect to mu.

    ``student`` must expose ``factors`` (full-rank factor pairs, frozen) and
    ``nonlinearity``; ``teacher_logits`` and ``batch`` are column-major
    (out_dim x batch, n_0 x batch), matching the forward passes.
    """
    _, g_kl = _kl_grad_mu(
        student.factors, student.nonlinearity, as_matrix(teacher_logits), as_matrix(batch), mu.mu, cfg
    )
    g = g_kl + penalty_grad(mu, budget, rho)
    if not np.isfinite(g).all():
        raise NonFiniteGradient(f"gradient has non-finite components: {g}")
    return g


def _check_feasible(mu: MuVector, budget: BudgetConstraint):
    lo = count_params(np.full_like(mu.caps, mu.r_min), budget)
    hi = count_params(mu.caps, budget)
    if not lo <= budget.n_target <= hi:
        raise InfeasibleBudget(
            f"target {budget.n_target} outside achievable range [{lo}, {hi}]"
        )


def optimize_ranks(model, data, budget: BudgetConstraint, fermi_cfg: FermiConfig | None = None,
                   sched: RhoSchedule | None = None, opt_cfg: OptimizerConfig | None = None):
    """Optimize per-layer ranks under the budget; returns (trajectory, allocation).

    ``model`` must expose ``dense_weights`` (teacher), ``factors`` (full-rank
    data-aware factor pairs, frozen) and ``nonlinearity``. ``data`` holds
    training samples as columns and is cycled through in fixed order, so the
    whole loop is deterministic.

    Each iteration: evaluate KL + penalty gradient on the current batch,
    take one projected gradient step (clamp to the box), advance rho. Stops
    at max_iters or once the step is below mu_tol and the relative budget
    violation is below constraint_tol. Trajectory rows hold the state after
    each update together with the batch KL observed at the point the
    gradient was taken.
    """
    fermi_cfg = fermi_cfg or FermiConfig()
    sched = sched or RhoSchedule()
    opt_cfg = opt_cfg or OptimizerConfig()
    data = as_matrix(data, "data")

    caps = np.array([f.rank for f in model.factors], dtype=np.int64)
    mu = MuVector(caps.astype(np.float64), caps, fermi_cfg.r_min)
    _check_feasible(mu, budget)

    n_samples = data.shape[1]
    bs = min(opt_cfg.batch_size, n_samples)
    teacher_cache: dict[int, np.ndarray] = {}
    trajectory: list[TrajectoryPoint] = []

    for t in range(opt_cfg.max_iters):
        start = (t * bs) % n_samples
        cols = (start + np.arange(bs)) % n_samples
        batch = data[:, cols]
        if start not in teacher_cache:
            teacher_cache[start] = dense_forward(model.dense_weights, model.nonlinearity, batch)
        teacher_logits = teacher_cache[start]

        rho = rho_schedule(t, sched)
        kl, g_kl = _kl_grad_mu(
            model.factors, model.nonlinearity, teacher_logits, batch, mu.mu, fermi_cfg
        )
        g = g_kl + penalty_grad(mu, budget, rho)
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"gradient has non-finite components at iteration {t}")

        new_mu = mu.clamped(mu.mu - opt_cfg.step_size * g)
        step_inf = float(np.max(np.abs(new_mu.mu - mu.mu)))
        mu = new_mu
        n_param = param_count_soft(mu, budget)
        trajectory.append(TrajectoryPoint(iteration=t, mu=mu.mu.copy(), rho=rho,
                                          kl=kl, n_param=n_param))
        violation = abs(n_param - budget.n_target) / budget.n_target
        if step_inf < opt_cfg.mu_tol and violation < opt_cfg.constraint_tol:
            break

    return trajectory, round_and_repair(mu, budget)


def _decrement_cost(ranks, budget: BudgetConstraint) -> np.ndarray:
    """Parameters freed by lowering each layer's rank by one."""
    cost = budget.a.copy()
    if budget.mode == "parabolic":
        cost -= 2.0 * ranks - 1.0
    return cost


def round_and_repair(mu: MuVector, budget: BudgetConstraint) -> RankAllocation:
    """Round mu to integers, then decrement greedily until under budget.

    While the discrete count exceeds the target, the layer with the largest
    marginal parameter cost per rank (ties: lowest index) is decremented.
    Raises InfeasibleBudget if every layer is pinned at r_min while the
    count is still over target, and ConvergenceFailure if mu holds a NaN or
    an infinity (a diverged run has no ranks to round).
    """
    bad = np.flatnonzero(~np.isfinite(mu.mu))
    if bad.size:
        raise ConvergenceFailure(
            f"cannot round non-finite mu: {bad.size} layer(s), first layer {bad[0]} "
            f"has mu={mu.mu[bad[0]]}"
        )
    ranks = np.clip(np.rint(mu.mu).astype(np.int64), mu.r_min, mu.caps)
    achieved = count_params(ranks, budget)
    while achieved > budget.n_target:
        cost = _decrement_cost(ranks, budget)
        cost[ranks <= mu.r_min] = -np.inf
        pick = int(np.argmax(cost))
        if not np.isfinite(cost[pick]):
            raise InfeasibleBudget(
                f"all layers at r_min={mu.r_min} but count {achieved} still exceeds "
                f"target {budget.n_target}"
            )
        ranks[pick] -= 1
        achieved = count_params(ranks, budget)
    return RankAllocation(ranks=ranks, achieved_params=achieved,
                          target_params=budget.n_target)


def uniform_ranks(shapes, budget: BudgetConstraint, r_min: int = 1) -> RankAllocation:
    """Uniform-compression baseline: ranks_l = floor(kappa * N_l), one kappa for all.

    The largest kappa in (0, 1] keeping the discrete count at or under the
    target is selected exactly (kappa candidates are the rationals r / N_l),
    then leftover budget is spent greedily, smallest marginal cost first.
    """
    from fractions import Fraction

    caps = np.array([min(m, n) for (m, n) in shapes], dtype=np.int64)
    if np.any(caps < r_min):
        raise InfeasibleBudget(f"a layer cap is below r_min={r_min}")

    def ranks_for(frac: Fraction) -> np.ndarray:
        raw = np.array([(frac.numerator * int(c)) // frac.denominator for c in caps])
        return np.clip(raw, r_min, caps).astype(np.int64)

    candidates = sorted(
        {Fraction(r, int(c)) for c in caps for r in range(r_min, int(c) + 1)},
        reverse=True,
    )
    chosen = None
    for frac in candidates:
        ranks = ranks_for(frac)
        if count_params(ranks, budget) <= budget.n_target:
            chosen = ranks
            break
    if chosen is None:
        raise InfeasibleBudget(
            f"even kappa for r_min={r_min} exceeds target {budget.n_target}"
        )

    ranks = chosen
    achieved = count_params(ranks, budget)
    while True:
        cost = budget.a.copy()
        if budget.mode == "parabolic":
            cost -= 2.0 * ranks + 1.0
        cost[ranks >= caps] = np.inf
        cost[achieved + cost > budget.n_target] = np.inf
        pick = int(np.argmin(cost))
        if not np.isfinite(cost[pick]):
            break
        ranks[pick] += 1
        achieved = count_params(ranks, budget)
    return RankAllocation(ranks=ranks, achieved_params=achieved,
                          target_params=budget.n_target)
