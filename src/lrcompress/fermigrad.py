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

Precision. One loop dtype per run, read from the layer shapes only: float32
once the widest layer is ``FLOAT32_MIN_WIDTH`` (256) or wider, float64 below.
The soft forward and backward run their products, activations and
elementwise terms in it: the factors A_l (and B_l past the first layer),
B_0 x and the error signal. The gates and their slopes, the logits once they
reach the log-softmax, the KL, the per-gate gradient reduction, the penalty,
mu and the teacher's log p stay float64. At float64 every cast is a no-op, so
narrow models compute exactly what a pure float64 loop does. On the 2 x
1024^2 fixture the float32 loop keeps iterations, stop reason and ranks, with
mu within 1e-9 relative and the batch KL within 1e-6 absolute of float64.
The dense, hard and evaluation forwards stay float64 at every width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InfeasibleBudget,
    NonFiniteGradient,
)
from .linalg import as_matrix

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
    def from_shapes(cls, shapes, n_target, **fields):
        """The constraint for layers of (m, n) ``shapes``; ``fields`` sets the others."""
        return cls(n_target=int(n_target), a=[m + n for (m, n) in shapes], **fields)

    def count(self, x):
        """Parameter count at per-layer ranks x: x.a + N_inc, minus sum(x^2) in parabolic mode."""
        total = x @ self.a + self.n_inc
        if self.mode == "parabolic":
            total -= np.sum(x**2)
        return total

    def slope(self, x) -> np.ndarray:
        """d count / dx (a fresh array). At integer ranks r, slope(r -/+ 1/2) is exactly
        the count freed by lowering / added by raising each rank by one."""
        if self.mode == "parabolic":
            return self.a - 2.0 * x
        return self.a.copy()


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
    """Controls of the penalty loop, whose steps are clipped to the box
    (step size in rank-index units)."""

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
    """Integer per-layer ranks with the achieved discrete parameter count.

    ``stop_reason`` is set by optimize_ranks only: "converged" when its stop
    rule fired, "iteration_cap" when it ran out of iterations.
    """

    ranks: np.ndarray
    achieved_params: int
    target_params: int
    stop_reason: str | None = None


@dataclass
class TrajectoryPoint:
    """One optimizer iteration: state after the update, loss terms observed."""

    iteration: int
    mu: np.ndarray
    rho: float
    kl: float
    n_param: float


def fermi_factors(mu: float, n_cap: int, temperature: float) -> np.ndarray:
    """One layer's n_cap soft-truncation gates F_j = 1/(1 + exp((j - mu)/(n_cap*T))).

    F crosses 0.5 exactly at j = mu and transitions over a width of about
    n_cap * temperature index units. Overflow saturates to exactly 0 or 1.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if np.ndim(mu) or np.ndim(n_cap):
        raise DimensionMismatch(
            f"mu and n_cap must be scalars, got shapes {np.shape(mu)} and {np.shape(n_cap)}")
    with np.errstate(over="ignore"):
        return _gates(np.arange(n_cap), np.asarray(mu, dtype=np.float64),
                      float(n_cap) * temperature)


def _gates(j, mu, widths) -> np.ndarray:
    """The gates at indices ``j`` of each entry of ``mu``, one row per entry,
    with no padding: a row is a layer's gates only up to that layer's cap.
    Far below mu exp overflows to inf and the gate is exactly 0, so callers
    ignore overflow."""
    return 1.0 / (1.0 + np.exp((j - mu[..., None]) / widths))


def budget_violation(n_param: float, budget: BudgetConstraint) -> float:
    """Relative budget violation |N_param - N_target| / N_target."""
    return abs(n_param - budget.n_target) / budget.n_target


def count_params(ranks, budget: BudgetConstraint) -> int:
    """Discrete parameter count of integer ranks under the budget's mode."""
    return int(np.rint(budget.count(np.asarray(ranks, dtype=np.int64))))


def penalty_loss(n_param: float, budget: BudgetConstraint, rho: float) -> float:
    """Quadratic budget penalty rho * (N_param - N_target)^2 / (2 * N_scale)."""
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    dev = n_param - budget.n_target
    return rho * dev * dev / (2.0 * budget.n_scale)


def penalty_grad(mu: MuVector, budget: BudgetConstraint, rho: float) -> np.ndarray:
    """Closed-form gradient of the budget penalty with respect to mu."""
    dev = budget.count(mu.mu) - budget.n_target
    return rho * dev * budget.slope(mu.mu) / budget.n_scale


def rho_schedule(t: int, s: RhoSchedule) -> float:
    """Penalty weight at iteration t: min(rho0 * alpha^t, rho_max)."""
    if t < 0:
        raise ValueError(f"iteration must be non-negative, got {t}")
    return _rho_ramp(s)(t)


def _rho_ramp(s: RhoSchedule):
    """``rho_schedule(., s)`` with the logarithms of its cap test taken once."""
    log_alpha, log_cap = np.log(s.alpha), np.log(s.rho_max / s.rho0)

    def rho(t: int) -> float:
        # alpha**t overflows float range long after the cap binds
        if t * log_alpha >= log_cap:
            return s.rho_max
        return min(s.rho0 * s.alpha**t, s.rho_max)

    return rho


# Reductions below call the ufunc's reduce directly: np.sum, np.mean and
# np.max compute the same thing through a Python wrapper that, on a desk
# model's 64 x 32 arrays, costs about as much as the reduction itself.
def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=axis, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=axis, keepdims=True))


def kl_divergence(teacher_logits, student_logits) -> float:
    """Mean KL divergence D(P_teacher || Q_student) over rows of logits.

    Both arguments are samples x k matrices of raw logits; each row is
    softmaxed at temperature 1, and both log-probabilities come from the
    same log-softmax.
    """
    # the one transpose into the classes x samples layout of every forward
    t = as_matrix(np.transpose(teacher_logits), "teacher_logits")
    s = as_matrix(np.transpose(student_logits), "student_logits")
    if t.shape != s.shape:
        raise DimensionMismatch(f"logit shapes differ: {t.T.shape} vs {s.T.shape}")
    return _kl_against(_teacher_terms(t), s)


def _teacher_terms(logits: np.ndarray):
    """(p, log p) of teacher logits (classes x samples), reusable across students."""
    log_p = _log_softmax(logits, axis=0)
    return np.exp(log_p), log_p


def _kl_per_sample(terms, log_q: np.ndarray) -> np.ndarray:
    """Each sample's KL of student log-probabilities ``log_q`` (classes x
    samples) against ``_teacher_terms`` output. With two or more samples each
    column is summed over classes in row order, so a sample's value does not
    depend on how many other samples share the call."""
    p, log_p = terms
    return np.add.reduce(p * (log_p - log_q), axis=0)


def _kl_mean(per_sample: np.ndarray) -> float:
    """The mean of ``_kl_per_sample`` values over all samples."""
    kl = float(np.add.reduce(per_sample) / per_sample.size)
    # mathematically >= 0: clamp round-off at q == p, and let a NaN through
    return 0.0 if kl < 0.0 else kl


def _kl_against(terms, logits: np.ndarray) -> float:
    """Mean KL of student logits (classes x samples) against ``_teacher_terms`` output."""
    return _kl_mean(_kl_per_sample(terms, _log_softmax(logits, axis=0)))


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
    """Student forward pass with soft-truncated factored layers, in the loop
    dtype of ``layers``; the logits are returned as float64.

    Each layer applies A (F * (B h)) without materializing A diag(F) B.
    A call builds the per-run set-up, float32 copies of every factor included
    at ``FLOAT32_MIN_WIDTH`` and wider: its time is a call's, not an iteration's.
    """
    X = as_matrix(X, "X")
    net = _Net(layers, nonlinearity, cfg)
    with _loop_errstate():
        logits, _, _ = _soft_forward_cached(net, layers[0].B @ X, mu)
    return logits


# The loop runs in float32 once the widest layer is this wide. Microseconds
# per optimize_ranks iteration, float64 -> float32, on 2 n x n layers at
# batch 32 (best of 3 runs; 2-core x86-64, OpenBLAS 0.3.31):
#
#     width n    2 BLAS threads    1 BLAS thread
#        64        196 -> 184        178 -> 142
#       128        341 -> 258        331 -> 223
#       256       1021 -> 704       1050 -> 592
#       512       2760 -> 1862      3538 -> 2068
#      1024      10098 -> 5887     14429 -> 8191
#
# Below 256 an iteration saves at most about 0.1 ms, and float64 keeps the
# narrow models' trajectories exactly those of a pure float64 loop.
FLOAT32_MIN_WIDTH = 256


def _loop_errstate():
    """The loop's error state. Overflow saturates a gate to exactly 0.
    Anywhere else an overflow or an invalid operation (a value the loop
    dtype cannot hold) leaves an inf or NaN that reaches the gradient, and
    _loss_grad refuses it."""
    return np.errstate(over="ignore", invalid="ignore")


class _Net:
    """What a FermiGrad iteration reads and never changes, set up once per run:
    the loop dtype, each layer's factors in it (B_0 as given: the loop reads
    B_0 @ x only) and rank, the activation pair, the gate index grid and the
    gate widths N_l * T (the same float products ``fermi_factors`` forms)."""

    def __init__(self, layers, nonlinearity: str, cfg: FermiConfig):
        widest = max(max(f.A.shape[0], f.B.shape[1]) for f in layers)
        self.dtype = np.dtype(np.float32 if widest >= FLOAT32_MIN_WIDTH else np.float64)
        self.layers = [(f.A.astype(self.dtype, copy=False),
                        f.B.astype(self.dtype, copy=False) if l else f.B, f.rank)
                       for l, f in enumerate(layers)]
        self.act, self.act_deriv = ACTIVATIONS[nonlinearity]
        caps = np.array([f.rank for f in layers], dtype=np.float64)
        self.j = np.arange(caps.max(initial=0))
        self.widths = caps[:, None] * cfg.T


def _soft_forward_cached(net: _Net, u0, mu):
    """Soft logits (float64), each layer's (input, B @ input, gates as a column)
    in the loop dtype for the backward, and every layer's gates as ``_gates``
    returns them (callers run under ``_loop_errstate``).

    ``u0`` is B_0 @ X: the network input enters only through that product,
    so layer 0's input is recorded as None.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (len(net.layers),):
        got = f"{len(mu)} mu values" if mu.ndim == 1 else f"mu of shape {mu.shape}"
        raise DimensionMismatch(f"{got} for {len(net.layers)} layers")
    gates = _gates(net.j, mu, net.widths)
    last = len(net.layers) - 1
    cache = []
    h, u = None, u0.astype(net.dtype, copy=False)
    for l, (A, B, rank) in enumerate(net.layers):
        if l:
            u = B @ h
        F = gates[l, :rank, None].astype(net.dtype, copy=False)
        z = A @ (F * u)
        cache.append((h, u, F))
        h = net.act(z) if l < last else z
    return z.astype(np.float64, copy=False), cache, gates


def hard_forward(layers, nonlinearity: str, X, ranks) -> np.ndarray:
    """Forward pass with each factor pair hard-truncated to its integer rank."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if len(ranks) != len(layers):
        raise DimensionMismatch(f"{len(ranks)} ranks for {len(layers)} layers")
    X = as_matrix(X, "X")
    return run([f.truncated(int(r)) for f, r in zip(layers, ranks)], nonlinearity, X)


def _loss_grad(net: _Net, teacher, u0, mu: MuVector, budget: BudgetConstraint, rho: float):
    """Batch KL and the exact gradient of KL + penalty wrt mu as evaluated in
    the loop dtype, by reverse accumulation. ``teacher`` is the
    ``_teacher_terms`` of the batch and ``u0`` is B_0 @ batch. Callers run
    under ``_loop_errstate``; a non-finite gradient is refused."""
    logits, cache, gates = _soft_forward_cached(net, u0, mu.mu)
    log_q = _log_softmax(logits, axis=0)
    kl = _kl_mean(_kl_per_sample(teacher, log_q))
    q = np.exp(log_q)
    delta = ((q - teacher[0]) / logits.shape[1]).astype(net.dtype, copy=False)  # dKL/dlogits
    # dF_j/dmu of every layer; row l is read up to layer l's rank only
    slopes = gates * (1.0 - gates) / net.widths
    g = np.zeros(len(net.layers))
    for l in range(len(net.layers) - 1, -1, -1):
        A, B, rank = net.layers[l]
        h_in, u, F = cache[l]
        # A^T delta and B^T (F*w) as the row products (delta^T A)^T and
        # ((F*w)^T B)^T: no operand is transposed, and at 1024^2 x 32 BLAS runs
        # them ~1.5x faster (at 64^2 the two forms cost about the same).
        w = (delta.T @ A).T                      # dKL/d(F*u)
        g_F = np.add.reduce(w * u, axis=1, dtype=np.float64)   # dKL/dF_j
        g[l] = g_F @ slopes[l, :rank]
        if l > 0:
            # h_in is the activated output of layer l-1: chain through it.
            dh = ((F * w).T @ B).T
            delta = dh * net.act_deriv(h_in)
    g += penalty_grad(mu, budget, rho)
    if not np.isfinite(g).all():
        raise NonFiniteGradient(f"gradient has non-finite components: {g}")
    return kl, g


def grad_mu(student, teacher_logits, batch, mu: MuVector, budget: BudgetConstraint,
            rho: float, cfg: FermiConfig) -> np.ndarray:
    """The exact gradient of KL + budget penalty with respect to mu, of the
    loss as evaluated in the loop dtype.

    ``student`` must expose ``factors`` (full-rank factor pairs, frozen) and
    ``nonlinearity``; ``teacher_logits`` and ``batch`` are column-major
    (out_dim x batch, n_0 x batch), matching the forward passes. As in
    ``soft_forward``, a call's time includes the per-run set-up.
    """
    teacher = _teacher_terms(as_matrix(teacher_logits))
    layers = student.factors
    net = _Net(layers, student.nonlinearity, cfg)
    with _loop_errstate():
        return _loss_grad(net, teacher, layers[0].B @ as_matrix(batch), mu, budget, rho)[1]


def _check_feasible(mu: MuVector, budget: BudgetConstraint):
    if np.any(mu.caps < mu.r_min):
        raise InfeasibleBudget(f"a layer cap is below r_min={mu.r_min}")
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
    violation is below constraint_tol; the allocation's ``stop_reason`` says
    which. Trajectory rows hold the state after each update together with
    the batch KL observed at the point the gradient was taken.

    Refuses a budget out of the box's reach (InfeasibleBudget), a linear-mode
    step with step * rho * sum(a_l^2) / N_scale >= 2, which would overshoot and
    park mu at r_min (ValueError), and a non-finite gradient (NonFiniteGradient).
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
    trajectory: list[TrajectoryPoint] = []
    rho_at = _rho_ramp(sched)
    # in linear mode the penalty's curvature along mu is rho * sum(a_l^2) / N_scale
    linear, aa = budget.mode == "linear", float(budget.a @ budget.a)

    stop_reason = "iteration_cap"
    # An overflowing step, past what _loss_grad refuses, is bounded by the clip
    # to the box.
    with _loop_errstate():
        net = _Net(model.factors, model.nonlinearity, fermi_cfg)
        # The teacher's log p (float64) and B_0 @ x (loop dtype) of each sample
        # the loop can reach, formed once, one consecutive batch at a time. They
        # are stored sample-major, so that a batch is one contiguous block of
        # rows, and in two arrays: one stacked array left 8 MB more heap
        # resident after a 1024^2 fixture run (glibc malloc).
        reach = min(n_samples, opt_cfg.max_iters * bs)
        log_ps = np.empty((reach, model.dense_weights[-1].shape[0]))
        u0s = np.empty((reach, model.factors[0].rank), dtype=net.dtype)
        for s in range(0, reach, bs):
            batch = data[:, np.arange(s, min(s + bs, reach))]
            logits = dense_forward(model.dense_weights, model.nonlinearity, batch)
            log_ps[s:s + bs] = _log_softmax(logits, axis=0).T
            u0s[s:s + bs] = (model.factors[0].B @ batch).T

        for t in range(opt_cfg.max_iters):
            # the batch's samples, wrapping past the last one, copied back to C
            # order as the products above were (a .T view would be Fortran-ordered,
            # and BLAS would round it differently); p is formed as _teacher_terms does
            rows = (t * bs) % n_samples + np.arange(bs)
            log_p = np.take(log_ps, rows, axis=0, mode="wrap").T.copy()
            u0 = np.take(u0s, rows, axis=0, mode="wrap").T.copy()
            teacher = (np.exp(log_p), log_p)

            rho = rho_at(t)
            kl, g = _loss_grad(net, teacher, u0, mu, budget, rho)
            if linear and opt_cfg.step_size * rho * aa / budget.n_scale >= 2:
                at_last = opt_cfg.step_size * rho_at(opt_cfg.max_iters - 1) * aa / budget.n_scale
                raise ValueError(f"step * rho * sum(a_l^2) / n_scale = {at_last:.4g} >= 2 at the "
                                 f"last iteration, and reaches 2 at iteration {t} before the stop "
                                 "rule fired: the linear-mode penalty step diverges; lower "
                                 "OptimizerConfig.step_size (--step) or raise "
                                 "BudgetConstraint.n_scale (--n-scale)")
            new_mu = np.clip(mu.mu - opt_cfg.step_size * g, mu.r_min, mu.caps)
            step_inf = float(np.maximum.reduce(np.abs(new_mu - mu.mu)))
            mu.mu = new_mu
            n_param = float(budget.count(new_mu))
            trajectory.append(TrajectoryPoint(iteration=t, mu=new_mu, rho=rho,
                                              kl=kl, n_param=n_param))
            violation = budget_violation(n_param, budget)
            if step_inf < opt_cfg.mu_tol and violation < opt_cfg.constraint_tol:
                stop_reason = "converged"
                break

    alloc = round_and_repair(mu, budget)
    alloc.stop_reason = stop_reason
    return trajectory, alloc


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
        cost = budget.slope(ranks - 0.5)
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
    target is found exactly by walking kappa down its breakpoints r / N_l:
    starting at the caps (kappa = 1), each step lowers by one every layer
    above r_min whose rank / N_l is the largest. Then leftover budget is
    spent greedily, smallest marginal cost first.
    """
    if r_min < 1:
        raise ValueError(f"r_min must be >= 1, got {r_min}")
    caps = np.array([min(m, n) for (m, n) in shapes], dtype=np.int64)
    if np.any(caps < r_min):
        raise InfeasibleBudget(f"a layer cap is below r_min={r_min}")

    ranks = caps.copy()
    achieved = count_params(ranks, budget)
    while achieved > budget.n_target:
        # as doubles, distinct ratios r / N_l (N_l < 2^26) never round together
        ratio = np.where(ranks > r_min, ranks / caps, 0.0)
        if not ratio.any():
            raise InfeasibleBudget(
                f"even kappa for r_min={r_min} exceeds target {budget.n_target}")
        ranks[ratio == ratio.max()] -= 1
        achieved = count_params(ranks, budget)

    while True:
        cost = budget.slope(ranks + 0.5)
        cost[ranks >= caps] = np.inf
        cost[achieved + cost > budget.n_target] = np.inf
        pick = int(np.argmin(cost))
        if not np.isfinite(cost[pick]):
            break
        ranks[pick] += 1
        achieved = count_params(ranks, budget)
    return RankAllocation(ranks=ranks, achieved_params=achieved,
                          target_params=budget.n_target)
