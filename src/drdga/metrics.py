"""Per-round observables, computed a block of rounds at a time,
convergence-bound evaluators, and rate fitting.

The bound evaluators plug an empirical dual-norm cap D (the running max of
max_i ||lambda_i[t]|| over a run) into the printed rate expressions. With the
admissible network constants delta = m^(-m*window) and
eta = (1 - m^(-m*window))^(1/(m*window)) the bounds are extremely loose for
m >= 3; they are reported for completeness while rate_fit carries the
empirical rate check. A bound beyond float range evaluates to inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import RunConfig, RunState
from .problem import CoupledProblem, _sum_agents, compute_G_bound


@dataclass(frozen=True)
class MetricsRow:
    """One round's observables; objective/gap/violation use the ergodic average."""

    t: int
    objective: float
    gap: float
    violation: float
    violation_inst: float
    disagreement: float
    max_lambda: float
    beta: float


@functools.lru_cache(maxsize=8)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the agent pairs i < j."""
    first, second = np.triu_indices(m, k=1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def block_size(m: int, p: int) -> int:
    """Rounds per block of observables: at most 64, and few enough that a
    block's pair differences, (B, m(m-1)/2, p), hold about 2^15 floats.

    Down to one round once a single round's pairs fill that budget.
    """
    return min(64, max(1, (1 << 15) // max(1, m * (m - 1) // 2 * p)))


def violation_inst(terms: np.ndarray) -> float:
    """Norm of sum_i (A_i x_i - b_i) of one iterate, from its (m, p) coupling terms."""
    residual = _sum_agents(terms)
    return math.sqrt(residual.dot(residual))  # np.linalg.norm's own sqrt(x.dot(x))


class ObservableBlock:
    """Up to ``size`` consecutive rounds whose observables are computed together.

    :meth:`record` copies what a row needs of one state into preallocated
    (size, ...) buffers; :meth:`flush` evaluates every buffered round at once
    and returns their MetricsRows. Each row has the bits of the round alone:
    the batched products repeat each round's own BLAS calls, sums over agents
    run left to right, and the violation norm is each round's sqrt(r . r).
    """

    def __init__(self, problem: CoupledProblem, config: RunConfig, size: int):
        self.problem, self.config = problem, config
        self.t = np.empty(size, dtype=np.int64)
        self.lam = np.empty((size, problem.m, problem.p))
        # The ergodic sum; at t = 1, where the average is not yet defined, x.
        self.avg_sum = np.empty((size,) + problem.lower.shape)
        self.violation_inst = np.empty(size)
        self.count = 0

    def record(self, state: RunState, violation_inst: float) -> bool:
        """Buffer one round; True once the block is full."""
        k = self.count
        self.t[k] = state.t
        self.lam[k] = state.lam
        self.avg_sum[k] = state.ergodic_sum if state.t >= 2 else state.x
        self.violation_inst[k] = violation_inst
        self.count = k + 1
        return self.count == len(self.t)

    def flush(self, f_star: float | None) -> list[MetricsRow]:
        """Rows of the buffered rounds, in order; the block is empty afterwards."""
        k, self.count = self.count, 0
        if k == 0:
            return []
        problem = self.problem
        t, lam = self.t[:k], self.lam[:k]
        # t(t-1)/2 is 0 at t = 1, where avg_sum holds x: dividing by 1 keeps it.
        denom = np.maximum(t * (t - 1) / 2.0, 1.0)
        xs_avg = self.avg_sum[:k] / denom[:, None, None]
        objective = _sum_agents(problem.agent_values(xs_avg), axis=-1)
        # Without f_star every row holds the math.nan object itself, as a
        # one-round evaluation always did, so equal runs give equal rows.
        gap = (objective - f_star).tolist() if f_star is not None else [math.nan] * k
        residual = problem.coupling_residual(xs_avg)
        violation = np.sqrt(np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0])
        # Largest pairwise distance; sqrt is monotone, so it is taken once.
        first, second = _pairs(problem.m)
        diffs = lam.take(first, axis=1)
        diffs -= lam.take(second, axis=1)
        diffs *= diffs
        disagreement = np.sqrt(diffs.sum(axis=2).max(axis=1, initial=0.0))
        max_lambda = np.sqrt((lam * lam).sum(axis=2)).max(axis=1)
        beta = self.config.beta
        return [
            MetricsRow(*cells, beta(cells[0]))
            for cells in zip(
                t.tolist(),
                objective.tolist(),
                gap,
                violation.tolist(),
                self.violation_inst[:k].tolist(),
                disagreement.tolist(),
                max_lambda.tolist(),
            )
        ]


def evaluate_round(
    state: RunState, problem: CoupledProblem, f_star: float | None = None
) -> MetricsRow:
    """Observables after a completed round: a one-round :class:`ObservableBlock`.
    At t = 1 the ergodic average is not yet defined and the instantaneous
    iterate stands in for it."""
    block = ObservableBlock(problem, state.config, 1)
    block.record(state, violation_inst(state.terms))
    return block.flush(f_star)[0]


@dataclass(frozen=True)
class BoundConstants:
    """Everything the printed rate bounds need.

    G[i] bounds ||A_i x - b_i|| over the box; D caps the dual norms; delta and
    eta are the push-sum imbalance and diffusion constants of an m-agent
    sequence with the given connectivity window; B_grad bounds the 1-norm of
    any dual gradient step via sqrt(p) max_i (G_i + gamma_i D).
    """

    m: int
    p: int
    window: int
    q: float
    D: float
    G: np.ndarray
    gammas: np.ndarray
    theta0_l1: float

    def __post_init__(self):
        object.__setattr__(self, "G", np.asarray(self.G, dtype=float))
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=float))

    @property
    def gamma_total(self) -> float:
        return float(_sum_agents(self.gammas))

    @property
    def delta(self) -> float:
        return float(self.m) ** (-self.m * self.window)

    @property
    def eta(self) -> float:
        return (1.0 - self.delta) ** (1.0 / (self.m * self.window))

    @property
    def one_minus_eta(self) -> float:
        """1 - eta without cancellation: eta itself rounds to 1.0 once delta is tiny."""
        if self.delta == 1.0:  # m = 1: eta = 0, and log1p(-1) is undefined
            return 1.0
        return -math.expm1(math.log1p(-self.delta) / (self.m * self.window))

    @property
    def B_grad(self) -> float:
        return float(np.sqrt(self.p) * np.max(self.G + self.gammas * self.D))


def constants_from_run(
    problem: CoupledProblem,
    window: int,
    q: float,
    rows,
    theta0: np.ndarray | None = None,
) -> BoundConstants:
    """Bound constants for a finished run, with D the run's max dual norm."""
    D = max((row.max_lambda for row in rows), default=0.0)
    theta0_l1 = 0.0 if theta0 is None else float(np.abs(theta0).sum(axis=1).sum())
    return BoundConstants(
        m=problem.m,
        p=problem.p,
        window=window,
        q=q,
        D=D,
        G=compute_G_bound(problem),
        gammas=problem.gammas,
        theta0_l1=theta0_l1,
    )


def _rate_bound(T: int, c: BoundConstants, lead: float, k: float, tail: float) -> float:
    """lead/(T delta) s1 [k eta/(1-eta) theta0_l1 + k q m B_grad/(1-eta) (1 + ln T)] + tail/T s2,
    the shape of both printed rate bounds, with s1 = sum_i (G_i + gamma_i D)
    and s2 = sum_i (G_i + gamma_i D)^2; infinite once delta or 1 - eta underflowed.
    """
    if T < 1:
        raise ValueError("bound defined for T >= 1")
    if c.one_minus_eta == 0.0:
        return math.inf
    coeffs = c.G + c.gammas * c.D
    s1 = float(np.sum(coeffs))
    s2 = float(np.sum(coeffs**2))
    bracket = (k * c.eta / c.one_minus_eta) * c.theta0_l1 + (
        k * c.q * c.m * c.B_grad / c.one_minus_eta
    ) * (1.0 + math.log(T))
    return (lead / (T * c.delta)) * s1 * bracket + (tail / T) * s2


def theorem2_bound(T: int, c: BoundConstants) -> float:
    """Printed upper bound on the ergodic objective gap after T rounds."""
    return _rate_bound(T, c, lead=32.0, k=1.0, tail=c.q)


def theorem3_bound(T: int, c: BoundConstants) -> float:
    """Printed upper bound on the squared coupling violation of the ergodic average."""
    return _rate_bound(T, c, lead=c.gamma_total, k=8.0, tail=c.q * c.gamma_total / 4.0)


def lemma2_residual(
    state_t: RunState,
    state_t1: RunState,
    problem: CoupledProblem,
    lambda_probe: np.ndarray,
    c: BoundConstants,
) -> float:
    """Slack of the per-round descent inequality on the mean dual surrogate.

    Evaluates RHS - LHS of the inequality bounding ||mean(theta)[t+1] - lambda||^2
    at the probe multiplier, with the comparison primal point taken as the
    round's own x[t+1]. Non-negative (up to roundoff) whenever D dominates
    every dual norm in the run.
    """
    if state_t1.t != state_t.t + 1:
        raise ValueError("states must be consecutive rounds")
    lam_probe = np.asarray(lambda_probe, dtype=float)
    beta = state_t1.config.beta(state_t1.t)
    m = problem.m
    theta_bar_t = state_t.theta.mean(axis=0)
    theta_bar_t1 = state_t1.theta.mean(axis=0)

    values = problem.agent_values(state_t1.x)
    terms = problem.coupling_terms(state_t1.x)

    def lagrangian(mult):
        return float(np.sum(values + terms @ mult - 0.5 * problem.gammas * float(mult @ mult)))

    lhs = float(np.sum((theta_bar_t1 - lam_probe) ** 2))
    rhs = float(np.sum((theta_bar_t - lam_probe) ** 2))
    coeffs = c.G + c.gammas * c.D
    rhs += (4.0 * beta / m) * float(
        np.sum(coeffs * np.linalg.norm(state_t1.lam - theta_bar_t, axis=1))
    )
    rhs -= (beta / m) * float(
        np.sum(problem.gammas * np.sum((state_t1.lam - lam_probe) ** 2, axis=1))
    )
    rhs += (beta**2 / m) * float(np.sum(coeffs**2))
    rhs -= (2.0 * beta / m) * (lagrangian(lam_probe) - lagrangian(theta_bar_t))
    return rhs - lhs


def rate_fit(rows, which: str) -> tuple[float, float]:
    """Fit value(T) against ln T / T over the rows with T >= 10.

    Returns (c_hat, max_ratio): c_hat is the median of g(T) = value(T)*T/ln T
    over the last half of the retained rows, and max_ratio = max g / g(T0)
    with T0 the first retained round. A bounded max_ratio means the observed
    decay is no slower than ln T / T beyond T0.
    """
    if which == "gap":
        pick = lambda r: r.gap
    elif which == "violation2":
        pick = lambda r: r.violation**2
    else:
        raise ValueError(f"which must be 'gap' or 'violation2', got {which!r}")
    retained = [(r.t, pick(r)) for r in rows if r.t >= 10]
    if len(retained) < 10:
        raise ValueError(f"need at least 10 rows with T >= 10, got {len(retained)}")
    g = np.array([v * t / math.log(t) for t, v in retained])
    c_hat = float(np.median(g[len(g) // 2 :]))
    max_ratio = float(g.max() / g[0])
    return c_hat, max_ratio
