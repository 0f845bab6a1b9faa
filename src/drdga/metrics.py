"""Per-round observables as column arrays (Metrics), computed a block of round
states at a time, convergence-bound evaluators, and rate fitting.

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
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .problem import CoupledProblem, _sum_agents, compute_G_bound

if TYPE_CHECKING:
    from .engine import RunState


@dataclass(frozen=True, eq=False)
class Metrics:
    """Observables of consecutive rounds, one array per CSV column, in CSV order;
    objective, gap and violation use the ergodic average. Indexing applies to
    every column: ``rows[-1].t`` is the last round, ``rows[rows.t >= 100]`` a subset."""

    t: np.ndarray
    objective: np.ndarray
    gap: np.ndarray
    violation: np.ndarray
    violation_inst: np.ndarray
    disagreement: np.ndarray
    max_lambda: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index) -> Metrics:
        return Metrics(*(getattr(self, f.name)[index] for f in fields(self)))

    @classmethod
    def concat(cls, parts) -> Metrics:
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


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


def evaluate_rounds(
    states: list[RunState], problem: CoupledProblem, f_star: float | None = None
) -> Metrics:
    """Observables of completed rounds of one run, in order, in one batched pass.

    At t = 1 the ergodic average is not yet defined and the instantaneous
    iterate stands in for it. gap is nan without f_star. Each round has the
    bits of its round alone: the batched products repeat each round's own BLAS
    calls, sums over agents run left to right, and the violation norm is each
    round's sqrt(r . r).
    """
    t = np.array([s.t for s in states])
    lam = np.array([s.lam for s in states])
    # t(t-1)/2 is 0 at t = 1, where x stands in: dividing by 1 keeps it.
    denom = np.maximum(t * (t - 1) / 2.0, 1.0)
    xs_avg = np.array([s.ergodic_sum if s.t >= 2 else s.x for s in states])
    xs_avg /= denom[:, None, None]
    objective = _sum_agents(problem.agent_values(xs_avg), axis=-1)
    residual = problem.coupling_residual(xs_avg)
    violation = np.sqrt(np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0])
    # Largest pairwise distance; sqrt is monotone, so it is taken once.
    first, second = _pairs(problem.m)
    diffs = lam.take(first, axis=1)
    diffs -= lam.take(second, axis=1)
    diffs *= diffs
    disagreement = np.sqrt(diffs.sum(axis=2).max(axis=1, initial=0.0))
    max_lambda = np.sqrt((lam * lam).sum(axis=2)).max(axis=1)
    gap = objective - f_star if f_star is not None else np.full(len(t), math.nan)
    inst = np.array([s.violation_inst for s in states])
    beta = states[0].config.beta(t)
    return Metrics(t, objective, gap, violation, inst, disagreement, max_lambda, beta)


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
    rows: Metrics,
    theta0: np.ndarray | None = None,
) -> BoundConstants:
    """Bound constants for a finished run, with D the run's max dual norm (0 without rounds)."""
    return BoundConstants(
        m=problem.m,
        p=problem.p,
        window=window,
        q=q,
        D=float(rows.max_lambda.max(initial=0.0)),
        G=compute_G_bound(problem),
        gammas=problem.gammas,
        theta0_l1=0.0 if theta0 is None else float(np.abs(theta0).sum(axis=1).sum()),
    )


def _rate_bound(T: int, c: BoundConstants, lead: float, k: float, tail: float) -> float:
    """lead/(T delta) s1 [k eta/(1-eta) theta0_l1 + k q m B_grad/(1-eta) (1 + ln T)] + tail/T s2,
    the shape of both printed rate bounds, with s1 = sum_i (G_i + gamma_i D)
    and s2 = sum_i (G_i + gamma_i D)^2; infinite once delta or 1 - eta underflowed.
    T becomes a Python float, so overflow is inf without a numpy warning for any int type.
    """
    T = float(T)
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

    values, terms = state_t1.values, state_t1.terms

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


def rate_fit(rows: Metrics, which: str) -> tuple[float, float]:
    """Fit value(T) against ln T / T over the rows with T >= 10.

    Returns (c_hat, max_ratio): c_hat is the median of g(T) = value(T)*T/ln T
    over the last half of the retained rows, and max_ratio = max g / g(T0)
    with T0 the first retained round. A bounded max_ratio means the observed
    decay is no slower than ln T / T beyond T0.
    """
    rows = rows[rows.t >= 10]
    if which == "gap":
        values = rows.gap
    elif which == "violation2":
        values = rows.violation**2
    else:
        raise ValueError(f"which must be 'gap' or 'violation2', got {which!r}")
    if len(rows) < 10:
        raise ValueError(f"need at least 10 rows with T >= 10, got {len(rows)}")
    g = values * rows.t / np.log(rows.t)
    return float(np.median(g[len(g) // 2 :])), float(g.max() / g[0])
