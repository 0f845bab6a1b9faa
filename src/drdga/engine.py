"""Synchronous-round execution of the distributed regularized dual gradient method.

Each round every agent mixes the received dual surrogates (theta) with the
round's mixing matrix W, recovers its multiplier estimate, solves its inner
problem at that multiplier, and takes a dual ascent step with the decaying
step size beta[t] = q/t.

The same round runs both algorithms. With push-sum on (DRDGA) W is
column-stochastic, the push-sum weights rho are mixed alongside theta, the
multiplier is lambda = u / rho, and the step carries the regularization term
-gamma_i lambda_i. With push-sum off (the CDDA baseline in
:mod:`drdga.baseline`) W is doubly stochastic, rho stays exactly 1 so that
lambda = u, and the step is unregularized.

Every step acts on all agents at once, in the stacked layout of
:class:`drdga.problem.CoupledProblem`.

States are immutable snapshots: advance_round reads one round and returns the
next. Each state carries its iterate's coupling terms and violation; its
per-agent objective values are computed when first read and then kept, so
the stop check and :func:`drdga.metrics.evaluate_rounds` are functions of
states alone, and a round whose violation already exceeds epsilon evaluates
no objective.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import metrics
from .errors import ConfigError, InvalidInputError, InvariantError
from .graph import GraphSequence, build_weight_matrix
from .problem import CoupledProblem, _sum_agents, solve_local

STOP_CONVERGED = "converged"
STOP_T_MAX = "t_max"

# Relative change with a denominator below this is treated as zero.
_RATIO_GUARD = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Step-size constant, round cap, stopping tolerance, and initial surrogates."""

    q: float
    t_max: int = 5000
    epsilon: float = 0.01
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if not self.q > 0 or not math.isfinite(self.q):
            raise ConfigError(f"q must be positive and finite, got {self.q}")
        if not isinstance(self.t_max, numbers.Integral) or self.t_max < 2:
            raise ConfigError(f"t_max must be an integer >= 2, got {self.t_max}")
        if not self.epsilon > 0 or not math.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.theta0 is not None and not np.all(np.isfinite(self.theta0)):
            raise ConfigError("theta0 must be finite")

    def validate_for(self, problem: CoupledProblem, push_sum: bool) -> None:
        """Check that these settings fit ``problem``.

        theta0, when given, must be (m, p). With push_sum (DRDGA) the step
        size must also satisfy q * gamma_total / m >= 4; the unregularized
        CDDA step has no such rule.
        """
        m, p = problem.m, problem.p
        if self.theta0 is not None and np.shape(self.theta0) != (m, p):
            raise ConfigError(f"theta0 has shape {np.shape(self.theta0)}, expected ({m}, {p})")
        gamma = problem.gamma_total
        if push_sum and self.q * gamma / m < 4.0:
            raise ConfigError(
                f"q = {self.q:g} too small: q*gamma/m = {self.q * gamma / m:g} < 4; "
                f"minimum q = {4.0 * m / gamma:g}"
            )

    def beta(self, t: int) -> float:
        """Step size q / t for round t >= 1."""
        return self.q / t


@dataclass(frozen=True)
class RunState:
    """All per-agent iterates after round t, plus running ergodic sums.

    theta and lam are (m, p) arrays; rho is (m,); x and ergodic_sum are
    (m, n_max), padded like the problem's arrays. terms holds the coupling
    terms A_i x_i - b_i of x, (m, p), and violation_inst the norm of
    sum_i (A_i x_i - b_i). ergodic_sum holds sum_{s<=t} (s-1) x[s], the
    numerator of the weighted running average. problem is the instance the
    iterates belong to; values, the per-agent objective values of x, is
    computed from it when first read.
    With push_sum off, lam is the post-step multiplier theta, not the mixed
    one the agents solved at.
    """

    t: int
    theta: np.ndarray
    rho: np.ndarray
    lam: np.ndarray
    x: np.ndarray
    terms: np.ndarray
    violation_inst: float
    ergodic_sum: np.ndarray
    config: RunConfig
    push_sum: bool
    problem: CoupledProblem = field(repr=False, compare=False)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Per-agent objective values f_i(x_i) of x, (m,): computed on first
        read, then kept."""
        return self.problem.agent_values(self.x)


def _violation(terms: np.ndarray) -> float:
    """Norm of sum_i (A_i x_i - b_i) of one iterate, from its (m, p) coupling terms."""
    residual = _sum_agents(terms)
    return math.sqrt(residual.dot(residual))  # np.linalg.norm's own sqrt(x.dot(x))


def init_state(problem: CoupledProblem, config: RunConfig, push_sum: bool = True) -> RunState:
    """Round-0 state: rho = 1, everything else zero unless theta0 is given.

    ``config`` is checked against ``problem`` first (:meth:`RunConfig.validate_for`).
    """
    config.validate_for(problem, push_sum)
    m, p = problem.m, problem.p
    theta = np.zeros((m, p)) if config.theta0 is None else np.array(config.theta0, dtype=float)
    x = np.zeros(problem.lower.shape)
    terms = problem.coupling_terms(x)
    return RunState(
        t=0,
        theta=theta,
        rho=np.ones(m),
        lam=np.zeros((m, p)),
        x=x,
        terms=terms,
        violation_inst=_violation(terms),
        ergodic_sum=np.zeros(problem.lower.shape),
        config=config,
        push_sum=push_sum,
        problem=problem,
    )


def advance_round(state: RunState, problem: CoupledProblem, W: np.ndarray) -> RunState:
    """One synchronous round on mixing matrix W: mix, normalize, solve locally, ascend the dual."""
    t_next = state.t + 1
    beta = state.config.beta(t_next)

    u = W @ state.theta
    if state.push_sum:
        rho = W @ state.rho
        if (rho <= 0).any():
            raise InvariantError(f"push-sum weight became non-positive at round {t_next}")
        lam = u / rho[:, None]
    else:
        rho, lam = state.rho, u

    x = solve_local(problem, lam)
    terms = problem.coupling_terms(x)
    step = terms - problem.gammas[:, None] * lam if state.push_sum else terms
    theta = u + beta * step

    return RunState(
        t=t_next,
        theta=theta,
        rho=rho,
        lam=lam if state.push_sum else theta,
        x=x,
        terms=terms,
        violation_inst=_violation(terms),
        ergodic_sum=state.ergodic_sum + (t_next - 1) * x,
        config=state.config,
        push_sum=state.push_sum,
        problem=problem,
    )


def ergodic_average(state: RunState) -> np.ndarray:
    """Weighted running average of the primal iterates, defined for t >= 2.

    Returns sum_{s<=t} (s-1) x[s] divided by t(t-1)/2, one row per agent.
    Each row lies in its agent's box (convex combination of feasible points).
    """
    if state.t < 2:
        raise ValueError(f"ergodic average undefined before round 2 (t = {state.t})")
    denom = state.t * (state.t - 1) / 2.0
    return state.ergodic_sum / denom


def stopping_residuals(prev: RunState, state: RunState) -> tuple[float, float, float]:
    """The three stop measures of round ``state`` after round ``prev``: dual
    movement, coupling violation, relative per-agent objective change."""
    dual_move = float(abs(state.lam - prev.lam).max())
    f_old, f_new = prev.values, state.values
    kept = abs(f_old) >= _RATIO_GUARD
    rel = abs((f_new[kept] - f_old[kept]) / f_old[kept])
    return dual_move, state.violation_inst, float(rel.max(initial=0.0))


def run_rounds(
    problem: CoupledProblem,
    seq: GraphSequence,
    config: RunConfig,
    f_star: float | None,
    mixing: Callable[..., np.ndarray],
    push_sum: bool,
):
    """The run loop of both algorithms: rounds until the three stop criteria
    all fall below epsilon, or t_max.

    ``mixing(adj)`` builds one round's matrix from its (m, m) adjacency; it
    is called once per entry of the sequence's periodic pool. Returns (final
    state, :class:`drdga.metrics.Metrics` of every round, stop reason). The
    gap column is filled only when the centralized optimum f_star is supplied.

    The stop check tests each round's violation_inst first; only a round
    whose violation is within epsilon computes the dual-movement and
    objective-change residuals (:func:`stopping_residuals`) of the previous
    and the new state. The observables are computed a block of rounds at a time
    (:func:`drdga.metrics.evaluate_rounds`): a block is evaluated when it is
    full, at the stop round and at t_max, and the blocks are joined once.
    """
    if seq.m != problem.m:
        raise InvalidInputError(f"graph sequence has {seq.m} agents, the problem has {problem.m}")
    state = init_state(problem, config, push_sum)
    pool = [mixing(adj) for adj in seq.adj]
    size = metrics.block_size(problem.m, problem.p)
    block, parts = [], []
    reason = STOP_T_MAX
    while state.t < config.t_max:
        prev = state
        state = advance_round(state, problem, pool[state.t % len(pool)])
        block.append(state)
        # The violation is one of the three residuals; testing it first keeps
        # the decision (a NaN fails either test) and skips the other two
        # while it stays above epsilon, as it does on every bundled run.
        if state.violation_inst <= config.epsilon and all(
            r <= config.epsilon for r in stopping_residuals(prev, state)
        ):
            reason = STOP_CONVERGED
            break
        if len(block) == size:
            parts.append(metrics.evaluate_rounds(block, problem, f_star))
            block = []
    if block:
        parts.append(metrics.evaluate_rounds(block, problem, f_star))
    return state, metrics.Metrics.concat(parts), reason


def run_until(
    problem: CoupledProblem,
    seq: GraphSequence,
    config: RunConfig,
    f_star: float | None = None,
):
    """Run DRDGA: push-sum rounds on the column-stochastic matrices of ``seq``.

    Returns (final state, Metrics of every round, stop reason); see :func:`run_rounds`.
    """
    return run_rounds(problem, seq, config, f_star, build_weight_matrix, push_sum=True)
