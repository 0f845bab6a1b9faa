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

The run loop computes a block of rounds at a time. Its kernel
(:func:`_advance_block`) runs only the recurrence, into preallocated rows,
with numpy's floating-point errors ignored; the checks (rho > 0, lambda
finite), violations, ergodic sums and stop test then run once per block as
array operations. The two checks are a round's only failures: each round
keeps the result and exception it would have had alone. Rounds computed
past a stop or failed check are dropped. A block builds one
:class:`RunState` snapshot, of the last round it keeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics
from .errors import ConfigError, InvalidInputError, InvariantError
from .graph import GraphSequence, build_weight_matrix
from .problem import CoupledProblem, _sum_agents, compute_G_bound, lagrangian_minimizer

STOP_CONVERGED = "converged"
STOP_T_MAX = "t_max"

# Relative change with a denominator below this is treated as zero.
_RATIO_GUARD = 1e-12

# Rows a run's output starts with: 64 MiB of address space, paged in as filled.
_ROWS = 1 << 20

# The largest multiplier bound run_rounds accepts: norms and pair distances stay <= 2^500.
DUAL_LIMIT = 2.0**499


def _largest_norm(rows) -> float:
    """max_i ||rows_i|| without a warning: inf past the float range, nan with a nan."""
    return float(np.max([math.hypot(*row) for row in np.atleast_2d(rows)], initial=0.0))


def block_size(m: int, p: int) -> int:
    """Rounds per block of the run loop: the block's (B, m, p) multiplier
    rows hold about 2^13 floats, with 1 <= B <= 256. 256 for fig7, 21 for
    num_s20 and 8 at m = 100, p = 10 (README.md gives the measured time and
    memory of other lengths)."""
    return min(256, max(1, (1 << 13) // (m * p)))


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
        if self.theta0 is not None and not _largest_norm(self.theta0) <= DUAL_LIMIT:
            raise ConfigError("theta0 must be finite, with every row's norm at most 2^499")

    def validate_for(self, problem: CoupledProblem, push_sum: bool) -> None:
        """Check that these settings fit ``problem``.

        theta0, when given, must be (m, p). With push_sum (DRDGA) the step
        size must also satisfy q * gamma_total / m >= 4; the unregularized
        CDDA step has no such rule.
        """
        m, p = problem.m, problem.p
        if self.theta0 is not None and np.shape(self.theta0) != (m, p):
            raise ConfigError(f"theta0 has shape {np.shape(self.theta0)}, expected ({m}, {p})")
        q, gamma = float(self.q), problem.gamma_total
        if push_sum and q * gamma / m < 4.0:
            least = float(f"{4.0 * m / gamma:g}")  # may round to a q this test rejects
            while least * gamma / m < 4.0:
                least = float(f"{least + 10.0 ** (math.floor(math.log10(least)) - 5):g}")
            # The rejected q and its ratio round-trip, so neither reads as passing.
            raise ConfigError(
                f"q = {q!r} too small: q*gamma/m = {q * gamma / m!r} < 4; minimum q = {least:g}"
            )


@dataclass(frozen=True, eq=False)
class RunState:
    """All per-agent iterates after round t, plus running ergodic sums.

    theta and lam are (m, p) arrays; rho is (m,); x and ergodic_sum are
    (m, n_max), padded like the problem's arrays. ergodic_sum holds
    sum_{s<=t} (s-1) x[s], the numerator of the weighted running average.
    With push_sum off, lam is the post-step multiplier theta, not the mixed
    one the agents solved at, from round 0 on. The run loop builds one state
    per block, of its last kept round.
    """

    t: int
    theta: np.ndarray
    rho: np.ndarray
    lam: np.ndarray
    x: np.ndarray
    ergodic_sum: np.ndarray


def init_state(problem: CoupledProblem, config: RunConfig, push_sum: bool = True) -> RunState:
    """Round-0 state: rho = 1, everything else zero unless theta0 is given;
    with push_sum off, lam is theta, as in every later round.

    ``config`` is checked against ``problem`` first (:meth:`RunConfig.validate_for`).
    """
    config.validate_for(problem, push_sum)
    m, p = problem.m, problem.p
    theta = np.zeros((m, p)) if config.theta0 is None else np.array(config.theta0, dtype=float)
    return RunState(
        t=0,
        theta=theta,
        rho=np.ones(m),
        lam=np.zeros((m, p)) if push_sum else theta,
        x=np.zeros(problem.lower.shape),
        ergodic_sum=np.zeros(problem.lower.shape),
    )


def multiplier_bound(problem: CoupledProblem, pool, config: RunConfig, push_sum: bool) -> float:
    """An exact-arithmetic bound on the reported max_i ||lambda_i(t)|| over rounds
    1 ... t_max for a column-stochastic DRDGA pool (README.md, "Multiplier bound")."""
    M = peak = 0.0 if config.theta0 is None else _largest_norm(config.theta0)
    G, gammas = compute_G_bound(problem), problem.gammas
    if not push_sum:
        return M + config.q * (1.0 + math.log(config.t_max)) * float(G.max())
    with np.errstate(all="ignore"):
        floor, k, rho, P = math.inf, 1, np.ones(problem.m), len(pool)
        for e in range(P):  # prod: pool[e] @ pool[e - 1] @ ..., n entries; from P on, squared
            prod, n = pool[e], 1
            while n < config.t_max and not (prod > 0).all():
                prod, n = (prod @ prod, 2 * n) if n % P == 0 else (prod @ pool[(e - n) % P], n + 1)
            floor, k = np.minimum(floor, problem.m * prod.min()), max(k, n)
        for t in range(1, config.t_max):
            rho, beta = np.dot(pool[(t - 1) % P], rho), config.q / t
            if not ((rho > 0) & (rho < math.inf)).all() or not peak <= DUAL_LIMIT:
                break
            if t >= k and beta * gammas.max() <= floor:
                return max(peak, float((G / gammas).max()))
            M = float((abs(1.0 - beta * gammas / rho) * M + beta * G / rho).max())
            peak = max(M, peak)  # a nan M (inf * 0) becomes the peak and fails the limit
    return peak


class _Block:
    """A run's constants (``problem``, ``q``, ``push_sum``) and preallocated
    rows for up to ``size`` consecutive rounds, reused block after block. lam
    is the multiplier the agents solved at (u / rho, or u with push-sum off),
    and ``reported`` the multiplier a round reports: the lam rows, or the
    post-step theta rows with push-sum off. Ergodic row k + 1 is the sum of
    row k's round, and row 0 the sum the block starts from. The kernel's row
    views (``rows``, with the 3-D column views its products take), (m, p)
    scratch arrays, gamma broadcast to (m, p) and bound local solve
    (``minimize``) are made once."""

    def __init__(self, problem: CoupledProblem, q: float, push_sum: bool, size: int):
        self.problem, self.q, self.push_sum = problem, q, push_sum
        m, p, n = problem.m, problem.p, problem.lower.shape[1]
        self.theta, self.lam, self.terms = (np.empty((size, m, p)) for _ in range(3))
        self.rho, self.x = np.empty((size, m)), np.empty((size, m, n))
        self.violation, self.ergodic = np.empty(size), np.empty((size + 1, m, n))
        self.rows = list(zip(self.theta, self.rho, self.rho[..., None], self.lam,
                             self.lam[..., None], self.x, self.x[..., None], self.terms,
                             self.terms[..., None]))
        self.u, self.step = np.empty((m, p)), np.empty((m, p))
        self.gammas = np.repeat(problem.gammas[:, None], p, axis=1)
        self.minimize = lagrangian_minimizer(problem)
        self.reported = self.lam if push_sum else self.theta

    def state(self, k: int, start: RunState) -> RunState:
        """Row k, copied, as the state it is; ``start`` is the block's starting state."""
        return RunState(
            start.t + k + 1, self.theta[k].copy(),
            self.rho[k].copy() if self.push_sum else start.rho, self.reported[k].copy(),
            self.x[k].copy(), self.ergodic[k + 1].copy())


def _advance_block(state: RunState, pool, count: int, block: _Block) -> None:
    """The round kernel: the recurrence alone for the ``count`` rounds after
    ``state``, into block rows 0 ... count - 1. Round t mixes with
    pool[(t - 1) % len(pool)]. Nothing is checked; a non-finite or
    non-positive value only propagates, and :func:`_run_block` runs the
    kernel with floating-point errors ignored.

    Each step is one numpy call into a block row or scratch array, on full
    arrays derived once where a round alone would broadcast, in that round's
    order, so every bit is its own: ``np.dot`` makes the BLAS call of
    ``W @ theta`` and ``W @ rho``, and the coupling terms are
    :meth:`CoupledProblem.coupling_terms`' two calls on the row. beta comes
    from one q / (t, ..., t + count - 1) row, bit for bit q / t."""
    push_sum, theta, rho = block.push_sum, state.theta, state.rho
    u, step, gammas, minimize = block.u, block.step, block.gammas, block.minimize
    A, b = block.problem.A, block.problem.b
    betas = block.q / np.arange(state.t + 1, state.t + count + 1)
    mixing = [pool[t % len(pool)] for t in range(state.t, state.t + count)]
    for k, W, (theta_k, rho_k, rho_col, lam, lam_col, x, x_col, terms, terms_col) in zip(
            range(count), mixing, block.rows):
        if push_sum:
            np.dot(W, theta, out=u)
            rho = np.dot(W, rho, out=rho_k)
            np.divide(u, rho_col, out=lam)
        else:
            u = np.dot(W, theta, out=lam)
        minimize(lam_col, x)
        np.matmul(A, x_col, out=terms_col)
        np.subtract(terms, b, out=terms)
        if push_sum:
            np.multiply(gammas, lam, out=step)
            np.subtract(terms, step, out=step)
            np.multiply(betas[k, ...], step, out=step)
        else:
            np.multiply(betas[k, ...], terms, out=step)
        theta = np.add(u, step, out=theta_k)


def _run_block(state: RunState, pool, count: int, block: _Block,
               epsilon: float | None = None) -> tuple[int, RunState, bool]:
    """The ``count`` rounds after ``state``, checked, and stop-tested when
    ``epsilon`` is given. Returns (rounds kept, last kept state, converged).

    The kernel runs speculatively with floating-point errors ignored; the
    rest runs under the caller's errstate, where a failed round's NaNs set
    no flag. A round can only fail its checks, raised as round by round: the
    first failing round, rho (InvariantError) before lam (InvalidInputError),
    unless an earlier round stopped the run. The stop test takes the rounds
    before that one whose violation is within ``epsilon``, stacks their
    multipliers and iterates with those of the round before each (``state``
    before row 0), and makes one ``agent_values`` and one
    :func:`stopping_residuals` call: the first row within ``epsilon`` in all
    three stops the run. Rounds past the stop or failure are dropped silently.
    """
    with np.errstate(all="ignore"):
        _advance_block(state, pool, count, block)
    block.violation[:count] = metrics.norms(_sum_agents(block.terms[:count], axis=1))
    # A running sum over time of [carry, (t-1) x_t, ...] adds round after round.
    sums = block.ergodic[: count + 1]
    sums[0] = state.ergodic_sum
    np.multiply(np.arange(state.t, state.t + count)[:, None, None], block.x[:count], out=sums[1:])
    np.add.accumulate(sums, axis=0, out=sums)
    bad = ~np.isfinite(block.lam[:count]).all(axis=(1, 2))
    if block.push_sum:
        bad |= (block.rho[:count] <= 0).any(axis=1)
    failed = int(bad.argmax()) if bad.any() else count
    kept, converged = failed, False
    # A NaN violation passes neither test; while it exceeds epsilon, as on
    # every bundled run, the other two residuals are not computed.
    passing = [] if epsilon is None else np.flatnonzero(block.violation[:failed] <= epsilon)
    if len(passing):
        # Row k + 1 of each stack is the block's round k, row 0 the start.
        lam = np.concatenate((state.lam[None], block.reported[:failed]))
        x = np.concatenate((state.x[None], block.x[:failed]))
        values, read = np.empty(x.shape[:2]), np.union1d(passing, passing + 1)
        values[read] = block.problem.agent_values(x[read])
        residuals = stopping_residuals(lam[passing], lam[passing + 1], values[passing],
                                       values[passing + 1], block.violation[passing])
        stops = (residuals <= epsilon).all(axis=1)
        if stops.any():
            kept, converged = int(passing[stops.argmax()]) + 1, True
    if not converged and failed < count:
        if block.push_sum and (block.rho[failed] <= 0).any():
            raise InvariantError(
                f"push-sum weight became non-positive at round {state.t + failed + 1}")
        raise InvalidInputError("lambda must be finite")
    return kept, block.state(kept - 1, state), converged


def ergodic_average(state: RunState) -> np.ndarray:
    """Weighted running average of the primal iterates, defined for t >= 2.

    Returns sum_{s<=t} (s-1) x[s] divided by t(t-1)/2, one row per agent.
    Each row lies in its agent's box (convex combination of feasible points).
    """
    if state.t < 2:
        raise ValueError(f"ergodic average undefined before round 2 (t = {state.t})")
    denom = state.t * (state.t - 1) / 2.0
    return state.ergodic_sum / denom


def stopping_residuals(lam_old, lam, f_old, f_new, violation) -> np.ndarray:
    """The three stop measures of k rounds, each after the round before, as
    (k, 3) rows: max |lam - lam_old| of its (m, p) multipliers, its violation,
    and the largest relative change of its agents' values f_old to f_new,
    (k, m), leaving out agents with |f_old| < _RATIO_GUARD (0 if none is left)."""
    kept = abs(f_old) >= _RATIO_GUARD
    rel = np.divide(f_new - f_old, f_old, out=np.zeros(np.shape(f_old)), where=kept)
    return np.column_stack((abs(lam - lam_old).max(axis=(1, 2)), violation,
                            abs(rel).max(axis=1, initial=0.0)))


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
    state, an np.recarray of every round's :data:`drdga.metrics.Metrics`
    record, stop reason); gap is filled only when the optimum f_star is given.

    The rounds run a block at a time (:func:`_run_block`); the observables
    of the rounds a block keeps are computed in one batched pass
    (:func:`drdga.metrics.evaluate_rounds`) straight into the run's rows:
    min(t_max, _ROWS) records, doubled (up to t_max) when outgrown. A
    block started after round t has at most max(64, t // 4) rounds, so a run
    that stops at round k has computed at most max(63, k // 4) rounds past k.
    A :func:`multiplier_bound` over DUAL_LIMIT is a ConfigError naming q, before round 1.
    """
    if seq.m != problem.m:
        raise InvalidInputError(f"graph sequence has {seq.m} agents, the problem has {problem.m}")
    state = init_state(problem, config, push_sum)
    m, pool = problem.m, tuple(mixing(adj) for adj in seq.adj)
    for W in pool:
        if np.shape(W) != (m, m):
            raise InvalidInputError(f"mixing matrix has shape {np.shape(W)}, expected ({m}, {m})")
    if not (bound := multiplier_bound(problem, pool, config, push_sum)) <= DUAL_LIMIT:
        raise ConfigError(f"q = {config.q!r} too large: multiplier bound {bound:.3g} > 2^499")
    block = _Block(problem, config.q, push_sum, min(block_size(m, problem.p), config.t_max))
    rows, converged = np.recarray(min(config.t_max, _ROWS), metrics.Metrics), False
    while not converged and state.t < config.t_max:
        count = min(len(block.violation), max(64, state.t // 4), config.t_max - state.t)
        start = state.t
        kept, state, converged = _run_block(state, pool, count, block, config.epsilon)
        if state.t > len(rows):
            rows, old = np.recarray(min(config.t_max, 2 * state.t), metrics.Metrics), rows
            rows[:start] = old[:start]
        metrics.evaluate_rounds(
            np.arange(start + 1, state.t + 1), block.reported[:kept], block.x[:kept],
            block.ergodic[1 : kept + 1], block.violation[:kept], config.q, problem, f_star,
            out=rows[start : state.t])
    return state, rows[: state.t], STOP_CONVERGED if converged else STOP_T_MAX


def run_until(
    problem: CoupledProblem,
    seq: GraphSequence,
    config: RunConfig,
    f_star: float | None = None,
):
    """Run DRDGA: push-sum rounds on the column-stochastic matrices of ``seq``.

    Returns (final state, Metrics rows of every round, stop reason); see :func:`run_rounds`.
    """
    return run_rounds(problem, seq, config, f_star, build_weight_matrix, push_sum=True)
