"""Per-round observables as column arrays (Metrics), computed a block of rounds
at a time from their stacked arrays, convergence-bound evaluators, and rate fitting.

The disagreement column, the largest distance between two agents'
multipliers, is exact. Below SCREEN_MIN_M agents every pair i < j is
computed. From there on a triangle-inequality screen about the agents' mean
leaves out the pairs that cannot be the largest, with a slack derived from
the rounding model (see _disagreement), and computes the others as the pair
form does, so the column has the same bits either way.

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
    every column: ``rows[-1].t`` is the last round, ``rows[rows.t >= 100]`` a
    subset; ``rows[a:b] = other`` copies other's columns into rows a ... b - 1."""

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

    def __setitem__(self, index, rows: Metrics) -> None:
        for f in fields(self):
            getattr(self, f.name)[index] = getattr(rows, f.name)

    @classmethod
    def empty(cls, size: int) -> Metrics:
        """``size`` unfilled rows: integer rounds, float observables."""
        return cls(np.empty(size, dtype=np.int64), *(np.empty(size) for _ in fields(cls)[1:]))


@functools.lru_cache(maxsize=64)
def _pairs(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the pairs i < j with i < rows and j < cols."""
    first, second = np.triu_indices(rows, k=1, m=cols)
    first.flags.writeable = second.flags.writeable = False
    return first, second


# From this many agents on, disagreement goes through the radius screen; below
# it the pair form is as fast or faster (the crossover measured in README.md).
SCREEN_MIN_M = 24


def block_size(m: int, p: int) -> int:
    """Rounds per block of the run loop's kernel and observables.

    Below SCREEN_MIN_M agents a block's pair differences, (B, m(m-1)/2, p),
    hold about 2^15 floats, at most 256 rounds (the kernel keeps six row
    views a round, about 0.8 KiB) and down to one round once a single
    round's pairs fill that budget: 256 for fig7. The run loop
    starts no block longer than max(64, t // 4) rounds at round t, so short
    runs and early stops keep blocks of 64. From SCREEN_MIN_M on the screen
    reads (B, m, p) arrays, and a block holds about 2^13 of their floats, at
    most 64 rounds: 8 at m = 100, p = 10 (README.md gives the measured
    time and memory of longer blocks there).
    """
    if m >= SCREEN_MIN_M:
        return min(64, max(1, (1 << 13) // (m * p)))
    return min(256, max(1, (1 << 15) // max(1, m * (m - 1) // 2 * p)))


def _pair_max(lam: np.ndarray) -> np.ndarray:
    """Largest squared distance over the agent pairs i < j of each round of a
    (B, m, p) block: lam[i] - lam[j], squared, summed over p; 0 for m < 2."""
    first, second = _pairs(lam.shape[1], lam.shape[1])
    diffs = lam.take(first, axis=1)
    diffs -= lam.take(second, axis=1)
    diffs *= diffs
    return diffs.sum(axis=2).max(axis=1, initial=0.0)


def _squared_distances(lam: np.ndarray, point: np.ndarray) -> np.ndarray:
    """(B, m) squared distances of every lam[b, i] to point[b], summed in
    whatever order einsum takes, fused or not (the screen's bounds allow any)."""
    diffs = lam - point[:, None, :]
    return np.einsum("bmp,bmp->bm", diffs, diffs)


# The screen runs where every radius is at most 2^500 and L at least 2^-400:
# no squared distance can overflow, and underflow is too small to count.
_SCREEN_RANGE = (2.0**-400, 2.0**500)


def _disagreement(lam: np.ndarray) -> np.ndarray:
    """max_{i<j} ||lam[b, i] - lam[b, j]|| of each round of a (B, m, p) block,
    with the bits of the pair form: every pair's lam[i] - lam[j], squared and
    summed over p, then the largest, then one sqrt (sqrt is monotone).

    Below SCREEN_MIN_M agents every pair is computed (``_pair_max``). From
    there on a triangle-inequality screen leaves out the pairs that cannot be
    the largest. With c the agents' mean as computed and r_i = ||lam_i - c||,
    ||lam_i - lam_j|| <= r_i + r_j. Two farthest-point sweeps, from the agent
    of largest radius and then from the agent farthest from it, give S, the
    largest squared distance they computed, and L = sqrt(S). A pair stays
    when fl(r_i + r_j) >= T = fl(L k), k = 1 - s. The pairs that stay are
    computed as the pair form computes them, each as a row of a contiguous
    array summed over its last axis (numpy reduces each row alike whatever
    the leading shape), so their maximum has the pair form's bits.

    The slack s = 4(p + 3)u, u = 2^-53, is derived from the model
    fl(x op y) = (x op y)(1 + d), |d| <= u, for +, -, *, / and sqrt (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    2.2), with g = gamma_{p+2} = (p + 2)u / (1 - (p + 2)u) (Lemma 3.1 and
    the notation of section 3.4):

    * Pair values. A squared distance sigma(x, y) computed in any summation
      order has |sigma - ||x - y||^2| <= g ||x - y||^2: each term
      (x_k - y_k)^2 carries (1 + d)^2 (1 + d') from the subtraction and the
      square, and the sum of p such terms, an inner product, at most
      (1 + theta_p) per term in any order of evaluation (section 3.1; an
      FMA rounds less). The sweeps, the radii and the pair form all sum in
      their own orders; the bound covers each.
    * Radii. The triangle inequality holds about any point, so c is taken to
      be the float vector the mean rounded to, and rho_i = ||lam_i - c||
      exactly. Each lam_ik - c_k is then one correctly rounded subtraction of
      two floats, with relative error at most u however much cancels: a large
      common offset in the multipliers makes the screen keep more pairs but
      adds no absolute error term. The computed r_i >= rho_i sqrt(1 - g)(1 - u).
    * Lower bound. S = sigma(lam_a, lam_b) for a pair a != b, so that pair's
      value in the pair form is at least S (1 - g) / (1 + g), and
      L <= sqrt(S)(1 + u), T <= L k (1 + u).
    * A left-out pair, fl(r_i + r_j) < T, has
      sigma_ij <= (1 + g)(rho_i + rho_j)^2
               <= (1 + g) fl(r_i + r_j)^2 / ((1 - g)(1 - u)^4)
               <  (1 + g) S k^2 (1 + u)^4 / ((1 - g)(1 - u)^4),
      which is below the pair (a, b)'s value once
      k <= (1 - g)(1 - u)^2 / ((1 + g)(1 + u)^2). The right side is at least
      1 - 2g - 4u >= 1 - (2.02 p + 8.04)u for p below 10^13, so s = 4(p + 3)u
      holds with a margin of at least 5.9u, and k is exact in binary64.
      A left-out pair is therefore strictly below a pair that stays, and the
      maximum is among the pairs computed.
    * Candidates. Rounding is monotone, so a pair that stays has
      fl(r_i + max r) >= T for both agents, and 2 max(r_i, r_j) >= T. Only
      ranks a < b with a among the agents of radius >= T / 2 and b among
      those with fl(r_b + max r) >= T, both counted over the block, are
      tested against T.

    The model excludes overflow and underflow. A round whose largest radius
    exceeds 2^500 (or is not finite, as with a nan multiplier) or whose L is
    below 2^-400 goes through the pair form, unless every lam of the round
    is equal and finite: then every pair's difference is exactly 0, and so is
    the answer. Within that range no squared distance exceeds 2^1003, and
    gradual underflow adds at most p 2^-1075 to a squared distance (half the
    smallest subnormal per product; Higham, chapter 2): below 2^-200
    relative to S, inside the slack's margin. L
    itself can be 0 with lam not all equal, when differences below 2^-537
    square to 0, so the pair form, not L, decides those rounds.
    """
    B, m, p = lam.shape
    if m < SCREEN_MIN_M:
        return np.sqrt(_pair_max(lam))
    rounds = np.arange(B)
    radius = np.sqrt(_squared_distances(lam, np.matmul(np.full(m, 1.0 / m), lam)))
    far = _squared_distances(lam, lam[rounds, radius.argmax(axis=1)])
    farther = _squared_distances(lam, lam[rounds, far.argmax(axis=1)])
    L = np.sqrt(np.maximum(far.max(axis=1), farther.max(axis=1)))
    top = radius.max(axis=1)
    screened = (L >= _SCREEN_RANGE[0]) & (top <= _SCREEN_RANGE[1])
    out = np.zeros(B)
    if not screened.all():
        # Every lam equal and finite: every pair's difference is exactly 0.
        same = (lam == lam[:, :1]).all(axis=(1, 2)) & np.isfinite(lam[:, 0]).all(axis=1)
        paired = ~screened & ~same
        out[paired] = _pair_max(lam[paired])
        lam, radius, L, top = lam[screened], radius[screened], L[screened], top[screened]
    if len(lam):
        threshold = (L * (1.0 - 4 * (p + 3) * 2.0**-53))[:, None]
        count = int(((radius + top[:, None]) >= threshold).sum(axis=1).max())
        half = int((2.0 * radius >= threshold).sum(axis=1).max())
        order = np.argsort(-radius, axis=1)[:, :count]
        near = np.take_along_axis(radius, order, axis=1)
        first, second = _pairs(half, count)
        stays = near.take(first, axis=1) + near.take(second, axis=1) >= threshold
        rnd, pair = np.nonzero(stays)
        i, j = order[rnd, first[pair]], order[rnd, second[pair]]
        diffs = lam[rnd, np.minimum(i, j)]  # lam[i] - lam[j] with i < j, as the pair form
        diffs -= lam[rnd, np.maximum(i, j)]
        diffs *= diffs
        # Left-out pairs read 0: the pair (a, b) of L stays in every round.
        kept = np.zeros(stays.shape)
        kept[rnd, pair] = diffs.sum(axis=1)
        out[screened] = kept.max(axis=1)
    return np.sqrt(out)


def _max_norm(lam: np.ndarray) -> np.ndarray:
    """max_i ||lam[b, i]|| of each round of a (B, m, p) block."""
    return np.sqrt((lam * lam).sum(axis=2)).max(axis=1)


def _rescaled(norm, lam: np.ndarray) -> np.ndarray:
    """norm(lam), for a norm of each round of a (B, m, p) block, without a
    spurious overflow. Its squares overflow from about 1.3e154; a round
    whose result is then not finite while its lam is finite is computed
    again at lam 2^-e, exactly, with max |lam| < 2^e, and scaled back by
    2^e: inf only where the norm itself exceeds the float range. The other
    rounds keep their bits. A round with a non-finite lam reads inf or nan,
    without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = norm(lam)
    redo = ~np.isfinite(out)
    if redo.any():
        redo &= np.isfinite(lam).all(axis=(1, 2))
    if redo.any():
        e = np.frexp(abs(lam[redo]).max(axis=(1, 2)))[1]
        # Entries below 2^(e - 1074) lose bits to underflow, far below the norm's last bit.
        with np.errstate(under="ignore", over="ignore"):
            out[redo] = np.ldexp(norm(np.ldexp(lam[redo], -e[:, None, None])), e)
    return out


def norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of a (..., p) stack, with the bits of its own
    np.linalg.norm: sqrt(r . r)."""
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def evaluate_rounds(t, lam, x, ergodic_sum, violation_inst, q: float, problem: CoupledProblem,
                    f_star: float | None = None) -> Metrics:
    """Observables of completed rounds of one run, in one batched pass over
    their stacked arrays: rounds t (B,), reported multipliers lam (B, m, p),
    iterates x and ergodic sums (B, m, n_max), and violations (B,); q is
    the step-size constant.

    At t = 1 the ergodic average is not yet defined and the instantaneous
    iterate stands in for it. gap is nan without f_star. Each round has the
    bits of its round alone: the batched products repeat each round's own BLAS
    calls, sums over agents run left to right, and the violation norm is each
    round's sqrt(r . r). The result's ``violation_inst`` is the argument
    itself, not a copy: the run loop copies each block's result into its
    columns at once.
    """
    # t(t-1)/2 is 0 at t = 1, where x stands in: dividing by 1 keeps it.
    denom = np.maximum(t * (t - 1) / 2.0, 1.0)
    xs_avg = ergodic_sum / denom[:, None, None]
    first = t == 1
    xs_avg[first] = x[first]
    objective = _sum_agents(problem.agent_values(xs_avg), axis=-1)
    violation = norms(problem.coupling_residual(xs_avg))
    disagreement = _rescaled(_disagreement, lam)
    max_lambda = _rescaled(_max_norm, lam)
    gap = objective - f_star if f_star is not None else np.full(len(t), math.nan)
    return Metrics(t, objective, gap, violation, violation_inst, disagreement, max_lambda, q / t)


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
    T becomes a Python float and s2's squares overflow to inf (from D ~ 1e154),
    so overflow is inf without a numpy warning for any int type of T and any D.
    """
    T = float(T)
    if T < 1:
        raise ValueError("bound defined for T >= 1")
    if c.one_minus_eta == 0.0:
        return math.inf
    coeffs = c.G + c.gammas * c.D
    s1 = float(np.sum(coeffs))
    with np.errstate(over="ignore"):
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
