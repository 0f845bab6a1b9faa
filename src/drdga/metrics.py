"""Per-round observables as records of the Metrics dtype, computed a block of
rounds at a time from their stacked arrays, and convergence-bound evaluators.

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
m >= 3; they are reported for completeness, and the acceptance tests check
the empirical rates instead. A bound beyond float range evaluates to inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .problem import CoupledProblem, _sum_agents, compute_G_bound


# A run's rows: one record per round, one field per CSV column, in CSV order;
# objective, gap and violation use the ergodic average. As an np.recarray,
# rows.t is the round column, rows[-1].t the last round and rows[rows.t >= 100]
# the rounds from 100 on.
Metrics = np.dtype([("t", np.int64)] + [(name, np.float64) for name in (
    "objective", "gap", "violation", "violation_inst", "disagreement", "max_lambda", "beta")])


@functools.lru_cache(maxsize=64)
def _pairs(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the pairs i < j with i < rows and j < cols."""
    first, second = np.triu_indices(rows, k=1, m=cols)
    first.flags.writeable = second.flags.writeable = False
    return first, second


# From this many agents on, disagreement goes through the radius screen; below
# it the pair form is as fast or faster (the crossover measured in README.md).
SCREEN_MIN_M = 24


def _pair_max(lam: np.ndarray) -> np.ndarray:
    """Largest squared distance over the agent pairs i < j of each round of a
    (B, m, p) block: lam[i] - lam[j], squared, summed over p; 0 for m < 2.
    The rounds go in chunks whose pair differences hold about 2^15 floats,
    down to one round; each pair's row is summed alike in any chunk."""
    B, m, p = lam.shape
    first, second = _pairs(m, m)
    chunk = max(1, (1 << 15) // max(1, len(first) * p))
    out = np.empty(B)
    for start in range(0, B, chunk):
        diffs = lam[start : start + chunk].take(first, axis=1)
        diffs -= lam[start : start + chunk].take(second, axis=1)
        diffs *= diffs
        diffs.sum(axis=2).max(axis=1, initial=0.0, out=out[start : start + chunk])
    return out


def _squared_distances(lam: np.ndarray, point: np.ndarray) -> np.ndarray:
    """(B, m) squared distances of every lam[b, i] to point[b], summed in
    whatever order einsum takes, fused or not (the screen's bounds allow any)."""
    diffs = lam - point[:, None, :]
    return np.einsum("bmp,bmp->bm", diffs, diffs)


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

    The model excludes overflow and underflow. A run's multipliers stay
    within 2^499 in norm (engine.DUAL_LIMIT), so no squared distance exceeds
    2^1001. A round whose L is below 2^-400, inf or nan goes through the pair
    form, unless every lam of the round is equal and finite: then every
    pair's difference is exactly 0, and so is the answer. Above 2^-400,
    gradual underflow adds at most p 2^-1075 to a squared distance (Higham,
    chapter 2): below 2^-200 relative to S, inside the slack's margin. L can
    be 0 with lam not all equal (differences below 2^-537 square to 0).
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
    screened = (L >= 2.0**-400) & (L < math.inf)
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


def norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of a (..., p) stack, with the bits of its own
    np.linalg.norm: sqrt(r . r)."""
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def evaluate_rounds(t, lam, x, ergodic_sum, violation_inst, q: float, problem: CoupledProblem,
                    f_star: float | None, out: np.ndarray) -> np.ndarray:
    """Observables of completed rounds of one run, in one batched pass over
    their stacked arrays, written into ``out``, one Metrics record per round,
    and returned: rounds t (B,), reported multipliers lam (B, m, p), iterates
    x and ergodic sums (B, m, n_max), and violations (B,); q is the step-size
    constant. The run loop passes the block's rows of the run's own array.

    At t = 1 the ergodic average is not yet defined and the instantaneous
    iterate stands in for it. gap is nan without f_star. Each round has the
    bits of its round alone: the batched products repeat each round's own BLAS
    calls, sums over agents run left to right, and the violation norm is each
    round's sqrt(r . r).
    """
    # t(t-1)/2 is 0 at t = 1, where x stands in: dividing by 1 keeps it.
    denom = np.maximum(t * (t - 1) / 2.0, 1.0)
    xs_avg = ergodic_sum / denom[:, None, None]
    first = t == 1
    xs_avg[first] = x[first]
    out["t"] = t
    out["objective"] = objective = _sum_agents(problem.agent_values(xs_avg), axis=-1)
    out["gap"] = objective - f_star if f_star is not None else math.nan
    out["violation"] = norms(problem.coupling_residual(xs_avg))
    out["violation_inst"] = violation_inst
    out["disagreement"] = _disagreement(lam)
    out["max_lambda"] = np.sqrt((lam * lam).sum(axis=2)).max(axis=1)
    out["beta"] = q / t
    return out


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
    rows: np.ndarray,
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

