"""Centralized certified solver used as the gap oracle.

It solves  min sum_i f_i(x_i)  over the boxes, subject to
sum_i (A_i x_i - b_i) = 0, with numpy alone, in three steps:

1. **Warm start.** WARM_STEPS steps of dual ascent with the fixed step 1/L.
   They only seed the active set: the coordinates at a bound in x(lambda),
   the exact minimizer of the Lagrangian that :func:`solve_local` returns.
2. **Active-set polish.** Every active coordinate, and every fixed one, is
   held at its bound. The free coordinates' coupling columns are reduced to
   their rank by an SVD, and the equality-constrained problem on the free
   coordinates is solved by infeasible-start Newton (Boyd & Vandenberghe,
   *Convex Optimization*, 2004, section 10.3). If no free coordinate leaves
   its box and no active bound multiplier has the wrong sign, the point is
   optimal. Otherwise lambda steps toward the subproblem's multiplier, and
   x(lambda)'s bounds give the next active set: a coordinate that left its
   box joins it, a wrongly signed one leaves it. Each step raises the dual
   function d (an Armijo backtracking search), so the active sets cannot
   cycle. At most MAX_PASSES passes.
3. **Certificate.** The primal residual ||sum_i (A_i x_i - b_i)|| must be at
   most RESIDUAL_TOL, and the duality gap F(x) - d(lambda) at most
   GAP_RTOL * max(1, |F(x)|) in magnitude, with d evaluated at x(lambda).
   lambda comes from a Lawson-Hanson NNLS fit of
   grad f + A^T lambda - mu_lo + mu_hi = 0  with mu >= 0 on the active
   bounds only.

An answer that fails its certificate is never returned. A phase-1 linear
program over the boxes and the coupling rows (scipy's HiGHS, imported only
then) either proves the problem infeasible, raising InfeasibleProblemError,
or the solver raises UncertifiedSolutionError.

The oracle solves the unregularized problem. The regularized algorithm's
fixed point is perturbed away from this solution by its regularization, so
gap metrics measured against this oracle carry that offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, UncertifiedSolutionError
from .problem import (
    RATE_UTILITY_OFFSET,
    RATE_UTILITY_SCALE,
    CoupledProblem,
    LogUtility,
    _sum_agents,
    solve_local,
)

WARM_STEPS = 30
MAX_PASSES = 50
MAX_NEWTON_STEPS = 50
# The certificate: an answer is returned only within both thresholds.
RESIDUAL_TOL = 1e-9
GAP_RTOL = 1e-9
# Relative floors below which a Newton residual counts as zero, a coupling
# residual as one the free coordinates close (and a coordinate as inside
# its box), and a multiplier or slope as zero.
_NEWTON_RTOL = 1e-13
_CONSISTENT_RTOL = 1e-12
_SIGN_RTOL = 1e-10
# Relative size below which a multiplier direction prices no coordinate.
_PRICING_RTOL = 1e-8


@dataclass(frozen=True)
class ReferenceSolution:
    """Primal solution (m, n_max), its objective value, the multiplier that
    certifies it, both certificate parts (``violation``, the primal residual
    norm, and ``duality_gap``), and the active-set passes and Newton steps
    the polish took."""

    x: np.ndarray
    objective: float
    multiplier: np.ndarray
    violation: float
    duality_gap: float
    active_set_passes: int
    newton_steps: int


def solve_centralized(problem: CoupledProblem) -> ReferenceSolution:
    """Solve the coupled problem and certify the answer, as the module docstring says.

    L = sum_i ||A_i||^2 / tau_i bounds the dual gradient's Lipschitz constant,
    with tau_i = ``problem.modulus[i]``. When L = 0 no free coordinate moves
    the coupling, so x(lambda) is one point for every lambda: the minimizer at
    lambda = 0 is the answer, and its certificate needs no second local solve.
    """
    lipschitz = _sum_agents(np.linalg.norm(problem.A, 2, axis=(1, 2)) ** 2 / problem.modulus)
    lam = np.zeros(problem.p)
    x, residual, dual = _dual_point(problem, lam)
    passes = newton_steps = 0
    if lipschitz:
        for _ in range(WARM_STEPS):
            lam = lam + residual / lipschitz
            x, residual, dual = _dual_point(problem, lam)
        x, lam, passes, newton_steps = _polish(problem, lam, (x, residual, dual), lipschitz)
        dual = _dual_point(problem, lam)[2]
    violation = float(np.linalg.norm(problem.coupling_residual(x)))
    objective = problem.objective_value(x)
    gap = objective - dual
    if violation <= RESIDUAL_TOL and abs(gap) <= GAP_RTOL * max(1.0, abs(objective)):
        return ReferenceSolution(
            x=x, objective=objective, multiplier=lam, violation=violation, duality_gap=gap,
            active_set_passes=passes, newton_steps=newton_steps,
        )
    if _proved_infeasible(problem):
        raise InfeasibleProblemError(
            "no point of the boxes satisfies the coupling (phase-1 LP infeasible)"
        )
    raise UncertifiedSolutionError(
        f"the oracle's answer failed its certificate: primal residual {violation:.3g} "
        f"(limit {RESIDUAL_TOL:g}), duality gap {gap:.3g} "
        f"(limit {GAP_RTOL * max(1.0, abs(objective)):.3g})"
    )


def _polish(problem: CoupledProblem, lam: np.ndarray, point, lipschitz: float):
    """Active-set passes from the warm start: (x, lambda, passes, Newton steps).

    ``point`` is lambda's :func:`_dual_point`, and L = ``lipschitz`` > 0.
    Each pass solves the subproblem of the module docstring on the free
    coordinates of x(lambda), for (z, lambda+), and returns them when they
    are a KKT point. Otherwise lambda moves toward lambda+ by the longest of
    the steps 1, 1/2, 1/4, ... that raises d by at least 1e-4 of its linear
    prediction; a step shorter than the dual-ascent step 1/L is replaced by
    that step, which always raises d.

    When the free coordinates cannot close the coupling residual with the
    others at their bounds, no lambda+ exists: d rises along the residual's
    unreachable part until an active coordinate that could close it comes
    off its bound, and lambda moves along that direction instead.

    Coordinates are flattened agent by agent, so column k of the (p, m n_max)
    coupling matrix is coordinate k. ``side`` is +1 for a coordinate held at
    its lower bound, -1 at its upper bound and 0 for a free one.
    """
    A = problem.A.transpose(1, 0, 2).reshape(problem.p, -1)
    b = _sum_agents(problem.b)
    lower, upper = problem.lower.ravel(), problem.upper.ravel()
    fixed = lower == upper
    a_norm = np.linalg.norm(A, 2)
    x, residual, value = point
    z, lam_plus = x.ravel(), lam
    passes = newton_steps = 0
    for passes in range(1, MAX_PASSES + 1):
        z = x.ravel()
        side = np.where(z == lower, 1, np.where(z == upper, -1, 0))
        side[fixed] = 1
        free, active = side == 0, (side != 0) & ~fixed
        z = np.where(free, z, np.where(side > 0, lower, upper))
        U, S, _ = np.linalg.svd(A[:, free])
        rank = int((S > S[:1] * max(A.shape) * np.finfo(float).eps).sum())
        basis, null = U[:, :rank], U[:, rank:]
        target = b - A[:, ~free] @ z[~free]
        z[free], nu, steps = _newton(problem, z, free, basis.T @ A[:, free], basis.T @ target)
        newton_steps += steps
        grad = _derivatives(problem, z)[0]
        # The part of the coupling residual that no move of the free
        # coordinates can close.
        stuck = null @ (null.T @ (A @ z - b))
        # The step's goal: the subproblem's multiplier, with lambda's
        # component along the null space, which no free coordinate prices.
        goal = basis @ nu + null @ (null.T @ lam)
        if np.linalg.norm(stuck) > _CONSISTENT_RTOL * max(1.0, np.linalg.norm(target)):
            # d rises along lambda + t * stuck until an active coordinate
            # whose move could close the residual comes off its bound. Step
            # twice as far as the first such breakpoint, and at least the
            # dual-ascent step 1/L.
            slope = side * (A.T @ stuck)
            movers = active & (slope < -_SIGN_RTOL * np.abs(slope).max(initial=0.0))
            if not movers.any():
                break  # no coordinate can close it: the certificate fails
            breakpoints = (side * (grad + A.T @ goal))[movers] / -slope[movers]
            goal = goal + max(2.0 * max(breakpoints.min(), 0.0), 1.0 / lipschitz) * stuck
            lam_plus = goal
        else:
            lam_plus = basis @ nu
            lam_plus = lam_plus + null @ _fit_null_component(
                grad[active] + A[:, active].T @ lam_plus, A[:, active].T @ null, side[active],
                a_norm)
            signed = side * (grad + A.T @ lam_plus)
            scale = max(1.0, np.abs(grad[active]).max(initial=0.0))
            slack = _CONSISTENT_RTOL * (1.0 + np.abs(z))
            wrong = (active & (signed < -_SIGN_RTOL * scale)) | (
                free & ((z < lower - slack) | (z > upper + slack)))
            if not wrong.any():
                break  # a KKT point
        direction = goal - lam
        ascent = max(float(residual @ direction), 0.0)
        t = 1.0
        while True:
            trial = lam + t * direction
            x_trial, residual_trial, value_trial = _dual_point(problem, trial)
            if value_trial >= value + 1e-4 * t * ascent:
                break
            t *= 0.5
            if t * np.linalg.norm(direction) < np.linalg.norm(residual) / lipschitz:
                # Shorter than a dual-ascent step: take that step instead,
                # which always raises d.
                trial = lam + residual / lipschitz
                x_trial, residual_trial, value_trial = _dual_point(problem, trial)
                break
        lam, x, residual, value = trial, x_trial, residual_trial, value_trial
    # A pass cap can stop the loop with a free coordinate outside its box.
    z = np.minimum(np.maximum(z, lower), upper)
    return z.reshape(x.shape), lam_plus, passes, newton_steps


def _dual_point(problem: CoupledProblem, lam: np.ndarray):
    """x(lambda), its coupling residual and the dual function d(lambda)."""
    x = solve_local(problem, np.broadcast_to(lam, (problem.m, problem.p)))
    residual = problem.coupling_residual(x)
    return x, residual, problem.objective_value(x) + float(lam @ residual)


def _fit_null_component(stationarity, directions, side, scale):
    """The t that best makes lambda + N t stationary on the active coordinates.

    Row k of ``stationarity`` is grad_k f + a_k^T lambda at an active
    coordinate k, and row k of ``directions`` is a_k^T N, with N a basis of
    the multipliers that leave every free coordinate stationary. Directions
    that price the active coordinates below _PRICING_RTOL * ``scale``, with
    ``scale`` = ||A||, leave the fit: they price nothing but rounding, which a
    fitted coefficient near 1/rounding would turn into a wrong multiplier.
    The fit is the NNLS problem in
    (t+, t-, mu) >= 0 with residual
    stationarity + directions (t+ - t-) - side * mu: each bound contributes
    one indexed column, -side[k] in row k.
    """
    _, S, Vt = np.linalg.svd(directions, full_matrices=False)
    Vt = Vt[S > _PRICING_RTOL * scale]
    directions = directions @ Vt.T
    n_active, n_null = directions.shape
    if not (n_active and n_null):
        return np.zeros(Vt.shape[1])
    M = np.zeros((n_active, 2 * n_null + n_active))
    M[:, :n_null], M[:, n_null : 2 * n_null] = directions, -directions
    M[np.arange(n_active), 2 * n_null + np.arange(n_active)] = -side
    v = nnls(M, -stationarity)
    return Vt.T @ (v[:n_null] - v[n_null : 2 * n_null])


def _derivatives(problem: CoupledProblem, z: np.ndarray):
    """Gradient and diagonal Hessian of sum_i f_i at the flattened point z."""
    if problem.family is LogUtility:
        # One coordinate per agent: f = -20 w log(z + 0.1).
        scale = RATE_UTILITY_SCALE * problem.weights
        shifted = z + RATE_UTILITY_OFFSET
        return -scale / shifted, scale / (shifted * shifted)
    diag = problem.diag.ravel()
    return diag * z + problem.lin.ravel(), diag


def _newton(problem: CoupledProblem, z: np.ndarray, free: np.ndarray, C: np.ndarray,
            d: np.ndarray):
    """Infeasible-start Newton for  min f(z) over the free coordinates s.t. C z_free = d.

    C has full row rank. Each step solves the KKT system through its Schur
    complement C H^-1 C^T, H the diagonal Hessian, and backtracks on the norm
    of the KKT residual (g + C^T nu, C z_free - d). The log family's steps
    also keep z > -0.1, where its objective is defined. The quadratic family
    takes one full step. Returns (z_free, nu, steps).
    """
    floor = -RATE_UTILITY_OFFSET if problem.family is LogUtility else -np.inf
    point = z.copy()

    def kkt(z_free, nu):
        point[free] = z_free
        g, h = (a[free] for a in _derivatives(problem, point))
        primal = C @ z_free - d
        return g, h, primal, np.hypot(np.linalg.norm(g + C.T @ nu), np.linalg.norm(primal))

    z_free, nu = z[free], np.zeros(len(d))
    g, h, primal, norm = kkt(z_free, nu)
    steps = 0
    while steps < MAX_NEWTON_STEPS and norm > _NEWTON_RTOL * (
        1.0 + np.abs(g).max(initial=0.0) + np.abs(d).max(initial=0.0)
    ):
        scaled = C / h
        nu_next = np.linalg.solve(scaled @ C.T, primal - scaled @ g)
        dz, dnu = -(g + C.T @ nu_next) / h, nu_next - nu
        t = 1.0
        while t > 1e-10 and np.any(z_free + t * dz <= floor):
            t *= 0.5
        trial = kkt(z_free + t * dz, nu + t * dnu)
        while t > 1e-10 and not trial[3] <= (1.0 - 0.01 * t) * norm:
            t *= 0.5
            trial = kkt(z_free + t * dz, nu + t * dnu)
        if not trial[3] < norm:
            break  # at the rounding floor
        z_free, nu = z_free + t * dz, nu + t * dnu
        g, h, primal, norm = trial
        steps += 1
    return z_free, nu, steps


def nnls(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set NNLS: argmin ||M v - y|| over v >= 0.

    Lawson & Hanson, *Solving Least Squares Problems*, 1974, chapter 23, with
    at most 3 n column additions as in scipy. Each passive-set subproblem is
    solved by ``np.linalg.lstsq``, so a rank-deficient M gives a minimizer
    too; a column whose own coefficient would not be positive is passed over
    until the iterate moves.
    """
    n = M.shape[1]
    v = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    passed_over = np.zeros(n, dtype=bool)
    tol = 10 * np.finfo(float).eps * np.abs(M).sum(axis=0).max(initial=0.0) * max(M.shape)

    def least_squares():
        s = np.zeros(n)
        s[passive] = np.linalg.lstsq(M[:, passive], y, rcond=None)[0]
        return s

    for _ in range(3 * n):
        w = np.where(passive | passed_over, -np.inf, M.T @ (y - M @ v))
        j = int(np.argmax(w))
        if not w[j] > tol:
            break
        passive[j] = True
        s = least_squares()
        if not s[j] > tol:
            passive[j], passed_over[j] = False, True
            continue
        while not np.all(s[passive] > 0):
            # Step from v toward s until the first passive variable reaches 0.
            blocked = np.flatnonzero(passive & (s <= 0))
            ratios = v[blocked] / (v[blocked] - s[blocked])
            v = v + ratios.min() * (s - v)
            passive &= v > tol
            passive[blocked[np.argmin(ratios)]] = False
            v[~passive] = 0.0
            s = least_squares()
        v = s
        passed_over[:] = False
    return v


def _proved_infeasible(problem: CoupledProblem) -> bool:
    """Whether a phase-1 LP shows that no point of the boxes meets the coupling."""
    from scipy.optimize import linprog

    A = problem.A.transpose(1, 0, 2).reshape(problem.p, -1)
    bounds = np.column_stack([problem.lower.ravel(), problem.upper.ravel()])
    result = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=_sum_agents(problem.b), bounds=bounds,
                     method="highs")
    return result.status == 2
