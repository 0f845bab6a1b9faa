"""Centralized certified solver used as the gap oracle.

It solves  min sum_i f_i(x_i)  over the boxes, subject to
sum_i (A_i x_i - b_i) = 0, with numpy alone, by maximizing the concave dual
function d(lambda) = F(x(lambda)) + lambda^T r(lambda). Here x(lambda) is the
exact minimizer of the Lagrangian that :func:`solve_local` returns, and its
coupling residual r(lambda) is d's gradient.

1. **Proximal dual Newton** (Rockafellar, SIAM J. Control Optim. 14, 1976,
   as in SSNAL, Li, Sun & Toh, SIAM J. Optim. 28, 2018). Semismooth Newton
   steps (Qi & Sun, Math. Program. 58, 1993) maximize
   phi(lambda) = d(lambda) - (sigma/2) ||lambda - c||^2 about a moving center
   c, each solving (H + sigma I) s = grad phi, with H = A J A^T and
   J = -dx/d(price) on the coordinates of x(lambda) strictly inside their
   boxes, 0 elsewhere. phi is strongly concave, so one Armijo search that
   halves the step suffices; a d above the largest F on the boxes proves by
   weak duality that no feasible point exists. At most MAX_STEPS steps.
2. **Certificate.** The primal residual ||sum_i (A_i x_i - b_i)|| must be at
   most RESIDUAL_TOL, and the duality gap F(x) - d(lambda) at most
   GAP_RTOL * max(1, |F(x)|) in magnitude, with x = x(lambda).

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
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleProblemError, UncertifiedSolutionError
from .problem import CoupledProblem, _sum_agents, price_slope, solve_local

MAX_STEPS = 200
# The certificate: an answer is returned only within both thresholds.
RESIDUAL_TOL = 1e-9
GAP_RTOL = 1e-9


@dataclass(frozen=True)
class ReferenceSolution:
    """Primal solution (m, n_max), its objective value, the multiplier that
    certifies it, both certificate parts (``violation``, the primal residual
    norm, and ``duality_gap``), and the dual Newton steps it took."""

    x: np.ndarray
    objective: float
    multiplier: np.ndarray
    violation: float
    duality_gap: float
    newton_steps: int


class _Point(NamedTuple):
    """x(lambda), its coupling residual r, F(x), d(lambda), and the rounding
    of ||r|| and of d."""

    x: np.ndarray
    residual: np.ndarray
    objective: float
    dual: float
    residual_noise: float
    dual_noise: float


def solve_centralized(problem: CoupledProblem) -> ReferenceSolution:
    """Solve the coupled problem and certify the answer, as the module docstring says.

    The dual gradient's Lipschitz bound L = sum_i ||A_i||^2 / tau_i, with
    tau_i = ``problem.modulus[i]``, is 0 exactly when every agent with a
    finite modulus (some free coordinate) has A_i = 0. Then no free
    coordinate moves the coupling, so x(lambda) is one point for every
    lambda: the minimizer at lambda = 0 is the answer, and its certificate
    needs no second local solve.
    """
    lam = np.zeros(problem.p)
    point, steps = _dual_point(problem, lam), 0
    if problem.A[np.isfinite(problem.modulus)].any():
        lam, point, steps = _dual_newton(problem, lam, point)
    violation = float(np.linalg.norm(point.residual))
    objective, gap = point.objective, point.objective - point.dual
    if _certified(point):
        return ReferenceSolution(x=point.x, objective=objective, multiplier=lam,
                                 violation=violation, duality_gap=gap, newton_steps=steps)
    if _proved_infeasible(problem):
        raise InfeasibleProblemError(
            "no point of the boxes satisfies the coupling (phase-1 LP infeasible)"
        )
    raise UncertifiedSolutionError(
        f"the oracle's answer failed its certificate: primal residual {violation:.3g} "
        f"(limit {RESIDUAL_TOL:g}), duality gap {gap:.3g} "
        f"(limit {GAP_RTOL * max(1.0, abs(objective)):.3g})"
    )


def _dual_newton(problem: CoupledProblem, lam: np.ndarray, point: _Point):
    """Proximal Newton steps from lambda and its :func:`_dual_point`: (lambda, point, steps).

    A step t s is accepted when phi rises by 1e-4 of t grad(phi)^T s less d's
    rounding (Armijo), halving t from 1 at most 30 times. Once ||grad(phi)||
    <= max(rounding of ||r||, ||r|| / 2), the center moves to lambda and
    sigma, from 1, shrinks tenfold. The loop stops at a center move when ||r||
    is within its rounding, or when the point is certified and ||r|| did not
    halve since the last center; when no step is accepted; and once d exceeds
    :func:`_box_max` beyond its rounding. Coordinates are flattened agent by
    agent, so column k of the (p, m n_max) coupling matrix is coordinate k.
    """
    A = problem.A.transpose(1, 0, 2).reshape(problem.p, -1)
    ceiling, center, sigma, center_norm, steps = _box_max(problem), lam, 1.0, np.inf, 0
    while steps < MAX_STEPS and not point.dual > ceiling + point.dual_noise:
        norm = np.linalg.norm(point.residual)
        grad = point.residual - sigma * (lam - center)
        if np.linalg.norm(grad) <= max(point.residual_noise, norm / 2):
            if norm <= point.residual_noise or (_certified(point) and not norm <= center_norm / 2):
                break
            center, sigma, center_norm, grad = lam, sigma / 10, norm, point.residual
        inside = (problem.lower < point.x) & (point.x < problem.upper)
        J = np.where(inside, price_slope(problem, point.x), 0.0).ravel()
        w, V = np.linalg.eigh((A * J) @ A.T)
        s = V @ ((V.T @ grad) / (np.maximum(w, 0.0) + sigma))
        for t in 0.5 ** np.arange(31):
            trial = _dual_point(problem, lam + t * s)
            # phi(lambda + t s) - phi(lambda), with d's difference taken first.
            rise = trial.dual - point.dual - sigma * t * (s @ (lam - center) + t * (s @ s) / 2)
            if rise >= 1e-4 * t * (grad @ s) - point.dual_noise:
                break
        else:
            return lam, point, steps  # no step is accepted
        lam, point, steps = lam + t * s, trial, steps + 1
    return lam, point, steps


def _box_max(problem: CoupledProblem) -> float:
    """The largest F on the boxes: F(lower) plus each coordinate's gain
    max(0, F(lower with it at upper) - F(lower)), since each f_i is a sum of
    convex functions of one coordinate and every box is bounded."""
    n = problem.lower.shape[1]
    moved = np.where(np.eye(n, dtype=bool)[:, None, :], problem.upper, problem.lower)
    values = problem.agent_values(np.concatenate([problem.lower[None], moved]))
    return float(values[0].sum() + np.maximum(values[1:] - values[0], 0.0).sum())


def _dual_point(problem: CoupledProblem, lam: np.ndarray) -> _Point:
    """lambda's :class:`_Point`.

    With S = sum_i (|A_i| |x_i| + |b_i|), the rounding is 16 eps ||S|| for
    ||r|| and 16 eps (sum_i |f_i(x_i)| + |lambda|^T S) for d: A_i x_i - b_i can
    cancel to far below the size of its rounding.
    """
    x = solve_local(problem, np.broadcast_to(lam, (problem.m, problem.p)))
    values = problem.agent_values(x)
    residual = problem.coupling_residual(x)
    objective = float(_sum_agents(values))
    sizes = (np.matmul(np.abs(problem.A), np.abs(x)[..., None])[..., 0]
             + np.abs(problem.b)).sum(axis=0)
    eps = 16.0 * np.finfo(float).eps
    return _Point(x, residual, objective, objective + float(lam @ residual),
                  eps * float(np.linalg.norm(sizes)),
                  eps * (float(np.abs(values).sum()) + float(np.abs(lam) @ sizes)))


def _certified(point: _Point) -> bool:
    """Whether a :func:`_dual_point` passes the certificate of the module docstring."""
    return bool(np.linalg.norm(point.residual) <= RESIDUAL_TOL and abs(
        point.objective - point.dual) <= GAP_RTOL * max(1.0, abs(point.objective)))


def _proved_infeasible(problem: CoupledProblem) -> bool:
    """Whether a phase-1 LP shows that no point of the boxes meets the coupling."""
    from scipy.optimize import linprog

    A = problem.A.transpose(1, 0, 2).reshape(problem.p, -1)
    bounds = np.column_stack([problem.lower.ravel(), problem.upper.ravel()])
    result = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=_sum_agents(problem.b), bounds=bounds,
                     method="highs")
    return result.status == 2
