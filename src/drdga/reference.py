"""Centralized certified solver used as the gap oracle.

It solves  min sum_i f_i(x_i)  over the boxes, subject to
sum_i (A_i x_i - b_i) = 0, with numpy alone, by maximizing the concave dual
function d(lambda) = F(x(lambda)) + lambda^T r(lambda). Here x(lambda) is the
exact minimizer of the Lagrangian that :func:`solve_local` returns, and its
coupling residual r(lambda) is d's gradient.

1. **Dual Newton.** Each step is a semismooth Newton step (Qi & Sun, Math.
   Program. 58, 1993) with the Levenberg-Marquardt shift mu = ||r|| / 100
   (Yamashita & Fukushima, Computing Suppl. 15, 2001): it solves
   (H + mu I) s = r, with H = A J A^T and J = -dx/d(price) on the coordinates
   of x(lambda) strictly inside their boxes, 0 elsewhere. The shift keeps a
   step finite where H is singular, as on a multiplier ray. The step length
   comes from an Armijo search on d, which doubles the step while d keeps
   rising, and halves it otherwise. At most MAX_STEPS steps.
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
from .problem import (
    RATE_UTILITY_OFFSET,
    CoupledProblem,
    LogUtility,
    _sum_agents,
    solve_local,
)

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

    L = sum_i ||A_i||^2 / tau_i bounds the dual gradient's Lipschitz constant,
    with tau_i = ``problem.modulus[i]``. When L = 0 no free coordinate moves
    the coupling, so x(lambda) is one point for every lambda: the minimizer at
    lambda = 0 is the answer, and its certificate needs no second local solve.
    """
    lipschitz = _sum_agents(np.linalg.norm(problem.A, 2, axis=(1, 2)) ** 2 / problem.modulus)
    lam = np.zeros(problem.p)
    point, steps = _dual_point(problem, lam), 0
    if lipschitz:
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
    """Dual Newton steps from lambda and its :func:`_dual_point`: (lambda, point, steps).

    A step t s is accepted when d rises by at least 1e-4 of its linear
    prediction t r^T s (Armijo), or when d holds within its rounding and
    ||r|| halves. A full step that raises d beyond rounding is doubled while
    d keeps rising beyond rounding; doubling to 2^30 means d rises along a
    ray, so the problem is infeasible and the loop stops for the phase-1 LP
    to decide. Otherwise the step is halved, at most 30 times. The loop also
    stops when ||r|| is within its rounding, when no step is accepted, and
    once the point is certified and the accepted step would not halve ||r||.

    Coordinates are flattened agent by agent, so column k of the (p, m n_max)
    coupling matrix is coordinate k.
    """
    A = problem.A.transpose(1, 0, 2).reshape(problem.p, -1)
    log = problem.family is LogUtility
    steps = 0
    while steps < MAX_STEPS:
        norm = np.linalg.norm(point.residual)
        if norm <= point.residual_noise:
            break
        # -dx/d(price): 1/diag, or (x + 0.1)^2 / (20 w) where x = 20 w / price - 0.1.
        slope = (point.x + RATE_UTILITY_OFFSET) ** 2 / problem.scale if log else 1.0 / problem.diag
        inside = (problem.lower < point.x) & (point.x < problem.upper)
        J = np.where(inside, slope, 0.0).ravel()
        w, V = np.linalg.eigh((A * J) @ A.T)
        s = V @ ((V.T @ point.residual) / (np.maximum(w, 0.0) + norm / 100.0))
        ascent = float(point.residual @ s)
        t, trial = 1.0, _dual_point(problem, lam + s)
        if trial.dual >= point.dual + 1e-4 * ascent and trial.dual > point.dual + point.dual_noise:
            for _ in range(30):
                longer = _dual_point(problem, lam + 2.0 * t * s)
                if not longer.dual > trial.dual + longer.dual_noise:
                    break
                t, trial = 2.0 * t, longer
            else:
                return lam + t * s, trial, steps + 1  # d rises along a ray
        else:
            while not (trial.dual >= point.dual + 1e-4 * t * ascent or (
                    trial.dual >= point.dual - point.dual_noise
                    and np.linalg.norm(trial.residual) <= norm / 2)):
                if t <= 2.0**-30:
                    return lam, point, steps  # no step is accepted
                t *= 0.5
                trial = _dual_point(problem, lam + t * s)
        if _certified(point) and not np.linalg.norm(trial.residual) <= norm / 2:
            break
        lam, point, steps = lam + t * s, trial, steps + 1
    return lam, point, steps


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
