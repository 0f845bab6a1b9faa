"""Centralized high-accuracy solver used as the gap oracle.

Runs plain gradient ascent on the unregularized dual, which is differentiable
with a Lipschitz gradient because every agent objective is strongly convex.
The regularized algorithm's fixed point is perturbed away from this solution
by its regularization, so gap metrics measured against this oracle carry that
offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError
from .problem import CoupledProblem, _sum_agents, solve_local

_DIVERGENCE_NORM = 1e9


@dataclass(frozen=True)
class ReferenceSolution:
    """Primal solution (m, n_max), its objective value, and the multiplier that produced it."""

    x: np.ndarray
    objective: float
    multiplier: np.ndarray
    violation: float


def solve_centralized(
    problem: CoupledProblem, tol: float = 1e-6, max_iter: int = 200_000
) -> ReferenceSolution:
    """Ascend the unregularized dual with fixed step 1/L until the coupling
    residual norm falls below tol, 1e-6 by default.

    L = sum_i ||A_i||^2 / tau_i bounds the dual gradient's Lipschitz constant,
    with tau_i = ``problem.modulus[i]`` the strong-convexity modulus of f_i.
    When every A_i is zero (L = 0) the coupling is constant in x, and the
    first iterate, at lambda = 0, decides. Raises when the iteration cap is
    hit or the multiplier norm blows past 1e9, both of which indicate an
    unsatisfiable or ill-posed coupling.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lipschitz = _sum_agents(np.linalg.norm(problem.A, 2, axis=(1, 2)) ** 2 / problem.modulus)
    step = 1.0 / lipschitz if lipschitz else 0.0
    lam = np.zeros(problem.p)
    for _ in range(max_iter if lipschitz else 1):
        x = solve_local(problem, np.broadcast_to(lam, (problem.m, problem.p)))
        residual = problem.coupling_residual(x)
        gap_norm = float(np.linalg.norm(residual))
        if gap_norm <= tol:
            return ReferenceSolution(
                x=x,
                objective=problem.objective_value(x),
                multiplier=lam,
                violation=gap_norm,
            )
        lam = lam + step * residual
        if np.linalg.norm(lam) > _DIVERGENCE_NORM:
            break
    raise InfeasibleProblemError(
        "dual ascent did not close the coupling residual: "
        "the problem is infeasible or ill-posed at this tolerance"
    )
