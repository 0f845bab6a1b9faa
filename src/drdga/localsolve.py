"""Per-agent inner minimization.

solve_local minimizes  f_i(x) + lambda^T (A_i x - b_i)  over the agent's box;
the term of the per-agent Lagrangian that depends only on lambda is constant
in x and dropped. Both objective families have closed forms.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .problem import (
    RATE_UTILITY_OFFSET,
    RATE_UTILITY_SCALE,
    AgentProblem,
    DiagonalQuadratic,
    LogUtility,
)


def solve_local(agent: AgentProblem, lam: np.ndarray) -> np.ndarray:
    """Unique minimizer of f_i(x) + lambda^T (A_i x - b_i) over the agent's box."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (agent.A.shape[0],):
        raise InvalidInputError(
            f"lambda has shape {lam.shape}, expected ({agent.A.shape[0]},)"
        )
    if not np.all(np.isfinite(lam)):
        raise InvalidInputError("lambda must be finite")
    price = agent.A.T @ lam
    obj = agent.objective

    if isinstance(obj, DiagonalQuadratic):
        # Stationarity diag*x + lin + price = 0, clipped to the box.
        return np.clip((-obj.lin - price) / obj.diag, agent.lower, agent.upper)

    if isinstance(obj, LogUtility):
        rho = float(price[0])
        if rho <= 0:
            # Non-positive price: the inner objective is decreasing on the box.
            return agent.upper.copy()
        x = RATE_UTILITY_SCALE * obj.weight / rho - RATE_UTILITY_OFFSET
        return np.clip(np.array([x]), agent.lower, agent.upper)

    raise InvalidInputError(f"unknown objective type {type(obj).__name__}")
