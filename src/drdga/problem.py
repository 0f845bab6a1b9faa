"""Coupled constrained problems: per-agent objectives, box sets, and coupling data.

The global problem is  min sum_i f_i(x_i)  over box sets  X_i = [lower_i, upper_i],
subject to the coupling equality  sum_i (A_i x_i - b_i) = 0.  Each f_i is
tau_i-strongly convex on its box and carries a regularization weight gamma_i
used by the dual algorithm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidProblemError

# Disutility scale and offset of the rate-utility family: f(x) = -SCALE*w*log(x + OFFSET).
RATE_UTILITY_SCALE = 20.0
RATE_UTILITY_OFFSET = 0.1


@dataclass(frozen=True)
class DiagonalQuadratic:
    """f(x) = 0.5 * sum_k diag_k x_k^2 + sum_k lin_k x_k, with diag > 0."""

    diag: np.ndarray
    lin: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "lin", np.asarray(self.lin, dtype=float))
        if self.diag.shape != self.lin.shape or self.diag.ndim != 1:
            raise InvalidProblemError("diag and lin must be 1-d vectors of equal length")
        if np.any(self.diag <= 0):
            raise InvalidProblemError("diagonal curvature entries must be positive")

    @property
    def modulus(self) -> float:
        return float(self.diag.min())

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * self.diag @ (x * x) + self.lin @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.diag * x + self.lin


@dataclass(frozen=True)
class LogUtility:
    """Scalar rate disutility f(x) = -20 w log(x + 0.1), decreasing on x >= 0.

    Strongly convex on [0, 1] with modulus 20 w / 1.21 (the second derivative
    20 w / (x + 0.1)^2 is smallest at x = 1).
    """

    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise InvalidProblemError("utility weight must be non-negative")

    @property
    def modulus(self) -> float:
        return RATE_UTILITY_SCALE * self.weight / (1.0 + RATE_UTILITY_OFFSET) ** 2

    def value(self, x) -> float:
        x = float(np.asarray(x).reshape(()))
        return -RATE_UTILITY_SCALE * self.weight * np.log(x + RATE_UTILITY_OFFSET)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(1)
        return -RATE_UTILITY_SCALE * self.weight / (x + RATE_UTILITY_OFFSET)


Objective = Union[DiagonalQuadratic, LogUtility]


@dataclass(frozen=True)
class AgentProblem:
    """One agent: objective, box set, coupling rows, and dual regularization weight."""

    objective: Objective
    lower: np.ndarray
    upper: np.ndarray
    A: np.ndarray
    b: np.ndarray
    tau: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise InvalidProblemError("box bounds must be 1-d vectors of equal length")
        if np.any(self.lower > self.upper):
            raise InvalidProblemError("box is empty: lower > upper somewhere")
        if self.A.ndim != 2 or self.A.shape[1] != self.lower.size:
            raise InvalidProblemError("A must be p-by-n for the agent's dimension n")
        if self.b.shape != (self.A.shape[0],):
            raise InvalidProblemError("b must be a p-vector matching A's row count")
        if self.tau <= 0:
            raise InvalidProblemError("strong-convexity modulus tau must be positive")
        if self.gamma <= 0:
            raise InvalidProblemError("regularization weight gamma must be positive")
        declared = getattr(self.objective, "modulus", None)
        if declared is not None and declared < self.tau - 1e-12:
            raise InvalidProblemError(
                f"objective modulus {declared} is below the declared tau {self.tau}"
            )

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(frozen=True)
class CoupledProblem:
    """The m agents of one experiment plus the shared coupling dimension p."""

    agents: tuple[AgentProblem, ...]
    p: int

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise InvalidProblemError("a coupled problem needs at least one agent")
        for k, agent in enumerate(self.agents):
            if agent.A.shape[0] != self.p:
                raise InvalidProblemError(
                    f"agent {k + 1}: A has {agent.A.shape[0]} rows, expected p = {self.p}"
                )

    @property
    def m(self) -> int:
        return len(self.agents)

    @property
    def gamma_total(self) -> float:
        return float(sum(a.gamma for a in self.agents))

    def objective_value(self, xs) -> float:
        return float(sum(a.objective.value(x) for a, x in zip(self.agents, xs)))

    def coupling_residual(self, xs) -> np.ndarray:
        """sum_i (A_i x_i - b_i); zero exactly on coupling-feasible points."""
        r = np.zeros(self.p)
        for a, x in zip(self.agents, xs):
            r += a.A @ np.asarray(x, dtype=float) - a.b
        return r


def make_num_problem(routing, capacities, gammas) -> CoupledProblem:
    """Rate-allocation instance: one scalar agent per source, one coupling row per link.

    ``routing`` is the 0/1 link-by-source incidence matrix. Source s gets the
    log disutility with weight w_s = (links used by s) / (total links), rate
    box [0, 1], coupling column A_s = routing[:, s], and the equal capacity
    split b_s = capacities / m so the per-agent offsets sum to the capacities.
    """
    R = np.asarray(routing, dtype=float)
    c = np.asarray(capacities, dtype=float)
    g = np.asarray(gammas, dtype=float)
    if R.ndim != 2:
        raise InvalidProblemError("routing must be a 2-d 0/1 matrix (links x sources)")
    n_links, n_sources = R.shape
    if not np.all((R == 0) | (R == 1)):
        raise InvalidProblemError("routing entries must be 0 or 1")
    if c.shape != (n_links,) or not np.all((c > 0) & np.isfinite(c)):
        raise InvalidProblemError("capacities must be positive and finite, one per link")
    if g.shape != (n_sources,) or not np.all((g > 0) & np.isfinite(g)):
        raise InvalidProblemError("gammas must be positive and finite, one per source")
    used = R.sum(axis=0)
    if np.any(used == 0):
        idx = int(np.argmin(used)) + 1
        raise InvalidProblemError(f"source {idx} uses no link (zero routing column)")
    agents = []
    for s in range(n_sources):
        w = used[s] / n_links
        objective = LogUtility(weight=w)
        agents.append(
            AgentProblem(
                objective=objective,
                lower=np.zeros(1),
                upper=np.ones(1),
                A=R[:, s : s + 1],
                b=c / n_sources,
                tau=objective.modulus,
                gamma=float(g[s]),
            )
        )
    return CoupledProblem(agents=tuple(agents), p=n_links)


def make_quadratic_problem(
    m: int,
    p: int,
    dims,
    seed: int,
    tau_min: float,
    gamma: float = 1.0,
) -> CoupledProblem:
    """Random diagonal-quadratic family, feasible by construction.

    Curvatures are drawn in [tau_min, 10 tau_min], boxes are [-1, 1]^n_i, and
    each b_i = A_i x0_i for a random interior point x0_i, so the stacked
    interior point satisfies the coupling exactly. Deterministic in ``seed``.
    """
    if m < 1 or p < 1:
        raise InvalidProblemError("need m >= 1 and p >= 1")
    if not tau_min > 0 or not np.isfinite(tau_min):
        raise InvalidProblemError("tau_min must be positive and finite")
    if np.isscalar(dims):
        dims = [int(dims)] * m
    dims = [int(n) for n in dims]
    if len(dims) != m or any(n < 1 for n in dims):
        raise InvalidProblemError("dims must list one positive dimension per agent")
    rng = np.random.default_rng(seed)
    agents = []
    for n in dims:
        diag = rng.uniform(tau_min, 10.0 * tau_min, size=n)
        lin = rng.uniform(-1.0, 1.0, size=n)
        A = rng.uniform(-1.0, 1.0, size=(p, n))
        x0 = rng.uniform(-0.9, 0.9, size=n)
        agents.append(
            AgentProblem(
                objective=DiagonalQuadratic(diag=diag, lin=lin),
                lower=-np.ones(n),
                upper=np.ones(n),
                A=A,
                b=A @ x0,
                tau=tau_min,
                gamma=gamma,
            )
        )
    return CoupledProblem(agents=tuple(agents), p=p)


def compute_G_bound(agent: AgentProblem) -> float:
    """Upper bound on ||A_i x - b_i|| over the agent's box.

    For n <= 20 the exact maximum: ||A x - b|| is convex in x, so it peaks at
    a box vertex, and all 2^n vertices are enumerated. Larger n falls back to
    the Frobenius-norm bound ||A||_F ||max(|lower|, |upper|)|| + ||b||.
    """
    n = agent.dim
    if n <= 20:
        best = 0.0
        for bits in itertools.product((0, 1), repeat=n):
            vertex = np.where(np.asarray(bits, dtype=bool), agent.upper, agent.lower)
            best = max(best, float(np.linalg.norm(agent.A @ vertex - agent.b)))
        return best
    corner = np.maximum(np.abs(agent.lower), np.abs(agent.upper))
    return float(
        np.linalg.norm(agent.A, "fro") * np.linalg.norm(corner) + np.linalg.norm(agent.b)
    )
