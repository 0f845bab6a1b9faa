"""Coupled constrained problems, stacked into arrays, and their per-family closed forms.

The global problem is  min sum_i f_i(x_i)  over box sets  X_i = [lower_i, upper_i],
subject to the coupling equality  sum_i (A_i x_i - b_i) = 0.  Each f_i is
tau_i-strongly convex on its box and carries a regularization weight gamma_i
used by the dual algorithm.

AgentProblem and the objective records validate one agent's input. A
CoupledProblem stacks its agents into arrays once, at construction: A is
(m, p, n_max), b is (m, p), the boxes are (m, n_max), and the family's
parameters are diag/lin (m, n_max) or weights (m,). An agent with fewer than
n_max variables is padded with degenerate coordinates (box [0, 0], zero A
columns, diag 1, lin 0), so its padded coordinates solve to exactly 0.
Iterates x use the same (m, n_max) layout; agent_values and solve_local
evaluate and minimize every agent at once, one closed form per family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidProblemError

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


@dataclass(frozen=True)
class AgentProblem:
    """One agent: objective, box set, coupling rows, and dual regularization weight."""

    objective: DiagonalQuadratic | LogUtility
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
        if not isinstance(self.objective, (DiagonalQuadratic, LogUtility)):
            raise InvalidProblemError(f"unsupported objective {type(self.objective).__name__}")
        n_obj = self.objective.diag.size if isinstance(self.objective, DiagonalQuadratic) else 1
        if n_obj != self.lower.size:
            raise InvalidProblemError(
                f"objective has {n_obj} variables but the box has {self.lower.size}"
            )
        if self.objective.modulus < self.tau - 1e-12:
            raise InvalidProblemError(
                f"objective modulus {self.objective.modulus} is below the declared tau {self.tau}"
            )

    @property
    def dim(self) -> int:
        return self.lower.size


def _sum_agents(values: np.ndarray) -> np.ndarray:
    """Sum over the agent axis strictly left to right.

    numpy's pairwise summation rounds differently once there are 8 or more
    agents; a running sum keeps the order of a plain loop over agents.
    """
    return np.add.accumulate(values, axis=0)[-1]


def _stack_padded(rows, n: int, fill: float = 0.0) -> np.ndarray:
    """Stack per-agent arrays, padding the last (variable) axis to n with fill."""
    out = np.full((len(rows),) + rows[0].shape[:-1] + (n,), fill)
    for i, r in enumerate(rows):
        out[i, ..., : r.shape[-1]] = r
    return out


@dataclass(frozen=True)
class CoupledProblem:
    """The m agents of one experiment, all of one objective family, plus the
    shared coupling dimension p.

    Construction adds the stacked arrays of the module docstring as the
    attributes A, b, lower, upper, gammas, and diag, lin (DiagonalQuadratic)
    or weights (LogUtility), the other family's being None; ``family`` is the
    objective class and ``dims`` the agents' own dimensions.
    """

    agents: tuple[AgentProblem, ...]
    p: int

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise InvalidProblemError("a coupled problem needs at least one agent")
        for k, agent in enumerate(agents):
            if agent.A.shape[0] != self.p:
                raise InvalidProblemError(
                    f"agent {k + 1}: A has {agent.A.shape[0]} rows, expected p = {self.p}"
                )
        objectives = [a.objective for a in agents]
        families = {type(o) for o in objectives}
        if len(families) > 1:
            names = ", ".join(sorted(f.__name__ for f in families))
            raise InvalidProblemError(f"agents mix objective families ({names})")
        family = families.pop()
        quadratic = family is DiagonalQuadratic
        n = max(a.dim for a in agents)
        for name, value in (
            ("agents", agents),
            ("family", family),
            ("dims", tuple(a.dim for a in agents)),
            ("A", _stack_padded([a.A for a in agents], n)),
            ("b", np.stack([a.b for a in agents])),
            ("lower", _stack_padded([a.lower for a in agents], n)),
            ("upper", _stack_padded([a.upper for a in agents], n)),
            ("gammas", np.array([a.gamma for a in agents])),
            ("diag", _stack_padded([o.diag for o in objectives], n, 1.0) if quadratic else None),
            ("lin", _stack_padded([o.lin for o in objectives], n) if quadratic else None),
            ("weights", None if quadratic else np.array([o.weight for o in objectives])),
        ):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.agents)

    @property
    def gamma_total(self) -> float:
        return float(_sum_agents(self.gammas))

    def agent_values(self, x) -> np.ndarray:
        """Per-agent objective values f_i(x_i) of stacked iterates x, shape (m,)."""
        x = np.asarray(x, dtype=float)
        if self.family is LogUtility:
            return -RATE_UTILITY_SCALE * self.weights * np.log(x[:, 0] + RATE_UTILITY_OFFSET)
        quad = np.matmul((0.5 * self.diag)[:, None, :], (x * x)[:, :, None])
        lin = np.matmul(self.lin[:, None, :], x[:, :, None])
        return (quad + lin)[:, 0, 0]

    def objective_value(self, x) -> float:
        return float(_sum_agents(self.agent_values(x)))

    def coupling_terms(self, x) -> np.ndarray:
        """Per-agent coupling terms A_i x_i - b_i of stacked iterates x, shape (m, p)."""
        x = np.asarray(x, dtype=float)
        return np.matmul(self.A, x[:, :, None])[:, :, 0] - self.b

    def coupling_residual(self, x) -> np.ndarray:
        """sum_i (A_i x_i - b_i); zero exactly on coupling-feasible points."""
        return _sum_agents(self.coupling_terms(x))


def solve_local(problem: CoupledProblem, lam: np.ndarray) -> np.ndarray:
    """Row i is the unique minimizer of f_i(x) + lambda_i^T (A_i x - b_i) over
    agent i's box; ``lam`` is (m, p), the result (m, n_max).

    The term of agent i's Lagrangian that depends only on lambda_i is
    constant in x and dropped.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.m, problem.p):
        raise InvalidInputError(
            f"lambda has shape {lam.shape}, expected ({problem.m}, {problem.p})"
        )
    if not np.all(np.isfinite(lam)):
        raise InvalidInputError("lambda must be finite")
    # Batched matmul repeats each agent's own A_i^T lambda_i product bit for bit.
    price = np.matmul(problem.A.swapaxes(1, 2), lam[:, :, None])[:, :, 0]
    if problem.family is DiagonalQuadratic:
        # Stationarity diag*x + lin + price = 0, clipped to the box.
        x = (-problem.lin - price) / problem.diag
    else:
        # Stationarity 20 w / (x + 0.1) = price. A non-positive price leaves
        # the inner objective decreasing on the box: x sits at the upper bound.
        positive = price > 0
        x = np.where(
            positive,
            RATE_UTILITY_SCALE * problem.weights[:, None] / np.where(positive, price, 1.0)
            - RATE_UTILITY_OFFSET,
            problem.upper,
        )
    return np.clip(x, problem.lower, problem.upper)


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
