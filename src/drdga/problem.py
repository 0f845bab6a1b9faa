"""Coupled constrained problems as stacked arrays, and their per-family closed forms.

The global problem is  min sum_i f_i(x_i)  over box sets  X_i = [lower_i, upper_i],
subject to the coupling equality  sum_i (A_i x_i - b_i) = 0.  Each f_i is
strongly convex on its box and carries a regularization weight gamma_i used
by the dual algorithm.

A CoupledProblem holds its m agents as stacked arrays: A is (m, p, n_max), b
is (m, p), the boxes are (m, n_max), gammas is (m,), and the family's
parameters are diag/lin (m, n_max) or weights (m,). An agent's own
coordinates are its free ones (lower < upper); a fixed one (lower == upper)
is a constant, whatever its A column, diag or lin. make_quadratic_problem
pads an agent with fewer than n_max variables with coordinates fixed at 0.
Iterates x use the same (m, n_max) layout; agent_values and solve_local
evaluate and minimize every agent at once, one closed form per family.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidProblemError

# Disutility scale and offset of the rate-utility family: f(x) = -SCALE*w*log(x + OFFSET).
RATE_UTILITY_SCALE = 20.0
RATE_UTILITY_OFFSET = 0.1


class DiagonalQuadratic:
    """Family tag: f_i(x) = 0.5 * sum_k diag_ik x_k^2 + sum_k lin_ik x_k, with diag > 0."""


class LogUtility:
    """Family tag: scalar rate disutility f_i(x) = -20 w_i log(x + 0.1), decreasing on x >= 0."""


def _sum_agents(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum over the agent axis ``axis`` strictly left to right.

    numpy's pairwise summation rounds differently once there are 8 or more
    agents; a running sum keeps the order of a plain loop over agents.
    """
    return np.add.accumulate(values, axis=axis).take(-1, axis=axis)


@dataclass(frozen=True, eq=False)
class CoupledProblem:
    """The m agents of one experiment, all of one objective family, as the
    stacked arrays of the module docstring.

    Give diag and lin for the DiagonalQuadratic family, or weights for the
    LogUtility family. Construction derives the attributes ``m``, ``p``,
    ``family`` (the family's tag class) and ``modulus``, the (m,)
    strong-convexity moduli of the f_i on their boxes: the smallest diag entry
    over each agent's free coordinates, or 20 w / 1.21 for the log family,
    and inf for an agent with no free coordinate.
    """

    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    gammas: np.ndarray
    diag: np.ndarray | None = None
    lin: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        quadratic = self.weights is None
        if quadratic == (self.diag is None or self.lin is None):
            raise InvalidProblemError("give either diag and lin, or weights")
        family_arrays = ("diag", "lin") if quadratic else ("weights",)
        for name in ("A", "b", "lower", "upper", "gammas") + family_arrays:
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise InvalidProblemError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.A.ndim != 3 or self.lower.ndim != 2:
            raise InvalidProblemError("A must be (m, p, n) and the box bounds (m, n)")
        m, p = self.A.shape[:2]
        n = self.lower.shape[1]
        if 0 in (m, p, n):
            raise InvalidProblemError("a coupled problem needs at least one agent, coupling row "
                                      f"and box column; got m = {m}, p = {p}, n = {n}")
        n_objective = self.diag.shape[-1] if quadratic and self.diag.ndim else 1
        if n_objective != n:
            raise InvalidProblemError(f"objective has {n_objective} variables but the box has {n}")
        shapes = {"A": (m, p, n), "b": (m, p), "lower": (m, n), "upper": (m, n),
                  "gammas": (m,)}
        shapes.update({"diag": (m, n), "lin": (m, n)} if quadratic else {"weights": (m,)})
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise InvalidProblemError(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape} "
                    f"for m = {m} agents, p = {p} coupling rows and n = {n} box columns"
                )
        for bad, message in (
            (self.lower > self.upper, "box is empty: lower > upper somewhere"),
            (self.gammas <= 0, "regularization weight gamma must be positive"),
            (self.diag <= 0, "diagonal curvature entries must be positive") if quadratic
            else (self.weights <= 0, "utility weight must be positive"),
        ):
            if np.any(bad):
                raise InvalidProblemError(message)
        # The log family's second derivative 20 w / (x + 0.1)^2 is smallest at x = 1.
        curvature = self.diag if quadratic else (
            RATE_UTILITY_SCALE * self.weights / (1.0 + RATE_UTILITY_OFFSET) ** 2)[:, None]
        # Free coordinates only: a fixed one is a constant and has no curvature.
        modulus = np.where(self.lower < self.upper, curvature, np.inf).min(axis=1)
        family = DiagonalQuadratic if quadratic else LogUtility
        for name, value in (("m", m), ("p", p), ("family", family), ("modulus", modulus)):
            object.__setattr__(self, name, value)

    @property
    def agents(self) -> tuple[CoupledProblem, ...]:
        """Agent i alone, as a one-agent problem at the padded width n_max."""
        fields = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]
        return tuple(
            dataclasses.replace(self, **{k: v[i : i + 1] for k, v in fields if v is not None})
            for i in range(self.m)
        )

    @property
    def gamma_total(self) -> float:
        return float(_sum_agents(self.gammas))

    def agent_values(self, x) -> np.ndarray:
        """Per-agent objective values f_i(x_i) of stacked iterates x.

        x is (..., m, n_max), the result (..., m): leading batch dimensions
        evaluate several iterates at once, each with the bits of its own call.
        """
        x = np.asarray(x, dtype=float)
        if self.family is LogUtility:
            return -RATE_UTILITY_SCALE * self.weights * np.log(x[..., 0] + RATE_UTILITY_OFFSET)
        quad = np.matmul((0.5 * self.diag)[:, None, :], (x * x)[..., None])
        lin = np.matmul(self.lin[:, None, :], x[..., None])
        return (quad + lin)[..., 0, 0]

    def coupling_terms(self, x) -> np.ndarray:
        """Per-agent coupling terms A_i x_i - b_i of stacked iterates x,
        (..., m, n_max) to (..., m, p), with leading batch dimensions as in
        :meth:`agent_values`."""
        x = np.asarray(x, dtype=float)
        out = np.matmul(self.A, x[..., None])[..., 0]
        return np.subtract(out, self.b, out=out)

    def coupling_residual(self, x) -> np.ndarray:
        """sum_i (A_i x_i - b_i), (..., p); zero exactly on coupling-feasible points."""
        return _sum_agents(self.coupling_terms(x), axis=-2)


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
    if not np.isfinite(lam).all():
        raise InvalidInputError("lambda must be finite")
    with np.errstate(over="ignore"):  # a tiny price gives inf, clipped to the upper bound
        return lagrangian_minimizer(problem)(lam[..., None], np.empty(problem.lower.shape))


def lagrangian_minimizer(problem: CoupledProblem):
    """The family's closed form of :func:`solve_local`, without its checks:
    ``minimize(lam_col, x)`` writes into the (m, n_max) ``x``, and returns
    it, the minimizer at the (m, p, 1) column view ``lam_col`` of a float
    (m, p) lambda. A non-finite lambda gives a meaningless x.

    The family, the constants and the price and mask scratch are bound
    once: the round kernel binds one minimizer per run and passes it its
    rows' views, made once too. The constants are full (m, n_max) arrays,
    since a ufunc that broadcasts a column or a scalar costs more a call.
    """
    lower, upper, A_T = problem.lower, problem.upper, problem.A.swapaxes(1, 2)
    price = np.empty(lower.shape)
    price_col = price[..., None]
    if problem.family is DiagonalQuadratic:
        minus_lin, diag = -problem.lin, problem.diag

        def minimize(lam_col, x):
            # Batched matmul repeats each agent's own A_i^T lambda_i product bit for bit.
            np.matmul(A_T, lam_col, out=price_col)
            # Stationarity diag*x + lin + price = 0, clipped to the box.
            np.subtract(minus_lin, price, out=x)
            np.divide(x, diag, out=x)
            np.maximum(x, lower, out=x)  # np.clip's bits, at less call overhead
            return np.minimum(x, upper, out=x)
        return minimize

    scale = np.full(lower.shape, RATE_UTILITY_SCALE) * problem.weights[:, None]
    offset, positive = np.full(lower.shape, RATE_UTILITY_OFFSET), np.empty(lower.shape, bool)

    def minimize(lam_col, x):
        np.matmul(A_T, lam_col, out=price_col)
        # Stationarity 20 w / (x + 0.1) = price. A non-positive (or NaN) price
        # leaves the inner objective decreasing on the box: x = inf, divided by
        # nothing, which the clip takes to the upper bound.
        x.fill(np.inf)
        np.greater(price, 0.0, out=positive)
        np.divide(scale, price, out=x, where=positive)
        np.subtract(x, offset, out=x)
        np.maximum(x, lower, out=x)
        return np.minimum(x, upper, out=x)
    return minimize


def price_slope(problem: CoupledProblem, x: np.ndarray) -> np.ndarray:
    """-dx/d(price) of the family's minimizer at its value x (m, n_max): 1/diag,
    or (x + 0.1)^2 / (20 w), where x = 20 w / price - 0.1."""
    if problem.family is LogUtility:
        return (x + RATE_UTILITY_OFFSET) ** 2 / (RATE_UTILITY_SCALE * problem.weights[:, None])
    return 1.0 / problem.diag


def make_num_problem(routing, capacities, gammas=None) -> CoupledProblem:
    """Rate-allocation instance: one scalar agent per source, one coupling row per link.

    ``routing`` is the 0/1 link-by-source incidence matrix. Source s gets the
    log disutility with weight w_s = (links used by s) / (total links), rate
    box [0, 1], coupling column A_s = routing[:, s], and the equal capacity
    split b_s = capacities / m so the per-agent offsets sum to the capacities.
    ``gammas`` defaults to 1 for every source.
    """
    R = np.asarray(routing, dtype=float)
    c = np.asarray(capacities, dtype=float)
    if R.ndim != 2:
        raise InvalidProblemError("routing must be a 2-d 0/1 matrix (links x sources)")
    n_links, n_sources = R.shape
    g = np.ones(n_sources) if gammas is None else np.asarray(gammas, dtype=float)
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
    weights = used / n_links
    return CoupledProblem(
        A=np.ascontiguousarray(R.T)[:, :, None],
        b=np.tile(c / n_sources, (n_sources, 1)),
        lower=np.zeros((n_sources, 1)),
        upper=np.ones((n_sources, 1)),
        gammas=g,
        weights=weights,
    )


def make_quadratic_problem(
    m: int,
    p: int,
    dims=1,
    seed: int = 0,
    tau_min: float = 1.0,
    gamma: float = 1.0,
) -> CoupledProblem:
    """Random diagonal-quadratic family, feasible by construction.

    Curvatures are drawn in [tau_min, 10 tau_min], boxes are [-1, 1]^n_i, and
    each b_i = A_i x0_i for a random interior point x0_i, so the stacked
    interior point satisfies the coupling exactly. Deterministic in ``seed``.
    """
    if m < 1 or p < 1:
        raise InvalidProblemError("need m >= 1 and p >= 1")
    if not tau_min > 0 or not np.isfinite(10.0 * tau_min):
        raise InvalidProblemError("tau_min must be positive, with 10 * tau_min finite")
    if np.isscalar(dims):
        dims = [int(dims)] * m
    dims = [int(n) for n in dims]
    if len(dims) != m or any(n < 1 for n in dims):
        raise InvalidProblemError("dims must list one positive dimension per agent")
    rng = np.random.default_rng(seed)
    n_max = max(dims)
    # Box [-1, 1] on each agent's own coordinates; its padding is fixed at 0.
    bound = (np.arange(n_max) < np.array(dims)[:, None]).astype(float)
    A = np.zeros((m, p, n_max))
    b = np.empty((m, p))
    diag = np.ones((m, n_max))
    lin = np.zeros((m, n_max))
    for i, n in enumerate(dims):
        diag[i, :n] = rng.uniform(tau_min, 10.0 * tau_min, size=n)
        lin[i, :n] = rng.uniform(-1.0, 1.0, size=n)
        A_i = rng.uniform(-1.0, 1.0, size=(p, n))
        x0 = rng.uniform(-0.9, 0.9, size=n)
        A[i, :, :n] = A_i
        b[i] = A_i @ x0
    return CoupledProblem(
        A=A,
        b=b,
        lower=-bound,
        upper=bound,
        gammas=np.full(m, float(gamma)),
        diag=diag,
        lin=lin,
    )


def compute_G_bound(problem: CoupledProblem) -> np.ndarray:
    """Upper bounds G_i on ||A_i x - b_i|| over each agent's box, shape (m,).

    For n_i <= 20 free coordinates the exact maximum: ||A x - b|| is convex in
    x, so it peaks at a box vertex, and all 2^n_i vertices of the free
    coordinates are enumerated, fixed ones at their value, a chunk of vertices
    at a time. Larger n_i falls back to the Frobenius-norm bound
    ||A_i||_F ||max(|lower_i|, |upper_i|)|| + ||A_i x_fixed - b_i||.
    """
    free = problem.lower < problem.upper
    # The fixed coordinates' constant share of A x - b, free coordinates at 0.
    offset = problem.coupling_terms(np.where(free, 0.0, problem.lower))
    counts = free.sum(axis=1)
    G = np.zeros(problem.m)
    for n in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n)
        rows, cols = idx[:, None], free[idx].nonzero()[1].reshape(len(idx), n)
        A = np.take_along_axis(problem.A[idx], cols[:, None, :], axis=2)
        lower, upper = problem.lower[rows, cols], problem.upper[rows, cols]
        if n > 20:
            corner = np.linalg.norm(np.maximum(np.abs(lower), np.abs(upper)), axis=1)
            G[idx] = np.linalg.norm(A, axis=(1, 2)) * corner + np.linalg.norm(offset[idx], axis=1)
            continue
        # Enough vertices per chunk for about 2^20 floats in each array.
        chunk = max(1, (1 << 20) // (len(idx) * max(n, problem.p)))
        for start in range(0, 2**n, chunk):
            codes = np.arange(start, min(start + chunk, 2**n))
            bits = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
            vertices = np.where(bits, upper[:, None, :], lower[:, None, :])
            residual = np.matmul(vertices, A.swapaxes(1, 2)) + offset[idx, None, :]
            G[idx] = np.maximum(G[idx], np.linalg.norm(residual, axis=2).max(axis=1))
    return G
