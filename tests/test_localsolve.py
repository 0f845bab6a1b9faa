import numpy as np
import pytest

from drdga import (
    AgentProblem,
    CoupledProblem,
    DiagonalQuadratic,
    InvalidInputError,
    LogUtility,
    make_quadratic_problem,
    solve_local,
)


def log_agent(w=1.0, A=None):
    A = np.array([[1.0], [1.0]]) if A is None else A
    obj = LogUtility(w)
    return AgentProblem(objective=obj, lower=np.zeros(1), upper=np.ones(1),
                        A=A, b=np.full(A.shape[0], 1 / 3), tau=obj.modulus, gamma=1.0)


def quad_agent(diag, lin, A, lower=-1.0, upper=1.0, gamma=1.0):
    diag = np.asarray(diag, dtype=float)
    return AgentProblem(
        objective=DiagonalQuadratic(diag, np.asarray(lin, dtype=float)),
        lower=np.full(diag.size, lower), upper=np.full(diag.size, upper),
        A=np.asarray(A, dtype=float), b=np.zeros(np.asarray(A).shape[0]),
        tau=float(diag.min()), gamma=gamma,
    )


def solve_one(agent, lam):
    """solve_local on the one-agent problem of ``agent``."""
    prob = CoupledProblem(agents=(agent,), p=agent.A.shape[0])
    return solve_local(prob, np.asarray(lam, dtype=float)[None])[0]


def dual_gradient(agent, lam):
    """Gradient of the agent's regularized dual: A_i x_i(lambda) - b_i - gamma_i lambda."""
    return agent.A @ solve_one(agent, lam) - agent.b - agent.gamma * lam


def grid_argmin(agent, lam, res=1e-4):
    """Independent oracle: per-coordinate exhaustive grid (objectives are separable)."""
    price = agent.A.T @ lam
    out = np.empty(agent.dim)
    for k in range(agent.dim):
        xs = np.arange(agent.lower[k], agent.upper[k] + res / 2, res)
        if isinstance(agent.objective, DiagonalQuadratic):
            vals = (0.5 * agent.objective.diag[k] * xs**2
                    + agent.objective.lin[k] * xs + price[k] * xs)
        elif isinstance(agent.objective, LogUtility):
            vals = (-20.0 * agent.objective.weight * np.log(xs + 0.1) + price[k] * xs)
        else:
            raise TypeError("grid oracle covers the closed-form families only")
        out[k] = xs[np.argmin(vals)]
    return out


def test_log_zero_price_returns_upper():
    agent = log_agent()
    assert solve_one(agent, np.zeros(2)) == pytest.approx([1.0])
    assert solve_one(agent, np.array([-5.0, 2.0])) == pytest.approx([1.0])


def test_log_stationary_point():
    # price 20 balances the marginal utility at x + 0.1 = 1.
    agent = log_agent(w=1.0)
    x = solve_one(agent, np.array([10.0, 10.0]))
    assert x == pytest.approx([0.9])
    assert abs(float(x[0]) - grid_argmin(agent, np.array([10.0, 10.0]))[0]) < 1e-3


def test_quadratic_scalar_example():
    agent = quad_agent([2.0], [0.0], [[1.0]])
    x = solve_one(agent, np.array([1.0]))
    assert x == pytest.approx([-0.5])
    assert abs(float(x[0]) - grid_argmin(agent, np.array([1.0]))[0]) < 1e-3


def test_closed_forms_match_grid_search():
    rng = np.random.default_rng(17)
    agent_q = quad_agent([2.0, 3.5], [0.5, -0.25], rng.uniform(-1, 1, (3, 2)))
    agent_l = log_agent(w=0.5)
    for _ in range(100):
        lam_q = rng.normal(size=3) * 3.0
        assert np.max(np.abs(solve_one(agent_q, lam_q) - grid_argmin(agent_q, lam_q))) < 1e-3
        lam_l = rng.normal(size=2) * 20.0
        assert np.max(np.abs(solve_one(agent_l, lam_l) - grid_argmin(agent_l, lam_l))) < 1e-3


def test_minimizer_always_inside_box():
    rng = np.random.default_rng(5)
    agent = quad_agent([1.0, 1.0], [5.0, -5.0], rng.uniform(-1, 1, (2, 2)))
    for _ in range(50):
        x = solve_one(agent, rng.normal(size=2) * 10)
        assert np.all(x >= agent.lower) and np.all(x <= agent.upper)


def test_optimality_certificate():
    rng = np.random.default_rng(23)
    agent = quad_agent([2.0, 4.0], [0.3, -0.6], rng.uniform(-1, 1, (2, 2)))
    for _ in range(50):
        lam = rng.normal(size=2) * 4
        x = solve_one(agent, lam)
        grad = agent.objective.diag * x + agent.objective.lin + agent.A.T @ lam
        for k in range(agent.dim):
            if agent.lower[k] < x[k] < agent.upper[k]:
                assert abs(grad[k]) <= 1e-8
            elif x[k] == agent.upper[k]:
                assert grad[k] <= 1e-8  # objective still decreasing at the bound
            else:
                assert grad[k] >= -1e-8


def test_dual_gradient_formula_and_zero_lambda():
    agent = quad_agent([2.0], [0.4], [[1.0], [-1.0]], gamma=0.7)
    # lambda = 0: x = -0.4 / 2 and no regularization term
    assert dual_gradient(agent, np.zeros(2)) == pytest.approx([-0.2, 0.2])
    # price 0.3 + 0.2 = 0.5 gives x = -0.45; minus 0.7 * lambda
    assert dual_gradient(agent, np.array([0.3, -0.2])) == pytest.approx([-0.66, 0.59])


def test_dual_gradient_strong_monotonicity():
    rng = np.random.default_rng(31)
    prob = make_quadratic_problem(m=1, p=3, dims=[2], seed=4, tau_min=1.0, gamma=0.8)
    agent = prob.agents[0]
    for _ in range(100):
        l1, l2 = rng.normal(size=3) * 2, rng.normal(size=3) * 2
        inner = (dual_gradient(agent, l1) - dual_gradient(agent, l2)) @ (l1 - l2)
        assert inner <= -agent.gamma * np.sum((l1 - l2) ** 2) + 1e-8


def test_dual_gradient_lipschitz():
    rng = np.random.default_rng(37)
    prob = make_quadratic_problem(m=1, p=3, dims=[2], seed=6, tau_min=1.0)
    agent = prob.agents[0]
    L = np.linalg.norm(agent.A, 2) / agent.tau
    for _ in range(100):
        l1, l2 = rng.normal(size=3) * 2, rng.normal(size=3) * 2
        unreg1 = dual_gradient(agent, l1) + agent.gamma * l1
        unreg2 = dual_gradient(agent, l2) + agent.gamma * l2
        assert np.linalg.norm(unreg1 - unreg2) <= L * np.linalg.norm(l1 - l2) + 1e-8


def test_rejects_bad_lambda():
    prob = CoupledProblem(agents=(quad_agent([1.0], [0.0], [[1.0]]),), p=1)
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([[np.nan]]))
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([[np.inf]]))
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([1.0]))
