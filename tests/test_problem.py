import numpy as np
import pytest

from drdga import (
    AgentProblem,
    CoupledProblem,
    DiagonalQuadratic,
    InvalidProblemError,
    LogUtility,
    compute_G_bound,
    make_num_problem,
    make_quadratic_problem,
)

FIG7_ROUTING = [[1, 1, 0], [1, 1, 1]]


def fig7_problem():
    return make_num_problem(FIG7_ROUTING, capacities=[1.0, 1.0], gammas=[1.0, 1.0, 1.0])


def test_num_fig7_weights():
    prob = fig7_problem()
    assert prob.m == 3 and prob.p == 2
    weights = [a.objective.weight for a in prob.agents]
    assert weights == [1.0, 1.0, 0.5]


def test_num_equal_capacity_split():
    prob = fig7_problem()
    for agent in prob.agents:
        assert np.allclose(agent.b, [1.0 / 3.0, 1.0 / 3.0])
    total = sum(a.b for a in prob.agents)
    assert np.allclose(total, [1.0, 1.0])


def test_num_agent_structure():
    prob = fig7_problem()
    third = prob.agents[2]
    assert np.array_equal(third.A, [[0.0], [1.0]])
    assert third.lower == pytest.approx([0.0]) and third.upper == pytest.approx([1.0])
    # modulus of -20 w log(x + 0.1) on [0, 1] is 20 w / 1.21
    assert third.tau == pytest.approx(20.0 * 0.5 / 1.21)


def test_num_single_source_single_link():
    prob = make_num_problem([[1]], capacities=[1.0], gammas=[1.0])
    agent = prob.agents[0]
    assert agent.objective.weight == 1.0
    assert np.array_equal(agent.A, [[1.0]])
    assert np.array_equal(agent.b, [1.0])


def test_num_rejects_unused_source():
    with pytest.raises(InvalidProblemError, match="source 2"):
        make_num_problem([[1, 0]], capacities=[1.0], gammas=[1.0, 1.0])


def test_num_rejects_bad_entries():
    with pytest.raises(InvalidProblemError):
        make_num_problem([[1, 2]], capacities=[1.0], gammas=[1.0, 1.0])
    with pytest.raises(InvalidProblemError):
        make_num_problem([[1, 1]], capacities=[-1.0], gammas=[1.0, 1.0])
    with pytest.raises(InvalidProblemError):
        make_num_problem([[1, 1]], capacities=[1.0], gammas=[1.0])


def test_quadratic_deterministic_and_feasible_by_construction():
    a = make_quadratic_problem(m=4, p=2, dims=[1, 2, 3, 1], seed=9, tau_min=0.5)
    b = make_quadratic_problem(m=4, p=2, dims=[1, 2, 3, 1], seed=9, tau_min=0.5)
    for x, y in zip(a.agents, b.agents):
        assert np.array_equal(x.A, y.A) and np.array_equal(x.b, y.b)
        assert np.array_equal(x.objective.diag, y.objective.diag)
    c = make_quadratic_problem(m=4, p=2, dims=[1, 2, 3, 1], seed=10, tau_min=0.5)
    assert not np.array_equal(a.agents[0].A, c.agents[0].A)
    for agent in a.agents:
        assert np.all(agent.objective.diag >= 0.5) and np.all(agent.objective.diag <= 5.0)
        assert np.all(agent.lower == -1.0) and np.all(agent.upper == 1.0)


def test_quadratic_scalar_dims_broadcast():
    prob = make_quadratic_problem(m=3, p=2, dims=2, seed=0, tau_min=1.0)
    assert all(a.dim == 2 for a in prob.agents)


def test_G_bound_zero_coupling():
    agent = AgentProblem(
        objective=DiagonalQuadratic(np.ones(2), np.zeros(2)),
        lower=-np.ones(2), upper=np.ones(2),
        A=np.zeros((2, 2)), b=np.array([3.0, 4.0]), tau=1.0, gamma=1.0,
    )
    assert compute_G_bound(agent) == pytest.approx(5.0)


def test_G_bound_scalar_vertex():
    agent = AgentProblem(
        objective=LogUtility(1.0),
        lower=np.zeros(1), upper=np.ones(1),
        A=np.array([[1.0], [1.0]]), b=np.array([1 / 3, 1 / 3]),
        tau=20.0 / 1.21, gamma=1.0,
    )
    assert compute_G_bound(agent) == pytest.approx(2.0 * np.sqrt(2.0) / 3.0)


def test_G_bound_identity_box():
    agent = AgentProblem(
        objective=DiagonalQuadratic(np.ones(2), np.zeros(2)),
        lower=-np.ones(2), upper=np.ones(2),
        A=np.eye(2), b=np.zeros(2), tau=1.0, gamma=1.0,
    )
    assert compute_G_bound(agent) == pytest.approx(np.sqrt(2.0))


def test_G_bound_dominates_random_points():
    rng = np.random.default_rng(3)
    prob = make_quadratic_problem(m=3, p=4, dims=[2, 3, 1], seed=8, tau_min=1.0)
    for agent in prob.agents:
        G = compute_G_bound(agent)
        pts = rng.uniform(agent.lower, agent.upper, size=(1000, agent.dim))
        norms = np.linalg.norm(pts @ agent.A.T - agent.b, axis=1)
        assert np.all(norms <= G + 1e-9)


def test_G_bound_large_dimension_fallback():
    n = 25
    agent = AgentProblem(
        objective=DiagonalQuadratic(np.ones(n), np.zeros(n)),
        lower=-np.ones(n), upper=np.ones(n),
        A=np.ones((1, n)), b=np.zeros(1), tau=1.0, gamma=1.0,
    )
    G = compute_G_bound(agent)
    assert G >= n  # true max is n; Frobenius fallback is an upper bound


def test_log_utility_strong_convexity_probe():
    rng = np.random.default_rng(11)
    for w in (0.25, 0.5, 1.0):
        f = LogUtility(w)
        tau = f.modulus
        agent = AgentProblem(objective=f, lower=np.zeros(1), upper=np.ones(1),
                             A=np.ones((1, 1)), b=np.zeros(1), tau=tau, gamma=1.0)
        prob = CoupledProblem(agents=(agent,), p=1)
        value = lambda v: float(prob.agent_values([[v]])[0])
        for _ in range(200):
            x, y = rng.uniform(0.0, 1.0, size=2)
            gradient = -20.0 * w / (y + 0.1)
            lhs = value(x) - value(y) - gradient * (x - y)
            assert lhs >= 0.5 * tau * (x - y) ** 2 - 1e-9


def test_agent_validation():
    quad = DiagonalQuadratic(np.ones(1), np.zeros(1))
    good = dict(objective=quad, lower=np.zeros(1), upper=np.ones(1),
                A=np.ones((1, 1)), b=np.zeros(1), tau=1.0, gamma=1.0)
    AgentProblem(**good)
    with pytest.raises(InvalidProblemError):
        AgentProblem(**{**good, "lower": np.array([2.0])})
    with pytest.raises(InvalidProblemError):
        AgentProblem(**{**good, "tau": 0.0})
    with pytest.raises(InvalidProblemError):
        AgentProblem(**{**good, "gamma": -1.0})
    with pytest.raises(InvalidProblemError):
        AgentProblem(**{**good, "A": np.ones((1, 2))})
    with pytest.raises(InvalidProblemError):
        # declared tau above the objective's actual curvature
        AgentProblem(**{**good, "tau": 2.0})


def test_coupled_problem_validation():
    quad = DiagonalQuadratic(np.ones(1), np.zeros(1))
    agent = AgentProblem(objective=quad, lower=np.zeros(1), upper=np.ones(1),
                         A=np.ones((2, 1)), b=np.zeros(2), tau=1.0, gamma=1.0)
    prob = CoupledProblem(agents=(agent,), p=2)
    assert prob.m == 1 and prob.gamma_total == 1.0
    with pytest.raises(InvalidProblemError):
        CoupledProblem(agents=(agent,), p=3)
    with pytest.raises(InvalidProblemError):
        CoupledProblem(agents=(), p=1)


def test_quadratic_family_admits_feasible_point():
    # b_i = A_i x0_i for an interior x0_i, so the coupled constraint is
    # attainable and the centralized solver closes the residual.
    from drdga import solve_centralized

    prob = make_quadratic_problem(m=5, p=3, dims=2, seed=11, tau_min=1.0)
    sol = solve_centralized(prob, tol=1e-6)
    assert sol.violation <= 1e-6


def test_ragged_dims_are_padded_with_degenerate_coordinates():
    prob = make_quadratic_problem(m=3, p=2, dims=[1, 3, 2], seed=4, tau_min=1.0)
    assert prob.dims == (1, 3, 2)
    assert prob.A.shape == (3, 2, 3) and prob.b.shape == (3, 2)
    assert prob.lower.shape == prob.upper.shape == prob.diag.shape == (3, 3)
    for i, agent in enumerate(prob.agents):
        n = agent.dim
        assert np.array_equal(prob.A[i, :, :n], agent.A) and not prob.A[i, :, n:].any()
        assert np.array_equal(prob.diag[i, :n], agent.objective.diag)
        assert np.all(prob.diag[i, n:] == 1.0) and not prob.lin[i, n:].any()
        assert not prob.lower[i, n:].any() and not prob.upper[i, n:].any()
    assert prob.weights is None


def test_stacked_values_and_coupling_match_direct_sums():
    prob = make_quadratic_problem(m=3, p=2, dims=[1, 3, 2], seed=4, tau_min=1.0)
    rng = np.random.default_rng(6)
    x = rng.uniform(prob.lower, prob.upper)
    direct = [0.5 * a.objective.diag @ (x[i, :a.dim] ** 2) + a.objective.lin @ x[i, :a.dim]
              for i, a in enumerate(prob.agents)]
    assert np.allclose(prob.agent_values(x), direct, rtol=1e-14, atol=1e-14)
    assert prob.objective_value(x) == pytest.approx(sum(direct), rel=1e-14)
    residual = sum(a.A @ x[i, :a.dim] - a.b for i, a in enumerate(prob.agents))
    assert np.allclose(prob.coupling_residual(x), residual, rtol=1e-14, atol=1e-14)

    num = fig7_problem()
    assert np.array_equal(num.weights, [1.0, 1.0, 0.5]) and num.diag is None
    rates = np.array([[0.5], [0.25], [1.0]])
    expected = [-20.0 * w * np.log(r + 0.1) for w, r in zip([1.0, 1.0, 0.5], rates[:, 0])]
    assert np.allclose(num.agent_values(rates), expected, rtol=1e-14)


def test_mixed_families_and_mismatched_dimensions_rejected():
    quad = AgentProblem(objective=DiagonalQuadratic(np.ones(1), np.zeros(1)),
                        lower=np.zeros(1), upper=np.ones(1),
                        A=np.ones((1, 1)), b=np.zeros(1), tau=1.0, gamma=1.0)
    log = make_num_problem([[1]], capacities=[1.0], gammas=[1.0]).agents[0]
    with pytest.raises(InvalidProblemError, match="mix objective families"):
        CoupledProblem(agents=(quad, log), p=1)
    with pytest.raises(InvalidProblemError, match="2 variables"):
        AgentProblem(objective=DiagonalQuadratic(np.ones(2), np.zeros(2)),
                     lower=np.zeros(1), upper=np.ones(1),
                     A=np.ones((1, 1)), b=np.zeros(1), tau=1.0, gamma=1.0)
    with pytest.raises(InvalidProblemError, match="1 variables"):
        AgentProblem(objective=LogUtility(1.0), lower=np.zeros(2), upper=np.ones(2),
                     A=np.ones((1, 2)), b=np.zeros(1), tau=1.0, gamma=1.0)


@pytest.mark.parametrize("p", [1, 3])
def test_sums_over_agents_run_left_to_right(p):
    # numpy's pairwise sum rounds differently from m = 8 on; the stacked sums
    # must repeat a plain loop over agents bit for bit.
    prob = make_quadratic_problem(m=64, p=p, dims=2, seed=12, tau_min=1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(prob.lower, prob.upper)
        total = 0.0
        for value in prob.agent_values(x).tolist():
            total += value
        assert prob.objective_value(x) == total
        residual = np.zeros(p)
        for term in prob.coupling_terms(x):
            residual = residual + term
        assert np.array_equal(prob.coupling_residual(x), residual)
