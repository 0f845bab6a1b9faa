import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from drdga import (
    CoupledProblem,
    DiagonalQuadratic,
    InvalidInputError,
    InvalidProblemError,
    LogUtility,
    compute_G_bound,
    make_num_problem,
    make_quadratic_problem,
    solve_local,
)
from drdga.problem import _sum_agents

FIG7_ROUTING = [[1, 1, 0], [1, 1, 1]]


def fig7_problem():
    return make_num_problem(FIG7_ROUTING, capacities=[1.0, 1.0], gammas=[1.0, 1.0, 1.0])


def quad_problem(diag, lin, A, lower=-1.0, upper=1.0, gamma=1.0):
    """One diagonal-quadratic agent with b = 0."""
    diag = np.asarray(diag, dtype=float)
    A = np.asarray(A, dtype=float)
    return CoupledProblem(
        A=A[None], b=np.zeros((1, A.shape[0])),
        lower=np.full((1, diag.size), lower), upper=np.full((1, diag.size), upper),
        gammas=[gamma],
        diag=diag[None], lin=np.asarray(lin, dtype=float)[None],
    )


def log_problem(w=1.0, A=None):
    """One rate-utility agent on [0, 1] with b = 1/3 per row."""
    A = np.array([[1.0], [1.0]]) if A is None else A
    return CoupledProblem(
        A=A[None], b=np.full((1, A.shape[0]), 1 / 3),
        lower=np.zeros((1, 1)), upper=np.ones((1, 1)),
        gammas=[1.0], weights=[w],
    )


def fixed_coordinate_problem():
    """One diagonal-quadratic agent whose second coordinate is fixed at 0.3."""
    return CoupledProblem(
        A=np.array([[[1.0, 2.0], [0.5, -1.0]]]), b=np.array([[0.2, 0.1]]),
        lower=np.array([[-1.0, 0.3]]), upper=np.array([[1.0, 0.3]]), gammas=[1.0],
        diag=np.array([[4.0, 0.5]]), lin=np.zeros((1, 2)),
    )


def solve_one(prob, lam):
    """solve_local on a one-agent problem."""
    return solve_local(prob, np.asarray(lam, dtype=float)[None])[0]


def dual_gradient(prob, lam):
    """Gradient of the agent's regularized dual: A_i x_i(lambda) - b_i - gamma_i lambda."""
    return prob.A[0] @ solve_one(prob, lam) - prob.b[0] - prob.gammas[0] * lam


def grid_argmin(prob, lam, res=1e-4):
    """Independent oracle: per-coordinate exhaustive grid (objectives are separable)."""
    price = prob.A[0].T @ lam
    out = np.empty(prob.lower.shape[1])
    for k in range(out.size):
        xs = np.arange(prob.lower[0, k], prob.upper[0, k] + res / 2, res)
        if prob.family is DiagonalQuadratic:
            vals = 0.5 * prob.diag[0, k] * xs**2 + prob.lin[0, k] * xs + price[k] * xs
        else:
            vals = -20.0 * prob.weights[0] * np.log(xs + 0.1) + price[k] * xs
        out[k] = xs[np.argmin(vals)]
    return out


def loop_G_bound(prob):
    """Reference G: a plain loop over every box vertex of each agent's free
    coordinates, its fixed coordinates held at their value."""
    out = []
    for i in range(prob.m):
        free = np.flatnonzero(prob.lower[i] < prob.upper[i])
        best = 0.0
        for bits in itertools.product((0, 1), repeat=free.size):
            vertex = prob.lower[i].copy()
            vertex[free] = np.where(np.asarray(bits, dtype=bool),
                                    prob.upper[i, free], prob.lower[i, free])
            best = max(best, float(np.linalg.norm(prob.A[i] @ vertex - prob.b[i])))
        out.append(best)
    return np.array(out)


def test_num_fig7_weights():
    prob = fig7_problem()
    assert prob.m == 3 and prob.p == 2 and prob.family is LogUtility
    assert prob.weights.tolist() == [1.0, 1.0, 0.5]


def test_num_equal_capacity_split():
    prob = fig7_problem()
    for b in prob.b:
        assert np.allclose(b, [1.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(prob.b.sum(axis=0), [1.0, 1.0])


def test_num_agent_structure():
    prob = fig7_problem()
    third = prob.agents[2]
    assert third.m == 1 and (third.lower < third.upper).sum(axis=1).tolist() == [1]
    assert np.array_equal(third.A, [[[0.0], [1.0]]])
    assert third.lower[0] == pytest.approx([0.0]) and third.upper[0] == pytest.approx([1.0])
    # modulus of -20 w log(x + 0.1) on [0, 1] is 20 w / 1.21
    assert third.modulus[0] == pytest.approx(20.0 * 0.5 / 1.21)


def test_num_single_source_single_link():
    prob = make_num_problem([[1]], capacities=[1.0], gammas=[1.0])
    agent = prob.agents[0]
    assert agent.weights[0] == 1.0
    assert np.array_equal(agent.A, [[[1.0]]])
    assert np.array_equal(agent.b, [[1.0]])


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


def test_quadratic_rejects_tau_min_whose_curvature_range_overflows():
    # Curvatures are drawn in [tau_min, 10 tau_min]; 10 * 1e308 is inf.
    with pytest.raises(InvalidProblemError, match="tau_min"):
        make_quadratic_problem(m=2, p=1, dims=1, seed=0, tau_min=1e308)
    make_quadratic_problem(m=2, p=1, dims=1, seed=0, tau_min=1e307)


def test_quadratic_deterministic_and_feasible_by_construction():
    dims = [1, 2, 3, 1]
    a = make_quadratic_problem(m=4, p=2, dims=dims, seed=9, tau_min=0.5)
    b = make_quadratic_problem(m=4, p=2, dims=dims, seed=9, tau_min=0.5)
    for name in ("A", "b", "diag", "lin", "lower", "upper"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = make_quadratic_problem(m=4, p=2, dims=dims, seed=10, tau_min=0.5)
    assert not np.array_equal(a.A[0], c.A[0])
    for i, n in enumerate(dims):
        assert np.all(a.diag[i, :n] >= 0.5) and np.all(a.diag[i, :n] <= 5.0)
        assert np.all(a.lower[i, :n] == -1.0) and np.all(a.upper[i, :n] == 1.0)


def test_quadratic_scalar_dims_broadcast():
    prob = make_quadratic_problem(m=3, p=2, dims=2, seed=0, tau_min=1.0)
    assert (prob.lower < prob.upper).sum(axis=1).tolist() == [2, 2, 2]


def test_G_bound_zero_coupling():
    prob = CoupledProblem(
        A=np.zeros((1, 2, 2)), b=np.array([[3.0, 4.0]]),
        lower=-np.ones((1, 2)), upper=np.ones((1, 2)),
        gammas=[1.0], diag=np.ones((1, 2)), lin=np.zeros((1, 2)),
    )
    assert compute_G_bound(prob) == pytest.approx([5.0])


def test_G_bound_scalar_vertex():
    assert compute_G_bound(log_problem()) == pytest.approx([2.0 * np.sqrt(2.0) / 3.0])


def test_G_bound_identity_box():
    assert compute_G_bound(quad_problem(np.ones(2), np.zeros(2), np.eye(2))) == pytest.approx(
        [np.sqrt(2.0)]
    )


def test_G_bound_dominates_random_points():
    rng = np.random.default_rng(3)
    dims = [2, 3, 1]
    prob = make_quadratic_problem(m=3, p=4, dims=dims, seed=8, tau_min=1.0)
    G = compute_G_bound(prob)
    assert G.shape == (3,)
    for i, n in enumerate(dims):
        pts = rng.uniform(prob.lower[i, :n], prob.upper[i, :n], size=(1000, n))
        norms = np.linalg.norm(pts @ prob.A[i, :, :n].T - prob.b[i], axis=1)
        assert np.all(norms <= G[i] + 1e-9)


@pytest.mark.parametrize(
    "prob",
    [
        *(make_quadratic_problem(m=6, p=p, dims=[1, 4, 2, 4, 3, 1], seed=s, tau_min=1.0)
          for p, s in ((1, 1), (3, 2), (5, 3))),
        fig7_problem(),
        make_num_problem(np.random.default_rng(8).integers(0, 2, (4, 7)) | np.eye(4, 7, dtype=int),
                         capacities=np.ones(4), gammas=np.ones(7)),
        make_quadratic_problem(m=1, p=3, dims=[14], seed=5, tau_min=1.0),
        # 5,000 coupling rows split each group's vertices over several chunks.
        make_quadratic_problem(m=3, p=5000, dims=[8, 6, 8], seed=7, tau_min=1.0),
        fixed_coordinate_problem(),
    ],
    ids=["quad_p1", "quad_p3", "quad_p5", "num_fig7", "num_random", "quad_n14", "quad_chunked",
         "quad_fixed"],
)
def test_G_bound_matches_vertex_loop(prob):
    # The vectorized products may round differently from one matrix-vector
    # product per vertex, so agreement is to a few ulp, not bit for bit.
    np.testing.assert_allclose(
        compute_G_bound(prob), loop_G_bound(prob), rtol=4 * np.finfo(float).eps, atol=0.0
    )


def test_fixed_coordinate_is_a_constant():
    # x_2 is fixed at 0.3: its diag 0.5 is no curvature, and its A column
    # shifts every vertex by the same constant.
    prob = fixed_coordinate_problem()
    assert prob.modulus.tolist() == [4.0]
    assert compute_G_bound(prob).tolist() == pytest.approx([1.40356688476182], rel=1e-14)


def test_modulus_and_G_read_the_box():
    # Both coordinates are free, so the flat one sets the modulus and G is
    # the largest |x_1 + x_2 - 0.5| over [-1, 1]^2.
    from drdga import solve_centralized

    arrays = dict(A=np.array([[[1.0, 1.0]]]), b=np.array([[0.5]]), lower=-np.ones((1, 2)),
                  upper=np.ones((1, 2)), gammas=[1.0], diag=np.array([[4.0, 0.01]]),
                  lin=np.zeros((1, 2)))
    prob = CoupledProblem(**arrays)
    assert prob.modulus.tolist() == [0.01]
    assert compute_G_bound(prob).tolist() == [2.5]
    assert solve_centralized(prob).violation <= 1e-6
    assert [f.name for f in dataclasses.fields(CoupledProblem)] == [
        "A", "b", "lower", "upper", "gammas", "diag", "lin", "weights"]
    with pytest.raises(TypeError, match="dims"):
        CoupledProblem(**arrays, dims=(1,))


def test_G_bound_large_dimension_fallback():
    n = 25
    prob = CoupledProblem(
        A=np.ones((1, 1, n)), b=np.zeros((1, 1)),
        lower=-np.ones((1, n)), upper=np.ones((1, n)),
        gammas=[1.0], diag=np.ones((1, n)), lin=np.zeros((1, n)),
    )
    G = compute_G_bound(prob)
    assert G[0] >= n  # true max is n; Frobenius fallback is an upper bound


def test_log_utility_strong_convexity_probe():
    rng = np.random.default_rng(11)
    for w in (0.25, 0.5, 1.0):
        prob = log_problem(w, A=np.ones((1, 1)))
        tau = prob.modulus[0]
        value = lambda v: float(prob.agent_values([[v]])[0])
        for _ in range(200):
            x, y = rng.uniform(0.0, 1.0, size=2)
            gradient = -20.0 * w / (y + 0.1)
            lhs = value(x) - value(y) - gradient * (x - y)
            assert lhs >= 0.5 * tau * (x - y) ** 2 - 1e-9


def test_agent_validation():
    good = dict(A=np.ones((1, 1, 1)), b=np.zeros((1, 1)), lower=np.zeros((1, 1)),
                upper=np.ones((1, 1)), gammas=[1.0],
                diag=np.ones((1, 1)), lin=np.zeros((1, 1)))
    CoupledProblem(**good)
    with pytest.raises(InvalidProblemError, match="box is empty"):
        CoupledProblem(**{**good, "lower": np.array([[2.0]])})
    with pytest.raises(InvalidProblemError, match="gamma must be positive"):
        CoupledProblem(**{**good, "gammas": [-1.0]})
    with pytest.raises(InvalidProblemError, match="A has shape"):
        CoupledProblem(**{**good, "A": np.ones((1, 1, 2))})
    with pytest.raises(InvalidProblemError, match="curvature entries must be positive"):
        CoupledProblem(**{**good, "diag": np.zeros((1, 1))})
    with pytest.raises(InvalidProblemError, match="lin has shape"):
        CoupledProblem(**{**good, "lin": np.zeros((1, 2))})
    log = {**good, "diag": None, "lin": None, "weights": [1.0]}
    CoupledProblem(**log)
    # A zero weight leaves f flat, with modulus 0: not strongly convex.
    for weight in (-1.0, 0.0):
        with pytest.raises(InvalidProblemError, match="utility weight must be positive"):
            CoupledProblem(**{**log, "weights": [weight]})


def test_coupled_problem_validation():
    good = dict(A=np.ones((1, 2, 1)), b=np.zeros((1, 2)), lower=np.zeros((1, 1)),
                upper=np.ones((1, 1)), gammas=[1.0],
                diag=np.ones((1, 1)), lin=np.zeros((1, 1)))
    prob = CoupledProblem(**good)
    assert prob.m == 1 and prob.p == 2 and prob.gamma_total == 1.0
    with pytest.raises(InvalidProblemError, match="b has shape"):
        CoupledProblem(**{**good, "b": np.zeros((1, 3))})
    with pytest.raises(InvalidProblemError, match="at least one agent"):
        CoupledProblem(A=np.zeros((0, 1, 1)), b=np.zeros((0, 1)), lower=np.zeros((0, 1)),
                       upper=np.zeros((0, 1)), gammas=np.zeros(0),
                       diag=np.ones((0, 1)), lin=np.zeros((0, 1)))
    # No coupling row or no box column: rejected here, not mid-run.
    with pytest.raises(InvalidProblemError, match="p = 0, n = 1$"):
        CoupledProblem(**{**good, "A": np.ones((1, 0, 1)), "b": np.zeros((1, 0))})
    with pytest.raises(InvalidProblemError, match="p = 2, n = 0$"):
        CoupledProblem(**{**good, "A": np.ones((1, 2, 0)), "lower": np.zeros((1, 0)),
                          "upper": np.ones((1, 0)), "diag": np.ones((1, 0)),
                          "lin": np.zeros((1, 0))})


@pytest.mark.parametrize(
    "field", ["A", "b", "lower", "upper", "gammas", "diag", "lin", "weights"]
)
def test_non_finite_arrays_rejected_by_name(field):
    # A NaN or an infinity in any array, the box bounds included, is a problem
    # error naming the field, not a non-finite multiplier in the middle of a run.
    if field == "weights":
        prob = fig7_problem()
    else:
        prob = make_quadratic_problem(m=3, p=2, dims=[2, 1, 2], seed=1, tau_min=1.0)
    value = getattr(prob, field).copy()
    for bad in (np.nan, np.inf, -np.inf):
        value.flat[-1] = bad
        with pytest.raises(InvalidProblemError, match=f"^{field} must be finite"):
            dataclasses.replace(prob, **{field: value})
    if field == "upper":
        # A rate agent at a non-positive price sits at its upper bound, so an
        # unbounded fig7 box would die in round 2 with a non-finite multiplier.
        with pytest.raises(InvalidProblemError, match="^upper must be finite"):
            dataclasses.replace(fig7_problem(), upper=np.full((3, 1), np.inf))


def test_quadratic_family_admits_feasible_point():
    # b_i = A_i x0_i for an interior x0_i, so the coupled constraint is
    # attainable and the centralized solver closes the residual.
    from drdga import solve_centralized

    prob = make_quadratic_problem(m=5, p=3, dims=2, seed=11, tau_min=1.0)
    sol = solve_centralized(prob)
    assert sol.violation <= 1e-6


def test_ragged_dims_are_padded_with_degenerate_coordinates():
    dims = [1, 3, 2]
    prob = make_quadratic_problem(m=3, p=2, dims=dims, seed=4, tau_min=1.0)
    assert (prob.lower < prob.upper).sum(axis=1).tolist() == dims
    assert prob.A.shape == (3, 2, 3) and prob.b.shape == (3, 2)
    assert prob.lower.shape == prob.upper.shape == prob.diag.shape == (3, 3)
    # Replaying the generator draws diag, lin, A and x0 per agent, in that order.
    rng = np.random.default_rng(4)
    for i, n in enumerate(dims):
        diag, lin = rng.uniform(1.0, 10.0, size=n), rng.uniform(-1.0, 1.0, size=n)
        A, x0 = rng.uniform(-1.0, 1.0, size=(2, n)), rng.uniform(-0.9, 0.9, size=n)
        assert np.array_equal(prob.A[i, :, :n], A) and not prob.A[i, :, n:].any()
        assert np.array_equal(prob.b[i], A @ x0)
        assert np.array_equal(prob.diag[i, :n], diag) and np.array_equal(prob.lin[i, :n], lin)
        assert np.all(prob.diag[i, n:] == 1.0) and not prob.lin[i, n:].any()
        assert not prob.lower[i, n:].any() and not prob.upper[i, n:].any()
    assert prob.weights is None


def test_fixed_coordinates_stay_out_of_the_modulus():
    # Every diag entry of the agent of dimension 1 is drawn in [2, 20], but
    # its padding, fixed at 0, carries diag 1 < tau_min = 2.
    dims = [1, 3, 2]
    prob = make_quadratic_problem(m=3, p=2, dims=dims, seed=4, tau_min=2.0)
    assert prob.diag[0, 1:].tolist() == [1.0, 1.0]
    own_min = [prob.diag[i, :n].min() for i, n in enumerate(dims)]
    assert prob.modulus.tolist() == own_min and np.all(prob.modulus >= 2.0)
    # A replaced diag gives a recomputed modulus, as does each one-agent problem.
    flatter = dataclasses.replace(prob, diag=prob.diag * 0.5)
    assert flatter.modulus.tolist() == [0.5 * d for d in own_min]
    assert [agent.modulus.tolist() for agent in flatter.agents] == [[0.5 * d] for d in own_min]


def test_stacked_values_and_coupling_match_direct_sums():
    dims = [1, 3, 2]
    prob = make_quadratic_problem(m=3, p=2, dims=dims, seed=4, tau_min=1.0)
    rng = np.random.default_rng(6)
    x = rng.uniform(prob.lower, prob.upper)
    direct = [0.5 * prob.diag[i, :n] @ (x[i, :n] ** 2) + prob.lin[i, :n] @ x[i, :n]
              for i, n in enumerate(dims)]
    assert np.allclose(prob.agent_values(x), direct, rtol=1e-14, atol=1e-14)
    assert _sum_agents(prob.agent_values(x)) == pytest.approx(sum(direct), rel=1e-14)
    residual = sum(prob.A[i, :, :n] @ x[i, :n] - prob.b[i] for i, n in enumerate(dims))
    assert np.allclose(prob.coupling_residual(x), residual, rtol=1e-14, atol=1e-14)

    num = fig7_problem()
    assert np.array_equal(num.weights, [1.0, 1.0, 0.5]) and num.diag is None
    rates = np.array([[0.5], [0.25], [1.0]])
    expected = [-20.0 * w * np.log(r + 0.1) for w, r in zip([1.0, 1.0, 0.5], rates[:, 0])]
    assert np.allclose(num.agent_values(rates), expected, rtol=1e-14)


def test_mixed_families_and_mismatched_dimensions_rejected():
    quad = dict(A=np.ones((1, 1, 1)), b=np.zeros((1, 1)), lower=np.zeros((1, 1)),
                upper=np.ones((1, 1)), gammas=[1.0],
                diag=np.ones((1, 1)), lin=np.zeros((1, 1)))
    with pytest.raises(InvalidProblemError, match="either"):
        CoupledProblem(**quad, weights=[1.0])
    with pytest.raises(InvalidProblemError, match="2 variables"):
        CoupledProblem(**{**quad, "diag": np.ones((1, 2)), "lin": np.zeros((1, 2))})
    with pytest.raises(InvalidProblemError, match="1 variables"):
        CoupledProblem(A=np.ones((1, 1, 2)), b=np.zeros((1, 1)), lower=np.zeros((1, 2)),
                       upper=np.ones((1, 2)), gammas=[1.0], weights=[1.0])


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
        assert _sum_agents(prob.agent_values(x)) == total
        residual = np.zeros(p)
        for term in prob.coupling_terms(x):
            residual = residual + term
        assert np.array_equal(prob.coupling_residual(x), residual)


def test_log_zero_price_returns_upper():
    prob = log_problem()
    assert solve_one(prob, np.zeros(2)) == pytest.approx([1.0])
    assert solve_one(prob, np.array([-5.0, 2.0])) == pytest.approx([1.0])


def test_log_stationary_point():
    # price 20 balances the marginal utility at x + 0.1 = 1.
    prob = log_problem(w=1.0)
    x = solve_one(prob, np.array([10.0, 10.0]))
    assert x == pytest.approx([0.9])
    assert abs(float(x[0]) - grid_argmin(prob, np.array([10.0, 10.0]))[0]) < 1e-3


def test_quadratic_scalar_example():
    prob = quad_problem([2.0], [0.0], [[1.0]])
    x = solve_one(prob, np.array([1.0]))
    assert x == pytest.approx([-0.5])
    assert abs(float(x[0]) - grid_argmin(prob, np.array([1.0]))[0]) < 1e-3


def test_closed_forms_match_grid_search():
    rng = np.random.default_rng(17)
    prob_q = quad_problem([2.0, 3.5], [0.5, -0.25], rng.uniform(-1, 1, (3, 2)))
    prob_l = log_problem(w=0.5)
    for _ in range(100):
        lam_q = rng.normal(size=3) * 3.0
        assert np.max(np.abs(solve_one(prob_q, lam_q) - grid_argmin(prob_q, lam_q))) < 1e-3
        lam_l = rng.normal(size=2) * 20.0
        assert np.max(np.abs(solve_one(prob_l, lam_l) - grid_argmin(prob_l, lam_l))) < 1e-3


def test_minimizer_always_inside_box():
    rng = np.random.default_rng(5)
    prob = quad_problem([1.0, 1.0], [5.0, -5.0], rng.uniform(-1, 1, (2, 2)))
    for _ in range(50):
        x = solve_one(prob, rng.normal(size=2) * 10)
        assert np.all(x >= prob.lower[0]) and np.all(x <= prob.upper[0])


def test_optimality_certificate():
    rng = np.random.default_rng(23)
    prob = quad_problem([2.0, 4.0], [0.3, -0.6], rng.uniform(-1, 1, (2, 2)))
    lower, upper = prob.lower[0], prob.upper[0]
    for _ in range(50):
        lam = rng.normal(size=2) * 4
        x = solve_one(prob, lam)
        grad = prob.diag[0] * x + prob.lin[0] + prob.A[0].T @ lam
        for k in range(x.size):
            if lower[k] < x[k] < upper[k]:
                assert abs(grad[k]) <= 1e-8
            elif x[k] == upper[k]:
                assert grad[k] <= 1e-8  # objective still decreasing at the bound
            else:
                assert grad[k] >= -1e-8


def test_dual_gradient_formula_and_zero_lambda():
    prob = quad_problem([2.0], [0.4], [[1.0], [-1.0]], gamma=0.7)
    # lambda = 0: x = -0.4 / 2 and no regularization term
    assert dual_gradient(prob, np.zeros(2)) == pytest.approx([-0.2, 0.2])
    # price 0.3 + 0.2 = 0.5 gives x = -0.45; minus 0.7 * lambda
    assert dual_gradient(prob, np.array([0.3, -0.2])) == pytest.approx([-0.66, 0.59])


def test_dual_gradient_strong_monotonicity():
    rng = np.random.default_rng(31)
    prob = make_quadratic_problem(m=1, p=3, dims=[2], seed=4, tau_min=1.0, gamma=0.8)
    for _ in range(100):
        l1, l2 = rng.normal(size=3) * 2, rng.normal(size=3) * 2
        inner = (dual_gradient(prob, l1) - dual_gradient(prob, l2)) @ (l1 - l2)
        assert inner <= -prob.gammas[0] * np.sum((l1 - l2) ** 2) + 1e-8


def test_dual_gradient_lipschitz():
    rng = np.random.default_rng(37)
    prob = make_quadratic_problem(m=1, p=3, dims=[2], seed=6, tau_min=1.0)
    gamma = prob.gammas[0]
    # The oracle's per-agent bound ||A||^2 / tau, tau the smallest curvature.
    L = np.linalg.norm(prob.A[0], 2) ** 2 / prob.modulus[0]
    for _ in range(100):
        l1, l2 = rng.normal(size=3) * 2, rng.normal(size=3) * 2
        unreg1 = dual_gradient(prob, l1) + gamma * l1
        unreg2 = dual_gradient(prob, l2) + gamma * l2
        assert np.linalg.norm(unreg1 - unreg2) <= L * np.linalg.norm(l1 - l2) + 1e-8


def test_tiny_price_gives_the_upper_bound_without_a_warning():
    # At lambda = 1e-310 the closed form 20 w / price overflows to inf, and
    # the clip takes it to the upper bound, which is the minimizer.
    prob = fig7_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_local(prob, np.full((prob.m, prob.p), 1e-310))
    assert np.array_equal(x, prob.upper)


def test_rejects_bad_lambda():
    prob = quad_problem([1.0], [0.0], [[1.0]])
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([[np.nan]]))
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([[np.inf]]))
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidInputError):
        solve_local(prob, np.array([1.0]))
