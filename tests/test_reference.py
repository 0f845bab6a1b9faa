import dataclasses
import math
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from drdga import (
    CoupledProblem,
    InfeasibleProblemError,
    InvalidProblemError,
    UncertifiedSolutionError,
    compute_G_bound,
    make_num_problem,
    make_quadratic_problem,
    parse_config,
    solve_centralized,
    solve_local,
)
from drdga import reference
from drdga.problem import _sum_agents

FIG7 = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [1.0, 1.0, 1.0])
CONFIGS = files("drdga") / "configs"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scalar_quadratic(A, b, lower, upper):
    """One agent with f(x) = x^2 / 2 on [lower, upper] and coupling A x - b."""
    return CoupledProblem(
        A=np.array([[[A]]]), b=np.array([[b]]), lower=np.array([[lower]]),
        upper=np.array([[upper]]), gammas=[1.0],
        diag=np.ones((1, 1)), lin=np.zeros((1, 1)),
    )


def test_detects_infeasible_single_agent():
    # A x ranges over [0, 1] but b = 5. One step takes d from 0 to 20.5, above
    # the largest F on the box, 0.5, which weak duality forbids a feasible
    # problem: the loop stops there, and the phase-1 LP proves it.
    prob = scalar_quadratic(A=1.0, b=5.0, lower=0.0, upper=1.0)
    lam = np.zeros(1)
    _, point, steps = reference._dual_newton(prob, lam, reference._dual_point(prob, lam))
    assert reference._box_max(prob) == 0.5
    assert point.dual > 0.5 and steps <= 2
    with pytest.raises(InfeasibleProblemError):
        solve_centralized(prob)


def test_matches_kkt_linear_system_when_boxes_inactive():
    rng = np.random.default_rng(42)
    diag, lin, A, b = [], [], [], []
    for _ in range(2):
        diag.append(rng.uniform(2.0, 4.0, 2))
        lin.append(rng.uniform(-0.5, 0.5, 2))
        A.append(rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2))
        b.append(A[-1] @ rng.uniform(-0.2, 0.2, 2))
    prob = CoupledProblem(
        A=np.array(A), b=np.array(b), lower=np.full((2, 2), -10.0), upper=np.full((2, 2), 10.0),
        gammas=np.ones(2), diag=np.array(diag), lin=np.array(lin),
    )
    # Independent oracle: stationarity x_i = -D_i^{-1}(c_i + A_i^T lam) plugged
    # into the coupling gives a linear system for lam.
    H = sum(A_i @ np.diag(1.0 / d) @ A_i.T for A_i, d in zip(A, diag))
    rhs = -sum(b_i + A_i @ (c / d) for A_i, b_i, c, d in zip(A, b, lin, diag))
    lam_kkt = np.linalg.solve(H, rhs)
    xs_kkt = [-(c + A_i.T @ lam_kkt) / d for A_i, c, d in zip(A, lin, diag)]

    sol = solve_centralized(prob)
    assert np.max(np.abs(sol.multiplier - lam_kkt)) < 1e-6
    for x, x_ref in zip(sol.x, xs_kkt):
        assert np.max(np.abs(x - x_ref)) < 1e-6
        assert np.all(np.abs(x) < 10)  # boxes indeed inactive


def test_fig7_solution_feasible_and_matches_grid_oracle():
    sol = solve_centralized(FIG7)
    assert sol.violation <= 1e-6
    for x in sol.x:
        assert 0.0 <= float(x[0]) <= 1.0
    # The coupling pins x3 = 0 and x2 = 1 - x1; scan that segment.
    grid = np.linspace(0.0, 1.0, 1001)
    vals = [
        _sum_agents(FIG7.agent_values([np.array([g]), np.array([1 - g]), np.array([0.0])]))
        for g in grid
    ]
    best = grid[int(np.argmin(vals))]
    assert abs(float(sol.x[0][0]) - best) < 1e-3
    assert abs(float(sol.x[1][0]) - best) < 1e-3
    assert float(sol.x[2][0]) < 1e-3
    assert sol.objective <= min(vals) + 1e-6


def test_weak_duality_certificate_on_quadratic():
    prob = make_quadratic_problem(m=3, p=2, dims=2, seed=19, tau_min=1.0)
    tol = 1e-8
    sol = solve_centralized(prob)
    slack = prob.p * tol * np.linalg.norm(sol.multiplier)
    rng = np.random.default_rng(2)
    # Coupling-feasible candidates: perturb the solution within the null space
    # of the stacked coupling map, then re-check feasibility before comparing.
    stacked = np.hstack(list(prob.A))
    _, _, Vt = np.linalg.svd(stacked)
    null = Vt[np.linalg.matrix_rank(stacked):].T
    x_flat = np.concatenate(sol.x)
    for _ in range(20):
        cand = x_flat + null @ rng.normal(size=null.shape[1]) * 0.05
        xs = cand.reshape(prob.lower.shape)
        if np.any(xs < prob.lower) or np.any(xs > prob.upper):
            continue
        assert float(np.linalg.norm(prob.coupling_residual(xs))) <= 1e-6
        assert _sum_agents(prob.agent_values(xs)) >= sol.objective - slack - 1e-9


@pytest.mark.parametrize("b, feasible", [(0.5, True), (1.0, False)], ids=["feasible", "infeasible"])
def test_fully_fixed_box_decides_in_one_local_solve(monkeypatch, b, feasible):
    # Every coordinate is fixed, so x is a constant and the modulus is inf:
    # the L = 0 path decides at lambda = 0, and certifies without a second solve.
    calls = []
    monkeypatch.setattr(reference, "solve_local", lambda *a: calls.append(a) or solve_local(*a))
    prob = CoupledProblem(
        A=np.array([[[1.0, 1.0]]]), b=np.array([[b]]), lower=np.array([[0.2, 0.3]]),
        upper=np.array([[0.2, 0.3]]), gammas=[1.0], diag=np.array([[4.0, 0.01]]),
        lin=np.zeros((1, 2)),
    )
    assert prob.modulus.tolist() == [np.inf]
    # G is |0.2 + 0.3 - b|; without coupling rows there is no problem to bound.
    assert compute_G_bound(prob).tolist() == [abs(0.5 - b)]
    with pytest.raises(InvalidProblemError, match="p = 0"):
        dataclasses.replace(prob, A=prob.A[:, :0], b=prob.b[:, :0])
    if feasible:
        assert solve_centralized(prob).x.tolist() == [[0.2, 0.3]]
    else:
        with pytest.raises(InfeasibleProblemError):
            solve_centralized(prob)
    assert len(calls) == 1


def test_zero_coupling_maps():
    sol = solve_centralized(scalar_quadratic(A=0.0, b=0.0, lower=-1.0, upper=1.0))
    assert sol.violation == 0.0
    with pytest.raises(InfeasibleProblemError):
        solve_centralized(scalar_quadratic(A=0.0, b=1.0, lower=-1.0, upper=1.0))


# Each bundled config's optimum F*, as an earlier active-set oracle (an
# independent method) certified it.
BUNDLED_OPTIMA = {
    "fig7": (CONFIGS / "fig7.cfg", 43.45887588058007),
    "num_s20": (CONFIGS / "num_s20.cfg", 48.920769787654),
    "quadratic_m5": (CONFIGS / "quadratic_m5.cfg", 1.61063818799603),
    "quad_m100": (PERFBENCH / "quad_m100.cfg", -4.131304790797335),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_OPTIMA))
def test_bundled_configs_are_certified(name):
    path, f_star = BUNDLED_OPTIMA[name]
    sol = solve_centralized(parse_config(str(path)).problem)
    assert sol.violation <= 1e-9
    assert abs(sol.duality_gap) <= 1e-9 * max(1.0, abs(sol.objective))
    assert abs(sol.objective - f_star) <= 1e-12
    assert sol.newton_steps >= 1


def test_fig7_optimum_and_multiplier_ray():
    # x = (1/2, 1/2, 0): sources 1 and 2 (w = 1) each give 20 ln(1/0.6), and
    # source 3 (w = 1/2) gives 10 ln 10.
    sol = solve_centralized(FIG7)
    assert abs(sol.objective - (40 * math.log(1 / 0.6) + 10 * math.log(10))) <= 1e-12
    # The dual optimum is a ray: lambda_1 + lambda_2 = 100/3 prices link
    # sharers 1 and 2, and x_3 = 0 needs lambda_2 >= 100.
    lam1, lam2 = sol.multiplier
    assert abs(lam1 + lam2 - 100 / 3) <= 1e-9
    assert lam2 >= 100 - 1e-9


def test_uncertified_answer_is_never_returned(monkeypatch):
    # With no Newton step the point at lambda = 0 is returned to the
    # certificate, which it fails; fig7 is feasible, so the LP proves nothing.
    monkeypatch.setattr(reference, "MAX_STEPS", 0)
    with pytest.raises(UncertifiedSolutionError, match=r"primal residual .* duality gap "):
        solve_centralized(FIG7)


def random_instance(rng):
    """A diagonal quadratic with narrow boxes, some fixed coordinates, a
    coupling row that is the sum of two others, and an offset b that is
    sometimes unreachable."""
    m, p, n = (int(k) for k in rng.integers(1, [10, 6, 4], endpoint=True))
    A = rng.normal(size=(m, p, n)) * (rng.random((m, p, n)) < 0.6)
    if p > 2:
        A[:, -1] = A[:, 0] + A[:, 1]
    lower = rng.uniform(-2.0, 0.0, (m, n))
    upper = lower + rng.uniform(0.0, 2.0, (m, n)) * (rng.random((m, n)) < 0.85)
    b = np.einsum("ipn,in->ip", A, rng.uniform(lower, upper))
    if rng.random() < 0.3:
        b = b + rng.normal(size=(m, p))
    return CoupledProblem(A=A, b=b, lower=lower, upper=upper, gammas=np.ones(m),
                          diag=rng.uniform(0.01, 10.0, (m, n)), lin=rng.normal(size=(m, n)) * 5)


def random_network(rng):
    """A rate-allocation network on 2 to 8 links whose capacities a random
    rate vector meets, some of its rates at 1, or that sometimes ask for more
    than any rates can carry. Link 1 carries source 1 alone, which pins that
    rate; pinned at its bound, the rate leaves the multipliers a ray."""
    links, sources = (int(k) for k in rng.integers([2, 1], [8, 12], endpoint=True))
    routing = rng.random((links, sources)) < 0.3
    routing[rng.integers(1, links, size=sources), np.arange(sources)] = True
    routing[0] = np.arange(sources) == 0
    rates = rng.uniform(0.0, 1.0, sources)
    rates[rng.random(sources) < 0.3] = 1.0
    capacities = routing @ rates
    if rng.random() < 0.3:
        capacities = capacities + rng.uniform(0.0, 1.0, links)
    return make_num_problem(routing.astype(int), np.maximum(capacities, 1e-3))


def assert_oracle_agrees_with_lp(problems):
    """Every feasible problem certifies, an independent LP agrees with the
    oracle on which are feasible, and both outcomes occur."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    outcomes = []
    for prob in problems:
        A = prob.A.transpose(1, 0, 2).reshape(prob.p, -1)
        lp = scipy_optimize.linprog(
            np.zeros(A.shape[1]), A_eq=A, b_eq=prob.b.sum(axis=0),
            bounds=np.column_stack([prob.lower.ravel(), prob.upper.ravel()]), method="highs")
        try:
            sol = solve_centralized(prob)
        except InfeasibleProblemError:
            outcomes.append(False)
            assert lp.status == 2
        else:
            outcomes.append(True)
            assert lp.status == 0
            assert sol.violation <= reference.RESIDUAL_TOL
            assert np.all((prob.lower <= sol.x) & (sol.x <= prob.upper))
            # The LP's vertex is feasible, so it cannot beat the optimum.
            vertex = lp.x.reshape(prob.lower.shape)
            assert _sum_agents(prob.agent_values(vertex)) >= sol.objective - 1e-7
    assert 0 < sum(outcomes) < len(outcomes)


def test_random_instances_are_certified_or_proved_infeasible():
    # The dual Newton must not stall short of the certificate on a feasible draw.
    rng = np.random.default_rng(5)
    assert_oracle_agrees_with_lp(random_instance(rng) for _ in range(60))


def test_random_networks_are_certified_or_proved_infeasible():
    # The log family, its multiplier rays included.
    rng = np.random.default_rng(8)
    assert_oracle_agrees_with_lp(random_network(rng) for _ in range(40))


def nth_draw(make, seed, k):
    """Draw k, counted from 0, of ``make`` on a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(k):
        make(rng)
    return make(rng)


def test_kink_network_certifies_to_rounding():
    # Source 2 sits at x = 1 with its price exactly at 20 w / 1.1, so J leaves
    # it out and A J A^T is singular along the links only it prices. A
    # Levenberg-Marquardt shifted step stopped here at ||r|| = 6.4e-10 with a
    # duality gap of -2.1e-8.
    sol = solve_centralized(nth_draw(random_network, 2026, 395))
    assert sol.violation <= 1e-12
    assert abs(sol.duality_gap) <= 1e-12 * max(1.0, abs(sol.objective))


@pytest.mark.parametrize("make, seed, k", [(random_network, 2026, 1932),
                                           (random_instance, 2027, 801)],
                         ids=["network", "quadratic"])
def test_slowly_rising_infeasible_dual_decides_within_100_local_solves(monkeypatch, make, seed, k):
    # d rises only slowly along a ray here (a ray search once took 731 and 604
    # local solves); weak duality ends the loop once d passes the box maximum.
    prob = nth_draw(make, seed, k)
    calls = []
    monkeypatch.setattr(reference, "solve_local", lambda *a: calls.append(a) or solve_local(*a))
    with pytest.raises(InfeasibleProblemError):
        solve_centralized(prob)
    assert len(calls) <= 100


@pytest.mark.parametrize("make, seed", [(random_instance, 5), (random_network, 8)],
                         ids=["quadratic", "network"])
def test_box_max_is_the_largest_corner_value(make, seed):
    # Brute force: each agent's largest value over all 2^n corners of its box.
    rng = np.random.default_rng(seed)
    for _ in range(30):
        prob = make(rng)
        n = prob.lower.shape[1]
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
        corners = np.where(bits[:, None, :], prob.upper, prob.lower)
        expected = prob.agent_values(corners).max(axis=0).sum()
        assert reference._box_max(prob) == pytest.approx(expected, rel=1e-12, abs=1e-12)
