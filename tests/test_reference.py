import dataclasses

import numpy as np
import pytest

from drdga import (
    CoupledProblem,
    InfeasibleProblemError,
    compute_G_bound,
    make_num_problem,
    make_quadratic_problem,
    solve_centralized,
    solve_local,
)
from drdga import reference

FIG7 = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [1.0, 1.0, 1.0])


def scalar_quadratic(A, b, lower, upper):
    """One agent with f(x) = x^2 / 2 on [lower, upper] and coupling A x - b."""
    return CoupledProblem(
        A=np.array([[[A]]]), b=np.array([[b]]), lower=np.array([[lower]]),
        upper=np.array([[upper]]), gammas=[1.0],
        diag=np.ones((1, 1)), lin=np.zeros((1, 1)),
    )


def test_detects_infeasible_single_agent():
    # A x ranges over [0, 1] but b = 5: the dual diverges.
    prob = scalar_quadratic(A=1.0, b=5.0, lower=0.0, upper=1.0)
    with pytest.raises(InfeasibleProblemError):
        solve_centralized(prob, tol=1e-6, max_iter=5000)


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

    sol = solve_centralized(prob, tol=1e-8)
    assert np.max(np.abs(sol.multiplier - lam_kkt)) < 1e-6
    for x, x_ref in zip(sol.x, xs_kkt):
        assert np.max(np.abs(x - x_ref)) < 1e-6
        assert np.all(np.abs(x) < 10)  # boxes indeed inactive


def test_fig7_solution_feasible_and_matches_grid_oracle():
    sol = solve_centralized(FIG7, tol=1e-6)
    assert sol.violation <= 1e-6
    for x in sol.x:
        assert 0.0 <= float(x[0]) <= 1.0
    # The coupling pins x3 = 0 and x2 = 1 - x1; scan that segment.
    grid = np.linspace(0.0, 1.0, 1001)
    vals = [
        FIG7.objective_value([np.array([g]), np.array([1 - g]), np.array([0.0])])
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
    sol = solve_centralized(prob, tol=tol)
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
        assert prob.objective_value(xs) >= sol.objective - slack - 1e-9


@pytest.mark.parametrize("b, feasible", [(0.5, True), (1.0, False)], ids=["feasible", "infeasible"])
def test_fully_fixed_box_decides_in_one_local_solve(monkeypatch, b, feasible):
    # Every coordinate is fixed, so x is a constant and the modulus is inf:
    # the L = 0 path decides at lambda = 0 instead of iterating to max_iter.
    calls = []
    monkeypatch.setattr(reference, "solve_local", lambda *a: calls.append(a) or solve_local(*a))
    prob = CoupledProblem(
        A=np.array([[[1.0, 1.0]]]), b=np.array([[b]]), lower=np.array([[0.2, 0.3]]),
        upper=np.array([[0.2, 0.3]]), gammas=[1.0], diag=np.array([[4.0, 0.01]]),
        lin=np.zeros((1, 2)),
    )
    assert prob.modulus.tolist() == [np.inf]
    # G is |0.2 + 0.3 - b|, with or without coupling rows.
    assert compute_G_bound(prob).tolist() == [abs(0.5 - b)]
    assert compute_G_bound(dataclasses.replace(prob, A=prob.A[:, :0], b=prob.b[:, :0])) == [0.0]
    if feasible:
        assert solve_centralized(prob, max_iter=1000).x.tolist() == [[0.2, 0.3]]
    else:
        with pytest.raises(InfeasibleProblemError):
            solve_centralized(prob, max_iter=1000)
    assert len(calls) == 1


def test_zero_coupling_maps():
    sol = solve_centralized(scalar_quadratic(A=0.0, b=0.0, lower=-1.0, upper=1.0), tol=1e-9)
    assert sol.violation == 0.0
    with pytest.raises(InfeasibleProblemError):
        solve_centralized(scalar_quadratic(A=0.0, b=1.0, lower=-1.0, upper=1.0), tol=1e-9)


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        solve_centralized(FIG7, tol=0.0)
