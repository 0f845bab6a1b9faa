import numpy as np

from drdga import (
    GraphSequence,
    RunConfig,
    cdda_run_until,
    generate_graph_sequence,
    init_state,
    make_quadratic_problem,
    metropolis_matrix,
    solve_local,
)
from drdga.engine import STOP_CONVERGED
from test_engine import hand_stepper


def test_metropolis_is_doubly_stochastic_and_symmetric():
    for seed in range(5):
        seq = generate_graph_sequence(m=6, window=1, seed=seed)
        for t in range(5):
            W = metropolis_matrix(seq.adj[t % len(seq.adj)])
            assert np.allclose(W, W.T)
            assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-12)
            assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(W >= 0)


def test_single_agent_is_plain_dual_subgradient():
    prob = make_quadratic_problem(m=1, p=2, dims=[2], seed=5, tau_min=1.0, gamma=9.0)
    A, b = prob.A[0], prob.b[0]
    config = RunConfig(q=1.0, t_max=50, epsilon=1e-300)
    state = init_state(prob, config, push_sum=False)
    advance, lam = hand_stepper(prob, config, push_sum=False), np.zeros(2)
    for t in range(1, 31):
        state = advance(state, np.array([[1.0]]))
        x = solve_local(prob, lam[None])[0]
        lam = lam + (1.0 / t) * (A @ x - b)
        assert np.max(np.abs(state.lam[0] - lam)) <= 1e-12


def test_cdda_run_starts_from_theta0():
    prob = make_quadratic_problem(m=1, p=2, dims=[2], seed=5, tau_min=1.0, gamma=9.0)
    A, b = prob.A[0], prob.b[0]
    seq = GraphSequence(np.zeros((1, 1, 1), dtype=bool), window=1)
    theta0 = np.array([[0.75, -1.5]])
    config = RunConfig(q=1.0, t_max=5, epsilon=1e-300, theta0=theta0)
    state, _, _ = cdda_run_until(prob, seq, config)
    lam = theta0[0]
    for t in range(1, 6):
        lam = lam + (1.0 / t) * (A @ solve_local(prob, lam[None])[0] - b)
    assert np.max(np.abs(state.lam[0] - lam)) <= 1e-12


def test_cdda_round_one_dual_move_is_measured_from_theta0():
    # CDDA's reported multiplier is its post-step theta from round 0 on, so
    # round 1's dual move is max |theta_1 - theta0|, about 5.6 here, not
    # max |theta_1|, about 52: at epsilon = 10 the run stops at round 1.
    prob = make_quadratic_problem(m=3, p=2, dims=2, seed=1)
    seq = generate_graph_sequence(3, 1, seed=2)
    theta0 = np.full((3, 2), 50.0)
    config = RunConfig(q=4.0, t_max=2, epsilon=10.0, theta0=theta0)
    assert np.array_equal(init_state(prob, config, push_sum=False).lam, theta0)
    state, rows, reason = cdda_run_until(prob, seq, config)
    assert state.t == len(rows) == 1 and reason == STOP_CONVERGED
    assert 5.5 < abs(state.lam - theta0).max() < 5.7
    assert 51.9 < abs(state.lam).max() < 52.0


def test_pure_mixing_preserves_multiplier_sum():
    # Frozen gradients: double stochasticity keeps sum_i lambda_i constant.
    rng = np.random.default_rng(14)
    seq = generate_graph_sequence(m=5, window=1, seed=6)
    lam = rng.normal(size=(5, 3))
    total = lam.sum(axis=0).copy()
    for t in range(50):
        lam = metropolis_matrix(seq.adj[t % len(seq.adj)]) @ lam
        assert np.max(np.abs(lam.sum(axis=0) - total)) <= 1e-9


def test_cdda_run_is_deterministic():
    prob = make_quadratic_problem(m=4, p=2, dims=1, seed=3, tau_min=1.0)
    seq = generate_graph_sequence(4, 1, seed=12)
    cfg = RunConfig(q=4.0, t_max=60, epsilon=1e-300)
    s1, rows1, r1 = cdda_run_until(prob, seq, cfg)
    s2, rows2, r2 = cdda_run_until(prob, seq, cfg)
    assert r1 == r2
    assert np.array_equal(s1.lam, s2.lam)
    assert len(rows1) == len(rows2) == 60
    for name in rows1.dtype.names:
        assert rows1[name].tobytes() == rows2[name].tobytes(), name


def test_cdda_reduces_violation_on_quadratic():
    # Unregularized dual ascent should make clear feasibility progress.
    prob = make_quadratic_problem(m=4, p=2, dims=2, seed=7, tau_min=1.0)
    seq = generate_graph_sequence(4, 1, seed=1)
    _, rows, _ = cdda_run_until(prob, seq, RunConfig(q=4.0, t_max=800, epsilon=1e-300))
    assert rows.violation_inst[-1] < 0.25 * rows.violation_inst[0]
