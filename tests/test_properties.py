"""Property tests over random small NUM and ragged quadratic instances.

The examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drdga import (
    CoupledProblem,
    RunConfig,
    advance_round,
    build_weight_matrix,
    cdda_run_until,
    ergodic_average,
    generate_graph_sequence,
    init_state,
    make_num_problem,
    make_quadratic_problem,
    metropolis_matrix,
    run_until,
    solve_local,
)

settings.register_profile("drdga", max_examples=40, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("drdga")

seeds = st.integers(0, 2**16)


@st.composite
def quadratic_problems(draw):
    m = draw(st.integers(1, 5))
    return make_quadratic_problem(
        m=m,
        p=draw(st.integers(1, 4)),
        dims=draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)),
        seed=draw(seeds),
        tau_min=draw(st.floats(0.1, 10.0)),
        gamma=draw(st.floats(0.1, 5.0)),
    )


@st.composite
def num_problems(draw):
    m = draw(st.integers(1, 6))  # sources
    p = draw(st.integers(1, 4))  # links
    cells = st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=p, max_size=p)
    routing = np.array(draw(cells), dtype=float)
    # Every source crosses at least one link.
    routing[draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)), np.arange(m)] = 1.0
    return make_num_problem(
        routing,
        capacities=draw(st.lists(st.floats(0.1, 5.0), min_size=p, max_size=p)),
        gammas=draw(st.lists(st.floats(0.1, 5.0), min_size=m, max_size=m)),
    )


problems = st.one_of(quadratic_problems(), num_problems())


def valid_q(prob):
    """A step-size constant above the DRDGA minimum 4 m / gamma_total."""
    return 4.0 * prob.m / prob.gamma_total + 1.0


@given(problems, seeds, st.floats(0.01, 100.0))
def test_stacked_solve_matches_one_agent_solves(prob, seed, scale):
    # An unpadded row repeats the one-agent arithmetic bit for bit. A padded
    # row's A_i^T lambda_i runs over n_max columns, which numpy may hand to a
    # different BLAS kernel than the n_i-column product (dot instead of gemv
    # for n_i = 1), so it agrees to rounding only.
    lam = np.random.default_rng(seed).normal(size=(prob.m, prob.p)) * scale
    x = solve_local(prob, lam)
    n_max = max(prob.dims)
    assert x.shape == (prob.m, n_max)
    for i, agent in enumerate(prob.agents):
        alone = solve_local(CoupledProblem(agents=(agent,), p=prob.p), lam[i : i + 1])[0]
        if agent.dim == n_max:
            assert np.array_equal(x[i], alone)
        else:
            assert np.allclose(x[i, : agent.dim], alone, rtol=0.0, atol=1e-12 * (1.0 + scale))
        assert np.all(x[i, agent.dim :] == 0.0)


@given(problems, seeds, st.integers(2, 25), st.integers(1, 3),
       st.sampled_from([run_until, cdda_run_until]))
def test_ergodic_average_stays_in_each_box(prob, seed, t_max, window, loop):
    seq = generate_graph_sequence(prob.m, window, seed=seed, pool_size=5)
    state, rows, _ = loop(prob, seq, RunConfig(q=valid_q(prob), t_max=t_max, epsilon=1e-300))
    assert len(rows) == t_max
    avg = ergodic_average(state)
    slack = 1e-12 * (1.0 + np.abs(prob.lower).max() + np.abs(prob.upper).max())
    assert np.all(avg >= prob.lower - slack) and np.all(avg <= prob.upper + slack)


@st.composite
def edge_pools(draw):
    m = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda e: e[0] != e[1])
    pool = draw(st.lists(st.sets(pairs, max_size=m * (m - 1)), min_size=1, max_size=5))
    return m, pool


@given(edge_pools(), seeds)
def test_pool_matrices_column_stochastic_and_push_sum_mass_kept(m_pool, seed):
    m, edge_sets = m_pool
    for edges in edge_sets:
        W = build_weight_matrix(edges, m)
        assert np.all(W >= 0.0)
        assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-12)
    # The run needs strongly connected rounds, or some rho decays to 0.
    ring = {(i, i % m + 1) for i in range(1, m + 1)} if m > 1 else set()
    pool = [build_weight_matrix(edges | ring, m) for edges in edge_sets]
    prob = make_quadratic_problem(m=m, p=2, dims=1, seed=seed, tau_min=1.0, gamma=4.0)
    state = init_state(prob, RunConfig(q=4.0, t_max=100, epsilon=1e-300))
    for _ in range(40):
        state = advance_round(state, prob, pool[state.t % len(pool)])
        assert abs(state.rho.sum() - m) <= 1e-12
        assert state.rho.min() > 0.0


@given(problems, seeds)
def test_cdda_keeps_push_sum_weights_exactly_one(prob, seed):
    seq = generate_graph_sequence(prob.m, 1, seed=seed, pool_size=4)
    state = init_state(prob, RunConfig(q=1.0, t_max=100, epsilon=1e-300), push_sum=False)
    for _ in range(30):
        state = advance_round(state, prob, metropolis_matrix(seq.edges(state.t), prob.m))
        assert np.all(state.rho == 1.0)
