import dataclasses
import math
import sys
import tracemalloc
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from drdga import (
    ConfigError,
    GraphSequence,
    InvalidInputError,
    InvariantError,
    RunConfig,
    build_weight_matrix,
    cdda_run_until,
    ergodic_average,
    generate_graph_sequence,
    init_state,
    make_num_problem,
    make_quadratic_problem,
    metropolis_matrix,
    parse_config,
    run_until,
    solve_local,
)
from drdga import baseline, engine
from drdga.engine import STOP_CONVERGED, STOP_T_MAX, block_size, stopping_residuals
from drdga.metrics import SCREEN_MIN_M, Metrics, evaluate_rounds
from analysis import multiplier_bounds


def fig7():
    return make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [1.0, 1.0, 1.0])


def hand_stepper(prob, config, push_sum=True):
    """advance(state, W): one round on mixing matrix W, through the run
    loop's kernel and checks on a one-round block that every call reuses,
    with the run's step constant config.q and push_sum."""
    block = engine._Block(prob, config.q, push_sum, 1)
    return lambda state, W: engine._run_block(state, (W,), 1, block)[1]


def stepper(prob, seq, config):
    """step(state): one DRDGA round on the column-stochastic matrix of the
    sequence's current graph."""
    advance = hand_stepper(prob, config)
    return lambda state: advance(state, build_weight_matrix(seq.adj[state.t % len(seq.adj)]))


def single_agent_setup(gamma=9.0):
    prob = make_quadratic_problem(m=1, p=2, dims=[2], seed=5, tau_min=1.0, gamma=gamma)
    seq = GraphSequence(np.zeros((1, 1, 1), dtype=bool), window=1)
    return prob, seq


def test_step_rule_accepts_boundary_q():
    # gamma_total = 3, m = 3: q = 4 sits exactly on the threshold.
    init_state(fig7(), RunConfig(q=4.0, t_max=10, epsilon=0.01))


def test_step_rule_rejects_small_q_with_minimum():
    with pytest.raises(ConfigError, match="minimum q = 4"):
        init_state(fig7(), RunConfig(q=3.9, t_max=10, epsilon=0.01))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(q=0.0)
    with pytest.raises(ConfigError):
        RunConfig(q=4.0, t_max=1)
    for t_max in (2.5, 3.0):
        with pytest.raises(ConfigError, match=f"t_max must be an integer >= 2, got {t_max}"):
            RunConfig(q=4.0, t_max=t_max)
    assert RunConfig(q=4.0, t_max=np.int64(3)).t_max == 3
    with pytest.raises(ConfigError):
        RunConfig(q=4.0, epsilon=0.0)
    with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
        RunConfig(q=4.0, epsilon=math.inf)


def test_initial_state_and_first_round_lambda():
    prob = fig7()
    seq = generate_graph_sequence(3, 1, seed=7)
    config = RunConfig(q=4.0, t_max=10, epsilon=0.01)
    state = init_state(prob, config)
    assert state.t == 0
    assert np.all(state.rho == 1.0)
    assert np.all(state.theta == 0.0)
    # mixing zeros keeps the first multipliers at zero
    state = stepper(prob, seq, config)(state)
    assert np.all(state.lam == 0.0)
    assert state.t == 1


def test_theta0_shape_checked():
    prob = fig7()
    with pytest.raises(ConfigError):
        init_state(prob, RunConfig(q=4.0, theta0=np.zeros((2, 2))))
    state = init_state(prob, RunConfig(q=4.0, theta0=np.full((3, 2), 0.25)))
    assert np.all(state.theta == 0.25)


def test_single_agent_matches_centralized_recursion():
    # With m = 1 the rounds reduce to lambda[t+1] = theta[t] followed by a
    # regularized ascent step; compare against a direct implementation.
    prob, seq = single_agent_setup()
    A, b, gamma = prob.A[0], prob.b[0], prob.gammas[0]
    config = RunConfig(q=1.0, t_max=100, epsilon=1e-300)
    state, step = init_state(prob, config), stepper(prob, seq, config)
    theta = np.zeros(2)
    for t in range(1, 51):
        state = step(state)
        lam = theta.copy()
        x = solve_local(prob, lam[None])[0]
        theta = lam + (1.0 / t) * (A @ x - b - gamma * lam)
        assert np.max(np.abs(state.lam[0] - lam)) <= 1e-12
        assert np.max(np.abs(state.theta[0] - theta)) <= 1e-12
        assert np.max(np.abs(state.x[0] - x)) <= 1e-12


def test_mass_conservation_and_positivity():
    prob = make_quadratic_problem(m=5, p=3, dims=2, seed=11, tau_min=1.0)
    seq = generate_graph_sequence(5, 3, seed=2)
    config = RunConfig(q=4.0, t_max=600, epsilon=1e-300)
    state, step = init_state(prob, config), stepper(prob, seq, config)
    floor = 5.0 ** (-5 * 3)
    for _ in range(500):
        state = step(state)
        assert abs(state.rho.sum() - 5.0) <= 1e-9
        assert state.rho.min() >= floor - 1e-15


def test_ergodic_average_formulas():
    prob = make_quadratic_problem(m=2, p=2, dims=1, seed=1, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(2, 1, seed=0)
    config = RunConfig(q=2.0, t_max=10, epsilon=1e-300)
    s0, step = init_state(prob, config), stepper(prob, seq, config)
    s1 = step(s0)
    s2 = step(s1)
    s3 = step(s2)
    with pytest.raises(ValueError):
        ergodic_average(s1)
    for avg, x in zip(ergodic_average(s2), s2.x):
        assert np.allclose(avg, x)  # T = 2 collapses to x[2]
    for avg, x2, x3 in zip(ergodic_average(s3), s2.x, s3.x):
        assert np.allclose(avg, (x2 + 2.0 * x3) / 3.0)


def test_ergodic_average_of_constant_iterates():
    # A lone agent with zero coupling keeps lambda = 0 and x constant.
    prob = make_quadratic_problem(m=1, p=1, dims=[2], seed=3, tau_min=1.0, gamma=4.0)
    prob = dataclasses.replace(prob, A=np.zeros_like(prob.A), b=np.zeros((1, 1)))
    seq = GraphSequence(np.zeros((1, 1, 1), dtype=bool), window=1)
    config = RunConfig(q=4.0, t_max=12, epsilon=1e-300)
    state, step = init_state(prob, config), stepper(prob, seq, config)
    for _ in range(10):
        state = step(state)
    c = solve_local(prob, np.zeros((1, 1)))[0]
    for avg in ergodic_average(state):
        assert np.allclose(avg, c, atol=1e-12)


def test_run_until_stops_immediately_with_huge_epsilon():
    prob, seq = single_agent_setup()
    huge = RunConfig(q=1.0, t_max=50, epsilon=sys.float_info.max)
    state, rows, reason = run_until(prob, seq, huge)
    assert reason == STOP_CONVERGED
    assert state.t == 1 and len(rows) == 1


@pytest.mark.parametrize(
    "module, builder, loop",
    [(engine, "build_weight_matrix", run_until),
     (baseline, "metropolis_matrix", baseline.cdda_run_until)],
    ids=["drdga", "cdda"],
)
def test_mixing_built_once_per_pool_entry(monkeypatch, module, builder, loop):
    calls = []
    real = getattr(module, builder)

    def counting(adj):
        calls.append(adj)
        return real(adj)

    monkeypatch.setattr(module, builder, counting)
    prob = make_quadratic_problem(m=3, p=2, dims=1, seed=2, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(3, 1, seed=9, pool_size=7)
    _, rows, _ = loop(prob, seq, RunConfig(q=4.0, t_max=50, epsilon=1e-300))
    assert len(rows) == 50
    assert np.array_equal(calls, seq.adj)


@pytest.mark.parametrize("m", [4, 1])
@pytest.mark.parametrize(
    "module, builder, loop",
    [(engine, "build_weight_matrix", run_until),
     (baseline, "metropolis_matrix", baseline.cdda_run_until)],
    ids=["drdga", "cdda"],
)
def test_graph_of_the_wrong_size_rejected_before_mixing(monkeypatch, module, builder, loop, m):
    # Unchecked, the first round's product W @ theta fails inside numpy.
    calls = []
    monkeypatch.setattr(module, builder, calls.append)
    seq = generate_graph_sequence(m, 1, seed=1)
    with pytest.raises(InvalidInputError, match=f"graph sequence has {m} agents, the problem has 3"):
        loop(fig7(), seq, RunConfig(q=4.0, t_max=10))
    assert calls == []


@pytest.mark.parametrize("shape", [(1, 3), (4, 3), (3, 4), (3,)])
def test_mixing_matrix_of_the_wrong_shape_rejected(shape):
    # The kernel runs unchecked: a (1, 3) matrix would broadcast into every
    # agent's row. The run loop checks each matrix first.
    prob, seq = fig7(), generate_graph_sequence(3, 1, seed=1)
    message = rf"mixing matrix has shape \({', '.join(map(str, shape))},?\), expected \(3, 3\)"
    with pytest.raises(InvalidInputError, match=message):
        engine.run_rounds(prob, seq, RunConfig(q=4.0, t_max=10), None,
                          lambda adj: np.full(shape, 0.5), True)


def test_run_until_hits_round_cap():
    prob, seq = single_agent_setup()
    state, rows, reason = run_until(prob, seq, RunConfig(q=1.0, t_max=2, epsilon=1e-300))
    assert reason == STOP_T_MAX
    assert state.t == 2 and len(rows) == 2


def test_pure_mixing_consensus_on_complete_graph():
    # Frozen gradients: repeated mixing alone must contract the multipliers.
    m, p = 4, 3
    W = build_weight_matrix(~np.eye(m, dtype=bool))
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(m, p))
    rho = np.ones(m)
    for _ in range(5):
        theta = W @ theta
        rho = W @ rho
        lam = theta / rho[:, None]
    spread = np.max(np.linalg.norm(lam[:, None, :] - lam[None, :, :], axis=2))
    assert spread < 1e-6


def test_average_iterate_stays_in_box():
    prob = make_quadratic_problem(m=3, p=2, dims=[2, 1, 2], seed=21, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(3, 1, seed=4)
    state, rows, _ = run_until(prob, seq, RunConfig(q=4.0, t_max=80, epsilon=1e-300))
    # The padded coordinate of agent 2 sits in its box [0, 0].
    avg = ergodic_average(state)
    assert np.all(avg >= prob.lower - 1e-12) and np.all(avg <= prob.upper + 1e-12)


def test_dual_norms_stay_bounded():
    prob = make_quadratic_problem(m=3, p=2, dims=1, seed=2, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(3, 1, seed=9)
    _, rows, _ = run_until(prob, seq, RunConfig(q=4.0, t_max=400, epsilon=1e-300))
    norms = rows.max_lambda
    n = len(norms)
    first, last = max(norms[: n // 4]), max(norms[3 * n // 4 :])
    assert last <= max(1.1 * first, 1.0)


def count_agent_values(monkeypatch, prob):
    """Record every array the problem's agent_values is called with, in order."""
    calls = []
    real = type(prob).agent_values

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(type(prob), "agent_values", counting)
    return calls


def stop_test_reads(monkeypatch, prob):
    """Per kernel call, in order: ((first round, rounds), [every array the
    problem's agent_values is called with from the engine after it]), the
    iterates that block's stop test evaluates."""
    blocks = []
    real_kernel, real_values = engine._advance_block, type(prob).agent_values

    def kernel(state, pool, count, block):
        blocks.append(((state.t + 1, count), []))
        return real_kernel(state, pool, count, block)

    def values(self, x):
        if sys._getframe(1).f_globals["__name__"] == engine.__name__:
            blocks[-1][1].append(x)
        return real_values(self, x)

    monkeypatch.setattr(engine, "_advance_block", kernel)
    monkeypatch.setattr(type(prob), "agent_values", values)
    return blocks


def assert_reads_passing_rounds(blocks, states, passes):
    """Each block whose stop test reads a round evaluates, in one call, the
    iterates of exactly the rounds t with passes(t) and of the round before
    each, in order; a block that reads no round evaluates none."""
    for (first, count), reads in blocks:
        passing = [t for t in range(first, first + count) if passes(t)]
        read = sorted({*passing, *(t - 1 for t in passing)})
        assert len(reads) == (1 if passing else 0), first
        if passing:
            assert np.array_equal(reads[0], np.array([states[t].x for t in read])), first


def test_stop_check_evaluates_no_iterate_while_violation_exceeds_epsilon(monkeypatch):
    # At epsilon = 1e-300 every round's violation fails the stop test first,
    # so no state's values are read and no iterate is evaluated. The ergodic
    # averages are evaluated a block of rounds at a time, (rounds, m, n) per
    # call, and the blocks cover every row exactly once, in order.
    prob = make_quadratic_problem(m=3, p=2, dims=[2, 1, 2], seed=21, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(3, 1, seed=4)
    config = RunConfig(q=4.0, t_max=30, epsilon=1e-300)
    x1 = stepper(prob, seq, config)(init_state(prob, config)).x
    calls = count_agent_values(monkeypatch, prob)
    state, rows, _ = run_until(prob, seq, config)
    assert len(rows) == 30 and all(np.ndim(x) == 3 for x in calls)
    averages = np.concatenate(calls)
    assert len(averages) == len(rows)
    assert np.array_equal(averages[0], x1)  # at t = 1 the average is x[1]
    assert np.array_equal(averages[-1], ergodic_average(state))


def violation_of(prob, state):
    """The norm of sum_i (A_i x_i - b_i) at the state's own x."""
    return float(np.linalg.norm(prob.coupling_residual(state.x)))


def stop_measures_of(prob, prev, state):
    """stopping_residuals of ``state`` after ``prev``, read off their own iterates."""
    return tuple(stopping_residuals(
        prev.lam[None], state.lam[None], prob.agent_values(prev.x[None]),
        prob.agent_values(state.x[None]), [violation_of(prob, state)])[0].tolist())


def evaluate_states(states, prob, q, f_star=None):
    """evaluate_rounds of a list of round states, their arrays stacked, with
    each round's violation that of its own x."""
    t, lam, x, sums = (np.array([getattr(s, name) for s in states])
                       for name in ("t", "lam", "x", "ergodic_sum"))
    violation = np.array([violation_of(prob, s) for s in states])
    return evaluate_rounds(t, lam, x, sums, violation, q, prob, f_star,
                           out=np.recarray(len(states), Metrics))


def hand_run(prob, seq, config, f_star, push_sum):
    """The run loop spelled out: rounds stepped by hand, evaluate_states of
    every state alone, and the stop rule on each round, its measures read
    off the iterates themselves.

    Returns (final state, rows, stop reason, largest stop measure per round).
    """
    mixing = build_weight_matrix if push_sum else metropolis_matrix
    state, advance = init_state(prob, config, push_sum), hand_stepper(prob, config, push_sum)
    blocks, worst, reason = [], [], STOP_T_MAX
    while state.t < config.t_max:
        prev = state
        state = advance(state, mixing(seq.adj[state.t % len(seq.adj)]))
        blocks.append(evaluate_states([state], prob, config.q, f_star=f_star))
        measures = stop_measures_of(prob, prev, state)
        worst.append(max(measures))
        if all(r <= config.epsilon for r in measures):
            reason = STOP_CONVERGED
            break
    rows = np.concatenate(blocks).view(np.recarray)
    return state, rows, reason, worst


def assert_same_run(got, want):
    """Same stop reason, the same bits in every column (NaN included), and the
    same final state."""
    (state, rows, reason), (want_state, want_rows, want_reason) = got[:3], want[:3]
    assert reason == want_reason
    assert len(rows) == len(want_rows)
    for name in Metrics.names:
        column, want_column = rows[name], want_rows[name]
        assert column.dtype == want_column.dtype, name
        assert column.tobytes() == want_column.tobytes(), name
    for name in ("t", "theta", "rho", "lam", "x", "ergodic_sum"):
        assert np.array_equal(getattr(state, name), getattr(want_state, name)), name


def converging_setup():
    """A ragged quadratic instance whose unconstrained minimizer is
    coupling-feasible: from theta0 != 0 both algorithms keep reaching new
    lows of their largest stop measure past round 1,000, in grown blocks."""
    prob = make_quadratic_problem(m=3, p=2, dims=[2, 1, 2], seed=21, tau_min=1.0, gamma=1.0)
    x0 = solve_local(prob, np.zeros((3, 2)))
    prob = dataclasses.replace(prob, b=prob.b + prob.coupling_terms(x0))
    theta0 = np.full((3, 2), 2.0)
    return prob, generate_graph_sequence(3, 1, seed=4), theta0


def first_new_low(worst, wanted):
    """First round t with wanted(t) whose measure is below every earlier one:
    an epsilon equal to that measure stops the run exactly at t."""
    low = math.inf
    for t, value in enumerate(worst, start=1):
        if value < low and wanted(t):
            return t
        low = min(low, value)
    raise AssertionError("no such round")


def log_setup():
    """fig7's log-utility problem on its graph seed, from theta0 = 0."""
    return fig7(), generate_graph_sequence(3, 1, seed=7), None


def wide_setup():
    """A quadratic instance past SCREEN_MIN_M agents, in blocks of 8 rounds."""
    prob = make_quadratic_problem(m=100, p=10, dims=2, seed=3, tau_min=1.0, gamma=1.0)
    return prob, generate_graph_sequence(100, 1, seed=5, pool_size=5), None


def num_s20_setup():
    """num_s20's problem (m = 20, p = 19) on a 5-entry pool, in blocks of 21
    rounds whose pair form runs in chunks of 9."""
    prob = parse_config(str(files("drdga") / "configs" / "num_s20.cfg")).problem
    return prob, generate_graph_sequence(20, 1, seed=13, pool_size=5), None


def stop_measures(prob, seq, config, push_sum):
    """The largest stop measure of each round, the rounds stepped by hand."""
    mixing = build_weight_matrix if push_sum else metropolis_matrix
    state, advance = init_state(prob, config, push_sum), hand_stepper(prob, config, push_sum)
    worst = []
    while state.t < config.t_max:
        prev, state = state, advance(state, mixing(seq.adj[state.t % len(seq.adj)]))
        worst.append(max(stop_measures_of(prob, prev, state)))
    return worst


def kernel_calls(monkeypatch):
    """Record (first round, rounds) of every call of the round kernel."""
    calls = []
    real = engine._advance_block

    def recording(state, pool, count, block):
        calls.append((state.t + 1, count))
        return real(state, pool, count, block)

    monkeypatch.setattr(engine, "_advance_block", recording)
    return calls


@pytest.mark.parametrize("loop, push_sum", [(run_until, True), (cdda_run_until, False)],
                         ids=["drdga", "cdda"])
@pytest.mark.parametrize("setup, case", [
    (converging_setup, "converged-mid-block"),
    (converging_setup, "converged-on-block-end"),
    (converging_setup, "converged-on-block-start"),
    (converging_setup, "t_max-mid-block"),
    (log_setup, "t_max-mid-block"),
    (wide_setup, "t_max-mid-block"),
    (num_s20_setup, "t_max-mid-block"),
    (converging_setup, "t_max-past-growth"),
    (log_setup, "t_max-past-growth"),
], ids=["converged-mid-block", "converged-on-block-end", "converged-on-block-start",
        "t_max-mid-block", "log_fig7-t_max-mid-block", "quadratic_m100-t_max-mid-block",
        "num_s20-t_max-mid-block", "t_max-past-growth", "log_fig7-t_max-past-growth"])
def test_block_flushes_match_per_round_evaluation(monkeypatch, loop, push_sum, setup, case):
    # The run loop starts blocks of 64 rounds through round 320, then blocks
    # of a quarter of the rounds run, up to block_size: at 256 rounds the
    # cases sit in the grown block of rounds 321-400 (80 rounds), and
    # "past-growth" runs to round 1,500, through blocks of 100 to 244 rounds
    # and a block of 256 from round 1,221. A block_size B under 64 holds
    # from round 1, and the case sits in the third block, rounds 2B + 1 to
    # 3B: 17-24 through the disagreement screen at m = 100, and 43-63 at
    # num_s20's m = 20, where each block's pair form runs in several chunks.
    # "converged-on-block-start" stops at round 321, whose round before is
    # the previous block's last: the one row the stop test reads from
    # outside its block.
    prob, seq, theta0 = setup()
    B = block_size(prob.m, prob.p)
    if setup is wide_setup:
        assert prob.m >= SCREEN_MIN_M and B <= 8
    elif setup is num_s20_setup:
        assert prob.m < SCREEN_MIN_M and B * prob.m * (prob.m - 1) // 2 * prob.p > 1 << 15
    if B < 64:
        start, end = 2 * B, 3 * B
    else:
        assert B == 256
        start, end = 320, 400
    f_star = -0.25
    probe = RunConfig(q=4.0, t_max=end, epsilon=1e-300, theta0=theta0)
    if case == "t_max-past-growth":
        stop = 1500
        config, reason = dataclasses.replace(probe, t_max=stop), STOP_T_MAX
    elif case == "t_max-mid-block":
        stop = start + min(13, (end - start) // 2 + 1)
        config, reason = dataclasses.replace(probe, t_max=stop), STOP_T_MAX
    else:
        worst = stop_measures(prob, seq, probe, push_sum)
        if case == "converged-mid-block":  # a quarter or more into the block
            stop = first_new_low(worst, lambda t: start + (end - start) // 4 <= t < end)
        elif case == "converged-on-block-end":
            stop = first_new_low(worst, lambda t: t == end)
        else:  # its round before is the previous block's last
            stop = first_new_low(worst, lambda t: t == start + 1)
        config, reason = dataclasses.replace(probe, epsilon=worst[stop - 1]), STOP_CONVERGED
    calls = kernel_calls(monkeypatch)
    got = loop(prob, seq, config, f_star=f_star)
    assert got[0].t == len(got[1]) == stop and got[2] == reason
    if case != "t_max-past-growth":
        assert (start + 1, min(end, config.t_max) - start) in calls
    else:
        assert [count for _, count in calls] == [64] * 5 + [80, 100, 125, 156, 195, 244, 256, 24]
    assert_same_run(got, hand_run(prob, seq, config, f_star, push_sum))


@pytest.mark.parametrize("loop, push_sum", [(run_until, True), (cdda_run_until, False)],
                         ids=["drdga", "cdda"])
def test_rounds_computed_past_a_stop_are_bounded(monkeypatch, loop, push_sum):
    # A run that converges in round k computes at most max(63, k // 4)
    # rounds past k, counted over every kernel call: a block started at
    # round t has at most max(64, t // 4) rounds.
    prob, seq, theta0 = converging_setup()
    probe = RunConfig(q=4.0, t_max=1500, epsilon=1e-300, theta0=theta0)
    worst = stop_measures(prob, seq, probe, push_sum)
    calls = kernel_calls(monkeypatch)
    past = []
    for after in (0, 100, 330, 700, 1400):
        stop = first_new_low(worst, lambda t: t > after)
        calls.clear()
        state, _, reason = loop(prob, seq, dataclasses.replace(probe, epsilon=worst[stop - 1]))
        assert state.t == stop and reason == STOP_CONVERGED
        past.append(max(first + count - 1 for first, count in calls) - stop)
        assert past[-1] <= max(63, stop // 4)
    assert max(past) > 63  # a grown block was cut short


def edited_pool(seq, push_sum, entry, edit):
    """The run's mixing matrices with pool entry ``entry`` (first used in
    round entry + 1) replaced by edit(W), and a ``mixing`` for run_rounds
    that hands them out in order."""
    builder = build_weight_matrix if push_sum else metropolis_matrix
    pool = [builder(adj) for adj in seq.adj]
    pool[entry] = edit(pool[entry].copy())
    matrices = iter(pool)
    return pool, lambda adj: next(matrices)


def stepped_by_hand(prob, pool, config, push_sum):
    """The rounds stepped by hand to t_max; returns the exception raised and
    the round it was raised in."""
    state, advance = init_state(prob, config, push_sum), hand_stepper(prob, config, push_sum)
    try:
        while state.t < config.t_max:
            state = advance(state, pool[state.t % len(pool)])
    except Exception as error:
        return error, state.t + 1
    raise AssertionError("no round failed")


def zero_first_row(W):
    W[0] = 0.0  # rho_0 = 0, and u_0 / rho_0 = 0 / 0 in the rounds computed after
    return W


def nan_corner(W):
    W[0, 0] = np.nan  # lambda_0 = nan: quiet NaNs raise no floating-point flag
    return W


# The three numpy floating-point settings a caller may run under; the kernel
# ignores its own errors under each, and only the two checks fail a round.
FP_SETTINGS = ("ignore", "warn", "raise")


@pytest.mark.parametrize("push_sum, edit, error, message", [
    (True, zero_first_row, InvariantError, "push-sum weight became non-positive at round 21"),
    (True, nan_corner, InvalidInputError, "lambda must be finite"),
    (False, nan_corner, InvalidInputError, "lambda must be finite"),
], ids=["drdga-rho", "drdga-lambda", "cdda-lambda"])
def test_failing_round_mid_block_raises_as_stepped_by_hand(push_sum, edit, error, message):
    # Round 21 fails a check a third of the way into the first block, whose
    # other rounds the kernel has computed too. Under each floating-point
    # setting the run raises what stepping by hand raises, in the same
    # round, and warns of nothing.
    prob, _, theta0 = converging_setup()
    seq = generate_graph_sequence(3, 1, seed=4, pool_size=30)
    pool, _ = edited_pool(seq, push_sum, 20, edit)
    config = RunConfig(q=4.0, t_max=200, epsilon=1e-300, theta0=theta0)
    assert block_size(prob.m, prob.p) > 21
    for setting in FP_SETTINGS:
        with warnings.catch_warnings(), np.errstate(all=setting):
            warnings.simplefilter("error")
            by_hand, round_failed = stepped_by_hand(prob, pool, config, push_sum)
            with pytest.raises(error) as raised:
                engine.run_rounds(prob, seq, config, None, edited_pool(seq, push_sum, 20, edit)[1],
                                  push_sum)
        assert round_failed == 21 and type(by_hand) is error
        assert str(raised.value) == str(by_hand) == message
    if edit is zero_first_row:
        # Unchecked, round 21 and those after it divide 0 / 0: the kernel's
        # own floating-point errors are there, and the run ignores them.
        state, advance = init_state(prob, config, push_sum), hand_stepper(prob, config, push_sum)
        for _ in range(20):
            state = advance(state, pool[state.t % len(pool)])
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            engine._advance_block(state, pool, 10, engine._Block(prob, config.q, push_sum, 10))


def huge_first_row(W):
    W[0] = 1e308  # u_0 and rho_0 overflow to inf, and lambda_0 = inf / inf
    return W


@pytest.mark.parametrize("failing_round, ignored", [
    (2, ("over", "invalid")),
    (2, ("over",)),
    (350, ("over", "invalid")),
    (350, ("over",)),
    (350, ()),
], ids=["overflow-and-invalid-ignored", "overflow-ignored", "late-overflow-and-invalid-ignored",
        "late-overflow-ignored", "late-nothing-ignored"])
def test_lambda_overflow_raises_as_stepped_by_hand(monkeypatch, failing_round, ignored):
    # A mixing matrix whose first row is 1e308 overflows fig7's multipliers
    # in round 2, and that round fails the finiteness check; the rest of the
    # block is computed after it. In the late cases it fails round 350,
    # inside the grown block of rounds 321-400. Both runs pass the
    # multiplier bound, whose stepping ends at those infinite weights at the
    # latest. The kernel meets overflow, inf - inf and inf / inf on the way,
    # and ignores them: under
    # each floating-point setting, with the case's errors ignored and every
    # other one warned of or raised, the run and stepping by hand raise
    # the same error in the same round, warn of nothing, and the block is
    # computed once.
    prob = fig7()
    late = failing_round > 2
    seq = generate_graph_sequence(3, 1, seed=7, pool_size=400 if late else 20)
    config = RunConfig(q=4.0, t_max=500, epsilon=0.01)
    pool = edited_pool(seq, True, failing_round - 1, huge_first_row)[0]
    calls = kernel_calls(monkeypatch)
    for setting in FP_SETTINGS:
        with warnings.catch_warnings(record=True) as shown, \
                np.errstate(all=setting, **dict.fromkeys(ignored, "ignore")):
            warnings.simplefilter("always")
            by_hand, round_failed = stepped_by_hand(prob, pool, config, True)
            calls.clear()
            with pytest.raises(InvalidInputError) as raised:
                engine.run_rounds(prob, seq, config, None,
                                  edited_pool(seq, True, failing_round - 1, huge_first_row)[1],
                                  True)
        assert type(by_hand) is InvalidInputError
        assert str(raised.value) == str(by_hand) == "lambda must be finite"
        assert [str(w.message) for w in shown] == []
        assert round_failed == failing_round
        assert calls[-1] == ((321, 80) if late else (1, 64))


def test_failing_round_raises_before_its_stop_test():
    # At epsilon = float max round 1 passes the stop test, but its rho is
    # negative: the check comes first, as it does round by round.
    prob, seq = fig7(), generate_graph_sequence(3, 1, seed=7)

    def negate_first_row(W):
        W[0] = -W[0]
        return W

    pool, mixing = edited_pool(seq, True, 0, negate_first_row)
    config = RunConfig(q=4.0, t_max=100, epsilon=sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantError, match="non-positive at round 1$"):
            engine.run_rounds(prob, seq, config, None, mixing, True)
    assert run_until(prob, seq, config)[2] == STOP_CONVERGED


@pytest.mark.parametrize("push_sum, edit", [(True, zero_first_row), (False, nan_corner)],
                         ids=["drdga", "cdda"])
def test_stop_before_failing_round_in_same_block(push_sum, edit):
    # The run converges in round k and round k + 5 of the same block would
    # fail its check: the run stops converged at k, as hand_run does, and
    # the rounds computed past k neither raise nor warn.
    prob, _, theta0 = converging_setup()
    seq = generate_graph_sequence(3, 1, seed=4, pool_size=64)
    probe = RunConfig(q=4.0, t_max=64, epsilon=1e-300, theta0=theta0)
    worst = hand_run(prob, seq, probe, None, push_sum)[3]
    stop = first_new_low(worst, lambda t: 16 <= t <= 40)
    config = dataclasses.replace(probe, epsilon=worst[stop - 1])
    pool, mixing = edited_pool(seq, push_sum, stop + 4, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = engine.run_rounds(prob, seq, config, None, mixing, push_sum)
        error, round_failed = stepped_by_hand(prob, pool, probe, push_sum)
    assert isinstance(error, (InvariantError, InvalidInputError)) and round_failed == stop + 5
    assert got[0].t == stop and got[2] == STOP_CONVERGED
    assert_same_run(got, hand_run(prob, seq, config, None, push_sum))


def hand_states(prob, seq, config, push_sum):
    """Every state of a run to t_max, rounds 0 ... t_max, stepped by hand."""
    mixing = build_weight_matrix if push_sum else metropolis_matrix
    states, advance = [init_state(prob, config, push_sum)], hand_stepper(prob, config, push_sum)
    while states[-1].t < config.t_max:
        states.append(advance(states[-1], mixing(seq.adj[states[-1].t % len(seq.adj)])))
    return states


def test_stop_measures_are_those_of_each_rounds_iterates(monkeypatch):
    # At epsilon = float max every round reaches the stop test; the recorder
    # below answers it with inf, so the runs go on through five blocks. The
    # measures the run loop's stopping_residuals returns from its block rows
    # equal, bit for bit, those of the rounds stepped by hand:
    # max |lam - lam_old|, the norm of coupling_residual(x), and the largest
    # relative change of agent_values(x), as a plain loop computes it. So
    # does each row's violation_inst. Each block's stop test evaluates, in
    # one agent_values call, the iterates of its rounds and of the round
    # before its first, so a block's starting state is evaluated again.
    prob, seq, theta0 = converging_setup()
    config = RunConfig(q=4.0, t_max=300, epsilon=sys.float_info.max, theta0=theta0)
    for loop, push_sum in ((run_until, True), (cdda_run_until, False)):
        states = hand_states(prob, seq, config, push_sum)
        measured = []

        def recording(*args):
            rows = stopping_residuals(*args)
            measured.extend(map(tuple, rows.tolist()))
            return np.full_like(rows, math.inf)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "stopping_residuals", recording)
            blocks = stop_test_reads(patch, prob)
            state, rows, reason = loop(prob, seq, config)
        assert state.t == len(measured) == config.t_max and reason == STOP_T_MAX
        assert len(blocks) == 5
        assert_reads_passing_rounds(blocks, states, lambda t: True)
        for prev, now, got, column in zip(states, states[1:], measured, rows.violation_inst):
            f_old, f_new = prob.agent_values(prev.x), prob.agent_values(now.x)
            rel = max((abs((new - old) / old) for old, new in zip(f_old, f_new)
                       if abs(old) >= 1e-12), default=0.0)
            want = (float(abs(now.lam - prev.lam).max()), violation_of(prob, now), rel)
            assert got == want and column == want[1], now.t


@pytest.mark.parametrize("loop, push_sum", [(run_until, True), (cdda_run_until, False)],
                         ids=["drdga", "cdda"])
def test_violation_first_stop_matches_full_rule(monkeypatch, loop, push_sum):
    # An epsilon that the violation meets on earlier rounds whose dual or
    # objective residual is still above it: the run goes on past those rounds
    # and stops where the full three-residual rule of hand_run stops. Only
    # the rounds whose violation passes read values, of their own iterate and
    # the one before, in one agent_values call per block that reads any;
    # that includes a block's rounds computed past the stop.
    prob, seq, theta0 = converging_setup()
    probe = RunConfig(q=4.0, t_max=100, epsilon=1e-300, theta0=theta0)
    _, probe_rows, _, worst = hand_run(prob, seq, probe, None, push_sum)
    violation = probe_rows.violation_inst
    stop = first_new_low(worst, lambda t: any(
        violation[s - 1] <= worst[t - 1] < worst[s - 1] for s in range(1, t)))
    config = dataclasses.replace(probe, epsilon=worst[stop - 1])
    passing = [t for t in range(1, stop + 1) if violation[t - 1] <= config.epsilon]
    assert len(passing) >= 2  # a round past the violation test that did not stop

    want = hand_run(prob, seq, config, None, push_sum)
    states = hand_states(prob, seq, config, push_sum)
    blocks = stop_test_reads(monkeypatch, prob)
    got = loop(prob, seq, config)
    assert got[0].t == stop and got[2] == STOP_CONVERGED
    assert_same_run(got, want)
    assert_reads_passing_rounds(blocks, states, lambda t: violation[t - 1] <= config.epsilon)
    assert any(reads for _, reads in blocks)


def fig7_experiment(q=4.0, t_max=5000, epsilon=0.01):
    """The bundled fig7 instance and graph sequence, with these run settings."""
    exp = parse_config(str(files("drdga") / "configs" / "fig7.cfg"))
    return exp.problem, exp.seq, RunConfig(q=q, t_max=t_max, epsilon=epsilon)


@pytest.mark.parametrize("t_max", [311, 312])
def test_drdga_run_rejects_q1280_before_round_1(monkeypatch, t_max):
    # At q = 1,280 fig7's surrogates used to overflow in round 311 and its
    # multiplier in round 312. The a-priori multiplier bound passes 2^499
    # well within those rounds: the run is a ConfigError naming q, raised
    # before the kernel runs, and nothing warns.
    calls = kernel_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^q = 1280\.0 too large: multiplier bound "):
            run_until(*fig7_experiment(q=1280.0, t_max=t_max))
    assert calls == []


@pytest.mark.parametrize("t_max", [2, 3])
def test_cdda_run_rejects_huge_q_or_theta0_before_round_1(monkeypatch, t_max):
    # The settings under which CDDA's theta used to overflow in round 2, on
    # fig7 with every coupling term at 1.8: theta0 = 0.5e308 has rows past
    # 2^499, and from theta0 = 0 the bound M_1 + q (1 + ln t_max) max_j G_j
    # at q = 0.6e308 overflows to inf. Both are ConfigErrors before round 1,
    # without a warning.
    prob = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0])
    prob = dataclasses.replace(prob, b=np.full_like(prob.b, -1.8))
    calls = kernel_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^theta0 must be finite"):
            RunConfig(q=0.6e308, t_max=t_max, epsilon=0.01, theta0=np.full((3, 2), 0.5e308))
        with pytest.raises(ConfigError, match=r"^q = 6e\+307 too large: multiplier bound inf "):
            cdda_run_until(prob, generate_graph_sequence(3, 1, seed=4),
                           RunConfig(q=0.6e308, t_max=t_max, epsilon=0.01))
    assert calls == []


BOUND_CONFIGS = {name: files("drdga") / "configs" / f"{name}.cfg"
                 for name in ("fig7", "num_s20", "quadratic_m5")}
BOUND_CONFIGS["quad_m100"] = Path(__file__).resolve().parent.parent / "perfbench" / "quad_m100.cfg"
# The engine's bound at q = 4, against each run's own peak max_lambda of
# 3.33, 2.36, 12.4 and 1.22.
PEAK_BOUNDS_AT_Q4 = {"fig7": 12.7, "num_s20": 32.4, "quadratic_m5": 427.0, "quad_m100": 54.0}


@pytest.mark.parametrize("q", [4.0, 20.0, 80.0])
@pytest.mark.parametrize("name", sorted(BOUND_CONFIGS))
def test_multiplier_bound_holds_on_every_round(name, q):
    # Every round's max_lambda is at most M_t, the bound stepped on every
    # round, and the engine's bound, stepped only until every later weight
    # is known to be large enough, is at least every M_t.
    exp = parse_config(BOUND_CONFIGS[name])
    config = dataclasses.replace(exp.run, q=q)
    _, rows, _ = run_until(exp.problem, exp.seq, config)
    bounds = multiplier_bounds(exp.problem, exp.seq, q, len(rows))
    assert len(rows) == config.t_max and np.all(rows.max_lambda <= bounds)
    pool = tuple(build_weight_matrix(adj) for adj in exp.seq.adj)
    peak = engine.multiplier_bound(exp.problem, pool, config, push_sum=True)
    assert peak >= bounds.max() * (1.0 - 1e-12)
    if q == 4.0:
        assert math.isclose(peak, PEAK_BOUNDS_AT_Q4[name], rel_tol=5e-3)


def test_cdda_multiplier_bound_holds_on_every_round():
    # quadratic_m5 under CDDA: max_lambda, which peaks at 5.78, stays below
    # M_1 + q (1 + ln t) max_j G_j in every round; the engine checks the
    # closed form at t_max, 147.
    exp = parse_config(BOUND_CONFIGS["quadratic_m5"], algorithm="cdda")
    _, rows, _ = cdda_run_until(exp.problem, exp.seq, exp.run)
    bounds = multiplier_bounds(exp.problem, exp.seq, exp.run.q, exp.run.t_max, push_sum=False)
    assert np.all(rows.max_lambda <= bounds[: len(rows)])
    assert 5.7 < rows.max_lambda.max() < 5.8
    pool = tuple(metropolis_matrix(adj) for adj in exp.seq.adj)
    peak = engine.multiplier_bound(exp.problem, pool, exp.run, push_sum=False)
    assert math.isclose(peak, bounds[-1], rel_tol=1e-12) and 146 < peak < 148


def test_multiplier_bound_steps_past_a_weight_dip():
    # Agent 1 hears every agent in even-indexed pool rounds and none in the
    # others, so its weight swings between about 3.3 and 0.55; its gamma is
    # 6 and the others' 0.1. Round 9 is the first in which beta_t gamma_j <=
    # rho_j(t) holds for every j, yet the next round breaks it again. A
    # bound stopped there would miss a growth of M_t by a factor of 40; the
    # engine's bound covers every M_t.
    m = 6
    hear, tell = np.zeros((m, m), dtype=bool), np.zeros((m, m), dtype=bool)
    hear[1:, 0], tell[0, 1:] = True, True
    seq = GraphSequence(np.array([hear, tell]), window=2)
    prob = make_quadratic_problem(m=m, p=2, dims=1, seed=1, tau_min=1.0, gamma=1.0)
    prob = dataclasses.replace(prob, gammas=np.array([6.0] + [0.1] * (m - 1)))
    config = RunConfig(q=4.0, t_max=3000)
    bounds = multiplier_bounds(prob, seq, config.q, config.t_max)
    pool = tuple(build_weight_matrix(adj) for adj in seq.adj)
    rho = [np.ones(m)]
    for t in range(1, 11):
        rho.append(pool[(t - 1) % 2] @ rho[-1])
    stops = [t for t in range(1, 11) if np.all(config.q / t * prob.gammas <= rho[t])]
    assert stops[0] == 9 and 10 not in stops
    assert bounds.max() > 40 * bounds[:9].max()
    assert engine.multiplier_bound(prob, pool, config, push_sum=True) >= bounds.max()
    _, rows, _ = run_until(prob, seq, config)
    assert np.all(rows.max_lambda <= bounds)


@pytest.mark.parametrize("name, corner", [("fig7", -4.765508990216246),
                                          ("num_s20", -4.113386707344549)])
def test_bundled_num_runs_never_leave_the_box_corner(name, corner):
    # Every source's rate sits at its upper bound in every round: no price
    # reaches the level that would lower it. The objective column holds F at
    # the upper bounds, summed over agents left to right as the column is,
    # in all 5,000 rows, and the final iterate is that corner.
    exp = parse_config(BOUND_CONFIGS[name])
    state, rows, _ = run_until(exp.problem, exp.seq, exp.run)
    values = exp.problem.agent_values(exp.problem.upper)
    assert float(np.add.accumulate(values)[-1]) == corner
    assert len(rows) == 5000 and np.all(rows.objective == corner)
    assert np.array_equal(state.x, exp.problem.upper)


@pytest.mark.parametrize("loop", [run_until, cdda_run_until], ids=["drdga", "cdda"])
def test_absurd_q_or_theta0_is_rejected_without_a_warning(loop):
    # The bound's own arithmetic overflows to inf, and the theta0 check's
    # squares do too: neither warns. With gamma = 2 the first DRDGA step's
    # beta gamma / rho overflows too, and times M_1 = 0 is nan: that bound
    # fails the limit as well.
    prob, seq, _ = fig7_experiment()
    doubled = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [2.0, 2.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for problem in (prob, doubled):
            with pytest.raises(ConfigError, match=r"^q = 1e\+308 too large: multiplier bound "):
                loop(problem, seq, RunConfig(q=1e308))
        for theta0 in (np.full((3, 2), 1e308), np.full((3, 2), math.inf)):
            with pytest.raises(ConfigError, match="^theta0 must be finite"):
                RunConfig(q=4.0, theta0=theta0)


def traced_peak(fn, *args):
    """Bytes fn(*args) allocates at its peak, past what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_run_output_costs_its_columns_alone():
    # A round's output is its eight 8-byte column entries, held once: 64
    # bytes, and 6,000 more rounds add at most 70 bytes each to the peak.
    prob, seq, config = fig7_experiment(epsilon=1e-300)
    run_until(prob, seq, dataclasses.replace(config, t_max=100))  # warm every cache
    short, long = (traced_peak(run_until, prob, seq, dataclasses.replace(config, t_max=t_max))
                   for t_max in (2000, 8000))
    assert (long - short) / 6000 <= 70


def test_huge_t_max_run_stops_early():
    # The columns start at 2^20 rows, not t_max's 10^12.
    prob, seq, config = fig7_experiment(t_max=10**12, epsilon=10.0)
    state, rows, reason = run_until(prob, seq, config)
    assert reason == STOP_CONVERGED and state.t == len(rows) < 64


@pytest.mark.parametrize("loop", [run_until, cdda_run_until], ids=["drdga", "cdda"])
def test_outgrown_columns_keep_every_row(monkeypatch, loop):
    # From 100 rows the columns grow to 256, 640 and then t_max's 1,000 rows.
    prob, seq, config = fig7_experiment(t_max=1000, epsilon=1e-300)
    want = loop(prob, seq, config)
    monkeypatch.setattr(engine, "_ROWS", 100)
    assert_same_run(loop(prob, seq, config), want)
