import dataclasses
import math
import sys
import tracemalloc
import warnings
from importlib.resources import files

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
from drdga.engine import STOP_CONVERGED, STOP_T_MAX, stopping_residuals
from drdga.metrics import SCREEN_MIN_M, Metrics, block_size, evaluate_rounds


def fig7():
    return make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [1.0, 1.0, 1.0])


def hand_stepper(prob):
    """advance(state, W): one round on mixing matrix W, through the run
    loop's kernel and checks on a one-round block that every call reuses."""
    block = engine._Block(prob, 1)
    return lambda state, W: engine._run_block(state, prob, (W,), 1, block)[1]


def stepper(prob, seq):
    """step(state): one round on the column-stochastic matrix of the sequence's current graph."""
    advance = hand_stepper(prob)
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
    state = init_state(prob, RunConfig(q=4.0, t_max=10, epsilon=0.01))
    assert state.t == 0
    assert np.all(state.rho == 1.0)
    assert np.all(state.theta == 0.0)
    # mixing zeros keeps the first multipliers at zero
    state = stepper(prob, seq)(state)
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
    state, step = init_state(prob, RunConfig(q=1.0, t_max=100, epsilon=1e-300)), stepper(prob, seq)
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
    state, step = init_state(prob, RunConfig(q=4.0, t_max=600, epsilon=1e-300)), stepper(prob, seq)
    floor = 5.0 ** (-5 * 3)
    for _ in range(500):
        state = step(state)
        assert abs(state.rho.sum() - 5.0) <= 1e-9
        assert state.rho.min() >= floor - 1e-15


def test_ergodic_average_formulas():
    prob = make_quadratic_problem(m=2, p=2, dims=1, seed=1, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(2, 1, seed=0)
    s0, step = init_state(prob, RunConfig(q=2.0, t_max=10, epsilon=1e-300)), stepper(prob, seq)
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
    state, step = init_state(prob, RunConfig(q=4.0, t_max=12, epsilon=1e-300)), stepper(prob, seq)
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


def test_stop_check_evaluates_no_iterate_while_violation_exceeds_epsilon(monkeypatch):
    # At epsilon = 1e-300 every round's violation fails the stop test first,
    # so no state's values are read and no iterate is evaluated. The ergodic
    # averages are evaluated a block of rounds at a time, (rounds, m, n) per
    # call, and the blocks cover every row exactly once, in order.
    prob = make_quadratic_problem(m=3, p=2, dims=[2, 1, 2], seed=21, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(3, 1, seed=4)
    config = RunConfig(q=4.0, t_max=30, epsilon=1e-300)
    x1 = stepper(prob, seq)(init_state(prob, config)).x
    calls = count_agent_values(monkeypatch, prob)
    state, rows, _ = run_until(prob, seq, config)
    assert len(rows) == 30 and all(np.ndim(x) == 3 for x in calls)
    averages = np.concatenate(calls)
    assert len(averages) == len(rows)
    assert np.array_equal(averages[0], x1)  # at t = 1 the average is x[1]
    assert np.array_equal(averages[-1], ergodic_average(state))


def assert_carries_its_iterate(state, prob):
    """The values and violation_inst a state carries are those of its own x, bit for bit."""
    assert np.array_equal(state.values, prob.agent_values(state.x))
    assert state.violation_inst == float(np.linalg.norm(prob.coupling_residual(state.x)))


def evaluate_states(states, prob, f_star=None):
    """evaluate_rounds of a list of round states, their arrays stacked."""
    return evaluate_rounds(*(np.array([getattr(s, name) for s in states]) for name in (
        "t", "lam", "x", "ergodic_sum", "violation_inst")), states[0].config.q, prob, f_star)


def hand_run(prob, seq, config, f_star, push_sum):
    """The run loop spelled out: rounds stepped by hand, evaluate_states of
    every state alone, and the stop rule on each round, after checking the
    values it reads against an evaluation of the iterate itself.

    Returns (final state, rows, stop reason, largest stop measure per round).
    """
    mixing = build_weight_matrix if push_sum else metropolis_matrix
    state, advance = init_state(prob, config, push_sum), hand_stepper(prob)
    assert_carries_its_iterate(state, prob)
    blocks, worst, reason = [], [], STOP_T_MAX
    while state.t < config.t_max:
        prev = state
        state = advance(state, mixing(seq.adj[state.t % len(seq.adj)]))
        assert_carries_its_iterate(state, prob)
        blocks.append(evaluate_states([state], prob, f_star=f_star))
        measures = stopping_residuals(prev, state)
        worst.append(max(measures))
        if all(r <= config.epsilon for r in measures):
            reason = STOP_CONVERGED
            break
    rows = Metrics(*(np.concatenate([getattr(b, f.name) for b in blocks])
                     for f in dataclasses.fields(Metrics)))
    return state, rows, reason, worst


def assert_same_run(got, want):
    """Same stop reason, the same bits in every column (NaN included), and the
    same final state."""
    (state, rows, reason), (want_state, want_rows, want_reason) = got[:3], want[:3]
    assert reason == want_reason
    assert len(rows) == len(want_rows)
    for f in dataclasses.fields(Metrics):
        column, want_column = getattr(rows, f.name), getattr(want_rows, f.name)
        assert column.dtype == want_column.dtype, f.name
        assert column.tobytes() == want_column.tobytes(), f.name
    for name in ("t", "theta", "rho", "lam", "x", "terms", "values", "violation_inst",
                 "ergodic_sum"):
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


def stop_measures(prob, seq, config, push_sum):
    """The largest stop measure of each round, the rounds stepped by hand."""
    mixing = build_weight_matrix if push_sum else metropolis_matrix
    state, advance, worst = init_state(prob, config, push_sum), hand_stepper(prob), []
    while state.t < config.t_max:
        prev, state = state, advance(state, mixing(seq.adj[state.t % len(seq.adj)]))
        worst.append(max(stopping_residuals(prev, state)))
    return worst


def kernel_calls(monkeypatch):
    """Record (first round, rounds) of every call of the round kernel."""
    calls = []
    real = engine._advance_block

    def recording(state, problem, pool, count, block):
        calls.append((state.t + 1, count))
        return real(state, problem, pool, count, block)

    monkeypatch.setattr(engine, "_advance_block", recording)
    return calls


@pytest.mark.parametrize("loop, push_sum", [(run_until, True), (cdda_run_until, False)],
                         ids=["drdga", "cdda"])
@pytest.mark.parametrize("setup, case", [
    (converging_setup, "converged-mid-block"),
    (converging_setup, "converged-on-block-end"),
    (converging_setup, "t_max-mid-block"),
    (log_setup, "t_max-mid-block"),
    (wide_setup, "t_max-mid-block"),
    (converging_setup, "t_max-past-growth"),
    (log_setup, "t_max-past-growth"),
], ids=["converged-mid-block", "converged-on-block-end", "t_max-mid-block",
        "log_fig7-t_max-mid-block", "quadratic_m100-t_max-mid-block",
        "t_max-past-growth", "log_fig7-t_max-past-growth"])
def test_block_flushes_match_per_round_evaluation(monkeypatch, loop, push_sum, setup, case):
    # The run loop starts blocks of 64 rounds through round 320, then blocks
    # of a quarter of the rounds run, up to block_size: the cases sit in the
    # grown block of rounds 321-400 (80 rounds), and "past-growth" runs to
    # round 1,500, through blocks of 100 to 244 rounds and a block of
    # block_size's 256 rounds from round 1,221. At m = 100 the blocks stay
    # at block_size's 8 rounds; the case sits in the third block, rounds 17-24.
    prob, seq, theta0 = setup()
    B = block_size(prob.m, prob.p)
    if setup is wide_setup:  # the disagreement screen, in short blocks
        assert prob.m >= SCREEN_MIN_M and B <= 8
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
        else:
            stop = first_new_low(worst, lambda t: t == end)
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
    state, advance = init_state(prob, config, push_sum), hand_stepper(prob)
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
        state, advance = init_state(prob, config, push_sum), hand_stepper(prob)
        for _ in range(20):
            state = advance(state, pool[state.t % len(pool)])
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            engine._advance_block(state, prob, pool, 10, engine._Block(prob, 10))


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
    # theta0 = 1e308 overflows fig7's multipliers to inf, and round 2 fails
    # the finiteness check; the rest of the block is computed after it. In
    # the late cases a mixing matrix whose first row is 1e308 fails round
    # 350, inside the grown block of rounds 321-400. The kernel meets
    # overflow, inf - inf and inf / inf on the way, and ignores them: under
    # each floating-point setting, with the case's errors ignored and every
    # other one warned of or raised, the run and stepping by hand raise
    # the same error in the same round, warn of nothing, and the block is
    # computed once.
    prob = fig7()
    late = failing_round > 2
    seq = generate_graph_sequence(3, 1, seed=7, pool_size=400 if late else 20)
    config = RunConfig(q=4.0, t_max=500, epsilon=0.01,
                       theta0=None if late else np.full((3, 2), 1e308))
    edit = huge_first_row if late else (lambda W: W)
    pool = edited_pool(seq, True, failing_round - 1, edit)[0]
    calls = kernel_calls(monkeypatch)
    for setting in FP_SETTINGS:
        with warnings.catch_warnings(record=True) as shown, \
                np.errstate(all=setting, **dict.fromkeys(ignored, "ignore")):
            warnings.simplefilter("always")
            by_hand, round_failed = stepped_by_hand(prob, pool, config, True)
            calls.clear()
            with pytest.raises(InvalidInputError) as raised:
                engine.run_rounds(prob, seq, config, None,
                                  edited_pool(seq, True, failing_round - 1, edit)[1], True)
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


@pytest.mark.parametrize("loop, push_sum", [(run_until, True), (cdda_run_until, False)],
                         ids=["drdga", "cdda"])
def test_violation_first_stop_matches_full_rule(monkeypatch, loop, push_sum):
    # An epsilon that the violation meets on earlier rounds whose dual or
    # objective residual is still above it: the run goes on past those rounds
    # and stops where the full three-residual rule of hand_run stops. Only
    # the rounds whose violation passes read values, of their own iterate and
    # the one before, and each iterate is evaluated at most once.
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
    calls = count_agent_values(monkeypatch, prob)
    got = loop(prob, seq, config)
    assert got[0].t == stop and got[2] == STOP_CONVERGED
    assert_same_run(got, want)
    per_iterate = [x for x in calls if np.ndim(x) == 2]
    assert len({id(x) for x in per_iterate}) == len(per_iterate)
    assert len(per_iterate) == len({*passing, *(t - 1 for t in passing)})
    assert per_iterate[-1] is got[0].x


def fig7_experiment(q=4.0, t_max=5000, epsilon=0.01):
    """The bundled fig7 instance and graph sequence, with these run settings."""
    exp = parse_config(str(files("drdga") / "configs" / "fig7.cfg"))
    return exp.problem, exp.seq, RunConfig(q=q, t_max=t_max, epsilon=epsilon)


@pytest.mark.parametrize("t_max, message", [
    (311, "theta is not finite after round 311"), (312, "lambda must be finite")])
def test_drdga_run_returns_no_non_finite_theta(t_max, message):
    # At q = 1,280 fig7's surrogates overflow in round 311 while its
    # multiplier stays finite; round 312's multiplier, mixed from them,
    # fails its check. A run that ends at round 311 fails on theta instead
    # of returning it.
    with pytest.raises(InvalidInputError, match=message):
        run_until(*fig7_experiment(q=1280.0, t_max=t_max))


@pytest.mark.parametrize("t_max, message", [
    (2, "theta is not finite after round 2"), (3, "lambda must be finite")])
def test_cdda_run_returns_no_non_finite_theta(t_max, message):
    # With every coupling term at 1.8, fig7's rates cannot meet the
    # constraint and theta only grows: from 0.5e308 it reaches 1.58e308 in
    # round 1 and overflows in round 2, where it is CDDA's multiplier. The
    # reported columns of that round read inf or nan without a warning.
    prob = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0])
    prob = dataclasses.replace(prob, b=np.full_like(prob.b, -1.8))
    config = RunConfig(q=0.6e308, t_max=t_max, epsilon=0.01, theta0=np.full((3, 2), 0.5e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=message):
            cdda_run_until(prob, generate_graph_sequence(3, 1, seed=4), config)


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
