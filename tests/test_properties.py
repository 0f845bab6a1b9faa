"""Property tests over random small NUM and ragged quadratic instances.

The examples are derandomized, so every run checks the same cases.
"""

import dataclasses
import decimal
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from drdga import (
    ConfigError,
    GraphSequence,
    InfeasibleProblemError,
    InvalidEdgeError,
    Metrics,
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
    solve_centralized,
    solve_local,
)
from drdga.config import ALGORITHMS
from drdga import engine
from drdga.engine import STOP_CONVERGED, stopping_residuals
from drdga.cli import CSV_HEADER, main
from test_config_cli import MINIMAL_QUAD, assert_minimum_q_accepted, printed_minimum_q
from test_engine import assert_same_run, hand_run, hand_stepper
from analysis import multiplier_bounds

settings.register_profile("drdga", max_examples=40, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("drdga")

seeds = st.integers(0, 2**16)


@st.composite
def quadratic_problems(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    return make_quadratic_problem(
        m=m,
        p=draw(st.integers(1, 4)),
        dims=draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)),
        seed=draw(seeds),
        tau_min=draw(st.floats(0.1, 10.0)),
        gamma=draw(st.floats(0.1, 5.0)),
    )


@st.composite
def num_problems(draw, max_m=6):
    m = draw(st.integers(1, max_m))  # sources
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
    dims = (prob.lower < prob.upper).sum(axis=1).tolist()
    n_max = max(dims)
    assert x.shape == (prob.m, n_max)
    for i, (agent, n) in enumerate(zip(prob.agents, dims)):
        # Agent i alone at its own dimension n, without the padding.
        cut = lambda a: None if a is None else a[..., :n]
        agent = dataclasses.replace(agent, A=cut(agent.A), lower=cut(agent.lower),
                                    upper=cut(agent.upper), diag=cut(agent.diag),
                                    lin=cut(agent.lin))
        alone = solve_local(agent, lam[i : i + 1])[0]
        if n == n_max:
            assert np.array_equal(x[i], alone)
        else:
            assert np.allclose(x[i, :n], alone, rtol=0.0, atol=1e-12 * (1.0 + scale))
        assert np.all(x[i, n:] == 0.0)


@given(problems, seeds, st.integers(2, 25), st.integers(1, 3),
       st.sampled_from([run_until, cdda_run_until]))
def test_ergodic_average_stays_in_each_box(prob, seed, t_max, window, loop):
    seq = generate_graph_sequence(prob.m, window, seed=seed, pool_size=5)
    state, rows, _ = loop(prob, seq, RunConfig(q=valid_q(prob), t_max=t_max, epsilon=1e-300))
    assert len(rows) == t_max
    avg = ergodic_average(state)
    slack = 1e-12 * (1.0 + np.abs(prob.lower).max() + np.abs(prob.upper).max())
    assert np.all(avg >= prob.lower - slack) and np.all(avg <= prob.upper + slack)


@given(st.one_of(quadratic_problems(max_m=8), num_problems(max_m=8)), seeds,
       st.integers(2, 3 * 64), st.sampled_from([1e-300, 0.05, 0.3, 1.0, 3.0]), st.booleans(),
       st.one_of(st.none(), st.floats(-10.0, 10.0)))
def test_run_loop_rows_equal_per_round_evaluation(prob, seed, t_max, epsilon, push_sum, f_star):
    # Up to three blocks of observables (64 rounds each for m <= 8), evaluated
    # when full, at the stop round or at t_max, against evaluate_rounds of
    # every state alone of a hand-stepped run.
    seq = generate_graph_sequence(prob.m, 1, seed=seed, pool_size=5)
    config = RunConfig(q=valid_q(prob), t_max=t_max, epsilon=epsilon)
    loop = run_until if push_sum else cdda_run_until
    assert_same_run(loop(prob, seq, config, f_star=f_star),
                    hand_run(prob, seq, config, f_star, push_sum))


def transcribed_run(prob, seq, config, f_star, push_sum, rounds):
    """DRDGA (push_sum) or CDDA for ``rounds`` rounds, agent by agent as the
    recurrence is written, on matrices built edge by edge: with beta = q / t,
    u_i = sum_j W_ij theta_j, rho_i = sum_j W_ij rho_j, lambda_i = u_i / rho_i,
    x = solve_local(lambda) and theta_i = u_i + beta (A_i x_i - b_i - gamma_i lambda_i);
    CDDA keeps rho_i = 1 and drops the gamma term. Returns the final
    (theta, rho, reported lambda, x, ergodic sum) and every round's Metrics,
    each column from its definition."""
    m, mixing = prob.m, reference_weight_matrix if push_sum else reference_metropolis_matrix
    theta = np.zeros((m, prob.p)) if config.theta0 is None else np.array(config.theta0)
    rho, ergodic, rows = np.ones(m), np.zeros(prob.lower.shape), []
    for t in range(1, rounds + 1):
        W, beta = mixing(seq.adj[(t - 1) % len(seq.adj)]), config.q / t
        u = [sum(W[i, j] * theta[j] for j in range(m)) for i in range(m)]
        if push_sum:
            rho = np.array([sum(W[i, j] * rho[j] for j in range(m)) for i in range(m)])
        lam = np.array([u[i] / rho[i] for i in range(m)])
        x = solve_local(prob, lam)
        terms = [prob.A[i] @ x[i] - prob.b[i] for i in range(m)]
        gamma = prob.gammas if push_sum else np.zeros(m)
        theta = np.array([u[i] + beta * (terms[i] - gamma[i] * lam[i]) for i in range(m)])
        ergodic = ergodic + (t - 1) * x
        avg = x if t == 1 else ergodic / (t * (t - 1) / 2)
        if prob.weights is None:
            objective = sum(0.5 * prob.diag[i] @ avg[i] ** 2 + prob.lin[i] @ avg[i]
                            for i in range(m))
        else:
            objective = sum(-20.0 * prob.weights[i] * math.log(avg[i, 0] + 0.1) for i in range(m))
        reported = lam if push_sum else theta
        rows.append((t, objective, objective - f_star,
                     np.linalg.norm(sum(prob.A[i] @ avg[i] - prob.b[i] for i in range(m))),
                     np.linalg.norm(sum(terms)),
                     max(np.linalg.norm(a - b) for a in reported for b in reported),
                     max(np.linalg.norm(a) for a in reported), beta))
    return (theta, rho, reported, x, ergodic), np.rec.fromrecords(rows, dtype=Metrics)


@given(problems, seeds, st.integers(1, 2), st.integers(1, 5), st.integers(2, 120),
       st.booleans(), st.floats(0.0, 10.0), st.floats(-10.0, 10.0))
def test_run_follows_transcribed_recurrence(prob, seed, window, pool, t_max, push_sum,
                                            theta0_scale, f_star):
    # The run loop's kernel, block bookkeeping and observables against the
    # recurrence written out agent by agent. Summation orders differ, so the
    # two agree to rounding, not bit for bit: to 1e-12 relative to each value
    # or, where a value cancels to near 0, to its array's largest magnitude.
    # Rounding in a multiplier stays at the scale of the largest multiplier
    # the run has had, so theta, lambda and their norms use that scale.
    seq = generate_graph_sequence(prob.m, window, seed=seed, pool_size=pool)
    theta0 = theta0_scale * np.random.default_rng(seed).normal(size=(prob.m, prob.p))
    config = RunConfig(q=valid_q(prob), t_max=t_max, epsilon=1e-300, theta0=theta0)
    loop = run_until if push_sum else cdda_run_until
    state, rows, reason = loop(prob, seq, config, f_star=f_star)
    # Even at epsilon = 1e-300 a run stops where its three stop measures are
    # exactly 0, as CDDA on sources that all sit at their capacity can.
    assert state.t == t_max or reason == STOP_CONVERGED
    final, want = transcribed_run(prob, seq, config, f_star, push_sum, state.t)
    assert len(rows) == len(want) == state.t
    peak = max(want.max_lambda.max(), np.abs(theta0).max(), np.abs(final[0]).max())
    multipliers = ("disagreement", "max_lambda", "theta", "lam")
    pairs = [(name, rows[name], want[name]) for name in Metrics.names]
    pairs += [(name, getattr(state, name), value)
              for name, value in zip(("theta", "rho", "lam", "x", "ergodic_sum"), final)]
    for name, got, value in pairs:
        scale = peak if name in multipliers else np.abs(value).max()
        np.testing.assert_allclose(got, value, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


@given(problems, seeds, st.integers(1, 2), st.integers(1, 5), st.integers(2, 150),
       st.booleans(), st.sampled_from([1.0, 3.0]), st.floats(0.0, 10.0))
def test_multiplier_bound_holds_on_every_round_property(prob, seed, window, pool, t_max,
                                                        push_sum, scale, theta0_scale):
    # Random instances, pools and theta0, at the least q the step rule
    # accepts and at three times it: every round's max_lambda is at most
    # M_t, the bound stepped on every round (CDDA's closed form), to
    # rounding, and the run loop's bound is at least every M_t.
    seq = generate_graph_sequence(prob.m, window, seed=seed, pool_size=pool)
    theta0 = theta0_scale * np.random.default_rng(seed).normal(size=(prob.m, prob.p))
    config = RunConfig(q=scale * valid_q(prob), t_max=t_max, epsilon=1e-300, theta0=theta0)
    mixing = build_weight_matrix if push_sum else metropolis_matrix
    checked = engine.multiplier_bound(prob, tuple(mixing(adj) for adj in seq.adj), config,
                                      push_sum)
    assert checked <= engine.DUAL_LIMIT
    _, rows, _ = (run_until if push_sum else cdda_run_until)(prob, seq, config)
    bounds = multiplier_bounds(prob, seq, config.q, t_max, theta0, push_sum)
    assert np.all(rows.max_lambda <= bounds[: len(rows)] * (1.0 + 1e-12))
    assert checked >= bounds.max() * (1.0 - 1e-12)


@st.composite
def adjacency_pools(draw):
    """A (pool, m, m) bool pool with an empty diagonal."""
    m = draw(st.integers(1, 8))
    pool = draw(st.integers(1, 5))
    cells = draw(st.lists(st.booleans(), min_size=pool * m * m, max_size=pool * m * m))
    adj = np.array(cells, dtype=bool).reshape(pool, m, m)
    adj[:, np.arange(m), np.arange(m)] = False
    return adj


def reference_weight_matrix(adj):
    """Column-stochastic W built edge by edge."""
    m = len(adj)
    edges = list(zip(*np.nonzero(adj)))
    out_degree = np.ones(m)
    for i, _ in edges:
        out_degree[i] += 1.0
    W = np.zeros((m, m))
    for k in range(m):
        W[k, k] = 1.0 / out_degree[k]
    for i, j in edges:
        W[j, i] = 1.0 / out_degree[i]
    return W


def reference_metropolis_matrix(adj):
    """Metropolis weights built neighbor pair by neighbor pair."""
    m = len(adj)
    neighbors = [set() for _ in range(m)]
    for i, j in zip(*np.nonzero(adj)):
        neighbors[i].add(j)
        neighbors[j].add(i)
    W = np.zeros((m, m))
    for i in range(m):
        for j in neighbors[i]:
            W[i, j] = 1.0 / (1.0 + max(len(neighbors[i]), len(neighbors[j])))
    for i in range(m):
        W[i, i] = 1.0 - W[i].sum()
    return W


@given(adjacency_pools())
def test_mixing_matrices_match_edge_by_edge_reference(adj):
    for entry in adj:
        W = build_weight_matrix(entry)
        assert W.flags.c_contiguous
        assert np.array_equal(W, reference_weight_matrix(entry))
        M = metropolis_matrix(entry)
        assert M.flags.c_contiguous
        assert np.array_equal(M, reference_metropolis_matrix(entry))


@st.composite
def ring_edge_pools(draw):
    """A (pool, m, m) pool whose entries hold subsets of the ring 1 -> 2 -> ... -> m -> 1.

    A window's union is strongly connected iff it holds every ring edge, so
    the outcome turns on which pool entries each aligned window ORs.
    """
    m = draw(st.integers(2, 5))
    pool = draw(st.integers(1, 6))
    adj = np.zeros((pool, m, m), dtype=bool)
    rng = np.random.default_rng(draw(seeds))
    adj[:, np.arange(m), np.roll(np.arange(m), -1)] = rng.random((pool, m)) < 0.7
    return adj


@given(st.one_of(adjacency_pools(), ring_edge_pools()))
def test_window_connectivity_matches_strong_components(adj):
    # Windows run past the pool size (at most 6), and the reference ORs
    # every round of `pool` aligned windows, which covers a full period.
    for window in range(1, 13):
        connected = all(
            connected_components(
                csr_matrix(adj[np.arange(k * window, (k + 1) * window) % len(adj)].any(axis=0)),
                directed=True, connection="strong",
            )[0] == 1
            for k in range(len(adj))
        )
        if connected:
            assert GraphSequence(adj, window).m == adj.shape[1]
        else:
            with pytest.raises(InvalidEdgeError, match="not strongly connected"):
                GraphSequence(adj, window)


@given(adjacency_pools(), seeds)
def test_pool_matrices_column_stochastic_and_push_sum_mass_kept(adj, seed):
    m = adj.shape[1]
    for entry in adj:
        W = build_weight_matrix(entry)
        assert np.all(W >= 0.0)
        assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-12)
    # The run needs strongly connected rounds, or some rho decays to 0.
    ring = np.roll(np.eye(m, dtype=bool), 1, axis=1) & ~np.eye(m, dtype=bool)
    pool = [build_weight_matrix(entry | ring) for entry in adj]
    prob = make_quadratic_problem(m=m, p=2, dims=1, seed=seed, tau_min=1.0, gamma=4.0)
    config = RunConfig(q=4.0, t_max=100, epsilon=1e-300)
    state, advance = init_state(prob, config), hand_stepper(prob, config)
    for _ in range(40):
        state = advance(state, pool[state.t % len(pool)])
        assert abs(state.rho.sum() - m) <= 1e-12
        assert state.rho.min() > 0.0


@given(problems, seeds)
def test_cdda_keeps_push_sum_weights_exactly_one(prob, seed):
    seq = generate_graph_sequence(prob.m, 1, seed=seed, pool_size=4)
    config = RunConfig(q=1.0, t_max=100, epsilon=1e-300)
    state = init_state(prob, config, push_sum=False)
    advance = hand_stepper(prob, config, push_sum=False)
    for _ in range(30):
        state = advance(state, metropolis_matrix(seq.adj[state.t % len(seq.adj)]))
        assert np.all(state.rho == 1.0)


def round_stop_measures(lam_old, lam, f_old, f_new, violation):
    """The three stop measures of one round after the one before, as the run
    loop once computed them round by round."""
    kept = abs(f_old) >= 1e-12
    rel = abs((f_new[kept] - f_old[kept]) / f_old[kept])
    return float(abs(lam - lam_old).max()), violation, float(rel.max(initial=0.0))


# Previous values on both sides of the 1e-12 guard, exact zeros among them;
# new values that may be NaN or infinite. Bounded magnitudes keep every
# kept quotient finite, so no draw overflows.
_OLD_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 9.99e-13, -1e-12, 1e-12]),
                        st.floats(-1e6, 1e6))
_NEW_VALUES = st.one_of(st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
                        st.floats(-1e6, 1e6))


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 3), seeds, st.data())
def test_stacked_stop_measures_equal_each_rounds_own(k, m, p, seed, data):
    # stopping_residuals of k stacked rounds: row by row, bit for bit, the
    # measures of each round alone, NaN included.
    rng = np.random.default_rng(seed)
    lam_old, lam = rng.normal(size=(2, k, m, p)) * 10.0 ** rng.integers(-3, 4, size=(2, k, 1, 1))
    f_old, f_new = (np.array(data.draw(st.lists(values, min_size=k * m, max_size=k * m)))
                    .reshape(k, m) for values in (_OLD_VALUES, _NEW_VALUES))
    violation = np.array(data.draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.nan)),
                                            min_size=k, max_size=k)))
    got = stopping_residuals(lam_old, lam, f_old, f_new, violation)
    assert got.shape == (k, 3)
    for row, args in zip(got, zip(lam_old, lam, f_old, f_new, violation)):
        assert row.tobytes() == np.array(round_stop_measures(*args)).tobytes()


# Config fuzzing. Large values are left out: a large t_max runs that many
# rounds. Sizes too large to allocate have their own tests in
# test_config_cli.py; the num family has its own draws below.
_KEY_LINES = [i for i, line in enumerate(MINIMAL_QUAD.splitlines()) if "=" in line]
_DROP, _DUPLICATE = "<drop>", "<duplicate>"
_VALUES = ("", "abc", "-1", "0", "0.5", "2", "nan", "inf", "-inf")
_NAN_FREE_COLUMNS = [i for i, name in enumerate(CSV_HEADER.split(",")) if name != "gap"]


@given(st.sampled_from(_KEY_LINES),
       st.one_of(st.just(_DROP), st.just(_DUPLICATE), st.sampled_from(_VALUES)))
def test_mutated_config_is_a_clean_run_or_a_config_error(line_no, mutation):
    lines = MINIMAL_QUAD.splitlines()
    line = lines[line_no]
    if mutation == _DROP:
        del lines[line_no]
    elif mutation == _DUPLICATE:
        lines.insert(line_no, line)
    else:
        lines[line_no] = f"{line.split('=')[0].strip()} = {mutation}"
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "exp.cfg", Path(tmp) / "run.csv"
        config.write_text("\n".join(lines) + "\n")
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            for row in out.read_text().splitlines()[1:]:
                cells = row.split(",")
                assert not any(math.isnan(float(cells[i])) for i in _NAN_FREE_COLUMNS), row


@given(st.integers(1, 40), st.data())
def test_printed_minimum_q_is_the_least_accepted(m, data):
    # m sources on one link, each with its own gamma, and a q far below the
    # step rule: the minimum q the error prints is accepted through run.q
    # and init_state, and the six-digit q just below it is rejected.
    gammas = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m))
    text = ("[problem]\nfamily = num\nrouting = {}\ncapacities = 1\ngammas = {}\n\n"
            "[run]\nq = 1e-9\n").format(" ".join(["1"] * m), " ".join(map(repr, gammas)))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.cfg"
        config.write_text(text)
        printed = printed_minimum_q(config)
        assert_minimum_q_accepted(config, printed)
        below = decimal.Context(prec=6).next_minus(decimal.Decimal(printed))
        with pytest.raises(ConfigError, match="too small"):
            RunConfig(q=float(below)).validate_for(parse_config(config).problem, push_sum=True)


_BAD_CAPACITIES = ("0", "-1", "nan", "inf", "abc")
_FAULTS = (None, None, None, None, "zero column", "capacity count", "capacity value")
_SECTION_NAMES = ("experiment", "problem", "graph", "run")


@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from(_FAULTS), st.data())
def test_num_config_is_a_certified_run_or_a_named_config_error(links, sources, fault, data):
    # Random routing matrices and capacities, written as config text, most of
    # them valid and a few with one fault. A draw is rejected with a
    # ConfigError naming its section or field, or it runs a few rounds
    # against an oracle that either certified its answer or proved the
    # problem infeasible (any other oracle outcome raises here). Capacities
    # above a link's source count make a draw infeasible.
    routing = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=sources,
                                                   max_size=sources),
                                          min_size=links, max_size=links)), dtype=int)
    routing[data.draw(st.lists(st.integers(0, links - 1), min_size=sources,
                               max_size=sources)), np.arange(sources)] = 1
    capacities = [repr(c) for c in data.draw(st.lists(st.floats(0.05, 4.0), min_size=links,
                                                      max_size=links))]
    if fault == "zero column":
        routing[:, data.draw(st.integers(0, sources - 1))] = 0
    elif fault == "capacity count":
        capacities.append("1")
    elif fault == "capacity value":
        capacities[data.draw(st.integers(0, links - 1))] = data.draw(
            st.sampled_from(_BAD_CAPACITIES))
    text = ("[experiment]\nalgorithm = {}\n\n[problem]\nfamily = num\nrouting =\n{}"
            "capacities = {}\n\n[graph]\nseed = {}\n\n[run]\nq = {}\nt_max = 6\n").format(
        data.draw(st.sampled_from(ALGORITHMS)),
        "".join(f"    {' '.join(map(str, row))}\n" for row in routing), " ".join(capacities),
        data.draw(seeds), data.draw(st.sampled_from(("1", "4", "10"))))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.cfg"
        config.write_text(text)
        try:
            exp = parse_config(config)
        except ConfigError as exc:
            assert str(exc).split(":")[0].split(".")[0] in _SECTION_NAMES, exc
            return
    try:
        f_star = solve_centralized(exp.problem).objective
    except InfeasibleProblemError:
        f_star = None
    loop = run_until if exp.algorithm == "drdga" else cdda_run_until
    _, rows, _ = loop(exp.problem, exp.seq, exp.run, f_star=f_star)
    assert 1 <= len(rows) <= exp.run.t_max
    for name in CSV_HEADER.split(","):
        if name != "gap":
            assert np.all(np.isfinite(getattr(rows, name))), name
    assert np.all(np.isfinite(rows.gap)) == (f_star is not None)
