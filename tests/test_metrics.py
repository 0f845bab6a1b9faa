import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest

from drdga import (
    BoundConstants,
    GraphSequence,
    Metrics,
    RunConfig,
    advance_round,
    build_weight_matrix,
    constants_from_run,
    generate_graph_sequence,
    init_state,
    lemma2_residual,
    make_quadratic_problem,
    rate_fit,
    run_until,
    theorem2_bound,
    theorem3_bound,
)
from drdga.metrics import evaluate_rounds

CONSTANT_SETS = [
    dict(m=2, p=3, window=2, q=4.0, D=2.5, G=[1.0, 2.0], gammas=[0.5, 1.5], theta0_l1=1.2),
    dict(m=3, p=1, window=1, q=6.0, D=0.75, G=[0.1, 0.2, 0.3], gammas=[1.0, 1.0, 1.0], theta0_l1=0.0),
    dict(m=1, p=2, window=4, q=4.5, D=10.0, G=[3.0], gammas=[2.0], theta0_l1=5.0),
]


def independent_theorem2(T, m, p, window, q, D, G, gammas, theta0_l1):
    """Literal transcription of the printed gap bound, written separately."""
    delta = m ** (-m * window)
    eta = (1 - m ** (-m * window)) ** (1 / (m * window))
    B = max(math.sqrt(p) * (G[i] + gammas[i] * D) for i in range(m))
    s1 = sum(G[i] + gammas[i] * D for i in range(m))
    s2 = sum((G[i] + gammas[i] * D) ** 2 for i in range(m))
    bracket = eta / (1 - eta) * theta0_l1 + q * m * B / (1 - eta) * (1 + math.log(T))
    return 32 / (T * delta) * s1 * bracket + q / T * s2


def independent_theorem3(T, m, p, window, q, D, G, gammas, theta0_l1):
    delta = m ** (-m * window)
    eta = (1 - m ** (-m * window)) ** (1 / (m * window))
    gamma = sum(gammas)
    B = max(math.sqrt(p) * (G[i] + gammas[i] * D) for i in range(m))
    s1 = sum(G[i] + gammas[i] * D for i in range(m))
    s2 = sum((G[i] + gammas[i] * D) ** 2 for i in range(m))
    bracket = 8 * eta / (1 - eta) * theta0_l1 + 8 * q * m * B / (1 - eta) * (1 + math.log(T))
    return gamma / (T * delta) * s1 * bracket + q * gamma / (4 * T) * s2


@pytest.mark.parametrize("spec", CONSTANT_SETS)
@pytest.mark.parametrize("T", [1, 10, 1000])
def test_bounds_match_independent_evaluation(spec, T):
    c = BoundConstants(**spec)
    assert math.isclose(theorem2_bound(T, c), independent_theorem2(T, **spec), rel_tol=1e-12)
    assert math.isclose(theorem3_bound(T, c), independent_theorem3(T, **spec), rel_tol=1e-12)


def test_zero_theta0_drops_first_bracket_term():
    base = dict(CONSTANT_SETS[0])
    with_init = BoundConstants(**base)
    base["theta0_l1"] = 0.0
    without = BoundConstants(**base)
    # removing theta0 strictly lowers the bound; the remaining term survives
    assert theorem2_bound(50, without) < theorem2_bound(50, with_init)
    assert theorem3_bound(50, without) < theorem3_bound(50, with_init)
    assert theorem2_bound(50, without) > 0
    assert theorem3_bound(50, without) > 0


def test_bound_decreases_beyond_small_T():
    c = BoundConstants(**CONSTANT_SETS[0])
    for T in (8, 16, 64, 512):
        assert theorem2_bound(2 * T, c) < theorem2_bound(T, c)
        assert theorem3_bound(2 * T, c) < theorem3_bound(T, c)


@pytest.mark.parametrize("m", [20, 100])
@pytest.mark.parametrize("window", [1, 2])
def test_bounds_survive_eta_rounding_to_one(m, window):
    # eta = (1 - delta)^(1/(m window)) rounds to exactly 1.0 here, so 1 - eta
    # must come from delta; bounds past float range are inf, never an error or
    # an overflow warning, for a Python int T and a numpy integer T alike.
    c = BoundConstants(m=m, p=2, window=window, q=4.0, D=1.0, G=np.ones(m),
                       gammas=np.ones(m), theta0_l1=1.0)
    assert c.eta == 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 1000
        delta = decimal.Decimal(m) ** (-m * window)
        exact = 1 - (1 - delta) ** (decimal.Decimal(1) / (m * window))
    assert math.isclose(c.one_minus_eta, float(exact), rel_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in (theorem2_bound, theorem3_bound):
            assert bound(np.int64(100), c) == bound(100, c) > 0
            assert math.isinf(bound(100, c)) == (m == 100)


def test_bound_rejects_bad_T():
    c = BoundConstants(**CONSTANT_SETS[0])
    with pytest.raises(ValueError):
        theorem2_bound(0, c)
    with pytest.raises(ValueError):
        theorem3_bound(0, c)


NO_ROUNDS = Metrics(*[np.zeros(0)] * len(dataclasses.fields(Metrics)))


def test_bound_constants_share_the_problem_gamma_total():
    # For most draws of 64 unequal gammas, numpy's pairwise sum and the
    # left-to-right sum differ in the last bit; the rate bounds and the
    # q * gamma / m step rule must read one total.
    base = make_quadratic_problem(m=64, p=2, dims=1, seed=3, tau_min=1.0)
    rng = np.random.default_rng(64)
    for _ in range(20):
        prob = dataclasses.replace(base, gammas=rng.uniform(0.1, 5.0, 64))
        assert constants_from_run(prob, 1, 4.0, NO_ROUNDS).gamma_total == prob.gamma_total


def quad_run(rounds=12, m=3, seed=2):
    prob = make_quadratic_problem(m=m, p=2, dims=1, seed=seed, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(m, 1, seed=9)
    cfg = RunConfig(q=4.0, t_max=rounds + 1, epsilon=1e-300)
    state = init_state(prob, cfg)
    states = [state]
    for _ in range(rounds):
        W = build_weight_matrix(seq.adj[states[-1].t % len(seq.adj)])
        states.append(advance_round(states[-1], prob, W))
    rows = evaluate_rounds(states[1:], prob)
    return prob, seq, states, rows


def test_lemma2_residual_nonnegative_on_run():
    prob, seq, states, rows = quad_run(rounds=10)
    c = constants_from_run(prob, seq.window, 4.0, rows)
    rng = np.random.default_rng(0)
    for k in range(len(states) - 1):
        for _ in range(5):
            probe = rng.normal(size=2)
            probe *= rng.uniform(0, c.D) / np.linalg.norm(probe)
            assert lemma2_residual(states[k], states[k + 1], prob, probe, c) >= -1e-8


def test_lemma2_single_agent_zero_probe_matches_direct_algebra():
    prob = make_quadratic_problem(m=1, p=2, dims=[2], seed=5, tau_min=1.0, gamma=9.0)
    seq = GraphSequence(np.zeros((1, 1, 1), dtype=bool), window=1)
    cfg = RunConfig(q=1.0, t_max=10, epsilon=1e-300)
    states = [init_state(prob, cfg)]
    for _ in range(6):
        W = build_weight_matrix(seq.adj[states[-1].t % len(seq.adj)])
        states.append(advance_round(states[-1], prob, W))
    rows = evaluate_rounds(states[1:], prob)
    c = constants_from_run(prob, seq.window, 1.0, rows)
    A, b, gamma = prob.A[0], prob.b[0], prob.gammas[0]
    for k in range(len(states) - 1):
        s0, s1 = states[k], states[k + 1]
        res = lemma2_residual(s0, s1, prob, np.zeros(2), c)
        # direct m = 1 transcription of the inequality's two sides
        beta = 1.0 / s1.t
        th0, th1 = s0.theta[0], s1.theta[0]
        lam1, x1 = s1.lam[0], s1.x[0]
        coeff = c.G[0] + gamma * c.D
        lag = lambda mult: (float(prob.agent_values(x1[None])[0])
                            + float(mult @ (A @ x1 - b))
                            - 0.5 * gamma * float(mult @ mult))
        rhs = (float(th0 @ th0)
               + 4 * beta * coeff * float(np.linalg.norm(lam1 - th0))
               - beta * gamma * float(lam1 @ lam1)
               + beta**2 * coeff**2
               - 2 * beta * (lag(np.zeros(2)) - lag(th0)))
        direct = rhs - float(th1 @ th1)
        assert math.isclose(res, direct, rel_tol=1e-12, abs_tol=1e-12)
        assert res >= -1e-9


def test_lemma2_residual_monotone_in_D():
    prob, seq, states, rows = quad_run(rounds=6)
    c = constants_from_run(prob, seq.window, 4.0, rows)
    inflated = BoundConstants(m=c.m, p=c.p, window=c.window, q=c.q, D=10.0 * c.D,
                              G=c.G, gammas=c.gammas, theta0_l1=c.theta0_l1)
    rng = np.random.default_rng(1)
    for k in range(len(states) - 1):
        probe = rng.normal(size=2)
        base = lemma2_residual(states[k], states[k + 1], prob, probe, c)
        bigger = lemma2_residual(states[k], states[k + 1], prob, probe, inflated)
        assert bigger >= base - 1e-12


def test_lemma2_requires_consecutive_states():
    prob, seq, states, rows = quad_run(rounds=4)
    c = constants_from_run(prob, seq.window, 4.0, rows)
    with pytest.raises(ValueError):
        lemma2_residual(states[0], states[2], prob, np.zeros(2), c)


def synthetic_rows(values):
    t, gap = (np.array(column) for column in zip(*values))
    zeros = np.zeros(len(t))
    return Metrics(t=t, objective=zeros, gap=gap, violation=np.sqrt(abs(gap)),
                   violation_inst=zeros, disagreement=zeros, max_lambda=zeros, beta=zeros)


def test_rate_fit_recovers_exact_log_over_T():
    rows = synthetic_rows([(t, math.log(t) / t) for t in range(10, 200)])
    c_hat, max_ratio = rate_fit(rows, "gap")
    assert abs(c_hat - 1.0) <= 1e-9
    assert abs(max_ratio - 1.0) <= 1e-9


def test_rate_fit_faster_decay_peaks_at_start():
    rows = synthetic_rows([(t, 1.0 / t) for t in range(10, 200)])
    _, max_ratio = rate_fit(rows, "gap")
    assert max_ratio == pytest.approx(1.0)


def test_rate_fit_on_violation_squares_the_column():
    rows = synthetic_rows([(t, math.log(t) / t) for t in range(10, 100)])
    # violation was set to sqrt(gap), so violation^2 reproduces ln T / T
    c_hat, max_ratio = rate_fit(rows, "violation2")
    assert abs(c_hat - 1.0) <= 1e-9
    assert abs(max_ratio - 1.0) <= 1e-9


def test_rate_fit_input_validation():
    rows = synthetic_rows([(t, 1.0 / t) for t in range(10, 15)])
    with pytest.raises(ValueError):
        rate_fit(rows, "gap")
    rows = synthetic_rows([(t, 1.0 / t) for t in range(1, 9)])
    with pytest.raises(ValueError):
        rate_fit(rows, "gap")
    rows = synthetic_rows([(t, 1.0 / t) for t in range(10, 40)])
    with pytest.raises(ValueError):
        rate_fit(rows, "objective")


def test_metrics_rows_sane_on_run():
    prob, seq, states, rows = quad_run(rounds=12)
    assert len(rows) == 12
    assert np.array_equal(rows.t, np.arange(1, 13))
    assert rows.beta == pytest.approx(4.0 / np.arange(1, 13))
    assert np.all(rows.violation >= 0) and np.all(rows.violation_inst >= 0)
    assert np.all(rows.disagreement >= 0) and np.all(rows.max_lambda >= 0)
    assert np.all(np.isnan(rows.gap))  # no reference supplied
    assert np.all(np.isfinite(rows.objective))


@pytest.mark.parametrize("m", [1, 2, 5, 100])
def test_disagreement_matches_full_pairwise_broadcast(m):
    # The i < j pairs give the same bits as every ordered pair, diagonal included.
    prob = make_quadratic_problem(m=m, p=3, dims=1, seed=m, tau_min=1.0, gamma=4.0)
    state = init_state(prob, RunConfig(q=4.0 * m, t_max=10, epsilon=0.01))
    rng = np.random.default_rng(m)
    for scale in (1e-8, 1.0, 1e6):
        lam = scale * rng.normal(size=(m, prob.p))
        rows = evaluate_rounds([dataclasses.replace(state, t=1, lam=lam)], prob)
        (disagreement,) = rows.disagreement.tolist()
        diffs = lam[:, None, :] - lam[None, :, :]
        assert disagreement == float(np.sqrt((diffs * diffs).sum(axis=2)).max())
        if m == 1:
            assert disagreement == 0.0
    if m < 3:
        return
    # Near tie, through a block of three rounds: every pair but one is at
    # squared distance 2.25, and the pair of agents 0 and 2 one ulp above it.
    # Their square roots differ too, so picking a wrong pair shows.
    e = 2.0**-25.5
    lam = np.zeros((m, prob.p))
    lam[1:, 0] = 1.5
    lam[2, 1] = e
    assert 1.5**2 + e * e == np.nextafter(2.25, 3.0)
    block = [dataclasses.replace(state, t=t, lam=near_tie)
             for t, near_tie in enumerate((lam, lam[::-1], np.roll(lam, 1, axis=0)), start=1)]
    for disagreement in evaluate_rounds(block, prob).disagreement.tolist():
        assert disagreement == math.sqrt(np.nextafter(2.25, 3.0)) != 1.5


def test_round_carries_coupling_terms_of_its_iterate():
    # terms, values and violation_inst are those of the state's own x, bit for
    # bit, from round 0 on; the violation_inst column copies the carried norm.
    prob, seq, states, rows = quad_run(rounds=6)
    for state, column in zip(states, [None, *rows.violation_inst.tolist()]):
        assert np.array_equal(state.terms, prob.coupling_terms(state.x))
        assert np.array_equal(state.values, prob.agent_values(state.x))
        norm = float(np.linalg.norm(prob.coupling_residual(state.x)))
        assert state.violation_inst == norm
        if column is not None:
            assert column == norm


def test_empirical_values_stay_under_bounds():
    prob = make_quadratic_problem(m=3, p=2, dims=1, seed=2, tau_min=1.0, gamma=4.0)
    seq = generate_graph_sequence(3, 1, seed=9)
    from drdga import solve_centralized

    f_star = solve_centralized(prob).objective
    _, rows, _ = run_until(prob, seq, RunConfig(q=4.0, t_max=300, epsilon=1e-300), f_star=f_star)
    c = constants_from_run(prob, seq.window, 4.0, rows)
    for t, gap, violation in zip(rows.t.tolist(), rows.gap.tolist(), rows.violation.tolist()):
        assert gap <= theorem2_bound(t, c)
        assert violation**2 <= theorem3_bound(t, c)
