import dataclasses
import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drdga import (
    BoundConstants,
    GraphSequence,
    Metrics,
    RunConfig,
    constants_from_run,
    generate_graph_sequence,
    init_state,
    lemma2_residual,
    make_num_problem,
    make_quadratic_problem,
    rate_fit,
    run_until,
    theorem2_bound,
    theorem3_bound,
)
from drdga.metrics import SCREEN_MIN_M, _disagreement
from test_engine import evaluate_states, stepper

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


def test_bounds_at_fig7_q640_peak_are_inf_without_warning():
    # fig7 at q = 640 peaks at max_lambda = 1.19e194, and D is that peak:
    # (G_i + gamma_i D)^2 overflows, and both bounds are inf without an
    # overflow warning.
    prob = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [1.0, 1.0, 1.0])
    rows = dataclasses.replace(NO_ROUNDS, max_lambda=np.array([1.19e194]))
    c = constants_from_run(prob, 1, 640.0, rows)
    assert c.D == 1.19e194
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in (theorem2_bound, theorem3_bound):
            assert bound(1, c) == bound(5000, c) == math.inf


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
    states, step = [init_state(prob, cfg)], stepper(prob, seq)
    for _ in range(rounds):
        states.append(step(states[-1]))
    rows = evaluate_states(states[1:], prob)
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
    states, step = [init_state(prob, cfg)], stepper(prob, seq)
    for _ in range(6):
        states.append(step(states[-1]))
    rows = evaluate_states(states[1:], prob)
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


def full_pairwise(lam):
    """Largest distance over every ordered pair of one round's (m, p)
    multipliers, diagonal included."""
    diffs = lam[:, None, :] - lam[None, :, :]
    return float(np.sqrt((diffs * diffs).sum(axis=2)).max())


@pytest.mark.parametrize("m", [1, 2, 5, SCREEN_MIN_M - 1, SCREEN_MIN_M, 100, 500])
def test_disagreement_matches_full_pairwise_broadcast(m):
    # The i < j pairs give the same bits as every ordered pair, diagonal
    # included, below SCREEN_MIN_M by the pair form and from it on through
    # the screen. One block holds an all-zero first round and three live ones.
    prob = make_quadratic_problem(m=m, p=3, dims=1, seed=m, tau_min=1.0, gamma=4.0)
    state = init_state(prob, RunConfig(q=4.0 * m, t_max=10, epsilon=0.01))
    rng = np.random.default_rng(m)
    lams = [np.zeros((m, prob.p))] + [scale * rng.normal(size=(m, prob.p))
                                      for scale in (1e-8, 1.0, 1e6)]
    block = [dataclasses.replace(state, t=t, lam=lam) for t, lam in enumerate(lams, start=1)]
    got = evaluate_states(block, prob).disagreement.tolist()
    assert got == [full_pairwise(lam) for lam in lams]
    assert got[0] == 0.0
    if m == 1:
        assert got == [0.0] * len(lams)
    if m < 3:
        return
    # Near tie, through a block of three rounds: every pair but one is at
    # squared distance 2.25, and the pair of agents 0 and 2 one ulp above it.
    # Their square roots differ too, so picking a wrong pair shows. From
    # SCREEN_MIN_M on every radius sum r_0 + r_i equals the lower bound L to
    # within rounding, so the screen's slack decides each of these pairs.
    e = 2.0**-25.5
    lam = np.zeros((m, prob.p))
    lam[1:, 0] = 1.5
    lam[2, 1] = e
    assert 1.5**2 + e * e == np.nextafter(2.25, 3.0)
    block = [dataclasses.replace(state, t=t, lam=near_tie)
             for t, near_tie in enumerate((lam, lam[::-1], np.roll(lam, 1, axis=0)), start=1)]
    for disagreement in evaluate_states(block, prob).disagreement.tolist():
        assert disagreement == math.sqrt(np.nextafter(2.25, 3.0)) != 1.5


def antipodal_rounds():
    # 48 agents at every signed permutation of (1, 2, 3): antipodal pairs +-v
    # about a mean of exactly 0, every radius sqrt(14), and every antipodal
    # pair at the triangle bound r_i + r_j. Then the same about an offset, and
    # with one agent moved out by an ulp in each coordinate.
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    perms = np.array(list(itertools.permutations((1.0, 2.0, 3.0))))
    v = (signs[:, None, :] * perms[None, :, :]).reshape(-1, 3)
    nudged = v.copy()
    nudged[5] = np.nextafter(v[5], 2.0 * v[5])
    return [v, v + np.array([0.25, -3.0, 7.5]), nudged, nudged[::-1].copy()]


def offset_rounds():
    # A common offset of 1e6 to 1e8 and a spread of a few ulps: every
    # multiplier difference is exact, most radii tie, and L is ulps wide.
    offset = np.array([1e6, 3e7, 1e8, -5e7])
    rng = np.random.default_rng(4)
    rounds = [offset + np.spacing(offset) * rng.integers(-3, 4, size=(40, 4)) for _ in range(3)]
    one = np.tile(offset, (40, 1))
    one[17, 2] = np.nextafter(offset[2], 0.0)  # one agent one ulp away
    return rounds + [one]


def collinear_rounds(scales=(1.0, 3.0, 0.1, 7.0), seeds=range(10), offset=True):
    # 30 agents on a line through their mean: every pair on opposite sides
    # of it is at its triangle bound, and the rounding of the radii decides
    # whether the largest pair stays. Without the slack the screen drops it
    # in about one round in eight.
    rounds = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        alpha = rng.normal(size=30)
        alpha -= alpha.mean()
        center, direction = offset * 10.0 ** (seed % 5 - 2) * rng.normal(size=3), rng.normal(size=3)
        rounds += [center + np.outer(scale * alpha, direction) for scale in scales]
    return rounds


def ranked_rounds():
    # The largest pair, (0.55, 0) and (-0.45, 0), joins the smaller of the two
    # radii above L / 2 to a radius below it, while (0, 0.6) has the largest
    # radius: the ranks the screen pairs must reach past its first agent.
    lam = np.zeros((30, 2))
    lam[:3] = [[0.55, 0.0], [-0.45, 0.0], [0.0, 0.6]]
    return [lam, lam[::-1].copy(), lam[:, ::-1].copy(), -lam]


def out_of_range_rounds():
    # Rounds the screen hands to the pair form: squares that overflow,
    # squares that underflow (at random and on a line), a nan, every lam
    # equal (0 without pairs), and every lam equal but infinite (nan, as inf - inf).
    rng = np.random.default_rng(5)
    huge = 1e200 * rng.normal(size=(30, 3))
    tiny = 1e-170 * rng.normal(size=(30, 3))
    tiny_line = collinear_rounds((1e-160, 1e-162), range(3), offset=False)
    with_nan = rng.normal(size=(30, 3))
    with_nan[7, 1] = math.nan
    return [huge, tiny, *tiny_line, with_nan, np.full((30, 3), 2.5), np.full((30, 3), math.inf)]


@pytest.mark.parametrize("rounds", [antipodal_rounds, offset_rounds, collinear_rounds,
                                    ranked_rounds, out_of_range_rounds])
def test_disagreement_screen_matches_broadcast_on_adversarial_rounds(rounds):
    lams = rounds()
    assert len(lams[0]) >= SCREEN_MIN_M
    with np.errstate(over="ignore", invalid="ignore"):
        got = _disagreement(np.array(lams))
        want = np.array([full_pairwise(lam) for lam in lams])
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 80), st.integers(1, 6), st.integers(1, 80),
       st.sampled_from([0.0, 1.0, 1e6, 1e8]), st.sampled_from([1.0, 1e-9, 1e4]))
def test_disagreement_equals_full_broadcast_property(data, B, m, p, distinct, offset, scale):
    # Random (B, m, p) blocks with repeated agents, some offset far from 0.
    rows = data.draw(hnp.arrays(np.float64, (B, distinct, p),
                                elements=st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0])))
    pick = data.draw(st.lists(st.integers(0, distinct - 1), min_size=m, max_size=m))
    lam = offset + scale * rows[:, pick]
    assert _disagreement(lam).tolist() == [full_pairwise(round_lam) for round_lam in lam]


def huge_rounds(m):
    """A live round at scale 1, then rounds of (m, 3) multipliers whose
    squares overflow, some with entries that underflow once scaled."""
    rng = np.random.default_rng(m)
    mixed = 1e300 * rng.normal(size=(m, 3))
    mixed[::2, 1] = 1e-300
    return [rng.normal(size=(m, 3)), 1e200 * rng.normal(size=(m, 3)), mixed,
            np.full((m, 3), 1e250)]


@pytest.mark.parametrize("m", [5, SCREEN_MIN_M + 6])
def test_norm_columns_of_huge_multipliers_do_not_overflow(m):
    # Finite multipliers above about 1.3e154 square to inf. A round whose
    # max_lambda or disagreement is then not finite while its lam is finite
    # is computed again at an exact power-of-two scale; it is inf only where
    # the norm itself exceeds the float range. Every other round keeps the
    # bits of the plain sqrt(r . r), a non-finite lam's too. No round warns.
    prob = make_quadratic_problem(m=m, p=3, dims=1, seed=m, tau_min=1.0, gamma=4.0)
    state = init_state(prob, RunConfig(q=4.0 * m, t_max=10, epsilon=0.01))
    lams = huge_rounds(m)
    block = [dataclasses.replace(state, t=t, lam=lam) for t, lam in enumerate(lams, start=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = evaluate_states(block, prob)
    live = lams[0]
    assert rows.max_lambda[0] == np.sqrt((live * live).sum(axis=1)).max()
    assert rows.disagreement[0] == full_pairwise(live)
    for lam, got_max, got_pairs in zip(lams[1:], rows.max_lambda[1:], rows.disagreement[1:]):
        want_max = max(math.hypot(*agent) for agent in lam)
        want_pairs = max(math.dist(lam[i], lam[j]) for i, j in itertools.combinations(range(m), 2))
        assert math.isfinite(want_max) and math.isclose(got_max, want_max, rel_tol=1e-15)
        assert got_pairs == want_pairs or math.isclose(got_pairs, want_pairs, rel_tol=1e-15)
    assert rows.disagreement[-1] == 0.0
    apart = np.zeros((m, 3))
    apart[0, 0], apart[1, 0] = 1.5e308, -1.5e308  # 3e308 apart
    beyond = np.zeros((m, 3))
    beyond[0, :2] = 1.5e308  # a norm of 2.1e308
    with_inf = live.copy()
    with_inf[1, 2] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = evaluate_states([dataclasses.replace(state, t=1, lam=lam)
                                for lam in (apart, beyond, with_inf)], prob)
    assert rows.max_lambda[0] == 1.5e308 and rows.disagreement[0] == math.inf
    assert rows.max_lambda[1] == rows.disagreement[1] == math.inf
    with np.errstate(invalid="ignore"):
        want = _disagreement(with_inf[None])
    assert rows.max_lambda[2] == math.inf and rows.disagreement[2:].tobytes() == want.tobytes()


def test_fig7_with_huge_theta0_keeps_finite_dual_norms():
    # theta0 = 1e200: fig7's multipliers stay finite, near 1e192-1e200, and
    # so do max_lambda, disagreement from round 2 on, and the bound constant D.
    prob = make_num_problem([[1, 1, 0], [1, 1, 1]], [1.0, 1.0], [1.0, 1.0, 1.0])
    seq = generate_graph_sequence(3, 1, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, rows, _ = run_until(prob, seq, RunConfig(q=4.0, t_max=50,
                                                        theta0=np.full((3, 2), 1e200)))
    assert abs(state.lam).max() > 1e154 and np.isfinite(rows.max_lambda).all()
    assert np.isfinite(rows.disagreement).all() and rows.disagreement[1] > 1e154
    assert math.isclose(rows.max_lambda[-1], max(math.hypot(*agent) for agent in state.lam),
                        rel_tol=1e-15)
    assert math.isfinite(constants_from_run(prob, 1, 4.0, rows).D)


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
