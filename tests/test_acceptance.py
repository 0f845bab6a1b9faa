"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
long runs (the three-source network, the 10^4-round quadratic sweep, the
20-source comparison) are shared across criteria through module fixtures.
"""

import math
from importlib.resources import files

import numpy as np
import pytest

from drdga import (
    BoundConstants,
    CoupledProblem,
    DiagonalQuadratic,
    RunConfig,
    build_weight_matrix,
    cdda_run_until,
    constants_from_run,
    generate_graph_sequence,
    init_state,
    make_quadratic_problem,
    parse_config,
    run_until,
    solve_centralized,
    solve_local,
    theorem2_bound,
    theorem3_bound,
)
from drdga.cli import main as cli_main
from analysis import lemma2_residual, rate_fit
from test_engine import evaluate_states, stepper

FIG7_CFG = str(files("drdga") / "configs" / "fig7.cfg")
S20_CFG = str(files("drdga") / "configs" / "num_s20.cfg")


def record(num, name, ok, detail=""):
    print(f"[ACCEPTANCE] {num:>2}. {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig7_run():
    """Criterion 4's experiment: the bundled three-source config, eps = 0.01."""
    exp = parse_config(FIG7_CFG)
    reference = solve_centralized(exp.problem)
    state, rows, reason = run_until(exp.problem, exp.seq, exp.run, f_star=reference.objective)
    return exp, reference, state, rows, reason


@pytest.fixture(scope="module")
def quad_sweep():
    """Criteria 5-6: fixed-seed quadratic family swept to T = 10^4."""
    problem = make_quadratic_problem(m=5, p=3, dims=[2, 2, 2, 2, 2], seed=11, tau_min=1.0)
    seq = generate_graph_sequence(m=5, window=1, seed=3, pool_size=20)
    f_star = solve_centralized(problem).objective
    config = RunConfig(q=4.0, t_max=10_000, epsilon=1e-300)
    state, rows, reason = run_until(problem, seq, config, f_star=f_star)
    return problem, seq, state, rows


@pytest.fixture(scope="module")
def pushsum_run():
    """Criterion 2: 5000 rounds, five agents, window 3, per-round weight stats."""
    problem = make_quadratic_problem(m=5, p=3, dims=2, seed=11, tau_min=1.0)
    seq = generate_graph_sequence(m=5, window=3, seed=2)
    config = RunConfig(q=4.0, t_max=5001, epsilon=1e-300)
    state = init_state(problem, config)
    step, mass_dev, rho_min, lam_max = stepper(problem, seq, config), 0.0, np.inf, []
    for _ in range(5000):
        state = step(state)
        mass_dev = max(mass_dev, abs(float(state.rho.sum()) - 5.0))
        rho_min = min(rho_min, float(state.rho.min()))
        lam_max.append(float(np.sqrt((state.lam * state.lam).sum(axis=1)).max()))
    return mass_dev, rho_min, lam_max


def test_criterion_1_weight_matrix_law():
    checked = 0
    worst_col = 0.0
    for m in range(1, 11):
        for seed in range(5):
            seq = generate_graph_sequence(m=m, window=1, seed=seed, pool_size=20)
            for t in range(20):
                adj = seq.adj[t % len(seq.adj)]
                W = build_weight_matrix(adj)
                edges = {(i + 1, j + 1) for i, j in zip(*np.nonzero(adj))}
                worst_col = max(worst_col, float(np.abs(W.sum(axis=0) - 1.0).max()))
                for j in range(m):
                    col = W[:, j]
                    nz = col[col != 0.0]
                    if not np.all(nz == 1.0 / nz.size):
                        record(1, "weight-matrix law", False,
                               f"column {j} of graph (m={m}, seed={seed}, t={t}) "
                               "has entries outside {0, 1/d_j}")
                pattern = {(j + 1, i + 1) for i in range(m) for j in range(m) if W[i, j] != 0}
                if pattern != set(edges) | {(k, k) for k in range(1, m + 1)}:
                    record(1, "weight-matrix law", False, "nonzero pattern mismatch")
                checked += 1
    record(1, "weight-matrix law", checked == 1000 and worst_col <= 1e-12,
           f"{checked} graphs, worst column-sum deviation {worst_col:.2e}")


def test_criterion_2_push_sum_mass_and_positivity(pushsum_run):
    mass_dev, rho_min, _ = pushsum_run
    floor = 5.0 ** (-5 * 3)
    ok = mass_dev <= 1e-9 and rho_min >= floor
    record(2, "push-sum mass and positivity", ok,
           f"max |sum rho - m| = {mass_dev:.2e}, min rho = {rho_min:.3e} vs floor {floor:.2e}")


def test_criterion_3_dual_consensus(fig7_run):
    _, _, _, rows, _ = fig7_run
    worst = float(rows.disagreement[rows.t >= 200].max())
    exceed = rows.t[rows.disagreement > 0.01]
    settled = int(exceed.max()) + 1 if exceed.size else 1
    ok = worst <= 0.01
    record(3, "dual consensus within 200 rounds", ok,
           f"max disagreement over t >= 200 is {worst:.4f} "
           f"(stays below 0.01 from t = {settled})")


def test_criterion_4_num_convergence(fig7_run):
    exp, reference, state, rows, reason = fig7_run
    converged = reason == "converged" and state.t <= 5000
    x_terminal = np.array([float(x[0]) for x in state.x])
    x_star = np.array([float(x[0]) for x in reference.x])
    coord_err = float(np.abs(x_terminal - x_star).max())
    link2 = float(sum(a * x for a, x in zip(exp.problem.A[:, 1, 0], x_terminal)))
    ok = converged and coord_err <= 5e-2 and link2 <= 1.0 + 5e-2
    record(4, "end-to-end NUM convergence", ok,
           f"stop={reason} at T={state.t}, max coord error {coord_err:.3f}, "
           f"link-2 aggregate {link2:.3f} vs capacity 1")


def test_criterion_5_gap_rate_law(quad_sweep):
    _, _, _, rows = quad_sweep
    c_hat, max_ratio = rate_fit(rows[rows.t >= 100], "gap")
    ok = max_ratio <= 10.0
    record(5, "objective-gap rate law", ok,
           f"gap*T/lnT max ratio vs T=100 is {max_ratio:.3f} (c_hat {c_hat:.3g})")


def test_criterion_6_violation_rate_law(quad_sweep):
    _, _, _, rows = quad_sweep
    c_hat, max_ratio = rate_fit(rows[rows.t >= 100], "violation2")
    ok = max_ratio <= 10.0
    record(6, "violation rate law", ok,
           f"violation^2*T/lnT max ratio vs T=100 is {max_ratio:.3f} (c_hat {c_hat:.3g})")


def test_criterion_7_dual_boundedness(fig7_run, quad_sweep, pushsum_run):
    traces = {
        "fig7": fig7_run[3].max_lambda.tolist(),
        "quadratic sweep": quad_sweep[3].max_lambda.tolist(),
        "push-sum run": pushsum_run[2],
    }
    details, ok = [], True
    for name, norms in traces.items():
        n = len(norms)
        first = max(norms[: n // 4])
        last = max(norms[3 * n // 4 :])
        this_ok = last <= 1.1 * first or (first < 1.0 and last <= 1.0)
        ok = ok and this_ok
        details.append(f"{name}: first-quarter {first:.3f} last-quarter {last:.3f}")
    record(7, "dual boundedness", ok, "; ".join(details))


def test_criterion_8_bound_formula_fidelity(fig7_run, quad_sweep):
    sets = [
        dict(m=2, p=3, window=2, q=4.0, D=2.5, G=[1.0, 2.0], gammas=[0.5, 1.5], theta0_l1=1.2),
        dict(m=3, p=1, window=1, q=6.0, D=0.75, G=[0.1, 0.2, 0.3], gammas=[1.0, 1.0, 1.0], theta0_l1=0.0),
        dict(m=1, p=2, window=4, q=4.5, D=10.0, G=[3.0], gammas=[2.0], theta0_l1=5.0),
    ]
    formulas_ok = True
    for spec in sets:
        c = BoundConstants(**spec)
        m, p, window, q = spec["m"], spec["p"], spec["window"], spec["q"]
        D, G, gammas, init_l1 = spec["D"], spec["G"], spec["gammas"], spec["theta0_l1"]
        delta = m ** (-m * window)
        eta = (1 - delta) ** (1 / (m * window))
        B = max(math.sqrt(p) * (G[i] + gammas[i] * D) for i in range(m))
        s1 = sum(G[i] + gammas[i] * D for i in range(m))
        s2 = sum((G[i] + gammas[i] * D) ** 2 for i in range(m))
        for T in (1, 7, 250):
            direct2 = (32 / (T * delta)) * s1 * (
                eta / (1 - eta) * init_l1 + q * m * B / (1 - eta) * (1 + math.log(T))
            ) + q / T * s2
            direct3 = (sum(gammas) / (T * delta)) * s1 * (
                8 * eta / (1 - eta) * init_l1 + 8 * q * m * B / (1 - eta) * (1 + math.log(T))
            ) + q * sum(gammas) / (4 * T) * s2
            formulas_ok = formulas_ok and math.isclose(
                theorem2_bound(T, c), direct2, rel_tol=1e-12
            )
            formulas_ok = formulas_ok and math.isclose(
                theorem3_bound(T, c), direct3, rel_tol=1e-12
            )

    dominated = True
    for problem, seq, rows, q in (
        (fig7_run[0].problem, fig7_run[0].seq, fig7_run[3], fig7_run[0].run.q),
        (quad_sweep[0], quad_sweep[1], quad_sweep[3], 4.0),
    ):
        c = constants_from_run(problem, seq.window, q, rows)
        for t, gap, violation in zip(rows.t.tolist(), rows.gap.tolist(),
                                     rows.violation.tolist()):
            if gap > theorem2_bound(t, c) or violation**2 > theorem3_bound(t, c):
                dominated = False
    record(8, "bound-formula fidelity", formulas_ok and dominated,
           f"3 constant sets x 3 horizons match to 1e-12: {formulas_ok}; "
           f"empirical gap/violation^2 dominated: {dominated}")


def test_criterion_9_descent_inequality_residuals():
    problem = make_quadratic_problem(m=5, p=3, dims=2, seed=11, tau_min=1.0)
    seq = generate_graph_sequence(m=5, window=1, seed=3)
    config = RunConfig(q=4.0, t_max=51, epsilon=1e-300)
    states, step = [init_state(problem, config)], stepper(problem, seq, config)
    for _ in range(50):
        states.append(step(states[-1]))
    rows = evaluate_states(states[1:], problem, config.q)
    c = constants_from_run(problem, seq.window, 4.0, rows)
    rng = np.random.default_rng(77)
    worst = np.inf
    for k in range(50):
        for _ in range(20):
            probe = rng.normal(size=3)
            probe *= rng.uniform(0.0, c.D) / np.linalg.norm(probe)
            worst = min(worst, lemma2_residual(states[k], states[k + 1], problem, probe, c))
    record(9, "per-round descent residuals", worst >= -1e-8,
           f"minimum residual over 50 rounds x 20 probes = {worst:.3e}")


def test_criterion_10_local_solver_oracle_equivalence():
    rng = np.random.default_rng(101)

    def grid_argmin(prob, lam, res=1e-4):
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

    def solve_one(prob, lam):
        return solve_local(prob, lam[None])[0]

    quad = CoupledProblem(
        A=rng.uniform(-1, 1, (1, 3, 2)), b=np.zeros((1, 3)),
        lower=-np.ones((1, 2)), upper=np.ones((1, 2)), gammas=[1.0],
        diag=np.array([[2.0, 3.5]]), lin=np.array([[0.5, -0.25]]),
    )
    log = CoupledProblem(
        A=np.ones((1, 2, 1)), b=np.full((1, 2), 1 / 3),
        lower=np.zeros((1, 1)), upper=np.ones((1, 1)), gammas=[1.0], weights=[0.5],
    )
    worst = 0.0
    for _ in range(100):
        lam = rng.normal(size=3) * 3.0
        worst = max(worst, float(np.abs(solve_one(quad, lam) - grid_argmin(quad, lam)).max()))
        lam = rng.normal(size=2) * 20.0
        worst = max(worst, float(np.abs(solve_one(log, lam) - grid_argmin(log, lam)).max()))
    record(10, "local-solver oracle equivalence", worst <= 1e-3,
           f"100 multipliers per family, worst deviation from grid {worst:.2e}")


def test_criterion_11_baseline_comparison():
    exp = parse_config(S20_CFG)
    _, rows_main, _ = run_until(exp.problem, exp.seq, exp.run)
    _, rows_base, _ = cdda_run_until(exp.problem, exp.seq, exp.run)

    def rounds_to(rows, threshold):
        reached = rows.t[rows.violation_inst <= threshold]
        return int(reached[0]) if reached.size else None

    main_T = rounds_to(rows_main, 0.05)
    base_T = rounds_to(rows_base, 0.05)
    ok = main_T is not None and (base_T is None or main_T <= base_T)
    record(11, "baseline comparison", ok,
           f"rounds to violation <= 0.05: drdga {main_T}, cdda {base_T} "
           f"(terminal violations {rows_main.violation_inst[-1]:.3f} / "
           f"{rows_base.violation_inst[-1]:.3f})")


def test_criterion_12_deterministic_csv(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["run", "--config", FIG7_CFG, "--out", str(first)]) == 0
    assert cli_main(["run", "--config", FIG7_CFG, "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    record(12, "deterministic CSV", identical,
           f"two runs of the bundled config produce identical bytes: {identical}")
