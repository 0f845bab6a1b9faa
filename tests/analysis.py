"""Analysis that only the tests use: the per-round descent-inequality slack
(Lemma 2), the empirical ln T / T rate fit of a run's columns, and the
multiplier bound stepped on every round."""

import numpy as np

from drdga import BoundConstants, CoupledProblem, RunState, build_weight_matrix, compute_G_bound


def lemma2_residual(
    state_t: RunState,
    state_t1: RunState,
    problem: CoupledProblem,
    lambda_probe: np.ndarray,
    c: BoundConstants,
) -> float:
    """Slack of the per-round descent inequality on the mean dual surrogate.

    Evaluates RHS - LHS of the inequality bounding ||mean(theta)[t+1] - lambda||^2
    at the probe multiplier, with the comparison primal point taken as the
    round's own x[t+1]. Non-negative (up to roundoff) whenever D dominates
    every dual norm in the run.
    """
    if state_t1.t != state_t.t + 1:
        raise ValueError("states must be consecutive rounds")
    lam_probe = np.asarray(lambda_probe, dtype=float)
    beta = c.q / state_t1.t
    m = problem.m
    theta_bar_t = state_t.theta.mean(axis=0)
    theta_bar_t1 = state_t1.theta.mean(axis=0)

    values, terms = problem.agent_values(state_t1.x), problem.coupling_terms(state_t1.x)

    def lagrangian(mult):
        return float(np.sum(values + terms @ mult - 0.5 * problem.gammas * float(mult @ mult)))

    lhs = float(np.sum((theta_bar_t1 - lam_probe) ** 2))
    rhs = float(np.sum((theta_bar_t - lam_probe) ** 2))
    coeffs = c.G + c.gammas * c.D
    rhs += (4.0 * beta / m) * float(
        np.sum(coeffs * np.linalg.norm(state_t1.lam - theta_bar_t, axis=1))
    )
    rhs -= (beta / m) * float(
        np.sum(problem.gammas * np.sum((state_t1.lam - lam_probe) ** 2, axis=1))
    )
    rhs += (beta**2 / m) * float(np.sum(coeffs**2))
    rhs -= (2.0 * beta / m) * (lagrangian(lam_probe) - lagrangian(theta_bar_t))
    return rhs - lhs


def rate_fit(rows: np.recarray, which: str) -> tuple[float, float]:
    """Fit value(T) against ln T / T over the rows with T >= 10.

    Returns (c_hat, max_ratio): c_hat is the median of g(T) = value(T)*T/ln T
    over the last half of the retained rows, and max_ratio = max g / g(T0)
    with T0 the first retained round. A bounded max_ratio means the observed
    decay is no slower than ln T / T beyond T0.
    """
    rows = rows[rows.t >= 10]
    if which == "gap":
        values = rows.gap
    elif which == "violation2":
        values = rows.violation**2
    else:
        raise ValueError(f"which must be 'gap' or 'violation2', got {which!r}")
    if len(rows) < 10:
        raise ValueError(f"need at least 10 rows with T >= 10, got {len(rows)}")
    g = values * rows.t / np.log(rows.t)
    return float(np.median(g[len(g) // 2 :])), float(g.max() / g[0])


def multiplier_bounds(problem: CoupledProblem, seq, q: float, rounds: int,
                      theta0=None, push_sum: bool = True) -> np.ndarray:
    """M_1 ... M_rounds: the a-priori bound on max_i ||lambda_i(t)|| of each
    round, stepped on every round without the engine's early stop.

    M_1 = max_j ||theta0_j||. DRDGA: M_{t+1} = max_j(|1 - beta_t gamma_j /
    rho_j(t)| M_t + beta_t G_j / rho_j(t)) on the sequence's push-sum weights.
    CDDA (reported multiplier theta(t)): M_1 + q (1 + ln t) max_j G_j.
    """
    G, gammas = compute_G_bound(problem), problem.gammas
    first = 0.0 if theta0 is None else float(np.sqrt(np.square(theta0).sum(axis=1)).max())
    if not push_sum:
        return first + q * (1.0 + np.log(np.arange(1, rounds + 1))) * G.max()
    pool, rho = [build_weight_matrix(adj) for adj in seq.adj], np.ones(problem.m)
    bounds = np.empty(rounds)
    bounds[0] = first
    for k in range(1, rounds):
        rho = pool[(k - 1) % len(pool)] @ rho
        beta = q / k
        bounds[k] = (abs(1.0 - beta * gammas / rho) * bounds[k - 1] + beta * G / rho).max()
    return bounds
