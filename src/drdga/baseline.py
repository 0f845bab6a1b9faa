"""Consensus dual-decomposition baseline on doubly stochastic mixing.

The baseline is the engine's round with push-sum off: it mixes the
multipliers themselves with a doubly stochastic matrix (so it needs balanced
communication), solves the same inner problems at the mixed multiplier, and
takes an unregularized subgradient step with the same q/t schedule. Doubly
stochastic matrices come from Metropolis weights on the undirected version of
each round's graph.
"""

from __future__ import annotations

import numpy as np

from .engine import RunConfig, run_rounds
from .graph import GraphSequence
from .problem import CoupledProblem


def metropolis_matrix(adj: np.ndarray) -> np.ndarray:
    """Symmetric doubly stochastic matrix from the undirected version of one round's adjacency.

    Off-diagonal weight 1 / (1 + max(deg_i, deg_j)) for every undirected
    neighbor pair, diagonal set to make each row (hence column) sum to 1.
    """
    adjacent = adj | adj.T
    deg = adjacent.sum(axis=1)
    W = np.where(adjacent, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def cdda_run_until(
    problem: CoupledProblem,
    seq: GraphSequence,
    config: RunConfig,
    f_star: float | None = None,
):
    """Run the baseline: the engine's round and stop criteria with push-sum off.

    Each pool entry's Metropolis matrix is built once and not re-checked:
    :func:`metropolis_matrix` is doubly stochastic by construction, as
    ``run_until`` trusts ``build_weight_matrix`` to be column-stochastic.
    The reported multiplier (state.lam, and the disagreement and max_lambda
    columns) is the post-step one. Returns (final state, Metrics rows of every
    round, stop reason).
    """
    return run_rounds(problem, seq, config, f_star, metropolis_matrix, push_sum=False)
