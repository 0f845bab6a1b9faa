"""Time-varying directed communication graphs and their column-stochastic mixing matrices.

Agents are numbered 1..m. An edge (i, j) means "i sends to j". Self-loops are
implicit: every agent always receives its own broadcast, so they are never
stored in an edge set and the out-degree d_i counts the agent itself once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InvalidEdgeError, InvalidInputError

Edge = tuple[int, int]


def _check_edges(edges, m: int) -> frozenset[Edge]:
    clean = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= m and 1 <= j <= m):
            raise InvalidEdgeError(f"edge ({i}, {j}) references an agent outside [1, {m}]")
        if i == j:
            raise InvalidEdgeError(f"self-loop ({i}, {i}) is implicit and must not be stored")
        clean.add((i, j))
    return frozenset(clean)


@dataclass(frozen=True)
class GraphSequence:
    """A deterministic periodic sequence of directed edge sets.

    ``rounds`` is the generating pool; round t uses ``rounds[t % len(rounds)]``.
    ``window`` declares the connectivity window: the edge union over every
    block of ``window`` consecutive rounds is expected to be strongly
    connected (checked by :func:`verify_window_connectivity`).
    """

    m: int
    rounds: tuple[frozenset[Edge], ...]
    window: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidEdgeError("agent count m must be >= 1")
        if self.window < 1:
            raise InvalidEdgeError("connectivity window must be >= 1")
        if not self.rounds:
            raise InvalidEdgeError("graph sequence needs at least one round")
        object.__setattr__(
            self, "rounds", tuple(_check_edges(r, self.m) for r in self.rounds)
        )

    def edges(self, t: int) -> frozenset[Edge]:
        """Edge set active at round t (t >= 0)."""
        return self.rounds[t % len(self.rounds)]


def build_weight_matrix(edges, m: int) -> np.ndarray:
    """Column-stochastic mixing matrix for one round.

    Entry (i, j) is 1/d_j when j is an in-neighbor of i (including j == i),
    where d_j = 1 + out-degree of j. Each column therefore sums to 1: agent j
    splits its broadcast evenly over itself and its d_j - 1 receivers.
    """
    edge_set = _check_edges(edges, m)
    out_degree = np.ones(m)
    for i, _ in edge_set:
        out_degree[i - 1] += 1.0
    W = np.zeros((m, m))
    W[np.arange(m), np.arange(m)] = 1.0 / out_degree
    for i, j in edge_set:
        W[j - 1, i - 1] = 1.0 / out_degree[i - 1]
    return W


def generate_graph_sequence(
    m: int,
    window: int,
    seed: int,
    pool_size: int = 20,
    extra_edge_prob: float = 0.5,
) -> GraphSequence:
    """Generate a random pool of per-round graphs, cycled over rounds.

    Every pool entry embeds a randomly oriented Hamiltonian cycle, so each
    single round is already strongly connected and every window union is too.
    Extra directed edges are added independently with ``extra_edge_prob``.
    Deterministic in ``seed``. GraphSequence validates m and window.
    """
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(pool_size):
        edges = set()
        if m >= 2:
            order = rng.permutation(m) + 1
            for k in range(m):
                edges.add((int(order[k]), int(order[(k + 1) % m])))
            mask = rng.random((m, m)) < extra_edge_prob
            np.fill_diagonal(mask, False)
            senders, receivers = np.nonzero(mask)
            edges.update(zip((senders + 1).tolist(), (receivers + 1).tolist()))
        rounds.append(frozenset(edges))
    return GraphSequence(m=m, rounds=tuple(rounds), window=window)


def _strongly_connected(edges, m: int) -> bool:
    if m == 1:
        return True
    senders = [i - 1 for i, _ in edges]
    receivers = [j - 1 for _, j in edges]
    adj = csr_matrix((np.ones(len(senders)), (senders, receivers)), shape=(m, m))
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    return n_comp == 1


def verify_window_connectivity(seq: GraphSequence, horizon: int) -> bool:
    """True iff every complete window inside [0, horizon) has a strongly connected union."""
    if horizon < seq.window:
        raise InvalidInputError(
            f"horizon {horizon} shorter than the connectivity window {seq.window}"
        )
    k = 0
    while (k + 1) * seq.window <= horizon:
        union = set()
        for t in range(k * seq.window, (k + 1) * seq.window):
            union |= seq.edges(t)
        if not _strongly_connected(union, seq.m):
            return False
        k += 1
    return True


def parse_edge_list(text: str, m: int, window: int) -> GraphSequence:
    """Parse a plain-text edge-list schedule: one line per round, "i>j" pairs separated by ";".

    Agent indices are 1-based. A blank line is a round with no cross edges.
    The listed rounds repeat cyclically.
    """
    rounds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        edges = set()
        if line:
            for token in line.split(";"):
                token = token.strip()
                if not token:
                    continue
                parts = token.split(">")
                if len(parts) != 2:
                    raise InvalidEdgeError(f"line {lineno}: expected 'i>j', got {token!r}")
                try:
                    i, j = int(parts[0]), int(parts[1])
                except ValueError:
                    raise InvalidEdgeError(
                        f"line {lineno}: non-integer agent index in {token!r}"
                    ) from None
                edges.add((i, j))
        rounds.append(frozenset(edges))
    if not rounds:
        raise InvalidEdgeError("edge-list file is empty")
    return GraphSequence(m=m, rounds=tuple(rounds), window=window)
