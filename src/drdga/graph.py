"""Time-varying directed communication graphs and their column-stochastic mixing matrices.

Agents are numbered 1..m. A round's graph is an (m, m) bool adjacency array
whose entry [i-1, j-1] means "i sends to j". Self-loops are implicit: every
agent always receives its own broadcast, so the diagonal stays empty and the
out-degree d_i counts the agent itself once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEdgeError


@dataclass(frozen=True)
class GraphSequence:
    """A deterministic periodic sequence of directed graphs.

    ``adj`` is the generating pool, a read-only (pool, m, m) bool array;
    round t uses ``adj[t % pool]``, and ``m`` is read from its shape.
    ``window`` is the connectivity window B, stored as an int: the edge union
    over every aligned block of rounds [kB, (k+1)B) must be strongly connected. The
    pool repeats, so pool // gcd(pool, B) blocks cover every block, and each
    block's union is the OR of min(B, pool) consecutive pool entries.
    Construction checks the shape, the diagonal and then every such union,
    and raises InvalidEdgeError on the first that fails.
    """

    adj: np.ndarray
    window: int

    def __post_init__(self):
        adj = np.array(self.adj, dtype=bool)
        if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
            raise InvalidEdgeError(f"adjacency has shape {adj.shape}, expected (pool, m, m)")
        if adj.shape[1] < 1:
            raise InvalidEdgeError("agent count m must be >= 1")
        if not isinstance(self.window, numbers.Integral) or self.window < 1:
            raise InvalidEdgeError(f"connectivity window {self.window} is not an integer >= 1")
        if len(adj) == 0:
            raise InvalidEdgeError("graph sequence needs at least one round")
        loops = np.flatnonzero(np.diagonal(adj, axis1=1, axis2=2).any(axis=0))
        if loops.size:
            i = int(loops[0]) + 1
            raise InvalidEdgeError(f"self-loop ({i}, {i}) is implicit and must not be stored")
        pool, window = len(adj), int(self.window)
        span = np.arange(min(window, pool))
        for k in range(pool // math.gcd(pool, window)):
            if not _strongly_connected(adj[(k * window % pool + span) % pool].any(axis=0)):
                raise InvalidEdgeError(
                    f"the union of rounds {k * window}-{(k + 1) * window - 1} is not "
                    f"strongly connected (connectivity window {window})"
                )
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "window", window)

    @property
    def m(self) -> int:
        return self.adj.shape[1]


def build_weight_matrix(adj: np.ndarray) -> np.ndarray:
    """Column-stochastic mixing matrix of one round's adjacency.

    Entry (i, j) is 1/d_j when j is an in-neighbor of i (including j == i),
    where d_j = 1 + out-degree of j. Each column therefore sums to 1: agent j
    splits its broadcast evenly over itself and its d_j - 1 receivers. The
    result is C-contiguous, so ``W @ theta`` takes the same BLAS path for
    every pool entry; transposing the bool reach before the multiply makes
    it so without copying the float product.
    """
    reach = adj | np.eye(len(adj), dtype=bool)
    return np.ascontiguousarray(reach.T) * (1 / (1 + adj.sum(axis=1)))[None, :]


# Graphs in a generated pool by default; parse_config's size check reads it too.
POOL_SIZE = 20


def generate_graph_sequence(
    m: int,
    window: int = 1,
    seed: int = 0,
    pool_size: int = POOL_SIZE,
) -> GraphSequence:
    """Generate a random pool of per-round graphs, cycled over rounds.

    Every pool entry embeds a randomly oriented Hamiltonian cycle, so each
    single round is already strongly connected and every window union is too.
    Each other directed edge is added independently with probability 1/2.
    Deterministic in ``seed``. GraphSequence rejects m < 1 and window < 1.
    """
    rng = np.random.default_rng(seed)
    adj = np.zeros((pool_size, max(m, 0), max(m, 0)), dtype=bool)
    if m >= 2:
        for entry in adj:
            order = rng.permutation(m)
            entry[order, np.roll(order, -1)] = True
            entry |= rng.random((m, m)) < 0.5
            np.fill_diagonal(entry, False)
    return GraphSequence(adj, window)


def _strongly_connected(adj: np.ndarray) -> bool:
    """True iff agent 1 reaches every agent and every agent reaches agent 1."""
    for step in (adj, adj.T):
        seen = np.zeros(len(adj), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = step[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def parse_edge_list(text: str, m: int, window: int = 1) -> GraphSequence:
    """Parse a plain-text edge-list schedule: one line per round, "i>j" pairs separated by ";".

    Agent indices are 1-based. A blank line is a round with no cross edges.
    Line r fills entry r of the (rounds, m, m) pool; the rounds repeat cyclically.
    """
    lines = text.splitlines()
    if not lines:
        raise InvalidEdgeError("edge-list file is empty")
    adj = np.zeros((len(lines), max(m, 0), max(m, 0)), dtype=bool)
    for lineno, raw in enumerate(lines, start=1):
        for token in raw.split(";"):
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
            if not (1 <= i <= m and 1 <= j <= m):
                raise InvalidEdgeError(f"edge ({i}, {j}) references an agent outside [1, {m}]")
            adj[lineno - 1, i - 1, j - 1] = True
    return GraphSequence(adj, window)
