import hashlib

import numpy as np
import pytest

from drdga import (
    GraphSequence,
    InvalidEdgeError,
    build_weight_matrix,
    generate_graph_sequence,
    parse_edge_list,
)


def adjacency(m, edges):
    """(m, m) adjacency of 1-based (i, j) edges, "i sends to j"."""
    adj = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adj[i - 1, j - 1] = True
    return adj


def pool(m, rounds):
    """(pool, m, m) adjacency of one collection of 1-based edges per round."""
    return np.array([adjacency(m, edges) for edges in rounds], dtype=bool).reshape(-1, m, m)


def test_weight_matrix_two_agents_bidirectional():
    W = build_weight_matrix(adjacency(2, {(1, 2), (2, 1)}))
    assert np.array_equal(W, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_weight_matrix_lone_agent():
    assert np.array_equal(build_weight_matrix(np.zeros((1, 1), dtype=bool)), np.array([[1.0]]))


def test_weight_matrix_directed_ring():
    # Each sender splits evenly over itself and its ring successor.
    W = build_weight_matrix(adjacency(3, {(1, 2), (2, 3), (3, 1)}))
    expected = np.array([
        [0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
    ])
    assert np.array_equal(W, expected)


@pytest.mark.parametrize("m", [3, 100])
def test_weight_matrix_bytes_match_transposed_float_product(m):
    # Transposing the bool reach before the multiply gives the bytes of the
    # former expression, which transposed the float product and copied it.
    rng = np.random.default_rng(m)
    for adj in rng.random((5, m, m)) < rng.random((5, 1, 1)):
        np.fill_diagonal(adj, False)
        reach = adj | np.eye(m, dtype=bool)
        former = np.ascontiguousarray(reach.T * (1 / (1 + adj.sum(axis=1)))[None, :])
        W = build_weight_matrix(adj)
        assert W.flags.c_contiguous and W.dtype == former.dtype
        assert W.tobytes() == former.tobytes()


def test_weight_matrix_rejects_out_of_range_and_self_loops():
    # Edges are checked once, when the sequence is read or built.
    with pytest.raises(InvalidEdgeError, match=r"edge \(1, 4\) references an agent outside \[1, 3\]"):
        parse_edge_list("1>4", m=3, window=1)
    with pytest.raises(InvalidEdgeError, match="outside"):
        parse_edge_list("0>1", m=3, window=1)
    with pytest.raises(InvalidEdgeError, match=r"self-loop \(2, 2\) is implicit"):
        GraphSequence(pool(3, [set(), {(2, 2)}]), window=1)


def test_weight_matrix_column_law_random():
    for seed in range(5):
        seq = generate_graph_sequence(m=6, window=2, seed=seed)
        for t in range(len(seq.adj)):
            adj = seq.adj[t % len(seq.adj)]
            W = build_weight_matrix(adj)
            assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-12)
            for j in range(6):
                col = W[:, j]
                nz = col[col != 0]
                assert np.all(nz == 1.0 / nz.size)
            # nonzero pattern is exactly the edges plus self-loops
            assert np.array_equal(W.T != 0, adj | np.eye(6, dtype=bool))


def test_generator_is_deterministic():
    a = generate_graph_sequence(m=5, window=3, seed=42)
    b = generate_graph_sequence(m=5, window=3, seed=42)
    assert np.array_equal(a.adj, b.adj)
    c = generate_graph_sequence(m=5, window=3, seed=43)
    assert not np.array_equal(a.adj, c.adj)


# sha256 of the (20, m, m) bool pools generated with window 1 and seed 3,
# recorded from the edge-set generator the array one replaced: the random
# stream and the pools it yields must not move.
POOL_SHA256 = {
    5: "eacd3435f965b98f581dcb48880dbccc5350be2cc8128e675204629aeb38f54c",
    100: "84d75bf2b3ad132c2b1bd7d1909f8cb93290955eaa7298c8a383a9803b3c1d75",
}


@pytest.mark.parametrize("m", sorted(POOL_SHA256))
def test_generated_pool_is_pinned(m):
    adj = generate_graph_sequence(m=m, window=1, seed=3).adj
    assert adj.shape == (20, m, m) and adj.dtype == bool and adj.flags.c_contiguous
    assert hashlib.sha256(adj.tobytes()).hexdigest() == POOL_SHA256[m]


def test_generator_single_agent():
    seq = generate_graph_sequence(m=1, window=4, seed=0)
    assert seq.adj.shape == (20, 1, 1) and not seq.adj.any() and seq.m == 1


def test_generator_window_connectivity():
    # Every generated round embeds a Hamiltonian cycle, so construction's
    # window check passes, also for windows longer than the pool.
    for m in (2, 3, 4, 8):
        for window, pool_size in ((1, 20), (3, 20), (7, 5)):
            seq = generate_graph_sequence(m, window, seed=m * 10 + window, pool_size=pool_size)
            assert seq.m == m and seq.window == window


def test_connectivity_complete_graph_true():
    seq = GraphSequence(~np.eye(4, dtype=bool)[None], window=1)
    assert seq.m == 4


def test_connectivity_empty_graph_false():
    with pytest.raises(InvalidEdgeError, match=r"rounds 0-0 is not strongly connected"):
        GraphSequence(np.zeros((1, 2, 2), dtype=bool), window=1)


def test_connectivity_alternating_rounds():
    # Rounds alternate between {1->2, 2->3} and {3->1}: only the two-round
    # union closes the cycle.
    rounds = pool(3, [{(1, 2), (2, 3)}, {(3, 1)}])
    GraphSequence(rounds, window=2)
    with pytest.raises(InvalidEdgeError, match=r"connectivity window 1\)"):
        GraphSequence(rounds, window=1)
    # Window 3 over pool 2: the aligned windows are pool entries (0, 1, 0)
    # and (1, 0, 1), and both unions are the full cycle.
    GraphSequence(rounds, window=3)
    # A numpy integer window is an int; a fractional or zero one is an edge error.
    assert type(GraphSequence(rounds, window=np.int64(2)).window) is int
    for window in (1.5, 2.0, 0):
        with pytest.raises(InvalidEdgeError, match=f"window {window} is not an integer"):
            GraphSequence(rounds, window=window)


def test_sequence_cycles_and_validates():
    seq = GraphSequence(pool(2, [{(1, 2)}, {(2, 1)}]), window=2)
    assert np.array_equal(seq.adj[0], adjacency(2, {(1, 2)}))
    assert np.array_equal(seq.adj[1], adjacency(2, {(2, 1)}))
    assert not seq.adj.flags.writeable
    with pytest.raises(InvalidEdgeError):
        parse_edge_list("1>3", m=2, window=1)
    with pytest.raises(InvalidEdgeError, match="at least one round"):
        GraphSequence(pool(2, []), window=1)
    with pytest.raises(InvalidEdgeError, match="shape"):
        GraphSequence(np.zeros((1, 2, 3), dtype=bool), window=1)
    with pytest.raises(InvalidEdgeError, match="agent count"):
        GraphSequence(np.zeros((1, 0, 0), dtype=bool), window=1)
    with pytest.raises(InvalidEdgeError, match=r"self-loop \(1, 1\)"):
        GraphSequence(np.eye(2, dtype=bool)[None], window=1)


def test_edge_list_parsing():
    text = "1>2; 2>3\n\n3>1\n"
    seq = parse_edge_list(text, m=3, window=3)
    assert np.array_equal(seq.adj[0], adjacency(3, {(1, 2), (2, 3)}))
    assert not seq.adj[1].any()
    assert np.array_equal(seq.adj[2], adjacency(3, {(3, 1)}))
    assert len(seq.adj) == 3


def test_edge_list_rejects_malformed_lines():
    with pytest.raises(InvalidEdgeError):
        parse_edge_list("1-2", m=3, window=1)
    with pytest.raises(InvalidEdgeError):
        parse_edge_list("1>x", m=3, window=1)
    with pytest.raises(InvalidEdgeError):
        parse_edge_list("", m=3, window=1)
    with pytest.raises(InvalidEdgeError, match=r"edge \(3, 4\) references an agent outside"):
        parse_edge_list("1>2\n3>4", m=3, window=1)
    with pytest.raises(InvalidEdgeError, match=r"self-loop \(2, 2\) is implicit"):
        parse_edge_list("1>2\n2>2", m=3, window=1)
