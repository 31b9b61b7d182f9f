import numpy as np
import pytest

from dpsla.numerics import Rng
from dpsla.topology import Graph, MixingMatrix, build_graph, metropolis_weights, mix


def _metropolis_per_edge(g):
    """The per-edge Metropolis loop that the array form replaced; the bitwise reference."""
    n = g.n_agents
    deg = [0] * n
    for (i, j) in g.edges:
        deg[i] += 1
        deg[j] += 1
    W = np.zeros((n, n))
    for (i, j) in g.edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        W[i, i] = 1.0 - W[i].sum()
    return W


def _check_doubly_stochastic(W):
    n = W.shape[0]
    ones = np.ones(n)
    assert np.all(W >= 0)
    assert np.allclose(W, W.T, atol=1e-15)
    assert np.max(np.abs(W @ ones - ones)) <= 1e-12
    assert np.max(np.abs(W.T @ ones - ones)) <= 1e-12


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph("triangle", 3)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_complete(self):
        g = build_graph("complete", 4)
        assert len(g.edges) == 6

    def test_ring(self):
        g = build_graph("ring", 5)
        assert len(g.edges) == 5
        assert g.adjacency().sum(axis=1).tolist() == [2.0] * 5

    def test_path(self):
        g = build_graph("path", 4)
        assert len(g.edges) == 3
        assert g.adjacency().sum(axis=1).tolist() == [1.0, 2.0, 2.0, 1.0]

    def test_long_path_accepted(self):
        # the connectivity test grows its frontier one hop per step: 299 steps here
        g = build_graph("path", 300)
        assert len(g.edges) == 299
        assert metropolis_weights(g).n_agents == 300

    def test_random_connected(self):
        for seed in range(20):
            g = build_graph("random", 12, edge_prob=0.2, rng=Rng(seed))
            assert g.n_agents == 12  # construction validates connectivity

    def test_random_sparse_gets_repaired(self):
        # edge_prob so small the raw sample is almost surely disconnected
        g = build_graph("random", 15, edge_prob=0.01, rng=Rng(5))
        assert len(g.edges) >= 14

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_graph("complete", 1)

    def test_triangle_wrong_n(self):
        with pytest.raises(ValueError):
            build_graph("triangle", 4)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Graph(n_agents=4, edges=frozenset({(0, 1), (2, 3)}))

    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0.5, 1), (0, 1.0), (False, True), (0, True)])
    def test_non_integer_endpoints_rejected(self, edge):
        with pytest.raises(ValueError, match="bad edge"):
            Graph(n_agents=3, edges=frozenset({edge, (1, 2)}))

    def test_numpy_integer_endpoints_accepted(self):
        g = Graph(n_agents=3, edges=frozenset({(np.int64(0), np.int64(1)), (1, 2)}))
        assert g.adjacency().sum() == 4.0

    def test_edge_list_export(self):
        g = build_graph("triangle", 3)
        assert g.to_edge_list_text() == "0 1\n0 2\n1 2\n"


class TestMetropolisWeights:
    def test_triangle_weights(self):
        W = metropolis_weights(build_graph("triangle", 3)).W
        assert np.allclose(W, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_two_node_path(self):
        W = metropolis_weights(build_graph("path", 2)).W
        assert np.allclose(W, [[0.5, 0.5], [0.5, 0.5]])

    def test_star_weights(self):
        # center 0 with three leaves: edge weight 1/4, center diag 1/4, leaf diag 3/4
        g = Graph(n_agents=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
        W = metropolis_weights(g).W
        assert np.isclose(W[0, 1], 0.25)
        assert np.isclose(W[0, 0], 0.25)
        assert np.isclose(W[1, 1], 0.75)

    def test_doubly_stochastic_families(self):
        _check_doubly_stochastic(metropolis_weights(build_graph("triangle", 3)).W)
        for n in range(5, 51, 9):
            _check_doubly_stochastic(metropolis_weights(build_graph("ring", n)).W)
        for seed in range(5):
            g = build_graph("random", 30, edge_prob=0.3, rng=Rng(seed))
            _check_doubly_stochastic(metropolis_weights(g).W)

    def test_support_pattern(self):
        g = build_graph("ring", 6)
        W = metropolis_weights(g).W
        adj = g.adjacency()
        for i in range(6):
            for j in range(6):
                if i == j or adj[i, j]:
                    assert W[i, j] > 0
                else:
                    assert W[i, j] == 0

    def test_bitwise_equal_to_per_edge_loop(self):
        graphs = [build_graph(kind, n) for kind in ("ring", "path", "complete")
                  for n in range(2, 80)]
        graphs += [build_graph("random", n, edge_prob=p, rng=Rng(n))
                   for n in [*range(2, 64), 100, 160] for p in (0.05, 0.2, 0.5, 0.9)]
        graphs.append(build_graph("random", 320, edge_prob=0.5, rng=Rng(320)))
        for g in graphs:
            assert metropolis_weights(g).W.tobytes() == _metropolis_per_edge(g).tobytes()


class TestMixingMatrixSupport:
    # path 0-1-2 and star 0-2, 1-2; every W below is symmetric and doubly stochastic
    PATH = Graph(n_agents=3, edges=frozenset({(0, 1), (1, 2)}))
    STAR = Graph(n_agents=3, edges=frozenset({(0, 2), (1, 2)}))

    def test_zero_on_an_edge(self):
        msg = r"^weight w\[0,1\] must be positive on the graph support$"
        with pytest.raises(ValueError, match=msg):
            MixingMatrix(W=np.eye(3), source_graph=self.PATH)

    def test_nonzero_off_the_support(self):
        msg = r"^weight w\[0,2\] must be zero off the graph support$"
        with pytest.raises(ValueError, match=msg):
            MixingMatrix(W=np.full((3, 3), 1 / 3), source_graph=self.PATH)

    @pytest.mark.parametrize("graph, W, first", [
        # w[0,1] on an edge is zero before w[0,2] off the support is nonzero
        ("PATH", [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
         r"w\[0,1\] must be positive on"),
        # w[0,1] off the support is nonzero before w[0,2] on an edge is zero
        ("STAR", [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
         r"w\[0,1\] must be zero off"),
    ])
    def test_both_faults_name_the_first_in_row_major_order(self, graph, W, first):
        with pytest.raises(ValueError, match=first):
            MixingMatrix(W=np.array(W), source_graph=getattr(self, graph))


class TestMix:
    def test_triangle_uniform_average(self):
        W = metropolis_weights(build_graph("triangle", 3))
        states = [np.array([3.0, 0.0]), np.array([0.0, 3.0]), np.array([0.0, 0.0])]
        out = mix(W, states)
        for z in out:
            assert np.allclose(z, [1.0, 1.0])

    def test_consensus_fixed_point(self):
        W = metropolis_weights(build_graph("ring", 5))
        v = np.array([2.0, -1.0, 0.5])
        out = mix(W, [v.copy() for _ in range(5)])
        for z in out:
            assert np.allclose(z, v, atol=1e-14)

    def test_average_preservation(self):
        gen = np.random.default_rng(11)
        for seed in range(5):
            g = build_graph("random", 8, edge_prob=0.4, rng=Rng(seed))
            W = metropolis_weights(g)
            states = [gen.normal(size=4) for _ in range(8)]
            before = np.mean(np.stack(states), axis=0)
            after = np.mean(np.stack(mix(W, states)), axis=0)
            assert np.max(np.abs(before - after)) <= 1e-12

    def test_repeated_mixing_contracts(self):
        gen = np.random.default_rng(2)
        g = build_graph("ring", 7)
        W = metropolis_weights(g)
        states = [gen.normal(size=3) for _ in range(7)]

        def spread(xs):
            xb = np.mean(np.stack(xs), axis=0)
            return max(np.linalg.norm(x - xb) for x in xs)

        prev = spread(states)
        for _ in range(25):
            states = mix(W, states)
            cur = spread(states)
            assert cur <= prev + 1e-12
            prev = cur
        assert cur < 1e-2

    def test_wrong_count(self):
        W = metropolis_weights(build_graph("triangle", 3))
        with pytest.raises(ValueError):
            mix(W, [np.zeros(2)] * 2)
