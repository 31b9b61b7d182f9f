import re

import numpy as np
import pytest

from dpsla.numerics import Rng
from dpsla.problem import ConstraintSet, ProblemInstance, QuadraticObjective
from dpsla.topology import Graph, _repair_connectivity, build_graph, metropolis_weights


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


def _random_graph_per_pair(n, p, draws, rng):
    """The pairs (i, j), i < j, in row-major order, each kept when its own
    scalar draw is below p, then the repair drawing from `rng`; the reference
    for the one-block draw of `build_graph("random")`. Returns the edge set and
    how many edges the repair added."""
    draw = iter(draws)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if next(draw) < p:
                edges.add((i, j))
    drawn = len(edges)
    edges = _repair_connectivity(edges, n, rng)
    return edges, len(edges) - drawn


def _weight_graphs():
    """Graphs of all five kinds with 2 to 32 agents; the random ones at three
    edge probabilities and three seeds drawn from a fixed generator."""
    seeds = np.random.default_rng(23).integers(2 ** 32, size=3).tolist()
    yield build_graph("triangle", 3)
    for n in range(2, 33):
        for kind in ("complete", "ring", "path"):
            yield build_graph(kind, n)
        for p in (0.1, 0.3, 0.7):
            for seed in seeds:
                yield build_graph("random", n, edge_prob=p, rng=Rng(seed))


def _check_doubly_stochastic(W):
    n = W.shape[0]
    ones = np.ones(n)
    assert not W.flags.writeable
    assert np.all(W >= 0)
    assert np.array_equal(W, W.T)
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

    def test_adjacency_built_once_and_read_only(self):
        g = build_graph("path", 4)
        assert g.adjacency() is g.adjacency()
        with pytest.raises(ValueError, match="read-only"):
            g.adjacency()[0, 3] = 1.0
        assert g.adjacency()[0, 3] == 0.0

    def test_long_path_accepted(self):
        # the connectivity test grows its frontier one hop per step: 299 steps here
        g = build_graph("path", 300)
        assert len(g.edges) == 299
        assert metropolis_weights(g).shape == (300, 300)

    def test_random_connected(self):
        for seed in range(20):
            g = build_graph("random", 12, edge_prob=0.2, rng=Rng(seed))
            assert g.n_agents == 12  # construction validates connectivity

    def test_random_sparse_gets_repaired(self):
        # edge_prob so small the raw sample is almost surely disconnected
        g = build_graph("random", 15, edge_prob=0.01, rng=Rng(5))
        assert len(g.edges) >= 14

    def test_random_equals_per_pair_draws(self):
        repaired = 0
        for n in range(2, 81):
            for seed in range(3):
                ref_rng = Rng(seed)
                # one scalar draw per pair; they do not depend on edge_prob
                draws = [ref_rng._gen.uniform(0.0, 1.0) for _ in range(n * (n - 1) // 2)]
                after_draws = ref_rng._gen.bit_generator.state
                for p in (0.05, 0.2, 0.5, 0.9):
                    rng = Rng(seed)
                    g = build_graph("random", n, edge_prob=p, rng=rng)
                    ref_rng._gen.bit_generator.state = after_draws
                    ref, added = _random_graph_per_pair(n, p, draws, ref_rng)
                    repaired += added > 0
                    assert g.edges == ref, (n, p, seed)
                    assert all(type(i) is int and type(j) is int for i, j in g.edges)
                    # the stream is left where the per-pair draws and the repair leave it
                    assert rng.uniform_array(1, 0.0, 1.0)[0] == ref_rng._gen.uniform(0.0, 1.0)
        assert repaired > 100

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_graph("complete", 1)

    def test_triangle_wrong_n(self):
        with pytest.raises(ValueError):
            build_graph("triangle", 4)

    @pytest.mark.parametrize("kind, kwargs, message", [
        ("random", {"edge_prob": 0.0, "rng": Rng(0)}, "edge_prob must be in (0, 1]"),
        ("random", {"edge_prob": 1.5, "rng": Rng(0)}, "edge_prob must be in (0, 1]"),
        ("random", {}, "random graphs need an Rng"),
        ("star", {}, "unknown graph kind 'star'"),
    ])
    def test_bad_arguments_named(self, kind, kwargs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build_graph(kind, 4, **kwargs)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Graph(n_agents=4, edges=frozenset({(0, 1), (2, 3)}))

    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0.5, 1), (0, 1.0), (False, True), (0, True)])
    def test_non_integer_endpoints_rejected(self, edge):
        with pytest.raises(ValueError, match="bad edge"):
            Graph(n_agents=3, edges=frozenset({edge, (1, 2)}))

    @pytest.mark.parametrize("edge", [(0, True), (1.0, 2), (2, 1), (0, 3), (-1, 2)])
    def test_bad_edge_named(self, edge):
        msg = "^" + re.escape(f"bad edge ({edge[0]}, {edge[1]}) for 3 agents") + "$"
        with pytest.raises(ValueError, match=msg):
            Graph(n_agents=3, edges=frozenset({edge, (0, 2), (1, 2)}))

    def test_numpy_integer_endpoints_accepted(self):
        g = Graph(n_agents=np.int64(3), edges=frozenset({(np.int64(0), np.int64(1)), (1, 2)}))
        assert g.adjacency().sum() == 4.0
        assert type(g.n_agents) is int
        assert all(type(i) is int and type(j) is int for i, j in g.edges)
        objectives = [QuadraticObjective.quadratic(np.eye(2), [float(i), 0.0]) for i in range(3)]
        inst = ProblemInstance(objectives, ConstraintSet.ball([0.0, 0.0], 1.0), g)
        clone = ProblemInstance.from_json(inst.to_json())
        assert clone.graph == g and clone.to_json() == inst.to_json()

    @pytest.mark.parametrize("n", [3.0, 3.7, "3", True, np.float64(3.0), 1])
    def test_non_integer_or_small_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_agents must be an integer >= 2"):
            Graph(n_agents=n, edges=frozenset({(0, 1), (1, 2)}))


class TestMetropolisWeights:
    def test_triangle_weights(self):
        W = metropolis_weights(build_graph("triangle", 3))
        assert np.allclose(W, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_two_node_path(self):
        W = metropolis_weights(build_graph("path", 2))
        assert np.allclose(W, [[0.5, 0.5], [0.5, 0.5]])

    def test_star_weights(self):
        # center 0 with three leaves: edge weight 1/4, center diag 1/4, leaf diag 3/4
        g = Graph(n_agents=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
        W = metropolis_weights(g)
        assert np.isclose(W[0, 1], 0.25)
        assert np.isclose(W[0, 0], 0.25)
        assert np.isclose(W[1, 1], 0.75)

    def test_doubly_stochastic_families(self):
        # DPS-LA mixes with these weights unchecked: the properties hold by construction
        for g in _weight_graphs():
            _check_doubly_stochastic(metropolis_weights(g))

    def test_support_pattern(self):
        for g in _weight_graphs():
            support = (g.adjacency() > 0) | np.eye(g.n_agents, dtype=bool)
            assert np.array_equal(metropolis_weights(g) > 0, support), sorted(g.edges)

    def test_bitwise_equal_to_per_edge_loop(self):
        graphs = [build_graph("triangle", 3)]
        graphs += [build_graph(kind, n) for kind in ("ring", "path", "complete")
                   for n in range(2, 80)]
        graphs += [build_graph("random", n, edge_prob=p, rng=Rng(n))
                   for n in [*range(2, 64), 100, 160] for p in (0.05, 0.2, 0.5, 0.9)]
        graphs.append(build_graph("random", 320, edge_prob=0.5, rng=Rng(320)))
        for g in graphs:
            assert metropolis_weights(g).tobytes() == _metropolis_per_edge(g).tobytes()


class TestMix:
    """One consensus step is the engine's product W @ X of the Metropolis weights
    and the (n, dim) state array."""

    def test_triangle_uniform_average(self):
        W = metropolis_weights(build_graph("triangle", 3))
        X = np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        assert np.allclose(W @ X, [[1.0, 1.0]] * 3)

    def test_consensus_fixed_point(self):
        W = metropolis_weights(build_graph("ring", 5))
        X = np.tile([2.0, -1.0, 0.5], (5, 1))
        assert np.allclose(W @ X, X, atol=1e-14)

    def test_average_preservation(self):
        gen = np.random.default_rng(11)
        for seed in range(5):
            W = metropolis_weights(build_graph("random", 8, edge_prob=0.4, rng=Rng(seed)))
            X = gen.normal(size=(8, 4))
            assert np.max(np.abs(X.mean(0) - (W @ X).mean(0))) <= 1e-12

    def test_repeated_mixing_contracts(self):
        W = metropolis_weights(build_graph("ring", 7))
        X = np.random.default_rng(2).normal(size=(7, 3))

        def spread(X):
            return np.linalg.norm(X - X.mean(0), axis=1).max()

        prev = spread(X)
        for _ in range(25):
            X = W @ X
            cur = spread(X)
            assert cur <= prev + 1e-12
            prev = cur
        assert cur < 1e-2
