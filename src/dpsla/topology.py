"""Agent communication graphs and the Metropolis doubly stochastic mixing matrix.

Graphs are undirected, connected and fixed for the whole run. The Metropolis
weights w_ij = A_ij / (1 + max(deg_i, deg_j)), with the diagonal taking the
rest of each row, are symmetric, nonnegative and doubly stochastic, positive
exactly on the edges and the diagonal, by construction: A is a symmetric 0/1
array with a zero diagonal, and each row's off-diagonal sum is below 1. So
repeated mixing contracts disagreement while preserving the network average.
Nothing checks this at run time; `tests/test_topology.py::TestMetropolisWeights`
(`test_doubly_stochastic_families`, `test_support_pattern`) checks it on every
graph kind.

A random graph draws all its pairs in one block and keeps those below
`edge_prob`; only the repair of a disconnected draw links components one at a
time. Past construction, the degrees, the weights and the connectivity test
are array expressions over the (n, n) adjacency array, which a graph builds
once and keeps read-only.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, Value, is_int

GRAPH_KINDS = ("triangle", "complete", "ring", "path", "random")


class Graph(Value):
    """Undirected connected graph on agents 0..n_agents-1; edges (i, j), i < j, in any iterable,
    kept as a frozenset. The count and the endpoints are integers, not bools, kept as Python ints."""

    def __init__(self, n_agents: int, edges: frozenset):
        if not (is_int(n_agents) and n_agents >= 2):
            raise ValueError(f"n_agents must be an integer >= 2, got {n_agents!r}")
        for (i, j) in edges:
            if not (is_int(i) and is_int(j) and 0 <= i < j < n_agents):
                raise ValueError(f"bad edge ({i}, {j}) for {n_agents} agents")
        n_agents, edges = int(n_agents), frozenset((int(i), int(j)) for (i, j) in edges)
        self._init(locals())
        A = np.zeros((n_agents, n_agents))
        i, j = np.array(list(edges), dtype=np.intp).reshape(-1, 2).T
        A[i, j] = A[j, i] = 1.0
        A.flags.writeable = False
        vars(self)["_adjacency"] = A
        if not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        adj = self._adjacency > 0
        seen = np.zeros(self.n_agents, dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():  # grow the set reached from agent 0 one hop per step
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    def adjacency(self) -> np.ndarray:
        """The (n, n) 0/1 adjacency array, built once with the graph and read-only."""
        return self._adjacency


def build_graph(kind: str, n: int, edge_prob: float = 0.5, rng: Rng | None = None) -> Graph:
    """Construct a connected graph of the requested kind.

    Random graphs sample each pair independently with `edge_prob` and, if the
    result is disconnected, are repaired by linking the components along a
    randomly ordered spanning tree (bounded construction time).
    """
    if kind == "triangle":
        if n != 3:
            raise ValueError("triangle topology requires n == 3")
        edges = {(0, 1), (0, 2), (1, 2)}
    elif kind == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "ring":
        edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    elif kind == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif kind == "random":
        if not (0.0 < edge_prob <= 1.0):
            raise ValueError("edge_prob must be in (0, 1]")
        if rng is None:
            raise ValueError("random graphs need an Rng")
        i, j = np.triu_indices(n, 1)  # the pairs in row-major order, one draw each
        keep = rng.uniform_array(i.size, 0.0, 1.0) < edge_prob
        edges = _repair_connectivity(set(zip(i[keep].tolist(), j[keep].tolist())), n, rng)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n_agents=n, edges=frozenset(edges))


def _repair_connectivity(edges: set, n: int, rng: Rng) -> set:
    """Add spanning-tree edges between components until the graph is connected."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (i, j) in edges:
        parent[find(i)] = find(j)
    roots = sorted({find(i) for i in range(n)})
    while len(roots) > 1:
        # link a random node of one random component to one of another
        ra = roots[rng.integer(0, len(roots))]
        rb = ra
        while rb == ra:
            rb = roots[rng.integer(0, len(roots))]
        nodes_a = [i for i in range(n) if find(i) == ra]
        nodes_b = [i for i in range(n) if find(i) == rb]
        u = nodes_a[rng.integer(0, len(nodes_a))]
        v = nodes_b[rng.integer(0, len(nodes_b))]
        edges.add(tuple(sorted((u, v))))
        parent[find(u)] = find(v)
        roots = sorted({find(i) for i in range(n)})
    return edges


def metropolis_weights(g: Graph) -> np.ndarray:
    """Metropolis rule: w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal absorbs the rest.

    Returns the (n, n) weight array, read-only like `Graph.adjacency()`.
    """
    A = g.adjacency()
    deg = A.sum(axis=1)
    W = A / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    W.flags.writeable = False
    return W
