"""Agent communication graphs and the Metropolis doubly stochastic mixing matrix.

Graphs are undirected, connected and fixed for the whole run. The mixing
matrix built here is symmetric, nonnegative and doubly stochastic, with a
strictly positive diagonal, so repeated mixing contracts disagreement while
preserving the network average.

Past construction, the degrees, the weights, the support check and the
connectivity test are array expressions over the (n, n) adjacency array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng, as_mat

STOCHASTIC_TOL = 1e-12

GRAPH_KINDS = ("triangle", "complete", "ring", "path", "random")


def _is_index(v) -> bool:
    """An integer agent index; bools are rejected even though Python counts them as ints."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on agents 0..n_agents-1, edges stored as (i, j) with i < j."""

    n_agents: int
    edges: frozenset

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("a graph needs at least 2 agents")
        for (i, j) in self.edges:
            if not (_is_index(i) and _is_index(j) and 0 <= i < j < self.n_agents):
                raise ValueError(f"bad edge ({i}, {j}) for {self.n_agents} agents")
        if not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        adj = self.adjacency() > 0
        seen = np.zeros(self.n_agents, dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():  # grow the set reached from agent 0 one hop per step
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n_agents, self.n_agents))
        i, j = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2).T
        A[i, j] = A[j, i] = 1.0
        return A

    def to_edge_list_text(self) -> str:
        """Debug export: one "i j" pair per line, sorted."""
        return "\n".join(f"{i} {j}" for (i, j) in sorted(self.edges)) + "\n"


def build_graph(kind: str, n: int, edge_prob: float = 0.5, rng: Rng | None = None) -> Graph:
    """Construct a connected graph of the requested kind.

    Random graphs sample each pair independently with `edge_prob` and, if the
    result is disconnected, are repaired by linking the components along a
    randomly ordered spanning tree (bounded construction time).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
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
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform(0.0, 1.0) < edge_prob:
                    edges.add((i, j))
        edges = _repair_connectivity(edges, n, rng)
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


@dataclass(frozen=True)
class MixingMatrix:
    """Doubly stochastic weight matrix over a graph; validated on construction."""

    W: np.ndarray
    source_graph: Graph = field(repr=False)

    def __post_init__(self):
        W, g = self.W, self.source_graph
        n = g.n_agents
        if W.shape != (n, n):
            raise ValueError("weight matrix shape does not match the graph")
        if np.any(W < 0):
            raise ValueError("weights must be nonnegative")
        if not np.allclose(W, W.T, rtol=0.0, atol=STOCHASTIC_TOL):
            raise ValueError("weight matrix must be symmetric")
        ones = np.ones(n)
        if np.max(np.abs(W @ ones - ones)) > STOCHASTIC_TOL:
            raise ValueError("row sums must equal 1")
        if np.max(np.abs(W.T @ ones - ones)) > STOCHASTIC_TOL:
            raise ValueError("column sums must equal 1")
        support = (g.adjacency() > 0) | np.eye(n, dtype=bool)
        bad = np.argwhere(np.where(support, W <= 0, W != 0))
        if len(bad):  # name the first offending entry in row-major order
            i, j = bad[0]
            if support[i, j]:
                raise ValueError(f"weight w[{i},{j}] must be positive on the graph support")
            raise ValueError(f"weight w[{i},{j}] must be zero off the graph support")

    @property
    def n_agents(self) -> int:
        return self.source_graph.n_agents


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis rule: w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal absorbs the rest."""
    A = g.adjacency()
    deg = A.sum(axis=1)
    W = A / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return MixingMatrix(W=W, source_graph=g)


def mix(W: MixingMatrix, states) -> np.ndarray:
    """One consensus step z_i = sum_j w_ij x_j for every agent.

    `states` is an (n, dim) array or a list of n vectors; returns the (n, dim)
    array whose rows are the z_i. The run loop skips these checks (`engine.mix`).
    """
    if len(states) != W.n_agents:
        raise ValueError(f"expected {W.n_agents} states, got {len(states)}")
    return W.W @ as_mat(states)
