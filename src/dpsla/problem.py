"""Problem instances: local quadratic objectives, the shared constraint set,
instance generators for both benchmark setups, and a high-accuracy reference
solver for the constrained optimum.

Every agent holds a convex quadratic, either in least-squares form
f(x) = 0.5 ||A x - b||^2 or as a general convex quadratic x'Qx + q'x + c.
The shared set is a box or a Euclidean ball; both are compact and convex.

The simulator evaluates all agents at once: an instance stacks its objectives
into groups of one kind and shape (`ObjectiveGroup`), and the constraint set
projects every row of an (n, dim) array in one call. Each batched product is
one gufunc call (`np.vecdot`, `np.matvec`, `np.vecmat`) whose entries run the
same dot as the 1-D `a @ b` of the single-agent `_eval`/`_grad`/`_project`,
so the batched rows are bitwise equal to them. A rule that reads no value
calls `_grads`, which runs the gradient expressions of `_values_grads` alone,
so its rows keep their bits. A box projection calls the clip ufunc `_CLIP`
that `ndarray.clip` reaches through numpy's Python `_clip` wrapper; the ufunc
is public only in the private `numpy._core`, and a test pins its bits against
`np.clip`. A ball projection decides the usual case, every row inside, with
one reduction: sqrt is monotone, so the largest norm is sqrt(max |d|^2),
taken by `_MAX`, the `np.maximum.reduce` that `ndarray.max` runs, bound once,
and `math.sqrt`: the same correctly rounded sqrt, without a Python wrapper or
a numpy scalar. It still returns a copy. Set-up is batched too: an
instance's data is one block of draws, and the optimum's values and gradients
come from one call at x* repeated for every agent.

Only the projected-gradient solvers (`solve_reference`, `minimize_local`) keep
the per-point `_eval`, `_grad`, `_project` and `_sum_grad`; one-row batched
calls measured slower on a 2-vCPU VM. `_project_rows` took 3.2-5.7 us against
1.0-1.1 us inside the triangle's ball, 11.6-12.2 against 1.9-2.0 us outside;
the oracle's 21 triangle steps 0.58-0.65 ms with a batched summed gradient
against 0.29-0.45 ms; local minima batched 5.3-7.9 against 2.6-4.5 ms an
instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import Rng, as_mat, as_vec, require_positive, solve_spd
from .topology import Graph, build_graph

PSD_EIG_TOL = -1e-10
MEMBERSHIP_TOL = 1e-12  # slack of `contains` on the boundary; a ball scales it by its size
ORACLE_TOL = 1e-10  # projected-gradient fixed-point residual of the reference solvers
ORACLE_MAX_ITER = 1_000_000
POWER_ITERATIONS = 200  # of `estimate_lipschitz`
_HALF = np.array(0.5)  # 0-d: an array operation takes it faster than the float 0.5, same bits
# the ufunc that `ndarray.clip` reaches through numpy's Python `_clip` wrapper,
# and the reduction that `ndarray.max` runs, bound once rather than per call
_CLIP = np._core.umath.clip
_MAX = np.maximum.reduce


class OracleConvergenceError(RuntimeError):
    """The reference solver hit its iteration cap before reaching tolerance."""


class GenerationError(RuntimeError):
    """Instance generation failed (degenerate random draw)."""


# -- objectives -----------------------------------------------------------------


class QuadraticObjective:
    """Convex quadratic in least-squares or general form.

    Least squares: f(x) = 0.5 ||A x - b||^2, convex by construction.
    General:       f(x) = x'Qx + q'x + c with Q symmetric PSD.
    """

    def __init__(self, *, A=None, b=None, Q=None, q=None, c=0.0):
        if A is not None:
            self.kind = "least_squares"
            self.A = as_mat(A)
            self.b = as_vec(b, dim=self.A.shape[0])
            self.dim = self.A.shape[1]
        else:
            self.kind = "quadratic"
            self.Q = as_mat(Q)
            if self.Q.shape[0] != self.Q.shape[1]:
                raise ValueError("Q must be square")
            if not np.allclose(self.Q, self.Q.T, atol=1e-12):
                raise ValueError("Q must be symmetric")
            if np.linalg.eigvalsh(self.Q).min() < PSD_EIG_TOL:
                raise ValueError("Q must be positive semidefinite")
            self.q = as_vec(q, dim=self.Q.shape[0])
            self.c = float(c)
            if not math.isfinite(self.c):
                raise ValueError("constant c must be finite")
            self.dim = self.Q.shape[0]
            self._H = self.Q + self.Q.T

    @classmethod
    def least_squares(cls, A, b) -> "QuadraticObjective":
        return cls(A=A, b=b)

    @classmethod
    def quadratic(cls, Q, q, c=0.0) -> "QuadraticObjective":
        return cls(Q=Q, q=q, c=c)

    def eval(self, x) -> float:
        return self._eval(as_vec(x, dim=self.dim))

    def grad(self, x) -> np.ndarray:
        return self._grad(as_vec(x, dim=self.dim))

    def _eval(self, x: np.ndarray) -> float:
        """eval without boundary validation; x must be a clean float64 vector."""
        if self.kind == "least_squares":
            r = self.A @ x - self.b
            return 0.5 * float(r @ r)
        return float(x @ self.Q @ x + self.q @ x + self.c)

    def _grad(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "least_squares":
            return self.A.T @ (self.A @ x - self.b)
        return self._H @ x + self.q

    def hessian(self) -> np.ndarray:
        if self.kind == "least_squares":
            return self.A.T @ self.A
        return self.Q + self.Q.T

    def to_dict(self) -> dict:
        if self.kind == "least_squares":
            return {"kind": "least_squares", "A": self.A.tolist(), "b": self.b.tolist()}
        return {"kind": "quadratic", "Q": self.Q.tolist(), "q": self.q.tolist(), "c": self.c}

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticObjective":
        if d["kind"] == "least_squares":
            return cls.least_squares(d["A"], d["b"])
        if d["kind"] == "quadratic":
            return cls.quadratic(d["Q"], d["q"], d.get("c", 0.0))
        raise ValueError(f"unknown objective kind {d.get('kind')!r}")


@dataclass(frozen=True)
class ObjectiveGroup:
    """Objectives of one kind and shape, stacked along a leading agent axis.

    Least squares keeps A (g, r, dim), its transpose as a *view* (a contiguous
    copy could change the kernel numpy picks, and `einsum` the order of the
    sums, so the last bits) and b (g, r); general quadratics keep Q, H = Q + Q'
    (g, dim, dim), q (g, dim) and c (g,). `values`, `grads` and `values_grads`
    are `np.matvec`, `np.vecmat` and `np.vecdot` calls, one per product.
    """

    agents: np.ndarray  # positions of the group's objectives in the instance
    kind: str
    M: np.ndarray  # A or Q
    MT: np.ndarray  # A' or H
    v: np.ndarray  # b or q
    c: np.ndarray | None = None

    @classmethod
    def stack(cls, objectives: list[QuadraticObjective]) -> list["ObjectiveGroup"]:
        """Group the objectives by (kind, shape), in order of first appearance."""
        members: dict[tuple, list[int]] = {}
        for i, o in enumerate(objectives):
            shape = o.A.shape if o.kind == "least_squares" else o.Q.shape
            members.setdefault((o.kind, shape), []).append(i)
        groups = []
        for (kind, _), idx in members.items():
            objs = [objectives[i] for i in idx]
            if kind == "least_squares":
                A = np.stack([o.A for o in objs])
                groups.append(cls(np.array(idx), kind, A, A.transpose(0, 2, 1),
                                  np.stack([o.b for o in objs])))
            else:
                groups.append(cls(np.array(idx), kind, np.stack([o.Q for o in objs]),
                                  np.stack([o._H for o in objs]), np.stack([o.q for o in objs]),
                                  np.array([o.c for o in objs])))
        return groups

    def values(self, Z: np.ndarray) -> np.ndarray:
        """f_j(z_j) for each row z_j of Z (g, dim), or of each slice of Z (K, g or 1, dim)."""
        if self.kind == "least_squares":
            R = np.matvec(self.M, Z) - self.v
            return 0.5 * np.vecdot(R, R)
        return np.vecdot(np.vecmat(Z, self.M), Z) + np.vecdot(self.v, Z) + self.c

    def values_grads(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f_j(z_j) and grad f_j(z_j) for each row z_j of Z (g, dim)."""
        if self.kind == "least_squares":
            R = np.matvec(self.M, Z) - self.v
            return _HALF * np.vecdot(R, R), np.matvec(self.MT, R)
        return self.values(Z), np.matvec(self.MT, Z) + self.v

    def grads(self, Z: np.ndarray) -> np.ndarray:
        """grad f_j(z_j) for each row z_j of Z (g, dim), with the bits of `values_grads`."""
        if self.kind == "least_squares":
            return np.matvec(self.MT, np.matvec(self.M, Z) - self.v)
        return np.matvec(self.MT, Z) + self.v


# -- constraint sets --------------------------------------------------------------


class ConstraintSet:
    """Compact convex feasible set: a coordinate box or a Euclidean ball."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        if kind == "box":
            self.lower = as_vec(params["lower"])
            self.upper = as_vec(params["upper"], dim=self.lower.size)
            if np.any(self.lower >= self.upper):
                raise ValueError("box requires lower < upper componentwise")
            self.dim = self.lower.size
        elif kind == "ball":
            self.ball_center = as_vec(params["center"])
            self.radius = float(params["radius"])
            require_positive("ball radius", self.radius)
            self.dim = self.ball_center.size
        else:
            raise ValueError(f"unknown constraint kind {kind!r}")

    @classmethod
    def box(cls, lower, upper) -> "ConstraintSet":
        return cls("box", lower=lower, upper=upper)

    @classmethod
    def ball(cls, center, radius) -> "ConstraintSet":
        return cls("ball", center=center, radius=radius)

    def project(self, y) -> np.ndarray:
        return self._project(as_vec(y, dim=self.dim))

    def _project(self, y: np.ndarray) -> np.ndarray:
        """project without boundary validation; y must be a clean float64 vector."""
        if self.kind == "box":
            return np.clip(y, self.lower, self.upper)
        d = y - self.ball_center
        norm = math.sqrt(d.dot(d))  # np.linalg.norm of a real 1-D vector
        if norm <= self.radius:
            return y.copy()
        if math.isinf(norm):  # |d|^2 overflowed: scale by the largest entry first
            m = float(np.abs(d).max())
            s = d / m
            norm = m * math.sqrt(s.dot(s))
        return self.ball_center + (self.radius / norm) * d

    def _project_rows(self, Y: np.ndarray) -> np.ndarray:
        """`_project` applied to every row of Y (m, dim)."""
        if self.kind == "box":
            return _CLIP(Y, self.lower, self.upper)
        D = Y - self.ball_center
        sq = np.vecdot(D, D)
        # sqrt is monotone, so the largest norm is sqrt(max |d|^2): one reduction
        # finds every row inside (an empty Y too); a NaN fails it, as does any far row.
        if math.sqrt(_MAX(sq, initial=0.0)) <= self.radius:
            return Y.copy()
        norms = np.sqrt(sq)
        out = Y.copy()
        far = ~(norms <= self.radius)
        D, norms = D[far], norms[far]
        over = np.isinf(norms)  # |d|^2 overflowed: scale each such row by its largest entry
        if over.any():
            m = np.abs(D[over]).max(1)
            S = D[over] / m[:, None]
            norms[over] = m * np.sqrt(np.vecdot(S, S))
        out[far] = self.ball_center + (self.radius / norms)[:, None] * D
        return out

    def _contains_rows(self, X: np.ndarray) -> np.ndarray:
        """`contains` for every row of X (m, dim), as a boolean array."""
        tol = MEMBERSHIP_TOL
        if self.kind == "box":
            return np.all((X >= self.lower - tol) & (X <= self.upper + tol), axis=1)
        # a row projected onto the sphere carries the rounding of the ball's
        # coordinates, so the slack scales with the radius and the center
        tol *= max(1.0, self.radius, float(np.abs(self.ball_center).max()))
        D = X - self.ball_center
        return np.sqrt(np.vecdot(D, D)) <= self.radius + tol

    def contains(self, x) -> bool:
        return bool(self._contains_rows(as_vec(x, dim=self.dim)[None])[0])

    def center(self) -> np.ndarray:
        if self.kind == "box":
            return 0.5 * (self.lower + self.upper)
        return self.ball_center.copy()

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest coordinate box containing the set."""
        if self.kind == "box":
            return self.lower.copy(), self.upper.copy()
        r = self.radius
        return self.ball_center - r, self.ball_center + r

    def to_dict(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}
        return {"kind": "ball", "center": self.ball_center.tolist(), "radius": self.radius}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintSet":
        if d["kind"] == "box":
            return cls.box(d["lower"], d["upper"])
        if d["kind"] == "ball":
            return cls.ball(d["center"], d["radius"])
        raise ValueError(f"unknown constraint kind {d.get('kind')!r}")


# -- instances --------------------------------------------------------------------


@dataclass
class OracleResult:
    """Reference optimum: the point, sum-form value, per-agent values, and the
    projected-gradient fixed-point residual it was solved to."""

    x_star: np.ndarray
    f_star: float
    local_values: list[float]
    kkt_residual: float

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "f_star": self.f_star,
            "local_values": list(self.local_values),
            "kkt_residual": self.kkt_residual,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OracleResult":
        return cls(
            x_star=as_vec(d["x_star"]),
            f_star=float(d["f_star"]),
            local_values=[float(v) for v in d["local_values"]],
            kkt_residual=float(d["kkt_residual"]),
        )


@dataclass
class ProblemInstance:
    """One multi-agent problem: objectives, shared constraint, topology, and a
    lazily solved optimum cache. Treated as immutable after generation except
    for the `optimum` cache."""

    objectives: list[QuadraticObjective]
    constraint: ConstraintSet
    graph: Graph
    optimum: OracleResult | None = field(default=None)

    def __post_init__(self):
        dims = {o.dim for o in self.objectives}
        if len(dims) != 1:
            raise ValueError("all objectives must share one decision dimension")
        if self.constraint.dim != self.dim:
            raise ValueError("constraint dimension does not match the objectives")
        if self.graph.n_agents != len(self.objectives):
            raise ValueError("graph size does not match the number of objectives")

    @property
    def n_agents(self) -> int:
        return len(self.objectives)

    @property
    def dim(self) -> int:
        return self.objectives[0].dim

    @cached_property
    def _groups(self) -> list[ObjectiveGroup]:
        return ObjectiveGroup.stack(self.objectives)

    def _values_grads(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f_i(z_i) (n,) and grad f_i(z_i) (n, dim) for the rows z_i of Z (n, dim)."""
        groups = self._groups
        if len(groups) == 1:  # agents 0..n-1 in order: no gather or scatter
            return groups[0].values_grads(Z)
        F = np.empty(self.n_agents)
        G = np.empty((self.n_agents, self.dim))
        for grp in groups:
            F[grp.agents], G[grp.agents] = grp.values_grads(Z[grp.agents])
        return F, G

    def _grads(self, Z: np.ndarray) -> np.ndarray:
        """grad f_i(z_i) (n, dim) for the rows z_i of Z (n, dim), for rules that
        read no value; bitwise equal to `_values_grads(Z)[1]`."""
        groups = self._groups
        if len(groups) == 1:
            return groups[0].grads(Z)
        G = np.empty((self.n_agents, self.dim))
        for grp in groups:
            G[grp.agents] = grp.grads(Z[grp.agents])
        return G

    def _sum_value(self, x: np.ndarray):
        """sum_i f_i(x) for x (dim,), or for each row of x (K, dim) as an array;
        each group's gufuncs broadcast the (K, 1, dim) stack over its agents.
        Agents are added in order, as sum(o._eval(x) for o in objectives) does."""
        X = x.reshape(-1, 1, self.dim)
        F = np.empty((self.n_agents, len(X)))
        for grp in self._groups:
            F[grp.agents] = grp.values(X).T
        total = sum(F)  # `np.add.reduce` would sum pairwise from 8 agents on
        return float(total[0]) if x.ndim == 1 else total

    def _sum_grad(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.dim)
        for o in self.objectives:
            g += o._grad(x)
        return g

    def ensure_optimum(self, tol: float = ORACLE_TOL) -> OracleResult:
        if self.optimum is None:
            self.optimum = solve_reference(self, tol)
        return self.optimum

    def to_json(self) -> str:
        doc = {
            "objectives": [o.to_dict() for o in self.objectives],
            "constraint": self.constraint.to_dict(),
            "graph": {"n_agents": self.graph.n_agents, "edges": sorted(self.graph.edges)},
        }
        if self.optimum is not None:
            doc["optimum"] = self.optimum.to_dict()
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        doc = json.loads(text)
        graph = Graph(
            n_agents=doc["graph"]["n_agents"],
            edges=frozenset(tuple(e) for e in doc["graph"]["edges"]),
        )
        inst = cls(
            objectives=[QuadraticObjective.from_dict(d) for d in doc["objectives"]],
            constraint=ConstraintSet.from_dict(doc["constraint"]),
            graph=graph,
        )
        if "optimum" in doc:
            inst.optimum = inst._checked_optimum(OracleResult.from_dict(doc["optimum"]))
        return inst

    def _checked_optimum(self, orc: OracleResult) -> OracleResult:
        """`orc` if it describes a point of this instance, else ValueError.

        x* must be a point of the constraint set (`contains`), f* and the local
        values must be what the objectives give there (within 1e-9 relative to
        max(1, |value|)), the KKT residual must be finite and >= 0, and x* must
        be optimal: its duality gap max over y in the set of g.(x* - y), with g
        the summed gradient at x*, must not exceed 1e-6 max(1, |f*|). The gap
        bounds f(x*) - min f for convex f; the oracle's own optima have gaps of
        1e-9 and less.
        """
        x = orc.x_star
        if x.size != self.dim:
            raise ValueError(f"optimum x_star has dimension {x.size}, expected {self.dim}")
        if not self.constraint.contains(x):
            raise ValueError("optimum x_star lies outside the constraint set")
        if len(orc.local_values) != self.n_agents:
            raise ValueError(f"optimum has {len(orc.local_values)} local values "
                             f"for {self.n_agents} agents")
        F, G = self._values_grads(np.tile(x, (self.n_agents, 1)))
        claims = [("f_star", orc.f_star, float(sum(F)))]  # agents in order, as `_sum_value`
        claims += [(f"local_values[{i}]", v, f)
                   for i, (v, f) in enumerate(zip(orc.local_values, F.tolist()))]
        for name, given, value in claims:
            if not abs(given - value) <= 1e-9 * max(1.0, abs(value)):
                raise ValueError(f"optimum {name} = {given!r}, but the objectives give "
                                 f"{value!r} at x_star")
        if not (math.isfinite(orc.kkt_residual) and orc.kkt_residual >= 0.0):
            raise ValueError(f"optimum kkt_residual must be finite and >= 0, "
                             f"got {orc.kkt_residual!r}")
        g, cs = sum(G), self.constraint
        if cs.kind == "box":
            gap = float(g @ (x - np.where(g > 0, cs.lower, cs.upper)))
        else:
            gap = float(g @ (x - cs.ball_center)) + cs.radius * float(np.linalg.norm(g))
        if not gap <= 1e-6 * max(1.0, abs(orc.f_star)):
            raise ValueError(f"optimum x_star is not optimal: its duality gap is {gap!r}")
        return orc


# -- generators -------------------------------------------------------------------


def gen_paper_instance(n: int = 4, dim: int = 6, rows_per_agent: int = 2, *, rng: Rng,
                       graph_kind: str = "random", edge_prob: float = 0.5) -> ProblemInstance:
    """Random least-squares instance with a shifted sine-patterned box.

    A_i entries are U(0, 0.1), b_i entries U(0, 5). The box is placed relative
    to the unconstrained minimizer t* of the summed objective:
    l_j = t*_j + 10 + 10 sin(j pi / 120) and u_j = l_j + 10 for j = 1..dim,
    so the constrained optimum is forced onto the boundary.
    """
    if n < 2 or dim < 1 or rows_per_agent < 1:
        raise ValueError("need n >= 2, dim >= 1, rows_per_agent >= 1")
    k = rows_per_agent * dim  # row i of the draw is agent i's A_i, row-major, then b_i
    data = rng.uniform_array((n, k + rows_per_agent), 0.0,
                             np.repeat([0.1, 5.0], [k, rows_per_agent]))
    objectives = [QuadraticObjective.least_squares(d[:k].reshape(rows_per_agent, dim), d[k:])
                  for d in data]
    H = sum((o.A.T @ o.A for o in objectives), np.zeros((dim, dim)))
    rhs = sum((o.A.T @ o.b for o in objectives), np.zeros(dim))
    try:
        theta_unc = solve_spd(H + 1e-10 * np.eye(dim), rhs)
    except Exception as exc:
        raise GenerationError(f"aggregate normal system is singular: {exc}") from exc
    j = np.arange(1, dim + 1)
    offset = 10.0 + 10.0 * np.sin(j * math.pi / 120.0)
    lower = theta_unc + offset
    upper = theta_unc + 10.0 + offset
    graph = build_graph(graph_kind, n, edge_prob=edge_prob, rng=rng)
    return ProblemInstance(
        objectives=objectives,
        constraint=ConstraintSet.box(lower, upper),
        graph=graph,
    )


def gen_triangle_demo() -> ProblemInstance:
    """Three fixed convex quadratics on a triangle graph, ball constraint of radius 4."""
    f1 = QuadraticObjective.quadratic([[2.0, 0.5], [0.5, 3.0]], [-4.0, -2.0], 0.0)
    f2 = QuadraticObjective.quadratic([[1.0, -1.0], [-1.0, 4.0]], [3.0, -1.0], 0.0)
    f3 = QuadraticObjective.quadratic([[3.0, 0.0], [0.0, 2.0]], [1.0, -3.0], 2.0)
    graph = build_graph("triangle", 3)
    return ProblemInstance(
        objectives=[f1, f2, f3],
        constraint=ConstraintSet.ball([0.0, 0.0], 4.0),
        graph=graph,
    )


# -- reference solver -------------------------------------------------------------


def estimate_lipschitz(H: np.ndarray) -> float:
    """Largest-eigenvalue estimate of a PSD matrix by 200 power iterations, padded 1%.

    The map v -> Hv/|Hv| is deterministic, so once an iterate repeats bit for
    bit (a fixed point or a short cycle) the last one is known: the loop stops
    there and takes it from the cycle, with the bits of the full loop.
    """
    n = H.shape[0]
    v = np.ones(n) / math.sqrt(n)
    v[0] += 1e-3  # break symmetry deterministically
    v /= np.linalg.norm(v)
    seen, path = {v.tobytes(): 0}, [v]
    for k in range(1, POWER_ITERATIONS + 1):
        w = H @ v
        norm = math.sqrt(w.dot(w))  # np.linalg.norm of a real 1-D vector
        if norm == 0.0:
            return 1.0
        v = w / norm
        first = seen.setdefault(v.tobytes(), k)
        if first < k:  # iterate k repeats iterate `first`: a cycle of k - first
            v = path[first + (POWER_ITERATIONS - first) % (k - first)]
            break
        path.append(v)
    return max(float(v @ H @ v) * 1.01, 1e-12)


def _projected_gradient(grad_fn, project, x0: np.ndarray, L: float,
                        tol: float) -> tuple[np.ndarray, float, int]:
    """Fixed-step projected gradient; stops on the fixed-point residual."""
    x = project(x0)
    for it in range(ORACLE_MAX_ITER):
        x_next = project(x - grad_fn(x) / L)
        r = x - x_next
        res = math.sqrt(r.dot(r))  # np.linalg.norm of a real 1-D vector
        x = x_next
        if res <= tol:
            return x, res, it + 1
    raise OracleConvergenceError(
        f"projected gradient did not reach tol {tol:g} within {ORACLE_MAX_ITER} iterations")


def solve_reference(inst: ProblemInstance, tol: float = ORACLE_TOL) -> OracleResult:
    """High-accuracy constrained optimum of the summed objective.

    Plain projected gradient with stepsize 1/L, L from power iteration on the
    aggregate Hessian; the loop is deliberately simple so it can be audited
    against the first-order optimality property directly.
    """
    require_positive("tol", tol)
    H = sum((o.hessian() for o in inst.objectives), np.zeros((inst.dim, inst.dim)))
    L = estimate_lipschitz(H)
    x0 = inst.constraint.center()
    x, res, _ = _projected_gradient(inst._sum_grad, inst.constraint._project, x0, L, tol)
    F, _ = inst._values_grads(np.tile(x, (inst.n_agents, 1)))
    return OracleResult(x_star=x, f_star=float(sum(F)), local_values=F.tolist(),
                        kkt_residual=res)


def minimize_local(obj: QuadraticObjective, cs: ConstraintSet) -> tuple[np.ndarray, float]:
    """Constrained minimum of a single objective (used for naive Polyak targets)."""
    L = estimate_lipschitz(obj.hessian())
    x, _, _ = _projected_gradient(obj._grad, cs._project, cs.center(), L, ORACLE_TOL)
    return x, obj._eval(x)
