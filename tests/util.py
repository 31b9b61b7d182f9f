"""Shared test helpers, including the brute-force 2-D feasibility oracle."""

from __future__ import annotations

import math

import numpy as np

from dpsla.feasibility import HalfSpace


def brute_force_margin(halfspaces: list[HalfSpace], grid_lim: float = 50.0,
                       grid_points: int = 101) -> float:
    """Smallest max-violation over a candidate set: a fine grid plus every
    pairwise intersection of constraint boundaries.

    Independent of the simplex path: the system is declared feasible iff some
    candidate satisfies every constraint within 1e-6. Any nonempty polyhedron
    from the generators below either contains a deep grid point or has a
    vertex, and vertices are exactly the pairwise boundary intersections.
    """
    A = np.stack([h.a for h in halfspaces])
    b = np.array([h.b for h in halfspaces])
    xs = np.linspace(-grid_lim, grid_lim, grid_points)
    gx, gy = np.meshgrid(xs, xs)
    i, j = np.triu_indices(len(halfspaces), 1)  # every pair i < j, in row order
    M = np.stack([A[i], A[j]], axis=1)  # (pairs, 2, 2)
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    solvable = ~(np.abs(det) < 1e-12)
    rhs = np.stack([b[i], b[j]], axis=1)[solvable]
    inter = np.linalg.solve(M[solvable], rhs[..., None])[..., 0]
    C = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), inter])
    violations = A @ C.T - b[:, None]  # (constraints, candidates)
    return float(violations.max(axis=0).min())


def brute_force_feasible(halfspaces: list[HalfSpace]) -> bool:
    return brute_force_margin(halfspaces) <= 1e-6


def random_halfspace_system(rng: np.random.Generator, n_constraints: int) -> list[HalfSpace]:
    """Random 2-D systems whose interesting geometry stays near the origin."""
    out = []
    for _ in range(n_constraints):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.5, 2.0)
        a = scale * np.array([math.cos(ang), math.sin(ang)])
        anchor = rng.uniform(-20.0, 20.0, size=2)
        b = float(a @ anchor + rng.uniform(-3.0, 3.0))
        out.append(HalfSpace(a=a, b=b))
    return out


def one_row_windows(rng: np.random.Generator, k: int,
                    dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """k random rows g.x <= b and a box (lo, hi) of either sign, for one-row checks.

    Each gradient component is zero or scaled by 1e-12 with probability 0.2
    each, and b lies 1e-12 to 1 below or above the row's minimum over the box,
    so both verdicts occur, some within rounding of EPS_FEAS. Returns (G, b, lo, hi).
    """
    lo = rng.uniform(-3.0, 3.0, dim) * 10.0 ** rng.uniform(-2.0, 2.0)
    hi = lo + rng.uniform(0.01, 4.0, dim) * 10.0 ** rng.uniform(-2.0, 2.0)
    G = rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-4.0, 4.0, (k, 1))
    G[rng.random((k, dim)) < 0.2] = 0.0
    G[rng.random((k, dim)) < 0.2] *= 1e-12
    G[~G.any(axis=1), 0] = 1.0
    gap = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-12.0, 0.0, k)
    return G, np.minimum(G * lo, G * hi).sum(1) + gap, lo, hi


def parse_csv(path) -> dict:
    """Round-trip reader for the run CSV; returns columns keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(int(v) if h in ("k", "diverged") else float(v))
    return cols
