"""Linear inequality systems and their Phase-I feasibility check.

An `InequalitySystem` holds half-spaces a.x <= b; feasibility is decided by
minimizing a single shared slack s over

    a_t . x - |a_t| s <= b_t    for every stored constraint t,    lo <= x <= hi,

solved by a bounded-variable primal simplex with Bland's anti-cycling rule.
The optional coordinate box (`bounds`) enters as bounds on x, not as rows; a
system without one passes infinite bounds, so its free x runs through the same
loop. The system is feasible iff the LP's end point, clipped into the box,
violates no stored constraint by more than EPS_FEAS; a row that no point of
the box satisfies is therefore infeasible without a separate test.

Every `check_feasible` solves the LP; `witness` is only the point of the last
feasible verdict, until the rows change. `add_constraint` is the validating
entry point. The level windows (`stepsize.LevelWindows`) keep their rows in
their own round-indexed arrays and test their witnesses themselves. They test
a fallen window's new row at its minimizer over the box, which decides a
window whose row misses the box and every one-row window; only a longer window
goes to one reused system, as arrays through `load`, which skips the
`HalfSpace` checks: their rows are gradients with norm above eps_grad at
finite iterates.
"""

from __future__ import annotations

import numpy as np

from .numerics import Record, Value, as_vec

EPS_FEAS = 1e-9
MIN_NORMAL = 1e-12
_PIVOT_TOL = 1e-9
_COST_TOL = 1e-11
_PIVOT_CAP_FACTOR = 10_000  # iteration cap per row and column of the LP


class SolverStallError(RuntimeError):
    """The simplex exceeded its iteration cap; treated as fatal, not as a verdict."""


class HalfSpace(Value):
    """One constraint a.x <= b."""

    def __init__(self, a: np.ndarray, b: float):
        a = as_vec(a)
        if float(np.linalg.norm(a)) <= MIN_NORMAL:
            raise ValueError("near-zero constraint normal rejected")
        if not np.isfinite(b):
            raise ValueError("right-hand side must be finite")
        self._init(locals())


class FeasibilityVerdict(Record):
    def __init__(self, feasible: bool, point: np.ndarray | None, phase1_value: float):
        self._init(locals())


class InequalitySystem:
    """Ordered half-space collection with an optional box domain."""

    def __init__(self, dim: int, bounds: tuple[np.ndarray, np.ndarray] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        if bounds is not None:
            lo = as_vec(bounds[0], dim=dim)
            hi = as_vec(bounds[1], dim=dim)
            if np.any(lo >= hi):
                raise ValueError("bounds must satisfy lo < hi componentwise")
            bounds = (lo, hi)
        self.bounds = bounds
        self.load(np.empty((0, dim)), np.empty(0))

    @property
    def size(self) -> int:
        return self._b.size

    def add_constraint(self, h: HalfSpace) -> None:
        """Append a constraint of this system's dimension through `load`."""
        if h.a.size != self.dim:
            raise ValueError(f"dimension mismatch: system dim {self.dim}, normal dim {h.a.size}")
        self.load(np.vstack([self._A, h.a]), np.append(self._b, h.b))

    def load(self, A: np.ndarray, b: np.ndarray) -> None:
        """Replace the rows by A (m, dim) and b (m,), kept as they are and without
        the `HalfSpace` checks, and clear the witness; the bounds persist."""
        self._A, self._b = A, b
        self.witness = None

    def dump(self) -> str:
        """Debug text: one row "a_1 ... a_m | b" per constraint."""
        rows = [" ".join(f"{v:.12g}" for v in a) + f" | {b:.12g}" for a, b in zip(self._A, self._b)]
        return "\n".join(rows) + ("\n" if rows else "")

    # -- feasibility ---------------------------------------------------------

    def check_feasible(self) -> FeasibilityVerdict:
        """Decide feasibility of the stored system (within bounds when present) by its LP."""
        if not self._b.size:
            raise ValueError("check_feasible on an empty system")
        lo, hi = self.bounds or (np.full(self.dim, -np.inf), np.full(self.dim, np.inf))
        s_value, x = _phase1_lp(self._A, self._b, lo, hi)
        if s_value <= EPS_FEAS:
            self.witness = x
            return FeasibilityVerdict(feasible=True, point=x, phase1_value=s_value)
        return FeasibilityVerdict(feasible=False, point=None, phase1_value=s_value)


# -- Phase-I linear program ----------------------------------------------------


def _phase1_lp(A: np.ndarray, b: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize s subject to u_t.x - s <= c_t and lo <= x <= hi (bounds may be infinite).

    (u_t, c_t) is row t of (A, b) divided by |a_t|, so s is a distance and the
    absolute simplex tolerances mean the same at every gradient scale.
    Bounded-variable primal simplex with Bland's rule over v = [x, s, slack]:
    every variable carries its own bounds, slack >= 0, and s is floored at
    -(10 + sqrt(dim)) (1 + M), M the largest |c| or |finite bound|, which keeps
    the LP bounded without changing a verdict. In a finite box the floor never
    binds: there |x| <= sqrt(dim) M, so every s >= max_t u_t.x - c_t the LP
    can reach is at least -(sqrt(dim) + 1) M, at least 10 above the floor. The
    start puts x at lo (0 where lo is infinite), s at the largest violation
    and the slacks in the basis; pivoting s into the most violated row makes
    that basis feasible. The loop ends at the optimum or when s reaches its
    floor. The verdict reads raw rows, and a move of x_j that a reduced cost d
    per unit-scaled row prices at |d| can change a raw row by up to
    |d| span_j max_t |a_t|; so x_j's reduced cost is weighted by
    max(1, span_j max_t |a_t|) (span 1 where a bound is infinite), s's and
    the slacks' by 1, before the optimality test against `_COST_TOL`.
    Returns (max_t a_t.x - b_t, x) for the final x, clipped into the box.

    The tableau is condensed: row t reads v[basis[t]] + T[t] . v[nonbasic] = const,
    so it has one column per nonbasic variable (dim + 1), not one per variable.
    """
    m, dim = A.shape
    norms = np.linalg.norm(A, axis=1)
    U, c = A / norms[:, None], b / norms
    finite = np.concatenate([c, lo[np.isfinite(lo)], hi[np.isfinite(hi)]])
    s_floor = -(10.0 + np.sqrt(dim)) * (1.0 + float(np.max(np.abs(finite))))
    x0 = np.where(np.isfinite(lo), lo, 0.0)
    viol = U @ x0 - c
    s_row = int(np.argmax(viol))
    s0 = max(float(viol[s_row]), s_floor)
    T = np.hstack([U, -np.ones((m, 1))])
    v = np.concatenate([x0, [s0], s0 - viol])
    lower = np.concatenate([lo, [s_floor], np.zeros(m)])
    upper = np.concatenate([hi, np.full(m + 1, np.inf)])
    span = np.where(np.isfinite(hi - lo), hi - lo, 1.0)
    weight = np.concatenate([np.maximum(1.0, span * norms.max()), np.ones(m + 1)])
    basis = np.arange(dim + 1, dim + 1 + m)
    nonbasic = np.arange(dim + 1)
    if s0 > s_floor:
        _pivot(T, s_row, dim)
        basis[s_row], nonbasic[dim] = dim, basis[s_row]
    cap = _PIVOT_CAP_FACTOR * (m + dim)
    for _ in range(cap):
        if basis[s_row] != dim:  # s left the basis at its floor
            break
        d = -T[s_row] * weight[nonbasic]  # reduced costs of the nonbasic variables, weighted
        vn = v[nonbasic]
        movable = ((d < -_COST_TOL) & (vn < upper[nonbasic])) | \
            ((d > _COST_TOL) & (vn > lower[nonbasic]))
        if not movable.any():
            break
        eligible = np.flatnonzero(movable)
        k = int(eligible[np.argmin(nonbasic[eligible])])  # Bland: lowest variable index
        enter = nonbasic[k]
        sign = 1.0 if d[k] < 0 else -1.0
        col = sign * T[:, k]
        vb, lb, ub = v[basis], lower[basis], upper[basis]
        ratio = np.full(m, np.inf)
        down, up = col > _PIVOT_TOL, col < -_PIVOT_TOL
        ratio[down] = (vb[down] - lb[down]) / col[down]
        ratio[up] = (ub[up] - vb[up]) / -col[up]
        np.maximum(ratio, 0.0, out=ratio)
        step = float(ratio.min())  # finite: s is basic and bounds the move
        flip = upper[enter] - lower[enter]
        if flip <= step:  # the entering variable reaches its other bound first
            v[basis] -= flip * col
            v[enter] = upper[enter] if sign > 0 else lower[enter]
            continue
        # Bland tie-break: smallest basic variable index among minimum-ratio rows
        tied = np.flatnonzero(ratio <= step + 1e-12 * (1.0 + step))
        leave = int(tied[np.argmin(basis[tied])])
        v[basis] -= step * col
        v[enter] += sign * step
        out = basis[leave]
        v[out] = lower[out] if col[leave] > 0 else upper[out]
        _pivot(T, leave, k)
        basis[leave], nonbasic[k] = enter, out
    else:
        raise SolverStallError(f"simplex exceeded {cap} pivots")
    x = np.clip(v[:dim], lo, hi)
    return float(np.max(A @ x - b)), x


def _pivot(T, row, col):
    """Exchange the basic variable of `row` with the nonbasic variable of `col`."""
    p = T[row, col]
    ratios = T[:, col] / p
    pivot_row = T[row].copy()
    T -= np.outer(ratios, pivot_row)
    T[row] = pivot_row / p
    T[:, col] = -ratios
    T[row, col] = 1.0 / p
