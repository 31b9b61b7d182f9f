"""Per-agent adaptive Polyak stepsize with level-value adjustment.

The raw stepsize is gamma * (f_i(z) - level_i) / ||grad f_i(z)||^2 and is
forced into the decaying corridor

    c0*alpha0 / (2 c_k)  <=  alpha_{i,k}  <=  c0*alpha0 / c_k

by alpha_{i,k} = (1/c_k) * min(max(beta, c0*alpha0/2), c_{k-1} * alpha_{i,k-1}).
The running min(...) product is carried forward verbatim so the corridor and
the monotonicity alpha_{i,k} <= alpha_{i,k-1} hold exactly in floating point,
not just up to rounding.

The level is a lower estimate of the agent's objective value at the network
optimum. Every step with a nonzero gradient contributes the half-space

    g . x  <=  g . z - (beta / gamma_bar) * ||g||^2

to the agent's inequality window, solved over the bounding box of the shared
constraint set. Confining the window to that compact box is what keeps the
violation detector active: an unconstrained window would almost never turn
infeasible on problems whose gradients share a common descent direction, and
soundness is unaffected because the network optimum always lies in the box.
When the window turns infeasible the level is raised to a convex combination
of itself and the smallest objective value seen in the window, and the window
is cleared.

Everything here acts on all agents at once. `StepsizeConfig.c_value` gives
c_k for one round or for an array of rounds by the same expression, so a run
reads c_k from a table built once. `decide_alpha` gives all stepsizes and
Polyak values under one mask of the nonzero-gradient rows: a masked row skips
the divide, which leaves gamma (F - level), the bits of dividing it by 1, and
takes the lower clamp, so no sentinel marks it and no division by zero warns.
`LevelWindows` keeps each round's rows as one row of four arrays shared by all
windows, a row count per agent and an (n, dim) array of witness points, the
last slice of a (3, n, dim) operand: the engine's rule writes G and Z into the
other two and takes G.G, G.Z and G.witness in one `np.vecdot` pass.
`_in_window` alone says which stored rows make up a window. `record_step`
decides every window one way: it tests every witness against its new row by
those dots and, in a round where some witness fell, the new rows of those
agents at their minimizers over the box in one call. A new row that exceeds
its offset there by more than EPS_FEAS makes the window infeasible; otherwise
a window of one row is feasible and takes the minimizer as its witness, which
satisfies the row by the dot product the witness test takes (the stacked pass
gives the bits of a separate `np.vecdot` call). The only Python loop runs over
the windows of two rows or more whose new row meets the box: each is read
with one index, loaded into `InequalitySystem` and checked by its LP. On the
paper's workloads no window reaches that loop, so every level update there is
decided by the box test. The levels of all infeasible windows are
then raised at once. A window of one row is the row just stored, so its
smallest f-value is that row's F; only the windows of two rows or more are
read, in one masked minimum over the stored rows. On `reproduce main` 96% of
the updates reset a window of one row. A round in which some witness fell
works on (n,) masks over all agents, not on index arrays: the new witnesses,
levels and counts are masked writes (`np.copyto(..., where=)`), and every
agent gets a proposed level, which only the updated ones take. At a few
agents the masked writes cost less than the index gathers and scatters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .feasibility import EPS_FEAS, InequalitySystem, SolverStallError
from .numerics import is_int, require_positive

WINDOW_ROWS = 64  # rounds the level windows' arrays hold at first
# 0-d float64: an array operation takes it faster than the Python float, with the same bits
_EPS_FEAS = np.array(EPS_FEAS)
# the C function that `np.count_nonzero` calls for a whole array, without its Python wrapper
_count = np._core.multiarray.count_nonzero


@dataclass(frozen=True)
class StepsizeConfig:
    """Parameters of the adaptive stepsize; defaults match the benchmark setup.

    The scaling sequence c_k is c_scale * sqrt(k + 1) for c_kind "sqrt" and
    c_scale for c_kind "constant"; both are positive and non-decreasing."""

    gamma: float = 1.0
    gamma_bar: float = 1.5
    alpha0: float = 2.0
    c_kind: str = "sqrt"  # "sqrt" | "constant"
    c_scale: float = 0.5
    eps_grad: float = 1e-12
    constraint_beta: str = "raw"  # "raw" | "clamped"

    def __post_init__(self):
        if self.c_kind not in ("sqrt", "constant"):
            raise ValueError(f"unknown c-schedule kind {self.c_kind!r}")
        require_positive("c-schedule scale", self.c_scale)
        if not (0.0 < self.gamma < self.gamma_bar < 2.0):
            raise ValueError("need 0 < gamma < gamma_bar < 2")
        require_positive("alpha0", self.alpha0)
        require_positive("eps_grad", self.eps_grad)
        if self.constraint_beta not in ("raw", "clamped"):
            raise ValueError("constraint_beta must be 'raw' or 'clamped'")

    def c_value(self, k: int | np.ndarray) -> float | np.ndarray:
        """c_k for a round k >= 0, or elementwise for an integer array of rounds."""
        if np.count_nonzero(k < 0):
            raise ValueError("k must be >= 0")
        return self.c_scale * np.sqrt(k + 1.0) if self.c_kind == "sqrt" else self.c_scale + 0.0 * k

    @cached_property
    def c0(self) -> float:
        return self.c_value(0)

    @cached_property
    def beta_floor(self) -> float:
        """Lower clamp c0 * alpha0 / 2 applied inside the stepsize rule."""
        return self.c0 * self.alpha0 / 2.0


def decide_alpha(cfg: StepsizeConfig, cap: np.ndarray, F: np.ndarray, level: np.ndarray,
                 grad_sq: np.ndarray, active: np.ndarray,
                 c_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Stepsizes and Polyak values of every agent for the round whose c-value is c_k.

    beta = gamma (F - level) / ||g||^2 may be negative; a row outside `active`
    (zero gradient) keeps gamma (F - level), as if divided by 1, and takes the
    lower clamp c0 alpha0 / 2. `cap` (n,) carries c_{k-1} alpha_{i,k-1}, starts
    at c0 alpha0 and is updated in place. The max/min keep Python's
    max(beta, floor) and min(inner, cap), so a NaN beta propagates.
    Only `cfg.gamma`, `cfg.beta_floor` and `cfg.constraint_beta` are read; the
    engine passes the two numbers as 0-d arrays, which give the same bits.
    Returns (alpha, beta), beta lower-clamped if `cfg.constraint_beta` is "clamped".
    """
    beta = cfg.gamma * (F - level)
    np.divide(beta, grad_sq, out=beta, where=active)
    floor = cfg.beta_floor
    inner = np.where(active, np.maximum(beta, floor), floor)
    np.copyto(cap, inner, where=~(cap < inner))  # cap = where(cap < inner, cap, inner)
    return cap / c_k, inner if cfg.constraint_beta == "clamped" else beta


class LevelWindows:
    """Every agent's level and the inequality window behind its violation detector.

    Round t's G (n, dim), b, F and active (n,) are row t of four arrays, whose
    first `rows` rows are in use. Agent i's window is its last `count[i]` active
    rows, oldest first; the cap keeps at most `eta_cap` of them, and a level
    update resets the window to zero rows. Every window lies in the finite box
    `bounds`. While `count[i] > 0`, `witness[i]` satisfies every row of agent
    i's window within EPS_FEAS (and lies in the box); `witness` is the last
    slice of `operand` (3, n, dim), whose first two a caller may fill with G
    and Z to take every dot product of G in one pass. `quiet` says whether every
    witness held in the last round `record_step` took; a quiet round changes no
    level, no witness and no verdict, so a round that repeats its inputs
    repeats it.
    """

    def __init__(self, level0, dim: int, bounds: tuple[np.ndarray, np.ndarray],
                 eta_cap: int | None = None):
        if not (eta_cap is None or (is_int(eta_cap) and eta_cap >= 1)):
            raise ValueError(f"eta_cap must be None or an integer >= 1, got {eta_cap!r}")
        if bounds is None:
            raise ValueError("level windows need a box")
        self.level = np.array(level0, dtype=float)
        n = self.level.size
        self.eta_cap = None if eta_cap is None else np.array(eta_cap)  # 0-d, as `_EPS_FEAS`
        self.count = np.zeros(n, dtype=np.int64)  # rows in each window
        self.operand = np.zeros((3, n, dim))
        self.witness = self.operand[2]
        self.rows = 0  # rounds held in G, b, F and active
        self.quiet = False  # no witness fell in the last recorded round
        self.G, self.active = np.empty((WINDOW_ROWS, n, dim)), np.empty((WINDOW_ROWS, n), bool)
        self.b, self.F = np.empty((WINDOW_ROWS, n)), np.empty((WINDOW_ROWS, n))
        self.system = InequalitySystem(dim, bounds=bounds)  # reused for every check

    def _in_window(self, agents) -> np.ndarray:
        """Mask (rows,) + shape of `agents` of the stored rows in each agent's
        window: its last `count[i]` active rows."""
        active = self.active[:self.rows, agents]
        newer = np.cumsum(active[::-1], axis=0)[::-1]  # active rows from each row on
        return active & (newer <= self.count[agents])

    def _make_room(self) -> int:
        """Shift out the rows older than the oldest row of every window and double
        the arrays if they are still at least half full, so that their length is
        bounded by the windows, not by the run. Returns the first free row."""
        rows = self.rows
        used = np.flatnonzero(self._in_window(slice(None)).any(1))
        keep = rows - int(used[0]) if used.size else 0
        for name in ("G", "b", "F", "active"):
            old = getattr(self, name)
            new = old if 2 * keep < rows else np.empty((2 * rows,) + old.shape[1:], old.dtype)
            new[:keep] = old[rows - keep:rows]
            setattr(self, name, new)
        self.rows = keep
        return keep

    def window(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Agent i's window as arrays G (m, dim), b (m,) and F (m,), oldest row first."""
        t = np.flatnonzero(self._in_window(i))
        return self.G[t, i], self.b[t, i], self.F[t, i]


def record_step(win: LevelWindows, cfg: StepsizeConfig, G: np.ndarray, b: np.ndarray,
                F: np.ndarray, active: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """Append one round's half-spaces G[i].x <= b[i], check the windows, update the levels.

    Only the `active` agents (nonzero gradient) add a row; b[i] = g.z -
    (beta / gamma_bar) ||g||^2 with beta the Polyak value written into the
    constraint (raw or lower-clamped per config), and the b of the other agents
    is ignored (NaN is fine). `gw` (n,) holds G[i] . win.witness[i]. An agent
    whose witness survives its new row stays feasible, and a round in which
    every witness survives only stores its rows and sets `win.quiet`.
    For the others only the new row can miss the box (every older row passed a
    witness test or a check, and both leave a point of the box on its side),
    so a new row that misses the box, tested at its minimizer over the box,
    makes the window infeasible with no check. A window of one row that meets
    the box is feasible, and that minimizer becomes its witness. Only the
    other windows, of two rows or more, are read and go to
    `win.system.check_feasible`; on the paper's workloads there are none, and
    every level update is box-decided.
    Every infeasible window raises its level to a convex combination of itself
    and the window's smallest f-value and is cleared. The smallest f-value of a
    window of one row is this round's F[i], also under `eta_cap=1`; only the
    windows of two rows or more are read from the stored rows, into a copy of
    this round's F. The combination is computed for every agent and written,
    like the new witnesses and the cleared counts, through the (n,) masks, so an
    agent outside `updated` keeps its level whatever its F (inf and NaN too).
    Returns the (n,) mask of updated levels.
    """
    t = win.rows if win.rows < win.b.shape[0] else win._make_room()
    win.G[t], win.b[t], win.F[t], win.active[t] = G, b, F, active
    win.rows = t + 1
    # the fallen agents (an empty window, count 0, has no witness), until a check
    # finds a new witness
    updated = active & (np.logical_not(win.count) | (gw - b > _EPS_FEAS))
    win.count += active
    if win.eta_cap is not None:
        np.minimum(win.count, win.eta_cap, out=win.count)
    win.quiet = not _count(updated)
    if win.quiet:
        return updated
    system = win.system
    lo, hi = system.bounds
    # each new row's minimizer over the box: a window whose row it misses is
    # infeasible, and a one-row window whose row it meets takes it as witness
    X = np.where(G < 0, hi, lo)
    meets = updated & (np.vecdot(G, X) - b <= _EPS_FEAS)
    one = meets & (win.count == 1)
    np.copyto(win.witness, X, where=one[:, None])
    updated ^= one  # `one` is a subset of `updated`
    lp = meets ^ one  # the windows of two rows or more that meet the box
    if _count(lp):
        for i in lp.nonzero()[0].tolist():
            G_i, b_i, _ = win.window(i)
            system.load(G_i, b_i)
            try:
                verdict = system.check_feasible()
            except SolverStallError as exc:
                raise SolverStallError(f"agent {i}, window of {b_i.size} rows: {exc}") from exc
            if verdict.feasible:
                win.witness[i], updated[i] = verdict.point, False
    low = win.F[t]  # a window of one row is the row just stored
    many = updated & (win.count > 1)
    if _count(many):  # each longer window's smallest f, read from the stored rows into a copy
        m = many.nonzero()[0]
        low = low.copy()
        low[m] = np.where(win._in_window(m), win.F[:t + 1, m], np.inf).min(0)
    # every agent's proposal, written only where its level was updated
    keep, level = cfg.gamma / cfg.gamma_bar, win.level
    proposed = keep * level + (1.0 - keep) * low
    # The convex combination is a certified lower bound on the agent's optimal
    # value, but it only exceeds the old level when the window minimum does;
    # keep the level monotone in the residual cases (as max(level, proposed)).
    np.copyto(level, proposed, where=updated & (proposed > level))
    np.copyto(win.count, 0, where=updated)
    return updated
