"""Per-agent adaptive Polyak stepsize with level-value adjustment.

The raw stepsize is gamma * (f_i(z) - level_i) / ||grad f_i(z)||^2 and is
forced into the decaying corridor

    c0*alpha0 / (2 c_k)  <=  alpha_{i,k}  <=  c0*alpha0 / c_k

by alpha_{i,k} = (1/c_k) * min(max(beta, c0*alpha0/2), c_{k-1} * alpha_{i,k-1}).
The running min(...) product is carried forward verbatim so the corridor and
the monotonicity alpha_{i,k} <= alpha_{i,k-1} hold exactly in floating point,
not just up to rounding.

The level is a lower estimate of the agent's objective value at the network
optimum. Every step contributes the half-space

    g . x  <=  g . z - (beta / gamma_bar) * ||g||^2

to the agent's inequality window, solved over the bounding box of the shared
constraint set. Confining the window to that compact box is what keeps the
violation detector active: an unconstrained window would almost never turn
infeasible on problems whose gradients share a common descent direction, and
soundness is unaffected because the network optimum always lies in the box.
When the window turns infeasible the level is raised to a convex combination
of itself and the smallest objective value seen in the window, and the window
is cleared.

`raw_beta` and `decide_alpha` act on the (n,) arrays of all agents at once;
each agent's window (`LevelState`, `record_step`) stays a Python object.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .feasibility import InequalitySystem


@dataclass(frozen=True)
class CSchedule:
    """Non-decreasing positive scaling sequence c_k."""

    kind: str  # "sqrt" | "constant"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sqrt", "constant"):
            raise ValueError(f"unknown c-schedule kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("c-schedule scale must be positive")

    def value(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind == "sqrt":
            return self.scale * math.sqrt(k + 1.0)
        return self.scale

    @classmethod
    def sqrt(cls, scale: float = 1.0) -> "CSchedule":
        return cls(kind="sqrt", scale=scale)

    @classmethod
    def constant(cls, value: float) -> "CSchedule":
        return cls(kind="constant", scale=value)


@dataclass(frozen=True)
class StepsizeConfig:
    """Parameters of the adaptive stepsize; defaults match the benchmark setup."""

    gamma: float = 1.0
    gamma_bar: float = 1.5
    alpha0: float = 2.0
    c_schedule: CSchedule = field(default_factory=lambda: CSchedule.sqrt(0.5))
    eps_grad: float = 1e-12
    constraint_beta: str = "raw"  # "raw" | "clamped"

    def __post_init__(self):
        if not (0.0 < self.gamma < self.gamma_bar < 2.0):
            raise ValueError("need 0 < gamma < gamma_bar < 2")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.eps_grad <= 0:
            raise ValueError("eps_grad must be positive")
        if self.constraint_beta not in ("raw", "clamped"):
            raise ValueError("constraint_beta must be 'raw' or 'clamped'")

    @property
    def c0(self) -> float:
        return self.c_schedule.value(0)

    def c_value(self, k: int) -> float:
        return self.c_schedule.value(k)

    @property
    def beta_floor(self) -> float:
        """Lower clamp c0 * alpha0 / 2 applied inside the stepsize rule."""
        return self.c0 * self.alpha0 / 2.0


def raw_beta(cfg: StepsizeConfig, f_val, level, grad_sq):
    """Unclamped Polyak value gamma * (f - level) / ||g||^2, elementwise; may be
    negative. A zero gradient (||g|| <= eps_grad) has no Polyak value and gets
    -inf, which `decide_alpha` treats as the lower clamp."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(grad_sq > cfg.eps_grad ** 2, cfg.gamma * (f_val - level) / grad_sq, -np.inf)


def decide_alpha(cfg: StepsizeConfig, cap: np.ndarray, beta: np.ndarray, k: int) -> np.ndarray:
    """Clamped, decaying stepsizes of every agent for round k.

    `cap` (n,) carries each agent's min(...) value c_{k-1} * alpha_{i,k-1} and
    is updated in place; it starts at c0 * alpha0. The max/min keep Python's
    argument order, so a NaN beta propagates exactly as in the scalar rule.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    floor = cfg.beta_floor
    inner = np.where(floor > beta, floor, beta)  # max(beta, floor)
    cap[...] = np.where(cap < inner, cap, inner)  # min(inner, cap)
    return cap / cfg.c_value(k)


@dataclass
class LevelState:
    """Level estimate plus the inequality window backing its violation detector."""

    level: float
    system: InequalitySystem
    window_min_f: float = math.inf
    window_fvals: deque = field(default_factory=deque)
    update_count: int = 0
    eta_cap: int | None = None

    @classmethod
    def fresh(cls, level0: float, dim: int,
              bounds: tuple[np.ndarray, np.ndarray] | None = None,
              eta_cap: int | None = None) -> "LevelState":
        if eta_cap is not None and eta_cap < 1:
            raise ValueError("eta_cap must be >= 1 when set")
        return cls(level=level0, system=InequalitySystem(dim, bounds=bounds), eta_cap=eta_cap)


def record_step(ls: LevelState, cfg: StepsizeConfig, g: np.ndarray, b: float,
                f_val: float) -> float | None:
    """Append one round's half-space g.x <= b, run the feasibility check, update the level.

    Returns the new level when the window turned infeasible, else None. `g` is
    the agent's gradient, nonzero (zero-gradient rounds contribute nothing, so
    the caller skips them), and b = g.z - (beta / gamma_bar) ||g||^2 with beta
    the Polyak value written into the constraint (raw or lower-clamped per
    config).
    """
    ls.system._append(g, b)
    ls.window_fvals.append(f_val)
    ls.window_min_f = min(ls.window_min_f, f_val)
    if ls.eta_cap is not None and ls.system.size > ls.eta_cap:
        ls.system.drop_oldest()
        if ls.window_fvals.popleft() == ls.window_min_f:
            ls.window_min_f = min(ls.window_fvals)
    verdict = ls.system.check_feasible()
    if verdict.feasible:
        return None
    proposed = (cfg.gamma / cfg.gamma_bar) * ls.level \
        + (1.0 - cfg.gamma / cfg.gamma_bar) * ls.window_min_f
    # The convex combination is a certified lower bound on the agent's optimal
    # value, but it only exceeds the old level when the window minimum does;
    # keep the level monotone in the residual cases.
    new_level = max(ls.level, proposed)
    ls.level = new_level
    ls.system.reset()
    ls.window_fvals.clear()
    ls.window_min_f = math.inf
    ls.update_count += 1
    return new_level
