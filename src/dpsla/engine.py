"""Round-synchronous multi-agent simulator.

A round is a few numpy calls on one (n, dim) state array X: mix it into the
aggregated states Z = W X, evaluate every f_i and its gradient at its row of Z
(`ProblemInstance._values_grads`), pick all stepsizes with one array
expression, take the projected gradient steps Z - alpha G in one call, and
write the round's row of the trace columns; the residual and consensus columns
are filled once per chunk of rounds from a stack of their states. Algorithms
differ only in the stepsize rule, so the consensus and projection paths are
shared by construction. DPS-LA also records the round's half-spaces in its
level windows (`stepsize.record_step`), which loop in Python only over the
agents whose cached witness fell. A row whose step is not finite holds its z
and marks the run as diverged. Every agent's update depends only on the
previous round's states; the run is single threaded and deterministic for a
fixed (instance, algorithm, seed).

With a handful of agents the number of calls per round, not their size, sets
the cost of a run, so the loop keeps them few: it looks up what it needs once,
mixes by the bare `np.matmul` (X is finite by construction), tests the whole
step with one `np.isfinite(step).all()`, DGD reads its stepsizes from a table
computed once per run, and the rules mask zero-gradient rows rather than
switch `np.errstate`. It calls `mix`, `decide_alpha`, `record_step`,
`residual` and `consensus_error` through their module-level names, so that a
tracer can rebind them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .feasibility import SolverStallError
from .metrics import consensus_error, residual
from .numerics import Rng
from .problem import ConstraintSet, ProblemInstance, gen_paper_instance, minimize_local
from .stepsize import LevelWindows, StepsizeConfig, decide_alpha, raw_beta, record_step
from .topology import metropolis_weights

mix = np.matmul


@dataclass(frozen=True)
class Dpsla:
    """Adaptive Polyak stepsize with level adjustment."""

    stepsize: StepsizeConfig = field(default_factory=StepsizeConfig)
    level_init: float | tuple = -500.0
    eta_cap: int | None = None

    def describe(self) -> dict:
        cfg = self.stepsize
        return {
            "name": "dpsla",
            "gamma": cfg.gamma,
            "gamma_bar": cfg.gamma_bar,
            "alpha0": cfg.alpha0,
            "c_schedule": {"kind": cfg.c_schedule.kind, "scale": cfg.c_schedule.scale},
            "eps_grad": cfg.eps_grad,
            "constraint_beta": cfg.constraint_beta,
            "level_init": (float(self.level_init) if isinstance(self.level_init, (int, float))
                           else list(self.level_init)),
            "eta_cap": self.eta_cap,
        }


@dataclass(frozen=True)
class Dgd:
    """Distributed gradient descent with the shared diminishing schedule
    alpha_k = scale / (k + 1)."""

    scale: float = 2.0

    def schedule(self, rounds: int) -> np.ndarray:
        """alpha_k for k = 0..rounds-1; each entry has the bits of scale / (k + 1.0)."""
        return self.scale / (np.arange(rounds) + 1.0)


@dataclass(frozen=True)
class NaivePolyak:
    """Unclamped per-agent Polyak stepsize against a fixed local target.

    `target` picks what each agent treats as its optimal value: its own
    constrained minimum ("local_min") or its value at the network optimum
    ("oracle_fi_star")."""

    target: str = "local_min"
    eps_grad: float = 1e-12

    def __post_init__(self):
        if self.target not in ("local_min", "oracle_fi_star"):
            raise ValueError("target must be 'local_min' or 'oracle_fi_star'")


# One round's row of a trace; None marks a value that does not exist for the row.
TraceRecord = namedtuple("TraceRecord",
                         "k residual consensus_error alpha level level_updated diverged")


@dataclass
class RunTrace:
    """Per-round columns of a run; rows are laid out as in `run`. Row 0 holds
    placeholder stepsizes: alpha0 for DPS-LA, nan for the baselines."""

    alpha: np.ndarray  # (T+1, n)
    level: np.ndarray | None  # (T+1, n); None for the baselines
    level_updated: np.ndarray  # (T+1, n) bool
    diverged: np.ndarray  # (T+1,) bool: some round so far produced a non-finite step
    residual: np.ndarray | None  # (T+1,); None without an oracle
    consensus_error: np.ndarray  # (T+1,)
    states: np.ndarray | None = None  # (T+1, n, dim), only when keep_states=True

    @property
    def n_agents(self) -> int:
        return self.alpha.shape[1]

    @property
    def records(self) -> "Records":
        return Records(self, range(len(self.alpha)))


class Records(Sequence):
    """Read-only view of rows of a trace; a row is built when read, a slice is a view."""

    def __init__(self, trace: RunTrace, rows: range):
        self._trace, self._rows = trace, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self._trace, self._rows[i])
        t, k = self._trace, self._rows[i]
        none = (None,) * t.n_agents
        return TraceRecord(
            k, None if t.residual is None else float(t.residual[k]), float(t.consensus_error[k]),
            none if k == 0 and t.level is None else tuple(t.alpha[k].tolist()),
            none if t.level is None else tuple(t.level[k].tolist()),
            tuple(t.level_updated[k].tolist()), bool(t.diverged[k]))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


# -- invariants ------------------------------------------------------------------


def first_violations(trace: RunTrace, cfg: StepsizeConfig | None = None,
                     constraint: ConstraintSet | None = None) -> dict:
    """First (round k, agent) breaking each invariant of a run, None where it holds.

    Round k fills row k + 1; row 0 holds the initial states and placeholder
    stepsizes. Checked:

    * `alpha_monotone`: alpha_{i,k} <= alpha_{i,k-1};
    * `level_monotone`, only when the run has levels: levels never decrease;
    * `corridor`, with `cfg`: c0 alpha0 / (2 c_k) <= alpha_{i,k} <= c0 alpha0 / c_k;
    * `feasible`, with `constraint` and a trace that kept its states: every
      iterate lies in the set within 1e-12.
    """
    alphas = trace.alpha[1:]
    bad = {"alpha_monotone": np.vstack([np.zeros((1, alphas.shape[1]), dtype=bool),
                                        ~(alphas[1:] <= alphas[:-1])])}
    if trace.level is not None:
        bad["level_monotone"] = ~(trace.level[1:] >= trace.level[:-1])
    if cfg is not None:
        ck = np.array([cfg.c_value(k) for k in range(len(alphas))])[:, None]
        bad["corridor"] = ~(((cfg.c0 * cfg.alpha0 / 2.0) / ck <= alphas)
                            & (alphas <= (cfg.c0 * cfg.alpha0) / ck))
    if constraint is not None and trace.states is not None:
        S = trace.states[1:]
        bad["feasible"] = ~constraint._contains_rows(S.reshape(-1, S.shape[-1])).reshape(S.shape[:2])
    return {name: (divmod(int(np.argmax(m)), m.shape[1]) if m.any() else None)
            for name, m in bad.items()}


_VALIDATE_MESSAGES = {
    "corridor": "alpha corridor violated",
    "alpha_monotone": "alpha monotonicity violated",
    "level_monotone": "level decreased",
    "feasible": "iterate left the feasible set",
}


# -- stepsize rules --------------------------------------------------------------
#
# A rule maps one round's arrays to the stepsizes of all agents:
# rule(k, Z, F, G, grad_sq) -> (alpha (n,), level_updated (n,) bool or None).


def _dpsla_rule(alg: Dpsla, inst: ProblemInstance):
    cfg, n = alg.stepsize, inst.n_agents
    level = alg.level_init if isinstance(alg.level_init, (tuple, list)) else (alg.level_init,) * n
    if len(level) != n:
        raise ValueError("per-agent level_init needs one value per agent")
    windows = LevelWindows(level, inst.dim, bounds=inst.constraint.bounding_box(),
                           eta_cap=alg.eta_cap)
    cap = np.full(n, cfg.c0 * cfg.alpha0)
    floor, clamped, eps_sq = cfg.beta_floor, cfg.constraint_beta == "clamped", cfg.eps_grad ** 2

    def rule(k, Z, F, G, grad_sq):
        active = grad_sq > eps_sq
        beta = raw_beta(cfg, F, windows.level, grad_sq)
        alpha = decide_alpha(cfg, cap, beta, k)
        if clamped:
            beta = np.where(floor > beta, floor, beta)
        # zero-gradient rows add no half-space; a zero beta keeps their b finite
        b = np.vecdot(G, Z) - np.where(active, beta, 0.0) * grad_sq / cfg.gamma_bar
        try:
            return alpha, record_step(windows, cfg, G, b, F, active)
        except SolverStallError as exc:
            raise SolverStallError(f"round {k}, {exc}") from exc

    return windows.level, rule


def _stepsize_rule(alg, inst: ProblemInstance, rounds: int):
    """(level array or None, rule) for an algorithm spec run for `rounds` rounds.

    Besides Dpsla, Dgd and NaivePolyak, any object with a method
    `stepsizes(k, F, G, grad_sq) -> (n,) alphas` runs as a level-free rule.
    """
    n = inst.n_agents
    if isinstance(alg, Dpsla):
        return _dpsla_rule(alg, inst)
    if isinstance(alg, Dgd):
        table = np.repeat(alg.schedule(rounds)[:, None], n, axis=1)  # (rounds, n)
        return None, lambda k, Z, F, G, grad_sq: (table[k], None)
    if isinstance(alg, NaivePolyak):
        if alg.target == "local_min":
            targets = np.array([minimize_local(o, inst.constraint)[1] for o in inst.objectives])
        elif inst.optimum is None:
            raise ValueError("naive_polyak(oracle_fi_star) needs the instance optimum solved")
        else:
            targets = np.array(inst.optimum.local_values)

        eps_sq = alg.eps_grad ** 2

        def naive(k, Z, F, G, grad_sq):
            ok = (grad_sq > eps_sq) & np.isfinite(grad_sq)
            return np.where(ok, (F - targets) / np.where(ok, grad_sq, 1.0), 0.0), None

        return None, naive
    if hasattr(alg, "stepsizes"):
        return None, lambda k, Z, F, G, grad_sq: (
            np.asarray(alg.stepsizes(k, F, G, grad_sq), dtype=float), None)
    raise TypeError(f"unknown algorithm spec {alg!r}")


# -- run loop --------------------------------------------------------------------

_CHUNK = 256  # rounds whose states are buffered before their metrics are computed


def _initial_states(inst: ProblemInstance, policy: str, rng: Rng) -> np.ndarray:
    n, dim = inst.n_agents, inst.dim
    if policy == "center":
        return np.tile(inst.constraint.center(), (n, 1))
    if policy == "uniform":
        lo, hi = inst.constraint.bounding_box()
        Y = np.array([[rng.uniform(lo[j], hi[j]) for j in range(dim)] for _ in range(n)])
        return inst.constraint._project_rows(Y)
    raise ValueError(f"unknown x0 policy {policy!r}")


def run(inst: ProblemInstance, alg, iterations: int, seed: int = 0,
        x0: str = "center", validate: bool = False, keep_states: bool = False) -> RunTrace:
    """Execute `iterations` synchronous rounds and return the trace.

    Row 0 holds the initial iterates; row k >= 1 holds the states after round
    k-1 together with the stepsizes applied and any level updates made during
    that round. The metric columns are computed once per `_CHUNK` rounds from
    a buffer of their states; only `keep_states` and `validate` keep them all.
    With `validate=True` the run raises AssertionError naming the first round
    and agent that breaks iterate feasibility or, for DPS-LA, the stepsize
    corridor or alpha or level monotonicity (`first_violations`).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n, rows, keep = inst.n_agents, iterations + 1, keep_states or validate
    W = metropolis_weights(inst.graph).W
    X = _initial_states(inst, x0, Rng(seed))
    if not inst.constraint._contains_rows(X).all():
        raise ValueError("initial states must be feasible")
    level, rule = _stepsize_rule(alg, inst, iterations)
    S = np.empty((rows if keep else min(rows, _CHUNK), n, inst.dim))
    trace = RunTrace(alpha=np.full((rows, n), np.nan if level is None else alg.stepsize.alpha0),
                     level=None if level is None else np.tile(level, (rows, 1)),
                     level_updated=np.zeros((rows, n), dtype=bool),
                     diverged=np.zeros(rows, dtype=bool),
                     residual=None if inst.optimum is None else np.empty(rows),
                     consensus_error=np.empty(rows),
                     states=S if keep else None)
    S[0] = X
    values_grads, project = inst._values_grads, inst.constraint._project_rows
    alphas, levels, level_updated = trace.alpha, trace.level, trace.level_updated

    for r in range(1, rows):  # row r is filled by round r - 1
        Z = mix(W, X)
        F, G = values_grads(Z)
        grad_sq = np.vecdot(G, G)
        alpha, updated = rule(r - 1, Z, F, G, grad_sq)
        step = Z - alpha[:, None] * G
        if np.isfinite(step).all():
            X = project(step)
        else:  # hold position on non-finite rows; the trace keeps the divergence flag
            finite = np.isfinite(step).all(axis=1)
            trace.diverged[r:] = True
            X = project(np.where(finite[:, None], step, Z))
            X[~finite] = Z[~finite]
        alphas[r] = alpha
        if levels is not None:
            levels[r], level_updated[r] = level, updated
        S[r if keep else r % _CHUNK] = X
        if r % _CHUNK == _CHUNK - 1 or r == iterations:  # the chunk's metrics
            lo = r - r % _CHUNK
            block = S[lo:r + 1] if keep else S[:r + 1 - lo]
            trace.consensus_error[lo:r + 1] = consensus_error(block)
            if trace.residual is not None:
                trace.residual[lo:r + 1] = residual(inst, block)

    if validate:
        cfg = alg.stepsize if isinstance(alg, Dpsla) else None
        found = first_violations(trace, cfg, inst.constraint)
        checked = _VALIDATE_MESSAGES if cfg is not None else ("feasible",)
        hits = [(found[name], order, name) for order, name in enumerate(checked)
                if found[name] is not None]
        if hits:
            (k, i), _, name = min(hits)
            raise AssertionError(f"{_VALIDATE_MESSAGES[name]} at k={k}, agent {i}")
    if not keep_states:
        trace.states = None
    return trace


# -- speedup sweep -----------------------------------------------------------------


@dataclass
class SweepResult:
    rows: list  # (n, seed, gap) tuples, gap in average form
    means: dict  # n -> seed-averaged gap


def sweep_algorithm() -> Dpsla:
    """Algorithm profile for rate and network-size sweeps.

    Uses a small initial stepsize so the optimality gap at the sweep horizon
    stays above machine precision for every network size (with the run-profile
    default the iterates reach the exact boundary optimum long before the
    measurement window and the recorded minima are numerical noise), and a
    capped inequality window so long runs keep bounded per-round cost.
    """
    return Dpsla(stepsize=StepsizeConfig(alpha0=0.05), eta_cap=64)


def run_speedup_sweep(agent_counts: Sequence[int], T: int, seeds: Sequence[int],
                      dim: int = 6, rows_per_agent: int = 2, alg: Dpsla | None = None,
                      edge_prob: float = 0.5, oracle_tol: float = 1e-10) -> SweepResult:
    """Seed-averaged optimality gap min_{T/2 <= k <= T} (f(xbar_k) - f*) / n per
    network size. Instances are regenerated per (n, seed) with the same
    per-agent data distribution, so total data grows with n."""
    counts, seeds = list(agent_counts), list(seeds)
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise ValueError("agent_counts must be strictly ascending")
    if not seeds:
        raise ValueError("seeds must not be empty")
    if T < 2:
        raise ValueError("T must be >= 2")
    alg = alg or Dpsla()
    rows = []
    means = {}
    M = T // 2
    for n in counts:
        gaps = []
        for seed in seeds:
            rng = Rng((int(seed) << 16) ^ int(n))
            inst = gen_paper_instance(n=n, dim=dim, rows_per_agent=rows_per_agent, rng=rng,
                                      graph_kind="random", edge_prob=edge_prob)
            inst.ensure_optimum(oracle_tol)
            trace = run(inst, alg, T, seed=int(seed))
            gap = max(min(trace.residual[M:].tolist()), 0.0) / n  # average-form gap
            rows.append((n, int(seed), gap))
            gaps.append(gap)
        means[n] = sum(gaps) / len(gaps)
    return SweepResult(rows=rows, means=means)
