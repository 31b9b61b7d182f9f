"""Round-synchronous multi-agent simulator.

A round is a few numpy calls on one (n, dim) state array X: mix it into the
aggregated states Z = W X, hand Z to the stepsize rule, take the projected
gradient steps Z - alpha G in one call, and write the round's row of the trace
columns; the residual and consensus columns are filled once per chunk of
rounds from a stack of their states. Algorithms differ only in the rule, so
the consensus and projection paths are shared by construction. A rule
evaluates only what it reads: DGD only the gradients at the rows of Z
(`ProblemInstance._grads`), the Polyak rules the values and gradients
(`ProblemInstance._values_grads`) and their squared norms, so a round computes
nothing that no output reads. The DPS-LA rule masks the zero-gradient rows once,
gets the stepsizes and Polyak values from `decide_alpha`, builds the offsets b
of its half-spaces and records them in its level windows (`record_step`),
which loop in Python only over the windows that go to the LP. A row whose
step is not finite holds its z and marks the run as diverged. Every agent's
update depends only on the previous round's states; the run is single threaded
and deterministic for a fixed (instance, algorithm, seed).

A run often reaches a fixed point long before its last round: on the paper's
box the clip holds the iterates at a vertex, and naive Polyak's stepsizes read
Z alone. Every 16th round the loop tests whether the new state repeats the
previous one bit for bit (`tobytes`, since -0.0 == 0.0). If it does, it asks
the rule for the stepsizes of the remaining rounds: naive Polyak answers its
current ones, DGD the rest of its schedule, and DPS-LA cap / c_k, but only
after a round in which no witness fell (`LevelWindows.quiet`), because then F,
G, the levels, the caps and every verdict repeat with Z. `_settled` accepts the
answer when it equals the current stepsizes bit for bit, on any set, or, on a
box, when the projected steps at each agent's smallest and largest remaining
stepsize land on the state again. The loop then fills the remaining rows with
copies of the last simulated one, except for their stepsizes, which are the
rule's answer, and `RunTrace.settled` names the first of them.

With a handful of agents the calls of a round, not their size, set the cost
of a run: how many there are, and what each pays for numpy's Python wrappers
and for boxing Python scalars. So the loop keeps them few and cheap. It looks
up what it needs once, mixes by the bare `np.matmul` (X is finite by
construction), tests the whole step by counting `np.isfinite` with `_count`,
the C function that `np.count_nonzero` wraps (`.all()` and `np.count_nonzero`
go through Python wrappers), DGD reads its stepsizes and DPS-LA
its c_k from tables computed once per run, and the rules mask zero-gradient
rows rather than switch `np.errstate`. The DPS-LA rule takes G.G, G.Z and
G.witness in one `np.vecdot` pass over a (3, n, dim) operand whose last slice
holds the witnesses (`LevelWindows.operand`), and holds the run's constants as
0-d float64 arrays, which an array operation takes faster than Python floats,
with the same bits. The loop calls `mix`, `decide_alpha`, `record_step`,
`residual` and `consensus_error` through their module-level names, so that a
tracer can rebind them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import repeat

import numpy as np

from .feasibility import SolverStallError
from .metrics import consensus_error, residual
from .numerics import Record, Rng, Value, _count, is_int, require_positive
from .problem import ConstraintSet, ProblemInstance, gen_paper_instance, minimize_local
from .stepsize import LevelWindows, StepsizeConfig, decide_alpha, record_step
from .topology import metropolis_weights

mix = np.matmul

NAIVE_EPS_GRAD = 1e-12  # NaivePolyak's stepsize is 0 where the gradient's norm is at most this


class Dpsla(Value):
    """Adaptive Polyak stepsize with level adjustment. `level_init` is stored as
    a float, or as a tuple of floats, one per agent."""

    def __init__(self, stepsize: StepsizeConfig = StepsizeConfig(),
                 level_init: float | tuple = -500.0, eta_cap: int | None = None):
        if not (eta_cap is None or (is_int(eta_cap) and eta_cap >= 1)):
            raise ValueError(f"eta_cap must be None or an integer >= 1, got {eta_cap!r}")
        level = np.asarray(level_init, dtype=float)  # a 1-D length is checked in the rule
        if level.ndim > 1 or not np.isfinite(level).all():
            raise ValueError(f"level_init must be finite and at most 1-D, got {level_init!r}")
        level_init = float(level) if level.ndim == 0 else tuple(level.tolist())
        self._init(locals())


class Dgd(Value):
    """Distributed gradient descent with the shared diminishing schedule
    alpha_k = scale / (k + 1)."""

    def __init__(self, scale: float = 2.0):
        require_positive("scale", scale)
        self._init(locals())

    def schedule(self, rounds: int) -> np.ndarray:
        """alpha_k for k = 0..rounds-1; each entry has the bits of scale / (k + 1.0)."""
        return self.scale / (np.arange(rounds) + 1.0)


class NaivePolyak(Value):
    """Unclamped per-agent Polyak stepsize against a fixed local target.

    `target` picks what each agent treats as its optimal value: its own
    constrained minimum ("local_min") or its value at the network optimum
    ("oracle_fi_star")."""

    def __init__(self, target: str = "local_min"):
        if target not in ("local_min", "oracle_fi_star"):
            raise ValueError("target must be 'local_min' or 'oracle_fi_star'")
        self._init(locals())


# Rows built from one read of each column when a trace's records are iterated;
# an indexed row is a block of one. Blocks of 256 rows raised the peak memory of
# reading a 32-agent, 600-round trace by 0.2 MB over row-by-row reads; blocks
# of 64 leave it flat and cost no more time.
_RECORD_BLOCK = 64

# One round's row of a trace; None marks a value that does not exist for the row.
TraceRecord = namedtuple("TraceRecord",
                         "k residual consensus_error alpha level level_updated diverged")


class RunTrace(Record):
    """Per-round columns of a run; rows are laid out as in `run`. Row 0 holds
    placeholder stepsizes: alpha0 for DPS-LA, nan for the baselines.

    alpha (T+1, n); level (T+1, n), None for the baselines; level_updated
    (T+1, n) bool; diverged (T+1,) bool: some round so far produced a
    non-finite step; residual (T+1,), None without an oracle; consensus_error
    (T+1,); settled: the first row written without simulating its round, None
    if none; states (T+1, n, dim), only when keep_states=True.
    """

    def __init__(self, alpha: np.ndarray, level: np.ndarray | None, level_updated: np.ndarray,
                 diverged: np.ndarray, residual: np.ndarray | None, consensus_error: np.ndarray,
                 settled: int | None, states: np.ndarray | None):
        self._init(locals())

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
        k = self._rows[i]
        return next(self._block(range(k, k + 1)))

    def __iter__(self):
        for lo in range(0, len(self._rows), _RECORD_BLOCK):
            yield from self._block(self._rows[lo:lo + _RECORD_BLOCK])

    def _block(self, ks: range):
        """The rows `ks` of the trace, built from one read of each column."""
        t, none = self._trace, (None,) * self._trace.n_agents
        # ks holds rows only, so a negative stop means it counts down to row 0,
        # which a slice reaches with stop None
        idx = slice(ks.start, None if ks.stop < 0 else ks.stop, ks.step)
        alpha = list(map(tuple, t.alpha[idx].tolist()))
        if t.level is None and 0 in ks:  # the baselines' row 0 has no stepsizes
            alpha[ks.index(0)] = none
        return map(TraceRecord._make, zip(
            ks, repeat(None) if t.residual is None else t.residual[idx].tolist(),
            t.consensus_error[idx].tolist(), alpha,
            repeat(none) if t.level is None else map(tuple, t.level[idx].tolist()),
            map(tuple, t.level_updated[idx].tolist()), t.diverged[idx].tolist()))

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
      iterate lies in the set (`ConstraintSet.contains`).
    """
    alphas = trace.alpha[1:]
    bad = {"alpha_monotone": np.vstack([np.zeros((1, alphas.shape[1]), dtype=bool),
                                        ~(alphas[1:] <= alphas[:-1])])}
    if trace.level is not None:
        bad["level_monotone"] = ~(trace.level[1:] >= trace.level[:-1])
    if cfg is not None:
        ck = cfg.c_value(np.arange(len(alphas)))[:, None]
        bad["corridor"] = ~((cfg.beta_floor / ck <= alphas)
                            & (alphas <= (cfg.c0 * cfg.alpha0) / ck))
    if constraint is not None and trace.states is not None:
        S = trace.states[1:]
        bad["feasible"] = ~constraint._contains_rows(S.reshape(-1, S.shape[-1])).reshape(S.shape[:2])
    return {name: (divmod(int(np.argmax(m)), m.shape[1]) if m.any() else None)
            for name, m in bad.items()}


# -- stepsize rules --------------------------------------------------------------
#
# A rule evaluates what it reads at the aggregated states Z (n, dim) of round k
# and picks the stepsizes of all agents:
# rule(k, Z) -> (G (n, dim), alpha (n,), level_updated (n,) bool or None).
# DGD reads only the gradients; the Polyak rules also read the values F and
# grad_sq = ||g_i||^2. Its companion remaining(k, alpha) is asked only after
# round k - 1 repeated the state it started from, with alpha that round's
# stepsizes: it gives the stepsizes of rounds k..rounds-1, (rounds - k, n),
# (rounds - k, 1) for a stepsize shared by all agents, or one (1, n) row for
# all of them, if the rule fixes them as long as the states repeat, and None if
# it does not. A rule's alpha is (n,), or (1,) for a shared stepsize; the step,
# the trace row and `_settled` broadcast it over the agents.


def _dpsla_rule(alg: Dpsla, inst: ProblemInstance, rounds: int):
    cfg, n = alg.stepsize, inst.n_agents
    level = alg.level_init if isinstance(alg.level_init, tuple) else (alg.level_init,) * n
    if len(level) != n:
        raise ValueError("per-agent level_init needs one value per agent")
    windows = LevelWindows(level, inst.constraint, eta_cap=alg.eta_cap)
    cap, c = np.full(n, cfg.c0 * cfg.alpha0), cfg.c_value(np.arange(rounds))
    # the config's numbers that a round reads, taken once; the floats as 0-d float64
    # arrays, which an array operation takes faster than a Python float, same bits
    gamma, floor, gamma_bar = np.array(cfg.gamma), np.array(cfg.beta_floor), np.array(cfg.gamma_bar)
    eps_sq, clamped = np.array(cfg.eps_grad ** 2), cfg.constraint_beta == "clamped"
    keep = cfg.gamma / cfg.gamma_bar  # the old level's weight in a level update
    values_grads, S = inst._values_grads, windows.operand

    def rule(k, Z):
        F, G = values_grads(Z)
        S[0], S[1] = G, Z  # S[2] is the witnesses: one pass takes every dot product of G
        D = np.vecdot(G, S)
        grad_sq, gw = D[0], D[2]
        active = grad_sq > eps_sq  # zero-gradient rows add no half-space; their b is never read
        alpha, beta = decide_alpha(gamma, floor, clamped, cap, F, windows.level, grad_sq, active, c[k])
        b = D[1] - beta * grad_sq / gamma_bar
        try:
            return G, alpha, record_step(windows, keep, G, b, F, active, gw)
        except SolverStallError as exc:
            raise SolverStallError(f"round {k}, {exc}") from exc

    def remaining(k, alpha):
        # with no fallen witness, F, G, the levels, the caps and every witness
        # verdict repeat with Z, and only c_k moves the stepsizes
        return cap / c[k:, None] if windows.quiet else None

    return windows.level, rule, remaining


def _stepsize_rule(alg, inst: ProblemInstance, rounds: int):
    """(level array or None, rule, remaining) for a Dpsla, Dgd or NaivePolyak
    spec run for `rounds` rounds; any other spec is a TypeError."""
    n, values_grads = inst.n_agents, inst._values_grads
    if isinstance(alg, Dpsla):
        return _dpsla_rule(alg, inst, rounds)
    if isinstance(alg, Dgd):  # reads no value: gradients only
        # one shared stepsize a round, so the table's rows are (1,)
        table, grads = alg.schedule(rounds)[:, None], inst._grads
        return None, lambda k, Z: (grads(Z), table[k], None), lambda k, alpha: table[k:]
    if isinstance(alg, NaivePolyak):
        if alg.target == "local_min":
            targets = np.array([minimize_local(o, inst.constraint)[1] for o in inst.objectives])
        elif inst.optimum is None:
            raise ValueError("naive_polyak(oracle_fi_star) needs the instance optimum solved")
        else:
            targets = np.array(inst.optimum.local_values)

        eps_sq = NAIVE_EPS_GRAD ** 2

        def naive(k, Z):
            F, G = values_grads(Z)
            grad_sq = np.vecdot(G, G)
            alpha = np.zeros(n)  # the stepsize of a row outside `ok`
            ok = (grad_sq > eps_sq) & np.isfinite(grad_sq)
            return G, np.divide(F - targets, grad_sq, out=alpha, where=ok), None

        # the stepsizes read Z alone, so every later round repeats this one
        return None, naive, lambda k, alpha: alpha[None]
    raise TypeError(f"unknown algorithm spec {alg!r}")


# -- run loop --------------------------------------------------------------------

_CHUNK = 256  # rounds whose states are buffered before their metrics are computed
_SETTLE_EVERY = 16  # rounds between two tests of whether the state repeats


def _settled(rest, alpha: np.ndarray, Z: np.ndarray, G: np.ndarray, X: np.ndarray,
             constraint: ConstraintSet) -> bool:
    """Whether every remaining round lands on X again, once the last round took
    its states from Z with stepsizes `alpha`, gradients G and landed on X, the
    state it started from.

    `rest` is the rule's answer: the stepsizes of the remaining rounds, or None
    where the rule does not fix them. Stepsizes equal to `alpha` bit for bit
    repeat the round on any set. Other stepsizes settle only on a box, and only
    when the projected steps at each agent's smallest and largest remaining
    stepsize are finite and land on X: clipping and IEEE rounding are monotone,
    so every stepsize in between lands there too.
    """
    if rest is None:
        return False
    if (rest.view(np.int64) == alpha.view(np.int64)).all():
        return True
    if constraint.kind != "box":
        return False
    for a in (rest.min(0), rest.max(0)):
        step = Z - a[:, None] * G
        if not (np.isfinite(step).all() and constraint._project_rows(step).tobytes() == X.tobytes()):
            return False
    return True


def _initial_states(inst: ProblemInstance, policy: str, rng: Rng) -> np.ndarray:
    n, dim = inst.n_agents, inst.dim
    if policy == "center":
        return np.tile(inst.constraint.center(), (n, 1))
    if policy == "uniform":
        lo, hi = inst.constraint.bounding_box()  # column j draws from [lo_j, hi_j)
        return inst.constraint._project_rows(rng.uniform_array((n, dim), lo, hi))
    raise ValueError(f"unknown x0 policy {policy!r}")


def run(inst: ProblemInstance, alg, iterations: int, seed: int = 0,
        x0: str = "center", keep_states: bool = False) -> RunTrace:
    """Execute `iterations` synchronous rounds and return the trace.

    Row 0 holds the initial iterates; row k >= 1 holds the states after round
    k-1 together with the stepsizes applied and any level updates made during
    that round. The metric columns are computed once per `_CHUNK` rounds from
    a ring of that chunk's states, which `keep_states=True` also copies into
    `trace.states`. Every `_SETTLE_EVERY` rows the run tests whether the new
    state repeats the previous one bit for bit; if it does and `_settled` finds
    that every remaining round lands on it again, the remaining rows copy the
    last simulated one but for their stepsizes, and `RunTrace.settled` names
    the first of them. `first_violations` checks the invariants of the trace.
    """
    if not (is_int(iterations) and iterations >= 1):
        raise ValueError(f"iterations must be an integer >= 1, got {iterations!r}")
    n, rows = inst.n_agents, iterations + 1
    size = n * inst.dim
    W = metropolis_weights(inst.graph)
    X = _initial_states(inst, x0, Rng(seed))
    if not inst.constraint._contains_rows(X).all():
        raise ValueError("initial states must be feasible")
    level, rule, remaining = _stepsize_rule(alg, inst, iterations)
    S = np.empty((min(rows, _CHUNK), n, inst.dim))  # row r of the chunk at r % _CHUNK
    trace = RunTrace(alpha=np.full((rows, n), np.nan if level is None else alg.stepsize.alpha0),
                     level=None if level is None else np.tile(level, (rows, 1)),
                     level_updated=np.zeros((rows, n), dtype=bool),
                     diverged=np.zeros(rows, dtype=bool),
                     residual=None if inst.optimum is None else np.empty(rows),
                     consensus_error=np.empty(rows), settled=None,
                     states=np.empty((rows, n, inst.dim)) if keep_states else None)
    S[0] = X
    constraint = inst.constraint
    project = constraint._project_rows
    alphas, levels, level_updated = trace.alpha, trace.level, trace.level_updated

    for r in range(1, rows):  # row r is filled by round r - 1
        Z = mix(W, X)
        G, alpha, updated = rule(r - 1, Z)
        step = Z - alpha[:, None] * G
        prev = X
        if _count(np.isfinite(step)) == size:
            X = project(step)
        else:  # hold position on non-finite rows; the trace keeps the divergence flag
            finite = np.isfinite(step).all(axis=1)
            trace.diverged[r:] = True
            X = project(np.where(finite[:, None], step, Z))
            X[~finite] = Z[~finite]
        alphas[r] = alpha
        if levels is not None:
            levels[r], level_updated[r] = level, updated
        S[r % _CHUNK] = X
        settle = (r % _SETTLE_EVERY == 0 and r < iterations and X.tobytes() == prev.tobytes()
                  and _settled(rest := remaining(r, alpha), alpha, Z, G, X, constraint))
        if settle or r % _CHUNK == _CHUNK - 1 or r == iterations:  # the chunk's metrics
            lo = r - r % _CHUNK
            block = S[:r + 1 - lo]
            if keep_states:
                trace.states[lo:r + 1] = block
            trace.consensus_error[lo:r + 1] = consensus_error(block)
            if trace.residual is not None:
                trace.residual[lo:r + 1] = residual(inst, block)
        if settle:  # rows r+1.. copy row r; level_updated stays False and diverged as it is
            trace.settled = r + 1
            alphas[r + 1:] = rest
            for col in (levels, trace.states, trace.consensus_error, trace.residual):
                if col is not None:
                    col[r + 1:] = col[r]
            break
    return trace


# -- speedup sweep -----------------------------------------------------------------


class SweepResult(Record):
    """rows: (n, seed, gap) tuples, gap in average form; means: n -> seed-averaged gap."""

    def __init__(self, rows: list, means: dict):
        self._init(locals())


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
                      alg: Dpsla) -> SweepResult:
    """Seed-averaged optimality gap min_{T/2 <= k <= T} (f(xbar_k) - f*) / n per
    network size. Instances are regenerated per (n, seed) by `gen_paper_instance`
    with its default shape and graph, so total data grows with n."""
    counts, seeds = list(agent_counts), list(seeds)
    for n in counts:
        if not (is_int(n) and n >= 2):
            raise ValueError(f"agent_counts must hold integers >= 2, got {n!r}")
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise ValueError("agent_counts must be strictly ascending")
    if not seeds:
        raise ValueError("seeds must not be empty")
    for seed in seeds:  # a seed fills the bits above an agent count's 16 of the instance seed
        if not (is_int(seed) and 0 <= seed < 2 ** 48):
            raise ValueError(f"seeds must be integers in [0, 2**48), got {seed!r}")
    if not (is_int(T) and T >= 2):
        raise ValueError(f"T must be an integer >= 2, got {T!r}")
    rows = []
    means = {}
    M = T // 2
    for n in counts:
        gaps = []
        for seed in seeds:
            rng = Rng((int(seed) << 16) ^ int(n))
            inst = gen_paper_instance(n=n, rng=rng)
            inst.ensure_optimum()
            trace = run(inst, alg, T, seed=int(seed))
            gap = max(min(trace.residual[M:].tolist()), 0.0) / n  # average-form gap
            rows.append((n, int(seed), gap))
            gaps.append(gap)
        means[n] = sum(gaps) / len(gaps)
    return SweepResult(rows=rows, means=means)
