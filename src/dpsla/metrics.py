"""Evaluation quantities and CSV emission for run traces.

CSV schema (one file per run):

    k,residual,consensus_error,alpha_0..alpha_{n-1},level_0..level_{n-1},diverged

* `residual` is the sum-form optimality gap sum_i f_i(xbar) - f*, where xbar is
  the arithmetic mean of the agents' iterates (the average-form gap is the
  same number divided by n).
* `consensus_error` is the mean distance to the average, (1/n) sum_i ||x_i - xbar||.
* Floats are printed with 17 significant digits so parsing the file recovers
  them exactly; missing values print as `nan`; non-finite values from diverged
  runs are clipped to +/-1e12; `diverged` is 0 or 1.
* Each distinct float of a file (told apart by its bits, so 0.0 and -0.0 are
  two values) is formatted once and every line is built from lookups, with the
  bytes that formatting each cell on its own gives. This pays because a trace
  repeats values: stepsizes and levels hold for many rounds, and a 4-agent,
  dim-32 trace has 31% distinct cells. On a table whose cells are all distinct
  it is about a quarter slower than formatting each cell.

A sweep additionally writes summary CSVs with headers `n,seed,gap` and `n,mean_gap`.
"""

from __future__ import annotations

import numpy as np

from .numerics import is_int
from .problem import ProblemInstance

CLIP = 1e12


def residual(inst: ProblemInstance, xs):
    """Optimality gap sum_i f_i(xbar) - f* of the network average state.

    `xs` is one (n, dim) state array (or a list of n state vectors), giving a
    float, or a (K, n, dim) stack of states, giving a (K,) array."""
    if inst.optimum is None:
        raise ValueError("residual needs the instance optimum solved")
    X = np.asarray(xs, dtype=float)
    return inst._sum_value(np.add.reduce(X, axis=-2) / X.shape[-2]) - inst.optimum.f_star


def consensus_error(xs):
    """Mean distance of the states to their average: a float for one (n, dim)
    state array, a (K,) array for a (K, n, dim) stack.

    np.mean and np.linalg.norm without their Python overhead: the same
    reductions, so the same bits."""
    X = np.asarray(xs, dtype=float)
    if X.ndim < 2 or X.shape[-2] == 0:
        raise ValueError("consensus_error needs at least one state")
    n = X.shape[-2]
    D = X - (np.add.reduce(X, axis=-2) / n)[..., None, :]
    dist = np.sqrt(np.add.reduce(D * D, axis=-1))
    mean = np.add.reduce(dist, axis=-1) / n
    return float(mean) if X.ndim == 2 else mean


def _cell_texts(table: np.ndarray) -> list[list[str]]:
    """`%.17g` of each cell of `table` clipped to +/-CLIP, as nested lists.

    Cells are keyed by their float64 bits, so 0.0 and -0.0 and the NaN payloads
    stay apart, and each distinct key is formatted once. Its own function, so
    that its arrays are freed before `_lines` builds the lines."""
    clipped = np.clip(np.asarray(table, dtype=float), -CLIP, CLIP)
    keys, where = np.unique(clipped.view(np.int64), return_inverse=True)
    texts = np.array(["%.17g" % v for v in keys.view(float).tolist()], dtype=object)
    return texts[where].reshape(clipped.shape).tolist()


def _lines(heads, table: np.ndarray, tails=None) -> list[str]:
    """One CSV line per row of `table` (m, c), c >= 1: the row's int from
    `heads`, its floats clipped to +/-CLIP and printed with 17 significant
    digits (`%.17g` prints NaN of either sign as `nan`), then its int from
    `tails`, if given."""
    rows = map(",".join, _cell_texts(table))
    if tails is None:
        return ["%d,%s" % kr for kr in zip(heads, rows)]
    return ["%d,%s,%d" % krd for krd in zip(heads, rows, tails)]


def csv_header(n_agents: int) -> str:
    return ",".join(["k", "residual", "consensus_error", *(f"alpha_{i}" for i in range(n_agents)),
                     *(f"level_{i}" for i in range(n_agents)), "diverged"])


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(trace, path, record_every: int = 1) -> None:
    """Emit the trace; row k is written iff k % record_every == 0 or k is final."""
    if not (is_int(record_every) and record_every >= 1):
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")
    n, rows = trace.n_agents, len(trace.alpha)
    ks = sorted({*range(0, rows, record_every), rows - 1})
    missing = np.full((rows, n), np.nan)
    table = np.column_stack([
        missing[:, 0] if trace.residual is None else trace.residual, trace.consensus_error,
        trace.alpha, missing if trace.level is None else trace.level])[ks]
    _write_lines(path, [csv_header(n)] + _lines(ks, table, trace.diverged[ks].tolist()))


def write_level_gap_csv(inst: ProblemInstance, trace, path) -> None:
    """Per-iteration level gaps f_i(x*) - level_i for a run with levels, every row."""
    gaps = np.array(inst.optimum.local_values) - trace.level
    _write_lines(path, [",".join(["k"] + [f"gap_{i}" for i in range(trace.n_agents)])]
                 + _lines(range(len(gaps)), gaps))


def write_means_csv(means: dict, path) -> None:
    """Seed-averaged gaps `n,mean_gap`, one line per network size n, ascending."""
    ns = sorted(means)
    _write_lines(path, ["n,mean_gap"] + _lines(ns, np.array([[means[n]] for n in ns])))


def write_sweep_csv(rows, path) -> None:
    """Summary rows (n, seed, gap), one line each."""
    gaps = np.clip(np.array([gap for *_, gap in rows], dtype=float), -CLIP, CLIP).tolist()
    _write_lines(path, ["n,seed,gap"] + ["%s,%s,%.17g" % (n, seed, gap)
                                         for (n, seed, _), gap in zip(rows, gaps)])
