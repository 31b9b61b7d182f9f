"""Evaluation quantities and CSV emission for run traces.

CSV schema (one file per run):

    k,residual,consensus_error,alpha_0..alpha_{n-1},level_0..level_{n-1},diverged

* `residual` is the sum-form optimality gap sum_i f_i(xbar) - f*, where xbar is
  the arithmetic mean of the agents' iterates (the average-form gap is the
  same number divided by n and is available via `residual(..., form="mean")`).
* `consensus_error` is the mean distance to the average, (1/n) sum_i ||x_i - xbar||.
* Floats are printed with 17 significant digits so parsing the file recovers
  them exactly; missing values print as `nan`; non-finite values from diverged
  runs are clipped to +/-1e12; `diverged` is 0 or 1.

A sweep additionally writes a summary CSV with header `n,seed,gap`.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import ProblemInstance

CLIP = 1e12


def _mean_rows(X: np.ndarray) -> np.ndarray:
    """np.mean(X, axis=0) without its Python overhead: the same reduction and
    division, so the same bits."""
    return np.add.reduce(X, axis=0) / len(X)


def residual(inst: ProblemInstance, xs, form: str = "sum") -> float:
    """Optimality gap of the network average state against the solved oracle.

    `xs` is an (n, dim) state array or a list of n state vectors."""
    if inst.optimum is None:
        raise ValueError("residual needs the instance optimum solved")
    if form not in ("sum", "mean"):
        raise ValueError("form must be 'sum' or 'mean'")
    xbar = _mean_rows(np.asarray(xs, dtype=float))
    gap = inst._sum_value(xbar) - inst.optimum.f_star
    return gap / len(xs) if form == "mean" else gap


def consensus_error(xs) -> float:
    """Mean distance of the states to their average."""
    if len(xs) == 0:
        raise ValueError("consensus_error needs at least one state")
    X = np.asarray(xs, dtype=float)
    D = X - _mean_rows(X)
    dist = np.sqrt(np.add.reduce(D * D, axis=1))  # np.linalg.norm(D, axis=1), same bits
    return float(_mean_rows(dist))


def level_gaps(inst: ProblemInstance, levels) -> list[float]:
    """Per-agent gap f_i(x*) - level_i (None levels map to nan)."""
    if inst.optimum is None:
        raise ValueError("level_gaps needs the instance optimum solved")
    out = []
    for fi_star, lvl in zip(inst.optimum.local_values, levels):
        out.append(math.nan if lvl is None else fi_star - lvl)
    return out


def _fmt(v) -> str:
    if v is None:
        return "nan"
    v = float(v)
    if math.isnan(v):
        return "nan"
    if not math.isfinite(v):
        v = CLIP if v > 0 else -CLIP
    elif abs(v) > CLIP:
        v = CLIP if v > 0 else -CLIP
    return f"{v:.17g}"


def csv_header(n_agents: int) -> str:
    cols = ["k", "residual", "consensus_error"]
    cols += [f"alpha_{i}" for i in range(n_agents)]
    cols += [f"level_{i}" for i in range(n_agents)]
    cols += ["diverged"]
    return ",".join(cols)


def write_csv(trace, path, record_every: int = 1) -> None:
    """Emit the trace; row k is written iff k % record_every == 0 or k is final."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n = trace.n_agents
    last = trace.records[-1].k
    lines = [csv_header(n)]
    for rec in trace.records:
        if rec.k % record_every != 0 and rec.k != last:
            continue
        parts = [str(rec.k), _fmt(rec.residual), _fmt(rec.consensus_error)]
        parts += [_fmt(a) for a in rec.alpha]
        parts += [_fmt(l) for l in rec.level]
        parts.append(str(int(rec.diverged)))
        lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_level_gap_csv(inst: ProblemInstance, trace, path, record_every: int = 1) -> None:
    """Per-iteration level gaps f_i(x*) - level_i for a run with levels."""
    n = trace.n_agents
    last = trace.records[-1].k
    lines = [",".join(["k"] + [f"gap_{i}" for i in range(n)])]
    for rec in trace.records:
        if rec.k % record_every != 0 and rec.k != last:
            continue
        gaps = level_gaps(inst, rec.level)
        lines.append(",".join([str(rec.k)] + [_fmt(g) for g in gaps]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(rows, path) -> None:
    """Summary rows (n, seed, gap), one line each."""
    lines = ["n,seed,gap"]
    for (n, seed, gap) in rows:
        lines.append(f"{n},{seed},{_fmt(gap)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path) -> dict:
    """Round-trip reader for the run CSV; returns columns keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            if h == "k" or h == "diverged":
                cols[h].append(int(v))
            else:
                cols[h].append(float(v))
    return cols
