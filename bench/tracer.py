"""Outside-in span tracer for one workload run.

The benchmark never edits `dpsla`. Instead it rebinds the module-level names
through which one layer calls another (`dpsla.engine.mix`,
`dpsla.feasibility._phase1_lp`, `InequalitySystem.check_feasible`, ...) with
wrappers that record a span: name, start, end and the enclosing span. Spans
stay in memory and are written out once, when the workload ends; every span of
one run carries the same run id.

Per-agent wrappers cost real time, so end-to-end numbers are never taken from a
traced process; the benchmark reports the overhead instead.
"""

from __future__ import annotations

import collections
import time

ROOT = (0, "")


class Tracer:
    """Span store plus the counters that are read at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, t0, t1
        self.stack = [ROOT]
        self.counts = collections.Counter()
        self.lp_rows: list[int] = []
        self.open_runs = 0
        self.last_check_size = 0
        self._next_id = 0

    # -- wrapping ------------------------------------------------------------

    def span(self, fn, name, under=None, on_exit=None, on_enter=None):
        """Wrap `fn` so each call records a span named `name`.

        With `under`, only calls whose direct parent span is one of those names
        are recorded; other calls pass straight through (for example the
        objective evaluations made by the reference solver). `on_enter(args)`
        runs before the call and its value is passed to `on_exit(args, result,
        entered)`, both outside the timed interval.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent_id, parent_name = stack[-1]
            if under is not None and parent_name not in under:
                return fn(*args, **kwargs)
            entered = on_enter(args) if on_enter is not None else None
            self._next_id += 1
            sid = self._next_id
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent_id, name, t0, t1))
            if on_exit is not None:
                on_exit(args, result, entered)
            return result

        return traced

    def counter(self, fn, key, only_in_run=False):
        """Wrap `fn` so each call increments `counts[key]` (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            if not only_in_run or self.open_runs:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- output ----------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Summed span time per name, and summed time of each span's direct children."""
        total = collections.defaultdict(int)
        child = collections.defaultdict(int)
        for sid, parent, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            child[parent] += t1 - t0
        return total, child

    def self_time(self, name: str, child: dict) -> int:
        """Span time of `name` minus the part its direct children cover."""
        return sum((t1 - t0) - child.get(sid, 0)
                   for sid, _, n, t0, t1 in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{self.run_id},{sid},{parent},{name},{t0},{t1}\n")


# -- dpsla layer boundaries ------------------------------------------------------

RUN = ("engine.run",)


def _rebind(owners, attr, wrapper):
    for owner in owners:
        setattr(owner, attr, wrapper)


def instrument(tr: Tracer, dp) -> None:
    """Rebind the names through which dpsla's modules call each other.

    `dp` exposes the dpsla modules as attributes (engine, cli, problem, ...).
    Module-level functions are rebound in every module that imported them by
    name; methods are rebound on their class.
    """
    engine, cli, problem, feas, metrics = dp.engine, dp.cli, dp.problem, dp.feasibility, dp.metrics
    counts = tr.counts

    run = engine.run

    def scoped_run(*args, **kwargs):
        tr.open_runs += 1
        try:
            return run(*args, **kwargs)
        finally:
            tr.open_runs -= 1

    _rebind((engine, cli), "run", tr.span(scoped_run, "engine.run"))
    engine.mix = tr.span(engine.mix, "topology.mix", under=RUN)
    engine.decide_alpha = tr.span(engine.decide_alpha, "stepsize.decide_alpha", under=RUN)
    engine.residual = tr.span(engine.residual, "metrics.residual", under=RUN)
    engine.consensus_error = tr.span(engine.consensus_error, "metrics.consensus", under=RUN)

    def level_update(args, result, entered):
        if result is not None:
            counts["level_updates"] += 1
            counts["window_rows_at_reset"] += tr.last_check_size

    engine.record_step = tr.span(engine.record_step, "stepsize.record_step", under=RUN,
                                 on_exit=level_update)

    obj, cs = problem.QuadraticObjective, problem.ConstraintSet
    obj._eval = tr.span(obj._eval, "problem.eval", under=RUN)
    obj._grad = tr.span(obj._grad, "problem.grad", under=RUN)
    cs._project = tr.span(cs._project, "problem.project", under=RUN)

    def oracle_done(args, result, entered):
        counts["oracle_iterations"] += result[2]

    problem._projected_gradient = tr.span(problem._projected_gradient, "problem.oracle",
                                          on_exit=oracle_done)

    # Path attribution: a witness cached before the call decides it; otherwise a
    # Phase-I LP started during the call decides it; otherwise the box did.
    def check_enter(args):
        system = args[0]
        force_lp = len(args) > 1 and args[1]
        return system.witness is not None and not force_lp, counts["lp_solves"]

    def check_done(args, verdict, entered):
        had_witness, lp_before = entered
        counts["checks"] += 1
        if had_witness:
            counts["witness"] += 1
        elif counts["lp_solves"] > lp_before:
            counts["lp_path"] += 1
            counts["lp_infeasible"] += not verdict.feasible
        else:
            counts["box"] += 1
        tr.last_check_size = args[0].size

    system = feas.InequalitySystem
    system.check_feasible = tr.span(system.check_feasible, "feasibility.check",
                                    on_enter=check_enter, on_exit=check_done)

    def lp_enter(args):
        counts["lp_solves"] += 1
        tr.lp_rows.append(len(args[0]))

    feas._phase1_lp = tr.span(feas._phase1_lp, "feasibility.lp", on_enter=lp_enter)
    feas._pivot = tr.counter(feas._pivot, "lp_pivots")

    for name in ("write_csv", "write_level_gap_csv", "write_sweep_csv"):
        _rebind((metrics, cli), name, tr.span(getattr(metrics, name), "metrics.write"))
    cli.cmd_reproduce = tr.span(cli.cmd_reproduce, "cli.command")

    as_vec = tr.counter(dp.numerics.as_vec, "as_vec_calls", only_in_run=True)
    _rebind((dp.numerics, feas, dp.topology, problem), "as_vec", as_vec)


def layer_metrics(tr: Tracer, agent_rounds: int, csv_bytes: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans and counters, and the self-check errors."""
    total, child = tr.totals()
    c = tr.counts
    ar = max(agent_rounds, 1)

    def us_ar(ns):
        return ns / 1e3 / ar

    run_ns = total["engine.run"]
    run_self = tr.self_time("engine.run", child)
    checks, lp = c["checks"], c["lp_solves"]
    out = {
        "engine.agent_rounds": (agent_rounds, "count"),
        "engine.run_us_per_ar": (us_ar(run_ns), "us/ar"),
        "engine.self_us_per_ar": (us_ar(run_self), "us/ar"),
        "topology.mix_us_per_ar": (us_ar(total["topology.mix"]), "us/ar"),
        "problem.eval_grad_us_per_ar": (us_ar(total["problem.eval"] + total["problem.grad"]), "us/ar"),
        "problem.project_us_per_ar": (us_ar(total["problem.project"]), "us/ar"),
        "problem.oracle_s": (total["problem.oracle"] / 1e9, "s"),
        "problem.oracle_iterations": (c["oracle_iterations"], "count"),
        "stepsize.decide_alpha_us_per_ar": (us_ar(total["stepsize.decide_alpha"]), "us/ar"),
        "stepsize.window_us_per_ar": (us_ar(tr.self_time("stepsize.record_step", child)), "us/ar"),
        "stepsize.level_updates": (c["level_updates"], "count"),
        "stepsize.window_len_at_reset_mean": (c["window_rows_at_reset"] / max(c["level_updates"], 1), "rows"),
        "feasibility.check_us_per_ar": (us_ar(total["feasibility.check"]), "us/ar"),
        "feasibility.checks": (checks, "count"),
        "feasibility.witness_hits": (c["witness"], "count"),
        "feasibility.box_cert_hits": (c["box"], "count"),
        "feasibility.lp_solves": (lp, "count"),
        "feasibility.fast_path_ratio": ((c["witness"] + c["box"]) / max(checks, 1), "ratio"),
        "feasibility.lp_ms_per_solve": (total["feasibility.lp"] / 1e6 / max(lp, 1), "ms"),
        "feasibility.lp_rows_mean": (sum(tr.lp_rows) / max(lp, 1), "rows"),
        "feasibility.lp_rows_max": (max(tr.lp_rows, default=0), "rows"),
        "feasibility.lp_pivots": (c["lp_pivots"], "count"),
        "feasibility.lp_infeasible_ratio": (c["lp_infeasible"] / max(lp, 1), "ratio"),
        "metrics.residual_us_per_ar": (us_ar(total["metrics.residual"]), "us/ar"),
        "metrics.consensus_us_per_ar": (us_ar(total["metrics.consensus"]), "us/ar"),
        "metrics.write_csv_ms": (total["metrics.write"] / 1e6, "ms"),
        "metrics.csv_bytes": (csv_bytes, "B"),
        "cli.command_s": (total["cli.command"] / 1e9, "s"),
        "cli.self_s": (tr.self_time("cli.command", child) / 1e9, "s"),
        "numerics.as_vec_calls_per_ar": (c["as_vec_calls"] / ar, "1/ar"),
        "trace.coverage_ratio": ((run_ns - run_self) / run_ns if run_ns else 0.0, "ratio"),
    }
    errors = []
    if c["witness"] + c["box"] + c["lp_path"] != checks:
        errors.append(f"feasibility paths {c['witness']}+{c['box']}+{c['lp_path']} != {checks} checks")
    if c["lp_path"] != lp:
        errors.append(f"{c['lp_path']} LP-decided checks but {lp} Phase-I solves")
    return out, errors
