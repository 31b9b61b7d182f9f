"""One operation of a benchmark workload, in a fresh Python process.

Run from the repository root:

    python3 bench/workload.py --workload sweep --seed 0 --out .bench_out/tmp [--trace]

It imports `dpsla` from `src/`, runs the workload once, checks every engine run
against the method's invariants, and prints one JSON line: import, set-up and
simulation times, agent-rounds, peak memory, the per-operation verdicts and
output digests, and with `--trace` the per-layer metrics. Without `--trace` it
also samples the host's speed (`hostspeed.py`); the times it prints exclude
the sampling and are in measured seconds, and `host_scale` converts them to
reference seconds.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# Workload shapes. `sweep` is the paper's network-size experiment, `lp` a long
# uncapped window at dim 32, `reproduce` the CLI end to end (see workloads.json).
SWEEP_SIZES = (8, 16, 32)
SWEEP_T = 600
LP_N, LP_DIM, LP_T = 4, 32, 200
REPRODUCE_SEEDS = range(10)  # the CLI seeds of the paper's experiments
REPRODUCE_COMMANDS = ("main", "divergence")


def import_dpsla():
    """Import dpsla from this checkout's `src/` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    from dpsla import cli, engine, feasibility, metrics, numerics, problem, stepsize, topology
    if Path(engine.__file__).resolve().parent != (SRC / "dpsla").resolve():
        raise SystemExit(f"imported dpsla from {engine.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, engine=engine, feasibility=feasibility,
                                 metrics=metrics, numerics=numerics, problem=problem,
                                 stepsize=stepsize, topology=topology)


class Timers:
    """Coarse timers around the calls that make up set-up and simulation.

    Each wrapped name is called a few times per instance, never per agent, so
    they leave the untraced timings unchanged. `runs` keeps every engine run
    for the correctness gate, which runs after the workload.
    """

    def __init__(self, host=None):
        self.seconds = collections.Counter()
        self.runs = []  # (instance, algorithm, trace)
        self.host = host

    def wrap(self, fn, key):
        seconds, clock, host = self.seconds, time.perf_counter, self.host

        def timed(*args, **kwargs):
            spent = host.spent if host else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0 - ((host.spent - spent) if host else 0.0)

        return timed

    def install(self, dp):
        engine, cli, problem = dp.engine, dp.cli, dp.problem
        run = self.wrap(engine.run, "run")

        def recorded_run(inst, alg, *args, **kwargs):
            trace = run(inst, alg, *args, **kwargs)
            self.runs.append((inst, alg, trace))
            return trace

        engine.run = cli.run = recorded_run
        engine.gen_paper_instance = self.wrap(engine.gen_paper_instance, "instance")
        cli.build_instance = self.wrap(cli.build_instance, "instance")
        problem.ProblemInstance.ensure_optimum = self.wrap(
            problem.ProblemInstance.ensure_optimum, "oracle")
        # called inside engine.run; counted as set-up, not as simulation
        engine.metropolis_weights = self.wrap(engine.metropolis_weights, "weights")
        engine.minimize_local = self.wrap(engine.minimize_local, "targets")


# -- correctness gate -------------------------------------------------------------


def gate(dp, inst, alg, trace) -> list[str]:
    """Invariants of one engine run, checked from its returned trace alone.

    The tolerance comes from the oracle: a point whose projected-gradient
    fixed-point residual is r has a gradient mapping of norm L*r, so its value
    is within L*r*D of f* on a set of diameter D; on top of that go n*dim
    roundings of the value being compared.
    """
    import numpy as np

    orc = inst.optimum
    eps = float(np.finfo(float).eps)
    n, dim = inst.n_agents, inst.dim
    L = dp.problem.estimate_lipschitz(sum(o.hessian() for o in inst.objectives))
    lo, hi = inst.constraint.bounding_box()
    slack = L * float(np.linalg.norm(hi - lo)) * orc.kkt_residual

    def tol(value):
        return slack + n * dim * eps * max(1.0, abs(value))

    errors = []
    recs = trace.records
    res = np.array([r.residual for r in recs])
    if res.min() < -tol(orc.f_star):
        errors.append(f"residual {res.min():.3e} below -tol {tol(orc.f_star):.3e}")
    if isinstance(alg, dp.engine.Dpsla):
        cfg = alg.stepsize
        alphas = np.array([r.alpha for r in recs[1:]])
        ck = np.array([cfg.c_value(k) for k in range(len(recs) - 1)])[:, None]
        lower = (cfg.c0 * cfg.alpha0 / 2.0) / ck
        upper = (cfg.c0 * cfg.alpha0) / ck
        if not np.all((lower <= alphas) & (alphas <= upper)):
            errors.append("alpha left the stepsize corridor")
        if not np.all(np.diff(alphas, axis=0) <= 0):
            errors.append("alpha increased")
        levels = np.array([r.level for r in recs])
        if not np.all(np.diff(levels, axis=0) >= 0):
            errors.append("a level decreased")
        for i, (lvl, fi) in enumerate(zip(levels[-1], orc.local_values)):
            if lvl > fi + tol(fi):
                errors.append(f"agent {i}: final level {lvl!r} above f_i(x*) {fi!r} + tol")
    return errors


# -- workloads ----------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_record(name, error=None, violations=(), digest=None) -> dict:
    """One operation's outcome: `error` if it raised or exited non-zero, the
    invariants its outputs broke, and the digest of its outputs."""
    return {"name": name, "error": error, "violations": list(violations), "digest": digest}


def op_sweep(dp, seed, out, timers):
    """Operations are the engine runs, one per network size; each output is its
    row of the sweep CSV."""
    names = [f"n={n}" for n in SWEEP_SIZES]
    try:
        result = dp.engine.run_speedup_sweep(list(SWEEP_SIZES), SWEEP_T, [seed],
                                             alg=dp.engine.sweep_algorithm())
        path = out / "speedup.csv"
        dp.metrics.write_sweep_csv(result.rows, path)
    except Exception as exc:  # the operation failed; report it as such
        return [op_record(name, error=repr(exc)) for name in names]
    lines = path.read_bytes().splitlines()[1:]
    return [op_record(name, violations=gate(dp, inst, alg, trace), digest=sha256(line))
            for name, line, (inst, alg, trace) in zip(names, lines, timers.runs)]


def op_lp(dp, seed, out, timers):
    """One uncapped Dpsla run at dim 32; the output is its trace CSV."""
    try:
        make = timers.wrap(dp.problem.gen_paper_instance, "instance")
        inst = make(n=LP_N, dim=LP_DIM, rng=dp.numerics.Rng(seed))
        inst.ensure_optimum()
        alg = dp.engine.Dpsla(stepsize=dp.stepsize.StepsizeConfig(alpha0=0.05), eta_cap=None)
        trace = dp.engine.run(inst, alg, LP_T, seed=seed)
        path = out / "trace.csv"
        dp.metrics.write_csv(trace, path)
    except Exception as exc:
        return [op_record("trace", error=repr(exc))]
    return [op_record("trace", violations=gate(dp, inst, alg, trace),
                      digest=sha256(path.read_bytes()))]


def op_reproduce(dp, seed, out, timers):
    """`dpsla reproduce main|divergence` for the CLI seeds 0..9, in an order
    drawn from `seed`; each command is an operation and its output is the
    bytes of the CSVs it wrote."""
    commands = [(which, s) for s in REPRODUCE_SEEDS for which in REPRODUCE_COMMANDS]
    random.Random(seed).shuffle(commands)
    ops = []
    for which, s in commands:
        name, target = f"{which}/{s}", out / f"{which}-{s}"
        first_run = len(timers.runs)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = dp.cli.main(["reproduce", which, "--out", str(target), "--seed", str(s)])
        except Exception as exc:
            ops.append(op_record(name, error=repr(exc)))
            continue
        if rc != 0:
            ops.append(op_record(name, error=f"exit code {rc}: {stderr.getvalue().strip()}"))
            continue
        violations = [v for inst, alg, trace in timers.runs[first_run:]
                      for v in gate(dp, inst, alg, trace)]
        digest = hashlib.sha256()
        for csv in sorted(target.glob("*.csv")):
            digest.update(csv.name.encode() + b"\0" + csv.read_bytes())
        ops.append(op_record(name, violations=violations, digest=digest.hexdigest()))
    return ops


WORKLOADS = {"sweep": op_sweep, "lp": op_lp, "reproduce": op_reproduce}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    dp = import_dpsla()
    import_s = time.perf_counter() - _STARTED
    sys.path.insert(0, str(BENCH))
    tracer = host = None
    if args.trace:
        from tracer import Tracer, instrument, layer_metrics
        tracer = Tracer(args.run_id)
        instrument(tracer, dp)
    else:
        from hostspeed import HostSpeed
        host = HostSpeed()
        host.start()
    timers = Timers(host)
    timers.install(dp)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](dp, args.seed, out, timers)
    if host is not None:
        host.stop()

    s = timers.seconds
    setup_s = import_s + s["instance"] + s["oracle"] + s["weights"] + s["targets"]
    agent_rounds = sum(trace.n_agents * (len(trace.records) - 1) for _, _, trace in timers.runs)
    csv_bytes = sum(p.stat().st_size for p in out.rglob("*.csv"))
    doc = {
        "import_s": import_s,
        "setup_s": setup_s,
        "engine_run_s": s["run"],
        "sim_s": s["run"] - s["weights"] - s["targets"],
        "agent_rounds": agent_rounds,
        "csv_bytes": csv_bytes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_scale": host.scale() if host else 1.0,
        "host_spent_s": host.spent if host else 0.0,
        "ops": ops,
    }
    if tracer is not None:
        layers, errors = layer_metrics(tracer, agent_rounds, csv_bytes)
        doc["layers"] = layers
        doc["trace_errors"] = errors
        tracer.write(out.parent / f"spans-{args.workload}.csv")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
