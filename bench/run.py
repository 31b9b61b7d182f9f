"""Benchmark for the dpsla simulator.

Run from the repository root:

    python3 bench/run.py --workload {sweep,lp,reproduce} --seed N --seconds S --trace {0,1}

The load is a closed loop with one client: the benchmark starts one fresh
Python process per operation (`bench/workload.py`) and waits for it before
starting the next, while the run is expected to end within S seconds. Inputs
come from the seed only: process 0 works on the workload's default seed and
process j > 0 on input seed N*1000+j, except on `lp`, whose processes cycle
through a fixed pool of instances in an order drawn from N (`input_seeds`).
The outputs of the first process on the default seed are compared with the
digests committed in `bench/reference_digests.json`.

With `--trace 0` it prints the end-to-end metrics over the processes of the
run, in reference seconds (`bench/hostspeed.py`); bench/README.md says how
each is aggregated. With `--trace 1` it alternates untraced and traced
processes on input seed N*1000 and prints the per-layer metrics of the
traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
STARTED = time.perf_counter()
DEADLINE_S = 170  # a run must end within 180 s
MIN_PROCESSES = 3  # at least the size of any instance pool, so a run covers its pool
# Process j > 0 of a run works on inputs seeded with seed * INPUTS_PER_SEED + j,
# so a timed run averages over as many problem instances as it has processes.
INPUTS_PER_SEED = 1000


def load_json(name: str) -> dict:
    return json.loads((BENCH / name).read_text(encoding="utf-8"))


def build() -> None:
    """Byte-compile the package so that no timed process pays for it."""
    if not (ROOT / "src" / "dpsla" / "__init__.py").is_file():
        raise SystemExit("error: src/dpsla not found; run from the root of a dpsla checkout")
    if not compileall.compile_dir(str(ROOT / "src" / "dpsla"), quiet=1):
        raise SystemExit("error: src/dpsla does not compile")


def default_input(workload: str) -> int:
    """Input seed of the first process on the workload's default seed."""
    return load_json("workloads.json")[workload]["default_seed"] * INPUTS_PER_SEED


def input_seeds(workload: str, seed: int):
    """Input seed of each process of a run with `--seed seed`, in order.

    A workload with an `instance_pool` cycles through that fixed pool in an
    order drawn from `seed`. Otherwise process 0 works on the default seed and
    process j > 0 on seed*INPUTS_PER_SEED + j.
    """
    pool = load_json("workloads.json")[workload].get("instance_pool")
    if pool:
        random.Random(seed).shuffle(pool)
        return itertools.cycle(pool)
    return itertools.chain([default_input(workload)],
                           (seed * INPUTS_PER_SEED + j for j in itertools.count(1)))


def run_child(workload: str, seed: int, trace: bool, run_id: str) -> dict:
    """One operation in a fresh process; returns its report plus the wall time."""
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--run-id", run_id]
    if trace:
        cmd.append("--trace")
    try:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=STARTED + DEADLINE_S - t0)
        wall_s = time.perf_counter() - t0
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: workload process still running after {DEADLINE_S} s") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload process exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = wall_s
    doc["input_seed"] = seed
    return doc


def tally(reports) -> tuple[int, int, bool]:
    """Operations attempted, operations failed, and whether every output that
    was produced passed the correctness gate. An operation fails when it raises,
    exits non-zero or breaks an invariant; only the last makes the run incorrect."""
    ops = [op for r in reports for op in r["ops"]]
    for op in ops:
        if op["error"]:
            print(f"FAILED {op['name']}: {op['error']}", file=sys.stderr)
        for violation in op["violations"]:
            print(f"INCORRECT {op['name']}: {violation}", file=sys.stderr)
    failed = sum(1 for op in ops if op["error"] or op["violations"])
    return len(ops), failed, not any(op["violations"] for op in ops)


def end_to_end(workload: str, seed: int, seconds: float, run_id: str) -> dict:
    # Processes start while the run is expected to end within `seconds`.
    reports = []
    inputs = input_seeds(workload, seed)
    t0 = time.perf_counter()
    while len(reports) < MIN_PROCESSES or (
            time.perf_counter() - t0 + reports[-1]["wall_s"] / 2 < seconds):
        reports.append(run_child(workload, next(inputs), False, run_id))

    # The first process on the default seed is compared with the committed digests.
    reference = load_json("reference_digests.json")[workload]
    check = next(r for r in reports if r["input_seed"] == default_input(workload))["ops"]
    identical = sum(1 for op in check if reference.get(op["name"]) == op["digest"])
    attempted, failed, correct = tally(reports)

    # Every time is in reference seconds (hostspeed.py): measured, less the
    # time the process spent in the reference kernel, times its host scale.
    # Times are averaged per input first, so that an input a run repeats does
    # not weigh more than the others.
    by_input = collections.defaultdict(list)
    for r in reports:
        by_input[r["input_seed"]].append(r)

    def per_input(value):
        return [statistics.fmean(value(r) for r in group) for group in by_input.values()]

    metrics = {
        "wall_s": (statistics.fmean(per_input(
            lambda r: (r["wall_s"] - r["host_spent_s"]) * r["host_scale"])), "s"),
        "setup_s": (statistics.median(r["setup_s"] * r["host_scale"] for r in reports), "s"),
        "agent_rounds_per_s": (sum(per_input(lambda r: r["agent_rounds"]))
                               / sum(per_input(lambda r: r["sim_s"] * r["host_scale"])), "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in reports), "MB"),
        "ok_ops_ratio": ((attempted - failed) / attempted, "ratio"),
        "outputs_identical_ratio": (identical / len(check), "ratio"),
    }
    print(f"{workload} seed={seed}: {len(reports)} processes; measured wall s: "
          + ", ".join(f"{r['wall_s']:.3f}" for r in reports) + "; host scale: "
          + ", ".join(f"{r['host_scale']:.3f}" for r in reports), file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(workload: str, seed: int, seconds: float, run_id: str) -> dict:
    # Pairs start while the run is expected to end within `seconds`.
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or (time.perf_counter() - t0
                         + (plain[-1]["wall_s"] + traced[-1]["wall_s"]) / 2 < seconds):
        plain.append(run_child(workload, seed * INPUTS_PER_SEED, False, run_id))
        traced.append(run_child(workload, seed * INPUTS_PER_SEED, True, run_id))

    attempted, failed, correct = tally(plain + traced)
    trace_errors = [e for r in traced for e in r["trace_errors"]]
    counts = {name for name, (_, unit) in traced[0]["layers"].items() if unit == "count"}
    for r in traced[1:]:
        for name in counts:
            if r["layers"][name] != traced[0]["layers"][name]:
                trace_errors.append(f"count {name} differs between traced processes")

    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
    metrics["trace.overhead_ratio"] = (
        sum(r["engine_run_s"] for r in traced) / sum(r["engine_run_s"] for r in plain), "ratio")
    for err in trace_errors:
        print(f"TRACE SELF-CHECK: {err}", file=sys.stderr)
    return {"correct": correct and not trace_errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_reference(workload: str) -> None:
    """Store the digests of the workload's outputs on its default seed."""
    doc = run_child(workload, default_input(workload), False, "ref")
    tally([doc])
    reference = load_json("reference_digests.json")
    reference[workload] = {op["name"]: op["digest"] for op in doc["ops"]}
    (BENCH / "reference_digests.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    workloads = load_json("workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")

    build()
    if args.write_reference:
        write_reference(args.workload)
        return 0
    run_id = uuid.uuid4().hex[:12]
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds, run_id)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
