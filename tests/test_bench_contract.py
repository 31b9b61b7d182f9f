"""The benchmark's traced workload still runs against this source tree.

`bench/tracer.py` instruments dpsla from outside by rebinding module-level
names (`engine.record_step`, `feasibility._phase1_lp`, ...). One traced
operation of each workload, run as the benchmark runs it, fails here as soon
as a refactor drops or renames one of those names or breaks a path count of
the tracer's self-check: `lp` drives long uncapped windows at dim 32, `sweep`
the capped windows, and `reproduce` is the only one that drives `cli.main`,
the oracle spans and the naive-Polyak targets under the tracer and the set-up
timers. Each traced run on seed 0 must also reproduce the output digests in
`bench/reference_digests.json`, which the benchmark compares its untraced runs
with. None of the workloads reaches the Phase-I LP any more: `record_step`
decides every fallen window at its new row's minimizer over the box, which
settles a row that misses the box and every one-row window, so their LP path
counts read 0. The triangle under the default `Dpsla()` does reach it, so one
traced run of it checks the tracer's attribution of checks to LP solves. The
tests only read `bench/`: their outputs go to a temporary directory and no
bytecode is cached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = ROOT / "bench" / "workload.py"
DIGESTS = ROOT / "bench" / "reference_digests.json"
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

# 500 traced rounds of DPS-LA on the triangle; prints the checks, the Phase-I
# solves and the tracer's self-check errors as one JSON line
TRACED_TRIANGLE = """
import json, sys
sys.path.insert(0, "bench")
from tracer import Tracer, instrument, layer_metrics
from workload import import_dpsla
dp = import_dpsla()
tracer = Tracer("triangle")
instrument(tracer, dp)
dp.engine.run(dp.problem.gen_triangle_demo(), dp.engine.Dpsla(), 500, seed=0)
layers, errors = layer_metrics(tracer, 3 * 500, 0)
print(json.dumps({"checks": layers["feasibility.checks"][0],
                  "lp_solves": layers["feasibility.lp_solves"][0], "errors": errors}))
"""


@pytest.mark.skipif(not WORKLOAD.exists(), reason="bench/ is absent")
@pytest.mark.parametrize("workload", ["lp", "sweep", "reproduce"])
def test_traced_workload_runs_clean(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "0",
         "--out", str(tmp_path / "out"), "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["trace_errors"] == []
    assert doc["ops"], "the workload ran no operation"
    failed = [op for op in doc["ops"] if op["error"] is not None or op["violations"]]
    assert failed == []
    # seed 0 is the benchmark's reference seed, so every output matches its digest
    reference = json.loads(DIGESTS.read_text())[workload]
    assert {op["name"]: op["digest"] for op in doc["ops"]} == reference


@pytest.mark.skipif(not WORKLOAD.exists(), reason="bench/ is absent")
def test_traced_triangle_attributes_every_check_to_the_lp():
    # its 17 windows of two to five rows are each decided by one Phase-I solve
    proc = subprocess.run([sys.executable, "-c", TRACED_TRIANGLE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc == {"checks": 17, "lp_solves": 17, "errors": []}
