"""The benchmark's traced workload still runs against this source tree.

`bench/tracer.py` instruments dpsla from outside by rebinding module-level
names (`engine.record_step`, `feasibility._phase1_lp`, ...). One traced
operation of each workload, run as the benchmark runs it, fails here as soon
as a refactor drops or renames one of those names or breaks a path count of
the tracer's self-check: `lp` drives long uncapped windows at dim 32, `sweep`
the capped windows, and `reproduce` is the only one that drives `cli.main`,
the oracle spans and the naive-Polyak targets under the tracer and the set-up
timers. None of them reaches the Phase-I LP any more: `record_step` decides
every fallen window by the box test or at its one-row vertex, so the LP path
counts read 0. The test only reads `bench/`: its outputs go to a temporary
directory and no bytecode is cached.
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


@pytest.mark.skipif(not WORKLOAD.exists(), reason="bench/ is absent")
@pytest.mark.parametrize("workload", ["lp", "sweep", "reproduce"])
def test_traced_workload_runs_clean(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "0",
         "--out", str(tmp_path / "out"), "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["trace_errors"] == []
    assert doc["ops"], "the workload ran no operation"
    failed = [op for op in doc["ops"] if op["error"] is not None or op["violations"]]
    assert failed == []
