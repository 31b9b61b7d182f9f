"""Certify the LP's verdict on every boxed `random_window` draw in exact arithmetic.

`tests/test_feasibility.py::TestBoxedWindowAudit` certifies every third of the
60 boxed draws in Tier-1; this script certifies all of them, with no window
skipped, and prints the feasible and infeasible counts, the smallest |phase-1
value| of each verdict and the wall time. It exits 1 if a verdict is not
certified. From the repository root:

    python tests/window_audit.py

It needs scipy (HiGHS duals certify the infeasible verdicts). Its name does not
match `test_*`, so pytest does not collect it: it is not part of Tier-1.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from scipy.optimize import linprog  # noqa: E402

from tests.test_feasibility import (TestBoxedWindowAudit, TestTriangleVerdictAudit,  # noqa: E402
                                    boxed_windows)


def main() -> int:
    start = time.perf_counter()
    values, failed = {True: [], False: []}, 0
    for number, (A, b, bounds) in enumerate(boxed_windows()):
        verdict = TestBoxedWindowAudit.verdict(A, b, bounds)
        values[verdict.feasible].append(abs(verdict.phase1_value))
        if not TestTriangleVerdictAudit.certified(linprog, A, b, bounds, verdict):
            failed += 1
            print(f"draw {number}: shape {A.shape}, feasible={verdict.feasible}, "
                  f"phase-1 value {verdict.phase1_value}: not certified")
    for feasible, name in ((True, "feasible"), (False, "infeasible")):
        print(f"{len(values[feasible])} {name}, smallest |phase-1 value| "
              f"{min(values[feasible], default=float('nan')):.3g}")
    print(f"{failed} not certified; wall time {time.perf_counter() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
