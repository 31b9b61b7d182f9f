"""Planted faults, run on demand: each must fail a test that passes on the unmutated tree.

`FAULTS` lists `(file, old text, new text, what it breaks)`: a fault in
`src/dpsla/<file>` that some test must catch. It is seeded from the faults
that earlier changes planted by hand to prove their tests (the level update's
`keep *= 0.999`, the box test without EPS_FEAS, `updated |= one`, `lp = meets`,
...). `EQUIVALENT` lists, in the same form, the known mutants that no test can
catch because they do not change what the program computes, each with its
reason. This is mutation analysis (DeMillo, Lipton and Sayward 1978; Jia and
Harman 2011) over a fixed, hand-written list rather than a generated one.

The script copies `src/`, `tests/`, `bench/` and `pyproject.toml` into a
temporary directory once, and never edits this checkout. It first runs the
unmutated copy, which must pass. Then, for each fault, it writes the mutated
file into the copy, runs `tests/test_corpus.py` (about a second, and it
catches most numeric faults), then the Tier-1 command with `-x`, and restores
the file. Criteria 5c and 8b, which fail by design, are deselected, so a fault
counts as caught only by a test that passes without it. It prints, per fault,
caught or survived with the first failing test, then the score and the wall
time, and exits 1 if a fault survives, an equivalent mutant is caught or a
fault's old text no longer occurs exactly once.

From the repository root:

    python tests/mutants.py            # every fault
    python tests/mutants.py -k clamp   # the faults whose texts contain "clamp"

Its name does not match `test_*`, so pytest does not collect it: it is not
part of Tier-1. A change that adds a test for a fault adds the fault here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
BASELINE_FAILURES = ("tests/test_acceptance.py::test_criterion_05_divergence_reproduction",
                     "tests/test_acceptance.py::test_criterion_08_consensus")
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         *(f"--deselect={t}" for t in BASELINE_FAILURES)]

Fault = namedtuple("Fault", "file old new breaks")

FAULTS = [
    # -- level windows (stepsize.py) --
    Fault("stepsize.py", "    proposed = keep * level", "    keep *= 0.999\n    proposed = keep * level",
          "the level update's weight: every raised level moves"),
    Fault("stepsize.py", "np.vecdot(G, X) - b <= _EPS_FEAS", "np.vecdot(G, X) - b <= 0.0",
          "the box test without EPS_FEAS: a row that meets the box within it is called infeasible"),
    Fault("stepsize.py", "np.where(G < 0, win.hi, win.lo)", "np.where(G < 0, win.lo, win.hi)",
          "the box test reads lo and hi swapped: it tests each new row at its maximizer"),
    Fault("stepsize.py", "bounds=(win.lo, win.hi))", "bounds=None)",
          "the LP check's system is built without the box: longer windows solved unbounded"),
    Fault("stepsize.py", "updated ^= one", "updated |= one",
          "one-row windows that meet the box still raise their levels"),
    Fault("stepsize.py", "lp = meets ^ one", "lp = meets",
          "one-row windows go to the LP, which replaces their box-minimizer witnesses"),
    Fault("stepsize.py", "(gw - b > _EPS_FEAS)", "(gw - b > 0.0)",
          "the witness test without EPS_FEAS: witnesses fall on rounding"),
    Fault("stepsize.py", "np.logical_not(win.count) | ", "",
          "an empty window counts as feasible, with a stale witness"),
    Fault("stepsize.py", "where=updated & (proposed > level)", "where=updated",
          "a level update may lower the level"),
    Fault("stepsize.py", "        np.minimum(win.count, win.eta_cap, out=win.count)",
          "        pass", "eta_cap is ignored: windows grow without bound"),
    Fault("stepsize.py", "self.c_scale * np.sqrt(k + 1.0)", "self.c_scale * np.sqrt(k + 2.0)",
          "c_k is off by one round"),
    Fault("stepsize.py", "0.0 < gamma < gamma_bar < 2.0", "0.0 < gamma < gamma_bar <= 2.0",
          "gamma_bar = 2 is accepted"),
    # -- the DPS-LA rule (engine.py) --
    Fault("engine.py", 'cfg.constraint_beta == "clamped"', 'cfg.constraint_beta != "clamped"',
          "inverted clamped: raw and clamped constraint_beta swap"),
    Fault("engine.py", "keep = cfg.gamma / cfg.gamma_bar", "keep = cfg.gamma_bar / cfg.gamma",
          "the level update's weight inverted, above 1"),
    Fault("engine.py", "decide_alpha(gamma, floor, clamped,", "decide_alpha(floor, gamma, clamped,",
          "gamma and the stepsize floor swapped"),
    Fault("engine.py", "    if constraint.kind != \"box\":\n        return False\n", "",
          "a ball run settles under shrinking stepsizes"),
    Fault("engine.py", "trace.diverged[r:] = True", "trace.diverged[r] = True",
          "the divergence flag is not sticky"),
    Fault("engine.py", "self.scale / (np.arange(rounds) + 1.0)", "self.scale / (np.arange(rounds) + 2.0)",
          "DGD's schedule is off by one round"),
    # -- set-up, objectives and sets (problem.py) --
    Fault("problem.py", "H = sum(np.matmul(A.mT, A), np.zeros((dim, dim)))",
          "H = sum(np.matmul(A.mT, A)[::-1], np.zeros((dim, dim)))",
          "the paper box's normal matrix summed in reverse agent order: last bits of the box"),
    Fault("problem.py", "sum(inst._grads(np.tile(y, (n, 1))))",
          "sum(inst._grads(np.tile(y, (n, 1)))[::-1])",
          "the oracle's gradient summed in reverse agent order: last bits of x*"),
    Fault("problem.py", "        else:\n            raise ValueError(f\"unknown objective kind {kind!r}\")\n",
          "", "an unknown objective kind is accepted"),
    Fault("problem.py", 'self.c = float(data.get("c", 0.0))', "self.c = float(0.0)",
          "a quadratic's constant c is dropped"),
    Fault("problem.py", "self.x_star = as_vec(x_star)", "self.x_star = x_star",
          "a problem file's x_star stays a list"),
    Fault("problem.py", "    if stray:\n", "    if False:\n",
          "a problem file's objective and set take keys that their kinds do not read"),
    Fault("problem.py", '"quadratic": ("Q", "q", "c")', '"quadratic": ("Q", "q")',
          "a quadratic's constant c is neither written nor read"),
    Fault("problem.py", "inst.optimum = inst._checked_optimum(OracleResult(**doc[\"optimum\"]))",
          "inst.optimum = OracleResult(**doc[\"optimum\"])",
          "a problem file's optimum is taken unchecked"),
    Fault("problem.py", "        tol *= max(1.0, self.radius, float(np.abs(self.ball_center).max()))\n",
          "", "the ball's membership slack does not scale with the ball"),
    Fault("problem.py", "return max(float(v @ H @ v) * 1.01, 1e-12)",
          "return max(float(v @ H @ v) * 1.02, 1e-12)", "the oracle's step 1/L moves x*'s bits"),
    # -- LP (feasibility.py) --
    Fault("feasibility.py", "np.maximum(1.0, span * norms.max())", "np.ones(dim)",
          "LP reduced costs in unit-row units: false infeasible verdicts on two-row windows"),
    Fault("feasibility.py", "    T[row, col] = 1.0 / p\n", "    T[row, col] = p\n",
          "a wrong pivot column"),
    # -- graphs (topology.py) --
    Fault("topology.py", "        if not self._connected():\n", "        if False:\n",
          "a disconnected graph is accepted"),
    Fault("topology.py", "is_int(i) and is_int(j) and 0 <= i < j", "0 <= i < j",
          "float and bool edge endpoints are accepted"),
    Fault("topology.py", "W = A / (1.0 + np.maximum.outer(deg, deg))",
          "W = A / (2.0 + np.maximum.outer(deg, deg))", "other Metropolis weights"),
    # -- value classes (numerics.py) --
    Fault("numerics.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
          "object.__setattr__(self, name, value)", "a frozen value takes an assignment"),
    Fault("numerics.py", "(v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v",
          "v", "records with array fields compare their arrays elementwise: == raises"),
    # -- metrics and outputs (metrics.py, cli.py) --
    Fault("metrics.py", "mean = np.add.reduce(dist, axis=-1) / n",
          "mean = np.add.reduce(dist, axis=-1) / (n + 1)", "the consensus error's mean"),
    Fault("metrics.py", "ks = sorted({*range(0, rows, record_every), rows - 1})",
          "ks = sorted(range(0, rows, record_every))", "the final row is not always written"),
    Fault("metrics.py", "CLIP = 1e12", "CLIP = 1e11", "the CSV clip bound"),
    Fault("metrics.py", 'open(path, "w", encoding="utf-8", newline="\\n")',
          'open(path, "w", encoding="utf-8")',
          "every CSV and manifest.json gets the platform's line ends"),
    Fault("metrics.py", "_lines(heads, np.array([[gap] for *_, gap in rows]))",
          '["%s,%.17g" % (h, gap) for h, (*_, gap) in zip(heads, rows)]',
          "the sweep gap printed without the clip: a diverged seed's gap prints inf"),
    Fault("cli.py", '    _require(seed is None or which != "speedup", "--seed", '
          '"reproduce speedup runs seeds 0..9")\n', "",
          "reproduce speedup ignores a --seed"),
    Fault("cli.py", "level_init=alg.level_init,\n" + " " * 41 + "eta_cap=alg.eta_cap)",
          "level_init=alg.level_init)",
          "the speedup manifest's algorithm block leaves out eta_cap"),
    # -- the run config (cli.py) --
    Fault("cli.py", """        with _field("algorithm"):  # these constructors' messages name the parameter
            step = StepsizeConfig(**{n: getattr(self, n) for n in StepsizeConfig._fields})
            specs = {"dpsla": Dpsla(stepsize=step, level_init=level_init, eta_cap=eta_cap)}
        with _field("algorithm.dgd_scale"):
            specs["dgd"] = Dgd(scale=dgd_scale)
        with _field("algorithm.naive_target"):
            specs["naive_polyak"] = NaivePolyak(target=naive_target)
""", """        make = {"dpsla": lambda: Dpsla(stepsize=StepsizeConfig(
                    **{n: getattr(self, n) for n in StepsizeConfig._fields}),
                    level_init=level_init, eta_cap=eta_cap),
                "dgd": lambda: Dgd(scale=dgd_scale),
                "naive_polyak": lambda: NaivePolyak(target=naive_target)}
        with _field("algorithm"):
            specs = {name: make[name]()} if name in make else {}
""", "the algorithm section builds only the spec it names: a bad unused field passes"),
    Fault("cli.py", """        _require(type != "paper" or graph_kind != "triangle" or n_agents == 3,
                 "problem.graph_kind", f"triangle needs problem.n_agents == 3, got {n_agents}")
""", "", "a paper problem on the triangle graph takes any n_agents"),
    Fault("cli.py", '        _require(iterations >= 1, "run.iterations", "must be >= 1")\n', "",
          "the run section takes iterations < 1"),
]

EQUIVALENT = [
    Fault("stepsize.py", "where=~(cap < inner)", "where=~(cap <= inner)",
          "equivalent: where cap equals inner, copying inner writes the same bits"),
    Fault("engine.py", "col[r + 1:] = col[r]", "col[r + 1:] = col[r - 1]",
          "equivalent: a run settles only on a state that repeats the previous one after a "
          "quiet round, so rows r - 1 and r hold the same levels, states and metrics"),
    Fault("engine.py", "np.array(cfg.gamma), np.array(cfg.beta_floor), np.array(cfg.gamma_bar)",
          "cfg.gamma, cfg.beta_floor, cfg.gamma_bar",
          "equivalent: Python floats in place of the 0-d arrays give the same bits, about "
          "0.7 us more per call at n = 4"),
]


def _run(work: Path, args: list) -> tuple[bool, str]:
    """Run pytest in `work`; (passed, first failing test or the last line)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(work / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    first = next((ln.split(" - ")[0].split(" ", 1)[1] for ln in lines
                  if ln.startswith(("FAILED ", "ERROR "))), lines[-1] if lines else proc.stderr)
    return proc.returncode == 0, first


def _mutate(work: Path, fault: Fault) -> str | None:
    """Write the mutated file into `work`; its original text, or None if `old`
    does not occur exactly once."""
    path = work / "src" / "dpsla" / fault.file
    text = path.read_text(encoding="utf-8")
    if text.count(fault.old) != 1:
        return None
    path.write_text(text.replace(fault.old, fault.new), encoding="utf-8", newline="\n")
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="", help="only the faults whose texts contain this")
    args = parser.parse_args()
    chosen = [(f, eq) for eq, faults in ((False, FAULTS), (True, EQUIVALENT)) for f in faults
              if args.k in f.file + f.old + f.new + f.breaks]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dpsla-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)
        ok, first = _run(work, TIER1)
        if not ok:
            print(f"the unmutated tree fails {first}; no fault can be scored")
            return 1
        caught, bad = 0, 0
        for number, (fault, equivalent) in enumerate(chosen, 1):
            t0 = time.perf_counter()
            original = _mutate(work, fault)
            if original is None:
                print(f"{number:3d} STALE     {fault.file}: the old text does not occur once")
                bad += 1
                continue
            try:
                passed, first = _run(work, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                            "tests/test_corpus.py"])
                if passed:
                    passed, first = _run(work, TIER1)
            finally:
                (work / "src" / "dpsla" / fault.file).write_text(original, encoding="utf-8",
                                                                 newline="\n")
            caught += not passed and not equivalent
            bad += passed != equivalent
            verdict = ("survived" if passed else "caught") + (" (equivalent)" if equivalent else "")
            print(f"{number:3d} {verdict:<21} {fault.file}: {fault.breaks}\n"
                  f"    {first if not passed else '-'} ({time.perf_counter() - t0:.1f} s)",
                  flush=True)
    scored = sum(not eq for _, eq in chosen)
    print(f"score: {caught}/{scored} faults caught, {len(chosen) - scored} known equivalent; "
          f"wall time {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
