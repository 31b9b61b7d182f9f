"""A corpus of run shapes, pinned by a digest per 64-row block of every column.

Each shape is an instance, an algorithm and a run: the `reproduce main`
instances of seeds 0-9 under the CLI's DPS-LA, DGD and DPS-LA with one-row
windows; the triangle under DGD, naive Polyak and DPS-LA with uncapped, one-row
and three-row windows; the bench `sweep` instances at n = 8, 16 and 32 and its
`lp` instance; and three shapes that no command reaches: a ball around a paper
instance's data, a uniform x0, and objectives of mixed kinds and shapes in
interleaved groups. A shape's arrays are its instance's set-up (the box or
ball, and the optimum's `x_star`, `f_star`, `local_values` and
`kkt_residual`) and its trace's columns (`alpha`, `level`, `level_updated`,
`diverged`, `residual`, `consensus_error` and the kept `states`); each array
is cut into blocks of 64 rows along its first axis, and each block keeps the
first 16 hex digits of the sha256 of its bytes. `settled` is kept as it is.

`tests/test_corpus.py` recomputes the corpus and names the first shape, array
and block that differ from `golden/corpus.json`. Re-record the file only for an
intended change of behaviour, and say so in the change. From the repository
root:

    python tests/corpus.py --write              # re-record golden/corpus.json
    python tests/corpus.py --diff OTHER_CHECKOUT  # first differing row and agent

`--diff` runs the corpus of this file under this checkout's `src` and under
OTHER_CHECKOUT's, and prints, for each array that differs, its first differing
row and agent (`settled` reads -1 for a run that never settled); it exits 1 if
any differs. `--src DIR` takes `dpsla` from DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus.json"
BLOCK = 64  # rows per digest


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds dpsla")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="re-record golden/corpus.json")
    mode.add_argument("--diff", type=Path, metavar="OTHER_CHECKOUT")
    mode.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # --diff's other side
    return p


if __name__ == "__main__":  # as a script, dpsla comes from --src
    ARGS = _parser().parse_args()
    sys.path[:0] = [str(ARGS.src), str(ROOT)]

from dpsla.cli import build_algorithm, build_instance, parse_config  # noqa: E402
from dpsla.engine import Dgd, Dpsla, NaivePolyak, run, sweep_algorithm  # noqa: E402
from dpsla.numerics import Rng  # noqa: E402
from dpsla.problem import (ConstraintSet, ProblemInstance, gen_paper_instance,  # noqa: E402
                           gen_triangle_demo)
from dpsla.stepsize import StepsizeConfig  # noqa: E402
from tests.util import mixed_instance  # noqa: E402


def _main_instance(seed: int) -> ProblemInstance:
    return build_instance(parse_config(json.dumps({"problem": {"seed": seed}})))


def _ball_instance() -> ProblemInstance:
    """A paper instance's data and graph on a ball whose sphere holds x*."""
    base = gen_paper_instance(n=5, dim=4, rng=Rng(5))
    return ProblemInstance(base.objectives, ConstraintSet.ball(np.full(4, 2.0), 3.0), base.graph)


def shapes() -> dict:
    """name -> (build the instance, oracle tolerance, algorithm, rounds, x0, seed)."""
    out, cli = {}, build_algorithm(parse_config("{}"))
    for seed in range(10):
        make = (lambda s: lambda: _main_instance(s))(seed)
        for name, alg in (("dpsla", cli), ("dgd", Dgd()), ("dpsla_eta1", Dpsla(eta_cap=1))):
            out[f"main{seed}_{name}"] = (make, 1e-10, alg, 300, "center", seed)
    for name, alg in (("dgd", Dgd()), ("naive", NaivePolyak()), ("dpsla", Dpsla()),
                      ("dpsla_eta1", Dpsla(eta_cap=1)), ("dpsla_eta3", Dpsla(eta_cap=3))):
        out[f"triangle_{name}"] = (gen_triangle_demo, 1e-11, alg, 500, "center", 0)
    for n in (8, 16, 32):
        out[f"sweep_n{n}"] = ((lambda n: lambda: gen_paper_instance(n=n, rng=Rng(n)))(n),
                              1e-10, sweep_algorithm(), 600, "center", 0)
    out["lp"] = (lambda: gen_paper_instance(n=4, dim=32, rng=Rng(0)), 1e-10,
                 Dpsla(stepsize=StepsizeConfig(alpha0=0.05)), 200, "center", 0)
    out["ball"] = (_ball_instance, 1e-10, Dpsla(), 300, "center", 0)
    out["uniform_x0"] = (lambda: _main_instance(3), 1e-10, Dpsla(eta_cap=4), 300, "uniform", 11)
    out["mixed_groups"] = (lambda: mixed_instance(ConstraintSet.box(-np.ones(3), np.ones(3))),
                           1e-10, Dpsla(), 300, "center", 0)
    return out


def arrays(shape) -> tuple[dict, int | None]:
    """The shape's named arrays, set-up first, and its trace's `settled`."""
    make, tol, alg, T, x0, seed = shape
    inst = make()
    orc = inst.ensure_optimum(tol)
    cs = inst.constraint
    out = {"constraint": (np.stack([cs.lower, cs.upper]) if cs.kind == "box"
                          else np.append(cs.ball_center, cs.radius)),
           "x_star": orc.x_star, "f_star": np.array([orc.f_star]),
           "local_values": np.array(orc.local_values),
           "kkt_residual": np.array([orc.kkt_residual])}
    trace = run(inst, alg, T, seed=seed, x0=x0, keep_states=True)
    for col in ("alpha", "level", "level_updated", "diverged", "residual", "consensus_error",
                "states"):
        if getattr(trace, col) is not None:
            out[col] = getattr(trace, col)
    return out, trace.settled


def _block_digests(a: np.ndarray) -> list[str]:
    a = np.ascontiguousarray(a)
    return [hashlib.sha256(a[i:i + BLOCK].tobytes()).hexdigest()[:16]
            for i in range(0, len(a), BLOCK)]


def digests() -> dict:
    """shape -> {array name: [digest per block], "settled": int or None}."""
    corpus = {}
    for name, shape in shapes().items():
        named, settled = arrays(shape)
        corpus[name] = {**{k: _block_digests(a) for k, a in named.items()}, "settled": settled}
    return corpus


def first_difference(got: dict, want: dict) -> str | None:
    """The first shape, array and block in which `got` differs from `want`, or None."""
    for shape in {**want, **got}:
        if shape not in got or shape not in want:
            return f"shape {shape}: only in {'the recorded' if shape in want else 'the new'} corpus"
        g, w = got[shape], want[shape]
        for key in {**w, **g}:
            if g.get(key) == w.get(key):
                continue
            if key == "settled" or key not in g or key not in w:
                return f"shape {shape}, {key}: {g.get(key)!r}, recorded {w.get(key)!r}"
            if len(g[key]) != len(w[key]):
                return f"shape {shape}, {key}: {len(g[key])} blocks, recorded {len(w[key])}"
            block = next(i for i, (a, b) in enumerate(zip(g[key], w[key])) if a != b)
            return (f"shape {shape}, {key}: block {block} "
                    f"(rows {block * BLOCK}-{block * BLOCK + BLOCK - 1}) differs")
    return None


def _first_row_agent(a: np.ndarray, b: np.ndarray) -> str | None:
    """Where two arrays first differ in any bit: 'row r' or 'row r, agent i'."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"shape {a.shape} {a.dtype}, other {b.shape} {b.dtype}"
    width = f"i{a.itemsize}"
    ne = np.ascontiguousarray(a).view(width) != np.ascontiguousarray(b).view(width)
    rows = ne.reshape(len(ne), -1).any(1)
    if not rows.any():
        return None
    r = int(rows.argmax())
    if ne.ndim == 1:
        return f"row {r}: {a[r].tolist()!r}, other {b[r].tolist()!r}"
    i = int(ne[r].reshape(len(ne[r]), -1).any(1).argmax())
    return f"row {r}, agent {i}: {a[r, i].tolist()!r}, other {b[r, i].tolist()!r}"


def _all_arrays() -> dict:
    """'shape/array' -> array for every shape, with `settled` as one entry, -1 for None."""
    out = {}
    for name, shape in shapes().items():
        named, settled = arrays(shape)
        named["settled"] = np.array([-1 if settled is None else settled])
        out |= {f"{name}/{k}": a for k, a in named.items()}
    return out


def _diff(other: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "other.npz"
        subprocess.run([sys.executable, __file__, "--src", str(other / "src"), "--dump", str(dump)],
                       check=True)
        with np.load(dump) as theirs:
            theirs = dict(theirs)
    differ = 0
    for key, a in _all_arrays().items():
        b = theirs.get(key)
        where = "missing in the other checkout" if b is None else _first_row_agent(a, b)
        if where is not None:
            differ += 1
            print(f"{key}: {where}")
    print(f"{differ} arrays differ" if differ else "the corpora are identical")
    return 1 if differ else 0


if __name__ == "__main__":
    if ARGS.write:
        GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    elif ARGS.dump:
        np.savez(ARGS.dump, **_all_arrays())
    else:
        raise SystemExit(_diff(ARGS.diff.resolve()))
