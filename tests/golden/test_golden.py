"""Byte-for-byte regression against the golden traces in `data/`.

The goldens pin the simulator's observable behaviour for fixed configs and
seeds: the CSVs and manifests of `dpsla reproduce main --seed 0`,
`dpsla reproduce divergence --seed 0` and `dpsla reproduce speedup` (40 runs,
n = 4..32, seeds 0..9), the trace of one uncapped DPS-LA run
whose windows grow long, the trace of one run whose windows are capped at 8
rows, so the oldest row is evicted thousands of times, and a wide run (12
agents, dim 10, windows capped at 64) long enough to span several blocks of
rounds with a partial last one. A refactor must leave every byte unchanged.

Regenerate only for an intended change of behaviour, and say so in the change:

    PYTHONPATH=src python -m tests.golden.test_golden
"""

from __future__ import annotations

from pathlib import Path

import pytest

from dpsla.cli import main
from dpsla.engine import Dpsla, run
from dpsla.metrics import write_csv
from dpsla.numerics import Rng
from dpsla.problem import ProblemInstance, gen_paper_instance, gen_triangle_demo
from dpsla.stepsize import StepsizeConfig

DATA = Path(__file__).resolve().parent / "data"
REPRODUCE = ("main", "divergence", "speedup")  # speedup runs its own seeds


def write_trace(out: Path, inst: ProblemInstance, alg: Dpsla, T: int) -> None:
    """Trace of `alg` on `inst`, seed 0."""
    inst.ensure_optimum()
    out.mkdir(parents=True, exist_ok=True)
    write_csv(run(inst, alg, T, seed=0), out / "trace.csv")


def write_paper_trace(out: Path, n: int, dim: int, eta_cap: int | None, T: int) -> None:
    """Trace of DPS-LA (alpha0 = 0.05) on the paper instance Rng(0), seed 0."""
    write_trace(out, gen_paper_instance(n=n, dim=dim, rng=Rng(0)),
                Dpsla(stepsize=StepsizeConfig(alpha0=0.05), eta_cap=eta_cap), T)


def produce(root: Path) -> None:
    for which in REPRODUCE:
        seed = [] if which == "speedup" else ["--seed", "0"]
        assert main(["reproduce", which, "--out", str(root / which), *seed]) == 0
    write_paper_trace(root / "uncapped", n=4, dim=16, eta_cap=None, T=200)
    write_paper_trace(root / "capped", n=8, dim=6, eta_cap=8, T=300)
    write_paper_trace(root / "wide", n=12, dim=10, eta_cap=64, T=600)
    write_trace(root / "lp", gen_triangle_demo(), Dpsla(), T=500)


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    produce(root)
    return root


def test_same_files(produced):
    assert _files(produced) == _files(DATA)


@pytest.mark.parametrize("name", _files(DATA))
def test_bytes_identical(produced, name):
    assert (produced / name).read_bytes() == (DATA / name).read_bytes(), name


if __name__ == "__main__":
    produce(DATA)
