"""Multi-agent simulator for distributed adaptive Polyak stepsizes with
level-value adjustment (DPS-LA), plus DGD and naive-Polyak baselines."""

from .engine import Dgd, Dpsla, NaivePolyak, RunTrace, run, run_speedup_sweep
from .feasibility import (EPS_FEAS, FeasibilityVerdict, HalfSpace,
                          InequalitySystem, SolverStallError)
from .metrics import consensus_error, residual, write_csv
from .numerics import Rng, SingularMatrixError, solve_spd
from .problem import (ConstraintSet, OracleResult, ProblemInstance,
                      QuadraticObjective, gen_paper_instance,
                      gen_triangle_demo, solve_reference)
from .stepsize import LevelWindows, StepsizeConfig, decide_alpha, record_step
from .topology import Graph, build_graph, metropolis_weights

__version__ = "0.1.0"

__all__ = [
    "Rng", "solve_spd", "SingularMatrixError",
    "Graph", "build_graph", "metropolis_weights",
    "QuadraticObjective", "ConstraintSet", "ProblemInstance", "OracleResult",
    "gen_paper_instance", "gen_triangle_demo", "solve_reference",
    "HalfSpace", "InequalitySystem", "FeasibilityVerdict", "SolverStallError", "EPS_FEAS",
    "StepsizeConfig", "LevelWindows",
    "decide_alpha", "record_step",
    "Dpsla", "Dgd", "NaivePolyak", "RunTrace", "run", "run_speedup_sweep",
    "residual", "consensus_error", "write_csv",
    "__version__",
]
