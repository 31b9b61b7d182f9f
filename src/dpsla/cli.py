"""Configuration parsing and the experiment command line.

Commands:
    dpsla run --config cfg.json [--out DIR]
    dpsla reproduce {divergence|main} [--out DIR] [--seed N]
    dpsla reproduce speedup [--out DIR]
    dpsla oracle --config cfg.json

Config files are JSON with four sections (problem, algorithm, run, output);
unknown keys anywhere are rejected. All defaults match the benchmark
experiment parameters. The environment variable DPSLA_OUT, when set, overrides
the output root directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .engine import (Dgd, Dpsla, NaivePolyak, first_violations, run, run_speedup_sweep,
                     sweep_algorithm)
from .metrics import _write_lines, write_csv, write_level_gap_csv, write_means_csv, write_sweep_csv
from .numerics import Rng, Value
from .problem import ORACLE_TOL, ProblemInstance, gen_paper_instance, gen_triangle_demo
from .stepsize import StepsizeConfig
from .topology import GRAPH_KINDS

OUT_ENV = "DPSLA_OUT"

SPEEDUP_AGENT_COUNTS = (4, 8, 16, 32)
SPEEDUP_T = 600
SPEEDUP_SEEDS = tuple(range(10))


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# The config and its sections are immutable values. A section's keys are its
# constructor's parameters; `parse_config` reads their annotations, e.g. "int | None".


class ProblemConfig(Value):
    """The `problem` section; `type` is paper, triangle or custom_file."""

    def __init__(self, type: str = "paper", path: str | None = None, n_agents: int = 4,
                 dim: int = 6, rows_per_agent: int = 2, seed: int = 0,
                 graph_kind: str = "random", edge_prob: float = 0.5, x0: str = "center"):
        self._init(locals())


class AlgorithmConfig(Value):
    """The `algorithm` section; `name` is dpsla, dgd or naive_polyak."""

    def __init__(self, name: str = "dpsla", gamma: float = 1.0, gamma_bar: float = 1.5,
                 alpha0: float = 2.0, c_kind: str = "sqrt", c_scale: float = 0.5,
                 level_init: float = -500.0, eta_cap: int | None = None,
                 constraint_beta: str = "raw", eps_grad: float = 1e-12, dgd_scale: float = 2.0,
                 naive_target: str = "local_min"):
        self._init(locals())


class RunSection(Value):
    def __init__(self, iterations: int = 300, record_every: int = 1):
        self._init(locals())


class OutputSection(Value):
    def __init__(self, directory: str = "out"):
        self._init(locals())


class RunConfig(Value):
    def __init__(self, problem: ProblemConfig = ProblemConfig(),
                 algorithm: AlgorithmConfig = AlgorithmConfig(), run: RunSection = RunSection(),
                 output: OutputSection = OutputSection()):
        self._init(locals())

    def to_dict(self) -> dict:
        return {name: section._asdict() for name, section in self._asdict().items()}

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_SECTIONS = {name: type(s) for name, s in RunConfig()._asdict().items()}  # name -> class
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config; unknown keys are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    sections = {}
    for section, cls in _SECTIONS.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"{section}: must be an object")
        allowed = cls.__init__.__annotations__  # key -> annotation
        extra = set(sub) - set(allowed)
        if extra:
            raise ConfigError(f"{section}: unknown key(s) {sorted(extra)}")
        for key, value in sub.items():
            kind, _, nullable = allowed[key].partition(" | ")
            _require((value is None and bool(nullable))
                     or (isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)),
                     f"{section}.{key}", f"expected {allowed[key]}, got {type(value).__name__}")
            _require(not isinstance(value, float) or math.isfinite(value),
                     f"{section}.{key}", f"must be finite, got {value}")
        sections[section] = cls(**sub)
    cfg = RunConfig(**sections)
    _validate(cfg)
    return cfg


def _require(cond: bool, field_name: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {msg}")


@contextmanager
def _field(field_name: str):
    """Report a constructor's ValueError as a ConfigError on `field_name`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{field_name}: {exc}") from exc


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config: cannot read {path} ({type(exc).__name__}: {exc})") from exc
    return parse_config(text)


def _validate(cfg: RunConfig) -> None:
    p, r = cfg.problem, cfg.run
    _require(p.type in ("paper", "triangle", "custom_file"), "problem.type",
             "must be paper, triangle, or custom_file")
    if p.type == "custom_file":
        _require(bool(p.path), "problem.path", "required for custom_file problems")
    _require(p.n_agents >= 2, "problem.n_agents", "must be >= 2")
    _require(p.dim >= 1, "problem.dim", "must be >= 1")
    _require(p.rows_per_agent >= 1, "problem.rows_per_agent", "must be >= 1")
    with _field("problem.seed"):
        Rng(p.seed)
    _require(p.graph_kind in GRAPH_KINDS, "problem.graph_kind", "unknown graph kind")
    _require(p.type != "paper" or p.graph_kind != "triangle" or p.n_agents == 3,
             "problem.graph_kind", f"triangle needs problem.n_agents == 3, got {p.n_agents}")
    _require(0.0 < p.edge_prob <= 1.0, "problem.edge_prob", "must be in (0, 1]")
    _require(p.x0 in ("center", "uniform"), "problem.x0", "must be center or uniform")

    build_algorithm(cfg)  # its constructors check every algorithm field

    _require(r.iterations >= 1, "run.iterations", "must be >= 1")
    _require(r.record_every >= 1, "run.record_every", "must be >= 1")
    _require(bool(cfg.output.directory), "output.directory", "must be nonempty")


def build_instance(cfg: RunConfig) -> ProblemInstance:
    p = cfg.problem
    if p.type == "triangle":
        return gen_triangle_demo()
    if p.type == "custom_file":
        try:
            return ProblemInstance.from_json(Path(p.path).read_text(encoding="utf-8"))
        except (OSError, KeyError, TypeError, ValueError) as exc:  # decode errors are ValueErrors
            raise ConfigError(f"problem.path: {p.path} is not a valid problem file "
                              f"({type(exc).__name__}: {exc})") from exc
    rng = Rng(p.seed)
    return gen_paper_instance(n=p.n_agents, dim=p.dim, rows_per_agent=p.rows_per_agent,
                              rng=rng, graph_kind=p.graph_kind, edge_prob=p.edge_prob)


def build_algorithm(cfg: RunConfig):
    """The spec named by `algorithm.name`; all three are built, so a bad unused field fails too."""
    a = cfg.algorithm
    with _field("algorithm"):  # these constructors' messages name the parameter
        step = StepsizeConfig(**{name: getattr(a, name) for name in StepsizeConfig._fields})
        specs = {"dpsla": Dpsla(stepsize=step, level_init=a.level_init, eta_cap=a.eta_cap)}
    with _field("algorithm.dgd_scale"):
        specs["dgd"] = Dgd(scale=a.dgd_scale)
    with _field("algorithm.naive_target"):
        specs["naive_polyak"] = NaivePolyak(target=a.naive_target)
    _require(a.name in specs, "algorithm.name", "must be dpsla, dgd, or naive_polyak")
    return specs[a.name]


def _out_dir(cfg_dir: str, override: str | None) -> Path:
    """`override`, else `cfg_dir` under $DPSLA_OUT when that is set. Its nearest
    existing ancestor must be a directory; the caller creates it after the runs."""
    out = Path(override) if override else Path(os.environ.get(OUT_ENV) or "", cfg_dir)
    base = next(p for p in (out, *out.parents) if p.exists())
    _require(base.is_dir(), "--out" if override else "output.directory",
             f"{base} exists and is not a directory")
    return out


def _trace_invariants(trace) -> dict:
    """Post-run invariant summary recorded in the manifest."""
    found = first_violations(trace)
    return {
        "level_monotone": found["level_monotone"] is None if "level_monotone" in found else None,
        "alpha_monotone": found["alpha_monotone"] is None,
        "diverged": bool(trace.diverged[-1]),
    }


def _write_json(path: Path, doc: dict) -> None:
    _write_lines(path, [json.dumps(doc, sort_keys=True, indent=2)])


def _write_manifest(out: Path, cfg: RunConfig, inst: ProblemInstance,
                    outputs: list[str], **extra) -> None:
    _write_json(out / "manifest.json", {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "oracle": inst.optimum.to_dict(),
        "outputs": outputs,
        "metrics_notes": {
            "residual": "sum-form objective gap at the agents' mean state",
            "consensus_error": "mean distance of agent states to their average",
        },
        **extra,
    })


def _experiment(cfg: RunConfig, out_override: str | None, seed: int, runs: dict,
                tol: float = ORACLE_TOL):
    """Solve cfg's instance to `tol`, run each of `runs` (CSV name -> algorithm) from
    `seed`, and only then create the output directory and write the traces' CSVs.
    Returns (instance, output directory, {CSV name: trace})."""
    out = _out_dir(cfg.output.directory, out_override)
    inst = build_instance(cfg)
    inst.ensure_optimum(tol)
    traces = {name: run(inst, alg, cfg.run.iterations, seed=seed, x0=cfg.problem.x0)
              for name, alg in runs.items()}
    out.mkdir(parents=True, exist_ok=True)
    for name, trace in traces.items():
        write_csv(trace, out / name, record_every=cfg.run.record_every)
    return inst, out, traces


def cmd_run(config_path: str, out_override: str | None) -> int:
    cfg = _load_config(config_path)
    inst, out, traces = _experiment(cfg, out_override, cfg.problem.seed,
                                    {"trace.csv": build_algorithm(cfg)})
    _write_manifest(out, cfg, inst, list(traces), seed=cfg.problem.seed,
                    invariants=_trace_invariants(traces["trace.csv"]))
    return 0


def cmd_oracle(config_path: str) -> int:
    orc = build_instance(_load_config(config_path)).ensure_optimum()
    print(json.dumps(orc.to_dict(), sort_keys=True))
    return 0


def cmd_reproduce(which: str, out_override: str | None, seed: int | None) -> int:
    """Re-run one of the three benchmark experiments with baked-in parameters;
    `speedup` runs its own seeds 0..9 and takes no `seed` (the others default to 0)."""
    _require(seed is None or which != "speedup", "--seed", "reproduce speedup runs seeds 0..9")
    seed = 0 if seed is None else seed
    with _field("problem.seed"):
        Rng(seed)
    if which == "divergence":  # the config's problem.seed stays 0; the runs use `seed`
        cfg = RunConfig(ProblemConfig(type="triangle"), run=RunSection(iterations=500),
                        output=OutputSection("out_divergence"))
        inst, out, traces = _experiment(cfg, out_override, seed, {
            "dgd_trace.csv": Dgd(), "naive_trace.csv": NaivePolyak(target="local_min")}, tol=1e-11)
        _write_manifest(out, cfg, inst, list(traces), seed=seed)
        return 0
    if which == "main":
        cfg = RunConfig(ProblemConfig(seed=seed), output=OutputSection("out_main"))
        inst, out, traces = _experiment(cfg, out_override, seed,
                                        {"dpsla_trace.csv": build_algorithm(cfg),
                                         "dgd_trace.csv": Dgd()})
        tr_dpsla = traces["dpsla_trace.csv"]
        write_level_gap_csv(inst, tr_dpsla, out / "level_gap.csv")
        _write_manifest(out, cfg, inst, [*traces, "level_gap.csv"], seed=seed,
                        invariants=_trace_invariants(tr_dpsla))
        return 0
    if which == "speedup":
        out, alg = _out_dir("out_speedup", out_override), sweep_algorithm()
        result = run_speedup_sweep(SPEEDUP_AGENT_COUNTS, SPEEDUP_T, SPEEDUP_SEEDS, alg=alg)
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(result.rows, out / "speedup.csv")
        write_means_csv(result.means, out / "speedup_mean.csv")
        _write_json(out / "manifest.json", {  # the algorithm as a config's section
            "experiment": "speedup", "T": SPEEDUP_T, "seeds": SPEEDUP_SEEDS,
            "agent_counts": SPEEDUP_AGENT_COUNTS,
            "algorithm": AlgorithmConfig(**alg.stepsize._asdict(), level_init=alg.level_init,
                                         eta_cap=alg.eta_cap)._asdict(),
            "gap": "average-form min residual over the second half of the run",
            "outputs": ["speedup.csv", "speedup_mean.csv"]})
        return 0
    raise ConfigError(f"unknown reproduction target {which!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dpsla", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_rep = sub.add_parser("reproduce", help="re-run a benchmark experiment")
    p_rep.add_argument("which", choices=["divergence", "main", "speedup"])
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--seed", type=int, default=None)

    p_orc = sub.add_parser("oracle", help="print the reference optimum as JSON")
    p_orc.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "reproduce":
            return cmd_reproduce(args.which, args.out, args.seed)
        return cmd_oracle(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
