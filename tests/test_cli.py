import json
import math
import os

import pytest

from dpsla import cli
from dpsla.cli import (AlgorithmConfig, ConfigError, RunConfig, build_algorithm,
                       build_instance, cmd_reproduce, main, parse_config)
from dpsla.engine import Dgd, Dpsla, NaivePolyak, SweepResult, sweep_algorithm
from dpsla.stepsize import StepsizeConfig

from .util import parse_csv


class TestParseConfig:
    def test_benchmark_gammas_accepted(self):
        cfg = parse_config('{"algorithm":{"gamma":1.0,"gamma_bar":1.5}}')
        assert cfg.algorithm.gamma == 1.0 and cfg.algorithm.gamma_bar == 1.5

    def test_gamma_bar_above_two_rejected(self):
        with pytest.raises(ConfigError, match="gamma_bar"):
            parse_config('{"algorithm":{"gamma_bar":2.5}}')

    def test_defaults_match_benchmark(self):
        cfg = parse_config("{}")
        assert cfg.algorithm.level_init == -500.0
        assert cfg.algorithm.gamma == 1.0
        assert cfg.algorithm.gamma_bar == 1.5
        assert cfg.algorithm.c_kind == "sqrt" and cfg.algorithm.c_scale == 0.5
        assert cfg.problem.n_agents == 4 and cfg.problem.dim == 6
        assert cfg.problem.rows_per_agent == 2
        assert cfg.run.iterations == 300

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"problem":{"bogus":1}}')
        with pytest.raises(ConfigError):
            parse_config('{"bogus_section":{}}')

    def test_bad_json_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{not json}")

    @pytest.mark.parametrize("text, field", [
        ('{"problem":{"n_agents":"4"}}', "problem.n_agents"),
        ('{"algorithm":{"gamma":"1"}}', "algorithm.gamma"),
        ('{"algorithm":{"level_init":"x"}}', "algorithm.level_init"),
        ('{"problem":{"seed":"abc"}}', "problem.seed"),
        ('{"problem":{"seed":1.5}}', "problem.seed"),
        ('{"run":{"iterations":2.5}}', "run.iterations"),
        ('{"algorithm":{"eta_cap":2.5}}', "algorithm.eta_cap"),
        ('{"problem":{"n_agents":true}}', "problem.n_agents"),
        ('{"problem":{"edge_prob":null}}', "problem.edge_prob"),
        ('{"algorithm":{"alpha0":Infinity}}', "algorithm.alpha0"),
        ('{"algorithm":{"c_scale":Infinity}}', "algorithm.c_scale"),
        ('{"algorithm":{"level_init":NaN}}', "algorithm.level_init"),
        ('{"problem":{"graph_kind":"triangle"}}', "problem.graph_kind"),
        ('{"problem":{"graph_kind":"triangle","n_agents":5}}', "problem.graph_kind"),
        ('[]', "config root must be a JSON object"),
        ('{"run":3}', "run: must be an object"),
    ])
    def test_wrong_json_type_rejected(self, tmp_path, capsys, text, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(text)
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert main(["oracle", "--config", str(p)]) == 2
        assert field in capsys.readouterr().err

    def test_int_for_float_and_null_accepted(self):
        cfg = parse_config('{"algorithm":{"gamma":1,"eta_cap":null},"problem":{"path":null}}')
        assert cfg.algorithm.gamma == 1 and cfg.algorithm.eta_cap is None

    def test_round_trip_equality(self):
        cfg = parse_config('{"run":{"iterations": 42}}')
        again = parse_config(json.dumps(cfg.to_dict()))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_parsed_config_is_an_immutable_value(self):
        cfg = parse_config('{"algorithm":{"eta_cap": 8}}')
        for target, name in [(cfg, "algorithm"), (cfg.algorithm, "eta_cap"),
                             (cfg.problem, "seed"), (cfg.run, "iterations"),
                             (cfg.output, "directory")]:
            with pytest.raises(AttributeError):
                setattr(target, name, None)
        assert cfg == parse_config('{"algorithm":{"eta_cap": 8}}')
        assert hash(cfg) == hash(parse_config('{"algorithm":{"eta_cap": 8}}'))
        assert parse_config("{}") == RunConfig()


class TestAlgorithmBounds:
    """Each algorithm bound is the constructor's; the CLI reports it under the field."""

    @pytest.mark.parametrize("fields, word", [
        ({"gamma": 0.0}, "gamma"),
        ({"gamma": 1.6}, "gamma_bar"),  # gamma_bar must exceed gamma
        ({"gamma_bar": 2.0}, "gamma_bar"),  # and stay below 2
        ({"alpha0": 0.0}, "alpha0"),
        ({"c_kind": "log"}, "c-schedule kind"),
        ({"c_scale": -1.0}, "c-schedule scale"),
        ({"eta_cap": 0}, "eta_cap"),
        ({"constraint_beta": "clip"}, "constraint_beta"),
        ({"eps_grad": 0.0}, "eps_grad"),
        ({"dgd_scale": 0.0}, "algorithm.dgd_scale"),  # unused under name dpsla
        ({"naive_target": "mean"}, "algorithm.naive_target"),
        ({"name": "dgd", "alpha0": -1.0}, "alpha0"),  # an unused dpsla field
        ({"name": "naive_polyak", "dgd_scale": -2.0}, "algorithm.dgd_scale"),
        ({"name": "sgd"}, "algorithm.name"),
    ])
    def test_out_of_range_exits_2(self, tmp_path, capsys, fields, word):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"algorithm": fields, "run": {"iterations": 5}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: algorithm") and word in err
        assert not out.exists()


class TestBuilders:
    def test_triangle_instance(self):
        cfg = parse_config('{"problem":{"type":"triangle"}}')
        inst = build_instance(cfg)
        assert inst.n_agents == 3 and inst.constraint.kind == "ball"

    def test_paper_instance_on_triangle_graph(self):
        inst = build_instance(parse_config('{"problem":{"graph_kind":"triangle","n_agents":3}}'))
        assert inst.n_agents == 3 and len(inst.graph.edges) == 3

    @pytest.mark.parametrize("text, default", [
        ("{}", Dpsla()), ('{"algorithm":{"name":"dgd"}}', Dgd()),
        ('{"algorithm":{"name":"naive_polyak"}}', NaivePolyak())])
    def test_defaults_are_the_constructors_defaults(self, text, default):
        assert build_algorithm(parse_config(text)) == default

    def test_stepsize_fields_are_algorithm_fields(self):
        # build_algorithm passes the StepsizeConfig fields by name
        assert set(StepsizeConfig._fields) <= set(AlgorithmConfig._fields)

    def test_algorithm_kinds(self):
        assert isinstance(build_algorithm(parse_config("{}")), Dpsla)
        dgd = build_algorithm(parse_config('{"algorithm":{"name":"dgd","dgd_scale":3.0}}'))
        assert dgd.scale == 3.0
        nv = build_algorithm(parse_config('{"algorithm":{"name":"naive_polyak"}}'))
        assert nv.target == "local_min"

    def test_custom_file_round_trip(self, tmp_path):
        from dpsla.numerics import Rng
        from dpsla.problem import gen_paper_instance
        inst = gen_paper_instance(rng=Rng(3))
        p = tmp_path / "inst.json"
        p.write_text(inst.to_json())
        cfg = parse_config(json.dumps({"problem": {"type": "custom_file", "path": str(p)}}))
        clone = build_instance(cfg)
        assert clone.to_json() == inst.to_json()


    # what the message names for the edits whose raise no other test reaches
    _REASONS = {"constraint_dim": "constraint dimension does not match the objectives",
                "graph_size": "graph size does not match the number of objectives",
                "objective_kind": "unknown objective kind 'cubic'",
                "constraint_kind": "unknown constraint kind 'simplex'",
                "q_not_square": "Q must be square",
                "q_asymmetric": "Q must be symmetric",
                "objective_no_kind": "missing 1 required positional argument: 'kind'",
                "constraint_no_kind": "missing 1 required positional argument: 'kind'",
                "graph_extra_key": "unexpected keyword argument 'weights'",
                "optimum_extra_key": "unexpected keyword argument 'gap'",
                "objective_stray_key": "unexpected keyword argument(s) for a quadratic "
                                       "objective: 'A'",
                "constraint_stray_key": "unexpected keyword argument(s) for a ball "
                                        "constraint: 'lower'"}

    @pytest.mark.parametrize("edit", ["bad_json", "missing_key", "mixed_dims", "nan_radius",
                                      "inf_radius", "nan_constant", "optimum_f_star",
                                      "optimum_outside", "optimum_dim", "optimum_local_count",
                                      "optimum_local_value", "optimum_kkt", "optimum_not_optimal",
                                      "edges_float", "edges_frac", "edges_bool",
                                      "n_agents_float", "n_agents_str", "directory",
                                      "missing_file", "not_utf8", "constraint_dim",
                                      "graph_size", "objective_kind", "constraint_kind",
                                      "q_not_square", "q_asymmetric", "objective_no_kind",
                                      "constraint_no_kind", "graph_extra_key",
                                      "optimum_extra_key", "objective_stray_key",
                                      "constraint_stray_key"])
    def test_malformed_custom_file_rejected(self, tmp_path, capsys, edit):
        from dpsla.problem import gen_triangle_demo
        inst = gen_triangle_demo()
        if edit.startswith("optimum"):
            inst.ensure_optimum(1e-11)
        doc = json.loads(inst.to_json())
        if edit == "missing_key":
            del doc["graph"]
        if edit == "mixed_dims":
            doc["objectives"][0] = {"kind": "quadratic", "Q": [[1.0]], "q": [0.0]}
        if edit.endswith("radius"):
            doc["constraint"]["radius"] = math.nan if edit == "nan_radius" else math.inf
        if edit == "nan_constant":
            doc["objectives"][2]["c"] = math.nan
        if edit == "edges_float":  # the triangle's edges are [[0, 1], [0, 2], [1, 2]]
            doc["graph"]["edges"] = [[float(i), float(j)] for i, j in doc["graph"]["edges"]]
        if edit == "edges_frac":
            doc["graph"]["edges"][0] = [0.5, 1.0]
        if edit == "edges_bool":
            doc["graph"]["edges"][0] = [False, True]
        if edit.startswith("n_agents"):  # the triangle has 3 agents
            doc["graph"]["n_agents"] = 3.7 if edit == "n_agents_float" else "3"
        if edit == "constraint_dim":  # the objectives are 2-D
            doc["constraint"]["center"] = [0.0, 0.0, 0.0]
        if edit == "graph_size":  # a connected graph of 4 agents for 3 objectives
            doc["graph"] = {"n_agents": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        if edit == "objective_kind":
            doc["objectives"][1]["kind"] = "cubic"
        if edit == "constraint_kind":
            doc["constraint"]["kind"] = "simplex"
        if edit == "q_not_square":
            doc["objectives"][0]["Q"] = [[2.0, 0.5]]
        if edit == "q_asymmetric":
            doc["objectives"][0]["Q"] = [[2.0, 0.5], [0.4, 3.0]]
        if edit.endswith("no_kind"):  # a TypeError from the constructor, once a KeyError
            del (doc["objectives"][0] if edit == "objective_no_kind" else doc["constraint"])["kind"]
        if edit == "graph_extra_key":  # once ignored
            doc["graph"]["weights"] = [[0.5, 0.5, 0.0]] * 3
        if edit == "objective_stray_key":  # a least-squares key on a quadratic, once ignored
            doc["objectives"][0]["A"] = [[1.0, 0.0]]
        if edit == "constraint_stray_key":  # a box key on the ball, once ignored
            doc["constraint"]["lower"] = [-4.0, -4.0]
        optimum = doc.get("optimum", {})
        if edit == "optimum_extra_key":  # once ignored
            optimum["gap"] = 0.0
        if edit == "optimum_f_star":
            optimum["f_star"] += 5.0
        if edit == "optimum_outside":
            optimum["x_star"] = [100.0, 0.0]  # the ball has radius 4
        if edit == "optimum_dim":
            optimum["x_star"] += [0.0]
        if edit == "optimum_local_count":
            optimum["local_values"].pop()
        if edit == "optimum_local_value":
            optimum["local_values"][1] -= 1e-6
        if edit == "optimum_kkt":
            optimum["kkt_residual"] = -1.0
        if edit == "optimum_not_optimal":  # consistent, but f* is 0.9953, not 2
            optimum.update(x_star=[0.0, 0.0], f_star=2.0, kkt_residual=0.0,
                           local_values=[o.eval([0.0, 0.0]) for o in inst.objectives])
        text = "{not json" if edit == "bad_json" else json.dumps(doc)
        path = tmp_path / "inst.json"
        if edit == "directory":
            path.mkdir()
        elif edit == "not_utf8":
            path.write_bytes(b"\xff" + text.encode())
        elif edit != "missing_file":
            path.write_text(text)
        cfg = {"problem": {"type": "custom_file", "path": str(path)}}
        with pytest.raises(ConfigError, match="problem.path"):
            build_instance(parse_config(json.dumps(cfg)))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["oracle", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "problem.path" in err
        assert self._REASONS.get(edit, "") in err


class TestCmdRun:
    def _config(self, tmp_path, iters=30):
        cfg = {"run": {"iterations": iters},
               "problem": {"seed": 1},
               "output": {"directory": str(tmp_path / "out")}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_outputs_and_exit_code(self, tmp_path):
        p = self._config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists() and (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["invariants"]["level_monotone"] is True
        assert manifest["oracle"]["f_star"] > 0

    def test_manifest_config_reparses_equal(self, tmp_path):
        p = self._config(tmp_path)
        main(["run", "--config", str(p)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        echoed = parse_config(json.dumps(manifest["config"]))
        assert echoed == parse_config(p.read_text())

    def test_rerun_byte_identical(self, tmp_path):
        p = self._config(tmp_path)
        main(["run", "--config", str(p)])
        first = (tmp_path / "out" / "trace.csv").read_bytes()
        main(["run", "--config", str(p)])
        assert (tmp_path / "out" / "trace.csv").read_bytes() == first

    def test_invalid_config_no_partial_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"algorithm":{"gamma_bar": 9}}')
        out = tmp_path / "outdir"
        rc = main(["run", "--config", str(bad), "--out", str(out)])
        assert rc != 0
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "missing", "not_utf8"])
    def test_unreadable_config_rejected(self, tmp_path, capsys, kind):
        p = tmp_path / "cfg.json"
        if kind == "directory":
            p.mkdir()
        elif kind == "not_utf8":
            p.write_bytes(b'{"run": {"iterations": 5}}\xff')
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_out_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSLA_OUT", str(tmp_path / "root"))
        cfg = {"run": {"iterations": 5}, "output": {"directory": "sub"}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(p)]) == 0
        assert (tmp_path / "root" / "sub" / "trace.csv").exists()


class TestCmdOracle:
    def test_prints_json(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text('{"problem":{"type":"triangle"}}')
        assert main(["oracle", "--config", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"x_star", "f_star", "local_values", "kkt_residual"}
        assert abs(doc["x_star"][0] - 6 / 215) < 1e-7


class TestReproduce:
    def test_divergence(self, tmp_path):
        assert cmd_reproduce("divergence", str(tmp_path), None) == 0
        dgd = parse_csv(tmp_path / "dgd_trace.csv")
        naive = parse_csv(tmp_path / "naive_trace.csv")
        assert dgd["residual"][-1] <= 0.05 * dgd["residual"][0]
        tail = naive["consensus_error"][100:]
        assert naive["diverged"][-1] == 1 or min(tail) >= 1e-2

    def test_main(self, tmp_path):
        assert cmd_reproduce("main", str(tmp_path), None) == 0
        dpsla_cols = parse_csv(tmp_path / "dpsla_trace.csv")
        dgd_cols = parse_csv(tmp_path / "dgd_trace.csv")
        assert dpsla_cols["residual"][-1] < dgd_cols["residual"][-1]
        gaps = parse_csv(tmp_path / "level_gap.csv")
        assert gaps["gap_0"][-1] < gaps["gap_0"][0]

    def test_main_nearly_parallel_window(self, tmp_path):
        # the two-phase simplex that the Phase-I LP replaced stalled on this
        # seed's window of six nearly parallel rows in dim 6 at round 98, and the
        # command exited 1. The box test now decides all 178 level updates of the
        # run, which settles at row 161 without calling the LP; the window itself
        # is pinned at the LP by test_feasibility.TestNearlyParallelWindow
        assert main(["reproduce", "main", "--seed", "3020090", "--out", str(tmp_path)]) == 0

    def test_speedup_outputs(self, tmp_path, monkeypatch):
        # stub the sweep itself; the full grid is exercised by the acceptance suite;
        # n = 32 has a diverged seed, whose infinite gap and mean are clipped alike
        def fake_sweep(counts, T, seeds, alg=None):
            gap = {n: math.inf if n == 32 else 1.0 / n for n in counts}
            rows = [(n, s, gap[n] if s == 9 else 1.0 / n) for n in counts for s in seeds]
            return SweepResult(rows=rows, means=gap)

        monkeypatch.setattr("dpsla.cli.run_speedup_sweep", fake_sweep)
        assert cmd_reproduce("speedup", str(tmp_path), None) == 0
        rows = parse_csv(tmp_path / "speedup.csv")
        assert set(rows) == {"n", "seed", "gap"}
        assert len(rows["n"]) == 4 * 10  # one row per (n, seed)
        assert rows["gap"][-1] == 1e12
        means = (tmp_path / "speedup_mean.csv").read_text().splitlines()
        assert means == ["n,mean_gap", "4,0.25", "8,0.125", "16,0.0625", "32,1000000000000"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["agent_counts"] == [4, 8, 16, 32]

    @pytest.mark.parametrize("argv, algorithm", [
        (["run"], {"alpha0": 0.5, "c_kind": "constant", "eta_cap": 8, "level_init": -50.0}),
        (["run"], {"name": "dgd", "dgd_scale": 3.0}),
        (["run"], {"name": "naive_polyak", "naive_target": "oracle_fi_star"}),
        (["reproduce", "main", "--seed", "3"], None), (["reproduce", "divergence"], None),
        (["reproduce", "speedup"], None)])
    def test_manifest_algorithm_rebuilds_the_specs_that_ran(self, tmp_path, monkeypatch,
                                                              argv, algorithm):
        # every spec that ran is the manifest's algorithm block, read as a config's
        # algorithm section, with `name` set to the spec's kind
        ran, real_run = [], cli.run

        def recorded_run(inst, alg, *args, **kwargs):
            ran.append(alg)
            return real_run(inst, alg, *args, **kwargs)

        def fake_sweep(counts, T, seeds, alg):
            ran.append(alg)
            return SweepResult(rows=[(n, 0, 1.0) for n in counts], means={n: 1.0 for n in counts})

        monkeypatch.setattr("dpsla.cli.run", recorded_run)
        monkeypatch.setattr("dpsla.cli.run_speedup_sweep", fake_sweep)
        if algorithm is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"algorithm": algorithm, "run": {"iterations": 5}}))
            argv = [*argv, "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        block = manifest["config"]["algorithm"] if "config" in manifest else manifest["algorithm"]
        if argv[-1] == "speedup":
            assert ran == [sweep_algorithm()]
        names = {Dpsla: "dpsla", Dgd: "dgd", NaivePolyak: "naive_polyak"}
        assert ran and all(build_algorithm(parse_config(json.dumps(
            {"algorithm": {**block, "name": names[type(alg)]}}))) == alg for alg in ran)

    @pytest.mark.parametrize("command", ["reproduce main", "reproduce divergence", "run"])
    def test_failed_run_leaves_no_output_dir(self, tmp_path, capsys, monkeypatch, command):
        def failing_run(*args, **kwargs):
            raise RuntimeError("run failed")

        monkeypatch.setattr("dpsla.cli.run", failing_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"run": {"iterations": 5}}')
        argv = ["run", "--config", str(cfg)] if command == "run" else command.split()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert "RuntimeError: run failed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["main", "divergence"])
    def test_negative_seed_rejected(self, tmp_path, capsys, which):
        out = tmp_path / "out"
        assert main(["reproduce", which, "--seed", "-1", "--out", str(out)]) == 2
        assert "problem.seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["speedup", "main"])
    def test_out_under_a_file_fails_before_the_runs(self, tmp_path, capsys, monkeypatch, which):
        monkeypatch.setattr("dpsla.cli.run_speedup_sweep", None)  # must not be reached
        monkeypatch.setattr("dpsla.cli.run", None)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["reproduce", which, "--out", str(blocker / "x")]) == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_output_directory_under_a_file_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dpsla.cli.run", None)  # must not be reached
        monkeypatch.setenv("DPSLA_OUT", str(tmp_path / "file"))
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"output": {"directory": "sub"}}')
        assert main(["run", "--config", str(cfg)]) == 2
        assert "output.directory" in capsys.readouterr().err

    def test_speedup_rejects_seed(self, tmp_path, capsys, monkeypatch):
        # the sweep runs seeds 0..9 itself; a seed it would ignore is an error
        monkeypatch.setattr("dpsla.cli.run_speedup_sweep", None)  # must not be reached
        out = tmp_path / "out"
        assert main(["reproduce", "speedup", "--seed", "3", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            cmd_reproduce("nonsense", None, None)
