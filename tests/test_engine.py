import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

import dpsla
from dpsla import cli, engine
from dpsla.engine import (Dgd, Dpsla, NaivePolyak, first_violations, run,
                          run_speedup_sweep, sweep_algorithm)
from dpsla.metrics import consensus_error, residual
from dpsla.numerics import Rng
from dpsla.problem import (ConstraintSet, ObjectiveGroup, ProblemInstance, QuadraticObjective,
                           gen_paper_instance, gen_triangle_demo)
from dpsla.stepsize import StepsizeConfig
from dpsla.topology import build_graph, metropolis_weights


@pytest.fixture(scope="module")
def triangle():
    inst = gen_triangle_demo()
    inst.ensure_optimum(1e-11)
    return inst


@pytest.fixture(scope="module")
def paper0():
    inst = gen_paper_instance(rng=Rng(0))
    inst.ensure_optimum(1e-10)
    return inst


class TestDpslaRuns:
    def test_triangle_converges(self, triangle):
        tr = run(triangle, Dpsla(), 500, seed=0, validate=True)
        res = tr.records[500].residual
        f_star = triangle.optimum.f_star
        assert res <= 1e-3 * (1 + abs(f_star))

    def test_paper_instance_converges_and_updates_levels(self, paper0):
        tr = run(paper0, Dpsla(), 300, seed=0, validate=True)
        assert tr.records[300].residual <= 1e-6
        for i in range(4):
            assert any(r.level_updated[i] for r in tr.records)

    def test_feasibility_of_all_states(self, paper0):
        tr = run(paper0, Dpsla(), 100, seed=0, keep_states=True)
        for states in tr.states:
            for x in states:
                assert paper0.constraint.contains(x, tol=1e-12)

    def test_trace_shape(self, triangle):
        tr = run(triangle, Dpsla(), 37, seed=0)
        assert len(tr.records) == 38
        assert tr.records[0].k == 0 and tr.records[-1].k == 37
        assert tr.records[0].alpha == (2.0, 2.0, 2.0)  # alpha0 placeholders
        assert tr.records[0].level == (-500.0, -500.0, -500.0)

    def test_determinism(self, paper0):
        a = run(paper0, Dpsla(), 60, seed=3)
        b = run(paper0, Dpsla(), 60, seed=3)
        assert a.records == b.records

    def test_level_monotone_and_sound(self, triangle):
        tr = run(triangle, Dpsla(), 400, seed=0)
        for i in range(3):
            seq = [r.level[i] for r in tr.records]
            assert all(x <= y for x, y in zip(seq, seq[1:]))
            fi_star = triangle.optimum.local_values[i]
            assert seq[-1] <= fi_star + 1e-6 * (1 + abs(fi_star))

    def test_per_agent_level_init(self, triangle):
        tr = run(triangle, Dpsla(level_init=(-10.0, -20.0, -30.0)), 5, seed=0)
        assert tr.records[0].level == (-10.0, -20.0, -30.0)

    def test_consensus_error_decays_like_stepsize(self, triangle):
        # disagreement between agents scales with the stepsize corridor, so it
        # shrinks at the 1/sqrt(k) rate of the schedule
        tr = run(triangle, Dpsla(), 2000, seed=0)
        ce = [r.consensus_error for r in tr.records]
        assert ce[2000] < ce[500] < ce[125]
        assert ce[2000] <= 0.6 * ce[500]  # ~sqrt(500/2000) = 0.5 plus slack


class TestBaselines:
    def test_dgd_converges_on_triangle(self, triangle):
        tr = run(triangle, Dgd(scale=2.0), 500, seed=0)
        res = [r.residual for r in tr.records]
        assert res[500] <= 0.05 * res[0]
        # consensus decays like the stepsize once the transient passes
        ce = [r.consensus_error for r in tr.records]
        assert ce[500] < ce[100] < ce[10]

    def test_naive_polyak_fails_consensus(self, triangle):
        tr = run(triangle, NaivePolyak(target="local_min"), 500, seed=0)
        ce = [r.consensus_error for r in tr.records]
        diverged = tr.records[-1].diverged
        assert diverged or min(ce[100:]) >= 1e-2

    def test_naive_oracle_target_variant(self, triangle):
        tr = run(triangle, NaivePolyak(target="oracle_fi_star"), 200, seed=0)
        assert len(tr.records) == 201

    def test_dgd_custom_rule(self, triangle):
        # a custom shared schedule runs through the `stepsizes` protocol
        tr = run(triangle, _ReplayController([[0.1] * 3] * 10), 10, seed=0)
        assert tr.records[5].alpha == (0.1, 0.1, 0.1)


class _ReplayController:
    """Stub stepsize rule replaying a fixed (round, agent) stepsize table."""

    def __init__(self, table):
        self.table = table

    def stepsizes(self, k, F, G, grad_sq):
        return self.table[k]


class TestSharedTemplate:
    def test_replaying_dpsla_alphas_reproduces_its_trajectory(self, paper0):
        """dgd-style fixed schedules and dpsla share one consensus/projection
        path: feeding dpsla's recorded stepsizes through a stub controller
        yields the identical iterate sequence."""
        tr = run(paper0, Dpsla(), 40, seed=0, keep_states=True)
        alphas = [tr.records[k + 1].alpha for k in range(40)]
        replay = run(paper0, _ReplayController(alphas), 40, seed=0, keep_states=True)
        for xs_a, xs_b in zip(tr.states, replay.states):
            for xa, xb in zip(xs_a, xs_b):
                assert np.array_equal(xa, xb)

    def test_mixing_preserves_average_with_zero_steps(self, paper0):
        zero = _ReplayController([[0.0] * 4 for _ in range(30)])
        tr = run(paper0, zero, 30, seed=0, keep_states=True)
        first = np.mean(np.stack(tr.states[0]), axis=0)
        for states in tr.states:
            xbar = np.mean(np.stack(states), axis=0)
            assert np.max(np.abs(xbar - first)) <= 1e-10


class TestInitialStates:
    def test_center_is_default(self, triangle):
        tr = run(triangle, Dgd(), 1, seed=0, keep_states=True)
        for x in tr.states[0]:
            assert np.allclose(x, [0.0, 0.0])

    def test_uniform_policy_feasible_and_seeded(self, paper0):
        a = run(paper0, Dgd(), 1, seed=5, x0="uniform", keep_states=True)
        b = run(paper0, Dgd(), 1, seed=5, x0="uniform", keep_states=True)
        c = run(paper0, Dgd(), 1, seed=6, x0="uniform", keep_states=True)
        for x in a.states[0]:
            assert paper0.constraint.contains(x)
        assert all(np.array_equal(x, y) for x, y in zip(a.states[0], b.states[0]))
        assert any(not np.array_equal(x, y) for x, y in zip(a.states[0], c.states[0]))


class TestSweep:
    def test_schema_and_determinism(self):
        alg = sweep_algorithm()
        a = run_speedup_sweep([3, 4], 40, [0, 1], alg=alg)
        b = run_speedup_sweep([3, 4], 40, [0, 1], alg=alg)
        assert a.rows == b.rows
        assert [r[:2] for r in a.rows] == [(3, 0), (3, 1), (4, 0), (4, 1)]
        assert set(a.means) == {3, 4}

    def test_seeds_give_distinct_gaps(self):
        res = run_speedup_sweep([4], 60, [0, 1], alg=sweep_algorithm())
        gaps = [g for (_, _, g) in res.rows]
        assert gaps[0] != gaps[1]

    def test_unsorted_counts_rejected(self):
        with pytest.raises(ValueError):
            run_speedup_sweep([8, 4], 40, [0])

    def test_repeated_counts_rejected(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            run_speedup_sweep([4, 4], 40, [0])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            run_speedup_sweep([4], 40, [])


class TestValidateMode:
    def test_corridor_asserted(self, paper0):
        cfg = StepsizeConfig(alpha0=1.0)
        tr = run(paper0, Dpsla(stepsize=cfg), 120, seed=1, validate=True)
        for k in range(1, 121):
            ck = cfg.c_value(k - 1)
            for a in tr.records[k].alpha:
                assert (cfg.c0 * cfg.alpha0 / 2) / ck <= a <= (cfg.c0 * cfg.alpha0) / ck

    def test_bad_iterations(self, triangle):
        with pytest.raises(ValueError):
            run(triangle, Dgd(), 0)


def _mixed_instance(constraint) -> ProblemInstance:
    """Least squares with 1 and 3 rows and general quadratics, interleaved, dim 3."""
    gen = np.random.default_rng(4)

    def ls(rows):
        return QuadraticObjective.least_squares(gen.uniform(-1, 1, (rows, 3)), gen.uniform(-2, 2, rows))

    def quad():
        M = gen.normal(size=(3, 3))
        return QuadraticObjective.quadratic(M @ M.T, gen.normal(size=3), float(gen.normal()))

    objectives = [ls(1), quad(), ls(3), ls(1), quad(), ls(3)]
    return ProblemInstance(objectives=objectives, constraint=constraint,
                           graph=build_graph("ring", len(objectives)))


def _reference_round(inst, W, xs, alphas):
    """One round agent by agent through the single-vector paths."""
    zs = list(W.W @ np.stack(xs))
    out = []
    for i, z in enumerate(zs):
        step = z - alphas[i] * inst.objectives[i]._grad(z)
        out.append(inst.constraint._project(step) if np.all(np.isfinite(step)) else z)
    return out


class TestBatchedRound:
    """The array paths of a round are bitwise equal to the per-agent paths."""

    def test_mixed_objective_groups(self):
        inst = _mixed_instance(ConstraintSet.box(-np.ones(3), np.ones(3)))
        assert [g.agents.tolist() for g in inst._groups] == [[0, 3], [1, 4], [2, 5]]
        gen = np.random.default_rng(9)
        for _ in range(50):
            Z = gen.normal(scale=10.0 ** gen.uniform(-3, 3), size=(6, 3))
            F, G = inst._values_grads(Z)
            for i, (o, z) in enumerate(zip(inst.objectives, Z)):
                assert F[i] == o._eval(z)
                assert np.array_equal(G[i], o._grad(z))
            x = Z[0]
            assert inst._sum_value(x) == sum(o._eval(x) for o in inst.objectives)

    @pytest.mark.parametrize("make", [gen_triangle_demo,
                                      lambda: gen_paper_instance(n=5, dim=4, rng=Rng(2))])
    def test_single_group_matches_agents_and_split_groups(self, make):
        inst = make()
        assert len(inst._groups) == 1
        objs, n = inst.objectives, inst.n_agents
        split = make()  # the same objectives forced into two groups: gather and scatter
        second = ObjectiveGroup.stack(objs[2:])[0]
        split.__dict__["_groups"] = [ObjectiveGroup.stack(objs[:2])[0],
                                     dataclasses.replace(second, agents=np.arange(2, n))]
        gen = np.random.default_rng(11)
        for _ in range(50):
            Z = gen.normal(scale=10.0 ** gen.uniform(-3, 3), size=(n, inst.dim))
            F, G = inst._values_grads(Z)
            F2, G2 = split._values_grads(Z)
            assert np.array_equal(F, F2) and np.array_equal(G, G2)
            for i, (o, z) in enumerate(zip(objs, Z)):
                assert F[i] == o._eval(z)
                assert np.array_equal(G[i], o._grad(z))

    def test_ball_rows_all_inside_give_a_new_array(self):
        cs = ConstraintSet.ball([1.0, -2.0], 2.0)
        Y = cs.center() + np.array([[0.5, 0.5], [-1.0, 0.0], [0.0, 0.0]])
        before = Y.copy()
        P = cs._project_rows(Y)
        assert P is not Y and np.array_equal(P, Y)
        P[0] = 99.0
        assert np.array_equal(Y, before)

    def test_ball_run_matches_per_agent_rounds(self):
        inst = _mixed_instance(ConstraintSet.ball([0.5, 0.0, -0.5], 1.5))
        tr = run(inst, Dgd(scale=1.0), 40, seed=0, x0="uniform", keep_states=True)
        W = metropolis_weights(inst.graph)
        projected = kept = 0
        for k in range(40):
            xs = list(tr.states[k])
            ref = _reference_round(inst, W, xs, tr.records[k + 1].alpha)
            for i, (x_new, x_ref) in enumerate(zip(tr.states[k + 1], ref)):
                assert np.array_equal(x_new, x_ref), (k, i)
                z = (W.W @ np.stack(xs))[i]
                step = z - tr.records[k + 1].alpha[i] * inst.objectives[i]._grad(z)
                if np.linalg.norm(step - inst.constraint.ball_center) > inst.constraint.radius:
                    projected += 1
                else:
                    kept += 1
        assert projected > 0 and kept > 0

    def test_projection_rows(self):
        for cs in (ConstraintSet.ball([1.0, -2.0], 2.0),
                   ConstraintSet.box([-1.0, 0.0], [2.0, 0.5])):
            gen = np.random.default_rng(5)
            Y = np.vstack([gen.normal(scale=3.0, size=(60, 2)), cs.center()])
            P = cs._project_rows(Y)
            for y, p in zip(Y, P):
                assert np.array_equal(p, cs._project(y))
            assert np.array_equal(cs._contains_rows(Y), [cs.contains(y) for y in Y])

    def test_infinite_step_holds_one_agent(self, triangle):
        class OneInfinite:
            def stepsizes(self, k, F, G, grad_sq):
                return [0.1, math.inf, 0.1]

        tr = run(triangle, OneInfinite(), 3, seed=0, x0="uniform", keep_states=True)
        W = metropolis_weights(triangle.graph)
        assert not tr.records[0].diverged
        assert all(r.diverged for r in tr.records[1:])
        for k in range(3):
            Z = W.W @ tr.states[k]
            assert np.array_equal(tr.states[k + 1][1], Z[1])  # held at z
            ref = _reference_round(triangle, W, list(tr.states[k]), [0.1, math.inf, 0.1])
            for i in (0, 2):
                assert np.array_equal(tr.states[k + 1][i], ref[i])
                assert not np.array_equal(tr.states[k + 1][i], Z[i])


class TestInvariantChecker:
    def test_validate_names_round_and_agent(self, paper0, monkeypatch):
        decide = engine.decide_alpha

        def broken(cfg, cap, beta, k):
            alpha = decide(cfg, cap, beta, k)
            if k == 7:
                alpha[2] *= 10.0
            return alpha

        monkeypatch.setattr(engine, "decide_alpha", broken)
        with pytest.raises(AssertionError, match="alpha corridor violated at k=7, agent 2"):
            run(paper0, Dpsla(), 20, seed=0, validate=True)

    def test_first_violations_on_edited_trace(self, triangle):
        tr = run(triangle, Dpsla(), 30, seed=0, keep_states=True)
        cfg = Dpsla().stepsize
        clean = first_violations(tr, cfg, triangle.constraint)
        assert clean == {"alpha_monotone": None, "level_monotone": None,
                         "corridor": None, "feasible": None}
        tr.level[12, 0] -= 1.0
        tr.alpha[20, 1] = 1e3
        tr.states[5][2] = [10.0, 10.0]
        found = first_violations(tr, cfg, triangle.constraint)
        assert found["level_monotone"] == (11, 0)  # record 12 is filled by round 11
        assert found["alpha_monotone"] == (19, 1)
        assert found["corridor"] == (19, 1)
        assert found["feasible"] == (4, 2)

    def test_baselines_have_no_level_check(self, triangle):
        tr = run(triangle, Dgd(), 10, seed=0)
        assert set(first_violations(tr)) == {"alpha_monotone"}


class TestColumnarTrace:
    def test_record_view(self, triangle):
        tr = run(triangle, Dpsla(), 20, seed=0)
        recs = tr.records
        assert len(recs) == 21 and tr.n_agents == 3
        assert recs[-1] == recs[20] and recs[-21] == recs[0]
        assert recs[-1].k == 20 and recs[0].k == 0
        with pytest.raises(IndexError):
            recs[21]
        assert [r.k for r in recs[5:9]] == [5, 6, 7, 8] and len(recs[5:9]) == 4
        assert [r.k for r in recs[::7]] == [0, 7, 14] and recs[::7][-1] == recs[14]
        assert [r.k for r in recs[-3:][1:]] == [19, 20] and recs[2:5] == [recs[2], recs[3], recs[4]]
        rows = list(recs)
        assert [r.k for r in rows] == list(range(21))
        assert recs == rows and recs == run(triangle, Dpsla(), 20, seed=0).records
        assert recs != rows[:-1] and recs != run(triangle, Dpsla(), 19, seed=0).records
        r = recs[12]
        assert r.residual == tr.residual[12] and r.consensus_error == tr.consensus_error[12]
        assert r.alpha == tuple(tr.alpha[12]) and r.level == tuple(tr.level[12])
        assert r.level_updated == tuple(tr.level_updated[12]) and r.diverged is False
        assert all(type(v) is float for v in r.alpha + r.level + (r.residual,))

    def test_baseline_rows(self, triangle):
        tr = run(triangle, Dgd(), 5, seed=0)
        assert tr.level is None
        assert tr.records[0].alpha == (None,) * 3 and tr.records[0].level == (None,) * 3
        assert tr.records[1].alpha == (2.0,) * 3 and tr.records[1].level == (None,) * 3
        assert tr.records[3].level_updated == (False,) * 3

    def test_no_oracle_no_residual(self):
        inst = gen_paper_instance(n=3, rng=Rng(1))
        tr = run(inst, Dpsla(), 4, seed=0)
        assert tr.residual is None
        assert all(r.residual is None for r in tr.records)

    def test_metrics_per_chunk(self, paper0, monkeypatch):
        # without kept states the metrics see at most _CHUNK rounds at a time
        blocks = []

        def spy(xs):
            blocks.append(np.shape(xs))
            return consensus_error(xs)

        monkeypatch.setattr(engine, "consensus_error", spy)
        tr = run(paper0, Dpsla(), 600, seed=0)
        assert engine._CHUNK == 256 and [b[0] for b in blocks] == [256, 256, 89]
        assert tr.states is None
        kept = run(paper0, Dpsla(), 600, seed=0, keep_states=True)
        assert kept.states.shape == (601, 4, 6)
        for col in ("alpha", "level", "level_updated", "diverged", "residual", "consensus_error"):
            assert np.array_equal(getattr(tr, col), getattr(kept, col))
        for k in (0, 255, 256, 511, 512, 600):
            assert tr.consensus_error[k] == consensus_error(kept.states[k])
            assert tr.residual[k] == residual(paper0, kept.states[k])


def _main_instance():
    cfg = cli.parse_config(json.dumps({"problem": {"seed": 0}}))
    inst = cli.build_instance(cfg)
    inst.ensure_optimum()
    return inst, cli.build_algorithm(cfg)


class TestRoundBudget:
    """Calls that dpsla's own frames make per round of `run`.

    A profile hook counts every call whose calling Python frame belongs to a
    dpsla source file, in a T-round and a 2T-round run; the difference
    divided by T leaves out the set-up. What numpy's Python wrappers call in
    turn is not counted, so a budget moves when dpsla's per-round code
    changes, not when numpy's wrappers do. The four shapes
    are the `reproduce main` instance (seed 0) under DPS-LA and DGD, and the
    triangle under DGD and naive Polyak."""

    ROOT = os.path.dirname(dpsla.__file__) + os.sep

    def calls_per_round(self, inst, alg, T=256):
        def count(rounds):
            calls = 0

            def hook(frame, event, arg):
                nonlocal calls
                caller = frame.f_back if event == "call" else frame if event == "c_call" else None
                if caller is not None and caller.f_code.co_filename.startswith(self.ROOT):
                    calls += 1

            sys.setprofile(hook)
            try:
                run(inst, alg, rounds)
            finally:
                sys.setprofile(None)
            return calls

        run(inst, alg, 3)  # fill the instance's cached stacks before counting
        return (count(2 * T) - count(T)) / T

    # measured 22.2, 9.1, 11.1 and 13.1 with numpy 2.4 and Python 3.11; the test
    # ids name the shape only, so that a new budget keeps them
    BUDGETS = {"dpsla_main": 23, "dgd_main": 10, "dgd_triangle": 12, "naive_triangle": 14}

    @pytest.mark.parametrize("shape", BUDGETS)
    def test_calls_per_round(self, shape, triangle):
        if shape.endswith("main"):
            inst, alg = _main_instance()
            alg = alg if shape.startswith("dpsla") else Dgd(scale=2.0)
        else:
            inst = triangle
            alg = Dgd(scale=2.0) if shape.startswith("dgd") else NaivePolyak(target="local_min")
        assert self.calls_per_round(inst, alg) <= self.BUDGETS[shape]
