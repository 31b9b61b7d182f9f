import dataclasses
import hashlib
import json
import math
import os
import re
import sys

import numpy as np
import pytest

import dpsla
from dpsla import cli, engine, feasibility
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


def _assert_invariants_hold(trace, alg, inst):
    """`first_violations` finds no broken invariant in a trace that kept its states."""
    assert trace.states is not None
    found = first_violations(trace, alg.stepsize, inst.constraint)
    assert all(v is None for v in found.values()), found


class TestDpslaRuns:
    def test_triangle_converges(self, triangle):
        tr = run(triangle, Dpsla(), 500, seed=0, keep_states=True)
        _assert_invariants_hold(tr, Dpsla(), triangle)
        res = tr.records[500].residual
        f_star = triangle.optimum.f_star
        assert res <= 1e-3 * (1 + abs(f_star))

    def test_paper_instance_converges_and_updates_levels(self, paper0):
        tr = run(paper0, Dpsla(), 300, seed=0, keep_states=True)
        _assert_invariants_hold(tr, Dpsla(), paper0)
        assert tr.records[300].residual <= 1e-6
        for i in range(4):
            assert any(r.level_updated[i] for r in tr.records)

    def test_feasibility_of_all_states(self, paper0):
        tr = run(paper0, Dpsla(), 100, seed=0, keep_states=True)
        for states in tr.states:
            for x in states:
                assert paper0.constraint.contains(x)

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

    def test_level_init_array_runs_like_the_scalar(self, paper0):
        # a numpy array is stored as a tuple of floats, which the rule and describe() read
        alg = Dpsla(level_init=np.full(4, -500.0))
        assert alg.level_init == (-500.0,) * 4 and alg.describe()["level_init"] == [-500.0] * 4
        assert Dpsla(level_init=-500).describe() == Dpsla().describe()
        assert run(paper0, alg, 20).records == run(paper0, Dpsla(), 20).records
        with pytest.raises(ValueError, match="level_init must be finite and at most 1-D"):
            Dpsla(level_init=np.full((4, 1), -500.0))

    def test_per_agent_level_init_needs_one_value_per_agent(self, triangle):
        with pytest.raises(ValueError, match="one value per agent"):
            run(triangle, Dpsla(level_init=(1.0, 2.0)), 5)

    @pytest.mark.parametrize("level_init", [math.nan, math.inf, -math.inf,
                                            (-10.0, math.nan, -30.0)])
    def test_non_finite_level_init_rejected(self, level_init):
        # nan makes every stepsize nan; +inf is no lower bound on f_i(x*)
        with pytest.raises(ValueError, match="level_init must be finite"):
            Dpsla(level_init=level_init)

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

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
    def test_dgd_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            Dgd(scale=scale)

    @pytest.mark.parametrize("eta_cap", [2.5, 2.0, True, 0, "3"])
    def test_dpsla_eta_cap_must_be_an_integer(self, eta_cap):
        with pytest.raises(ValueError, match="eta_cap must be None or an integer >= 1"):
            Dpsla(eta_cap=eta_cap)

    def test_naive_polyak_fails_consensus(self, triangle):
        tr = run(triangle, NaivePolyak(target="local_min"), 500, seed=0)
        ce = [r.consensus_error for r in tr.records]
        diverged = tr.records[-1].diverged
        assert diverged or min(ce[100:]) >= 1e-2

    def test_naive_oracle_target_variant(self, triangle):
        tr = run(triangle, NaivePolyak(target="oracle_fi_star"), 200, seed=0)
        assert len(tr.records) == 201

    def test_naive_oracle_target_needs_the_optimum(self):
        with pytest.raises(ValueError, match="needs the instance optimum solved"):
            run(gen_triangle_demo(), NaivePolyak("oracle_fi_star"), 5)

    def test_naive_eps_grad_is_a_constant(self):
        # a settable threshold went unchecked: eps_grad=nan gave every agent a zero stepsize
        assert engine.NAIVE_EPS_GRAD == 1e-12
        with pytest.raises(TypeError, match="eps_grad"):
            NaivePolyak(eps_grad=math.nan)

    def test_unknown_spec_is_a_type_error(self, triangle):
        spec = object()
        with pytest.raises(TypeError, match=f"^unknown algorithm spec {re.escape(repr(spec))}$"):
            run(triangle, spec, 5)


class _Replay:
    """Stub spec replaying a fixed (round, agent) stepsize table; the engine
    runs it only under the `replayable` fixture."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)


@pytest.fixture
def replayable(monkeypatch):
    """Let `run` take a `_Replay` spec: its rule reads the gradients as the
    Polyak rules do and returns the table's row of round k, and it answers the
    table's remaining rows when the state repeats."""
    stepsize_rule = engine._stepsize_rule

    def rule(alg, inst, rounds):
        if isinstance(alg, _Replay):
            return (None, lambda k, Z: (inst._values_grads(Z)[1], alg.table[k], None),
                    lambda k, alpha: alg.table[k:])
        return stepsize_rule(alg, inst, rounds)

    monkeypatch.setattr(engine, "_stepsize_rule", rule)


@pytest.fixture
def never_settle(monkeypatch):
    """Runs simulate every round."""
    monkeypatch.setattr(engine, "_settled", lambda *args: False)


@pytest.mark.usefixtures("replayable")
class TestSharedTemplate:
    def test_replaying_dpsla_alphas_reproduces_its_trajectory(self, paper0):
        """dgd-style fixed schedules and dpsla share one consensus/projection
        path: feeding dpsla's recorded stepsizes through a stub rule yields
        the identical iterate sequence."""
        tr = run(paper0, Dpsla(), 40, seed=0, keep_states=True)
        replay = run(paper0, _Replay(tr.alpha[1:]), 40, seed=0, keep_states=True)
        assert np.array_equal(replay.alpha[1:], tr.alpha[1:])
        assert np.array_equal(replay.states, tr.states)

    def test_mixing_preserves_average_with_zero_steps(self, paper0):
        zero = _Replay(np.zeros((30, 4)))
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

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
    def test_uniform_policy_equals_per_entry_draws(self, triangle, paper0, seed):
        """One draw per entry, row by row, from column j's bounds, then each row
        projected; the one block of draws has the same bits."""
        for inst in (triangle, paper0):
            lo, hi = inst.constraint.bounding_box()
            gen = np.random.default_rng(seed)
            ref = [inst.constraint._project(np.array([gen.uniform(lo[j], hi[j])
                                                      for j in range(inst.dim)]))
                   for _ in range(inst.n_agents)]
            got = run(inst, Dgd(), 1, seed=seed, x0="uniform", keep_states=True).states[0]
            assert got.tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("radius", [4.0, 1e3, 1e6, 1e9])
    def test_uniform_start_in_a_large_ball_is_feasible(self, radius):
        # with an absolute slack, 48 of these 200 seeds failed at r=1e6
        objectives = [QuadraticObjective.quadratic(np.eye(2), [float(i), 0.0]) for i in range(4)]
        inst = ProblemInstance(objectives, ConstraintSet.ball([0.0, 0.0], radius),
                               build_graph("ring", 4))
        for seed in range(200):
            run(inst, Dgd(), 3, seed=seed, x0="uniform")

    def test_unknown_policy_rejected(self, triangle):
        with pytest.raises(ValueError, match="unknown x0 policy 'bogus'"):
            run(triangle, Dgd(), 5, x0="bogus")

    def test_set_up_needs_no_per_point_kernel(self, monkeypatch):
        """Instance generation, a uniform start and loading a file optimum take
        only the batched paths; the per-point kernels are the solvers' alone."""
        inst = gen_paper_instance(rng=Rng(2))
        inst.ensure_optimum()
        text = inst.to_json()

        def boom(*args):
            raise AssertionError("per-point kernel called")

        for cls, name in ((QuadraticObjective, "_eval"), (QuadraticObjective, "_grad"),
                          (ConstraintSet, "_project")):
            monkeypatch.setattr(cls, name, boom)
        gen_paper_instance(n=5, rng=Rng(3))
        run(inst, Dgd(), 5, seed=1, x0="uniform")
        assert ProblemInstance.from_json(text).optimum.to_dict() == inst.optimum.to_dict()


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
            run_speedup_sweep([8, 4], 40, [0], alg=sweep_algorithm())

    def test_repeated_counts_rejected(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            run_speedup_sweep([4, 4], 40, [0], alg=sweep_algorithm())

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            run_speedup_sweep([4], 40, [], alg=sweep_algorithm())

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="T must be an integer >= 2, got 1$"):
            run_speedup_sweep([4], 1, [0], alg=sweep_algorithm())

    def test_algorithm_required(self):
        # no default profile: Dpsla()'s gaps at the sweep horizon are numerical noise
        with pytest.raises(TypeError, match="alg"):
            run_speedup_sweep([4], 40, [0])

    # sha256 prefixes of the columns' bytes in the bench `sweep` runs (seed 0),
    # whose CSV rows hold one gap each and so cannot show a fault in the levels
    SWEEP_COLUMNS = {
        8: {"alpha": "bb98b0dae12bfdfd", "level": "57805527c761cef5",
            "level_updated": "c109f89e26dc5817"},
        16: {"alpha": "d3d6c48373745295", "level": "269d8721c290a206",
             "level_updated": "e522fdc141c74808"},
        32: {"alpha": "e9024f1a072811ba", "level": "1a75dec69beddf73",
             "level_updated": "e3e8200785f95c4c"},
    }

    def test_bench_sweep_columns_pinned(self, monkeypatch):
        traces, call = [], engine.run

        def keep(*args, **kwargs):
            traces.append(call(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(engine, "run", keep)
        run_speedup_sweep([8, 16, 32], 600, [0], sweep_algorithm())
        got = {t.n_agents: {c: hashlib.sha256(getattr(t, c).tobytes()).hexdigest()[:16]
                            for c in ("alpha", "level", "level_updated")} for t in traces}
        assert got == self.SWEEP_COLUMNS


class TestValidateMode:
    """Runs validated by `first_violations` on their kept states."""

    def test_corridor_asserted(self, paper0):
        cfg = StepsizeConfig(alpha0=1.0)
        tr = run(paper0, Dpsla(stepsize=cfg), 120, seed=1, keep_states=True)
        _assert_invariants_hold(tr, Dpsla(stepsize=cfg), paper0)
        for k in range(1, 121):
            ck = cfg.c_value(k - 1)
            for a in tr.records[k].alpha:
                assert (cfg.c0 * cfg.alpha0 / 2) / ck <= a <= (cfg.c0 * cfg.alpha0) / ck

    def test_clamped_constraint_beta(self, paper0, monkeypatch):
        # with constraint_beta="clamped" each active row's offset takes the
        # lower-clamped Polyak value: g.z - max(beta, c0 alpha0 / 2) ||g||^2 / gamma_bar
        cfg = StepsizeConfig(constraint_beta="clamped")
        mixed, offsets = [], []
        mix, record = engine.mix, engine.record_step

        def mix_spy(W, X):
            mixed.append(mix(W, X))
            return mixed[-1]

        def record_spy(win, cfg, G, b, F, active, gw):
            grad_sq = np.vecdot(G, G)
            raw = cfg.gamma * (F - win.level) / grad_sq
            beta = np.maximum(raw, cfg.beta_floor)
            expected = np.vecdot(G, mixed[-1]) - beta * grad_sq / cfg.gamma_bar
            offsets.append((b[active], expected[active], raw[active]))
            return record(win, cfg, G, b, F, active, gw)

        monkeypatch.setattr(engine, "mix", mix_spy)
        monkeypatch.setattr(engine, "record_step", record_spy)
        tr = run(paper0, Dpsla(stepsize=cfg), 200, seed=0, keep_states=True)
        assert len(offsets) == 200
        assert all(np.array_equal(got, want) for got, want, _ in offsets)
        assert any((raw < cfg.beta_floor).any() for *_, raw in offsets)  # the clamp bites
        assert any(tr.level_updated[1:].ravel())
        assert all(v is None for v in first_violations(tr, cfg, paper0.constraint).values())

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
    zs = list(W @ np.stack(xs))
    out = []
    for i, z in enumerate(zs):
        step = z - alphas[i] * inst.objectives[i]._grad(z)
        out.append(inst.constraint._project(step) if np.all(np.isfinite(step)) else z)
    return out


def _contains_reference(cs, x):
    """The per-point membership test with slack 1e-12, for a ball times its
    largest size (1, the radius or a center coordinate); the reference for
    `contains` and `_contains_rows`."""
    if cs.kind == "box":
        return bool(np.all(x >= cs.lower - 1e-12) and np.all(x <= cs.upper + 1e-12))
    scale = max(1.0, cs.radius, *np.abs(cs.ball_center))
    return float(np.linalg.norm(x - cs.ball_center)) <= cs.radius + 1e-12 * scale


class TestBatchedRound:
    """The array paths of a round are bitwise equal to the per-agent paths."""

    def test_mixed_objective_groups(self):
        inst = _mixed_instance(ConstraintSet.box(-np.ones(3), np.ones(3)))
        assert [g.agents.tolist() for g in inst._groups] == [[0, 3], [1, 4], [2, 5]]
        gen, stacks = np.random.default_rng(9), np.random.default_rng(10)
        for _ in range(50):
            Z = gen.normal(scale=10.0 ** gen.uniform(-3, 3), size=(6, 3))
            F, G = inst._values_grads(Z)
            assert inst._grads(Z).tobytes() == G.tobytes()
            for i, (o, z) in enumerate(zip(inst.objectives, Z)):
                assert F[i] == o._eval(z)
                assert np.array_equal(G[i], o._grad(z))
            x = Z[0]
            assert inst._sum_value(x) == sum(o._eval(x) for o in inst.objectives)
            # a (K, 3) stack: each group broadcasts it over its agents
            P = stacks.normal(scale=10.0 ** stacks.uniform(-3, 3), size=(40, 3))
            assert inst._sum_value(P).tolist() == [sum(o._eval(p) for o in inst.objectives)
                                                   for p in P]

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
            assert inst._grads(Z).tobytes() == G.tobytes() == split._grads(Z).tobytes()
            for i, (o, z) in enumerate(zip(objs, Z)):
                assert F[i] == o._eval(z)
                assert np.array_equal(G[i], o._grad(z))

    @pytest.mark.parametrize("make", [gen_triangle_demo, lambda: gen_paper_instance(rng=Rng(0)),
                                      lambda: _mixed_instance(ConstraintSet.ball(np.zeros(3), 1.5))],
                             ids=["triangle", "paper", "mixed"])
    def test_dgd_evaluates_no_value(self, make, monkeypatch):
        # DGD reads only gradients; without an optimum no residual reads a value either
        inst = make()
        want = run(inst, Dgd(), 40, seed=0, x0="uniform", keep_states=True)

        def no_value(*args):
            raise AssertionError("DGD evaluated an objective value")

        monkeypatch.setattr(ObjectiveGroup, "values", no_value)
        monkeypatch.setattr(ObjectiveGroup, "values_grads", no_value)
        got = run(inst, Dgd(), 40, seed=0, x0="uniform", keep_states=True)
        for col in ("alpha", "consensus_error", "states"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
        with pytest.raises(AssertionError, match="objective value"):
            run(inst, NaivePolyak(), 1)

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
                z = (W @ np.stack(xs))[i]
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
            # rows far out, inside, on the boundary and just past it
            X = np.vstack([Y, P, P + 1e-12 * np.sign(P - cs.center())])
            ref = [_contains_reference(cs, x) for x in X]
            assert cs._contains_rows(X).tolist() == ref
            assert [cs.contains(x) for x in X] == ref
            assert False in ref and True in ref

    @pytest.mark.usefixtures("replayable")
    def test_infinite_step_holds_one_agent(self, triangle):
        one_infinite = _Replay([[0.1, math.inf, 0.1]] * 3)
        tr = run(triangle, one_infinite, 3, seed=0, x0="uniform", keep_states=True)
        W = metropolis_weights(triangle.graph)
        assert not tr.records[0].diverged
        assert all(r.diverged for r in tr.records[1:])
        for k in range(3):
            Z = W @ tr.states[k]
            assert np.array_equal(tr.states[k + 1][1], Z[1])  # held at z
            ref = _reference_round(triangle, W, list(tr.states[k]), [0.1, math.inf, 0.1])
            for i in (0, 2):
                assert np.array_equal(tr.states[k + 1][i], ref[i])
                assert not np.array_equal(tr.states[k + 1][i], Z[i])


class TestInvariantChecker:
    def test_validate_names_round_and_agent(self, paper0, monkeypatch):
        decide, calls = engine.decide_alpha, []

        def broken(*args):
            alpha, beta = decide(*args)
            calls.append(args[-1])
            if len(calls) == 8:  # round 7
                alpha[2] *= 10.0
            return alpha, beta

        monkeypatch.setattr(engine, "decide_alpha", broken)
        tr = run(paper0, Dpsla(), 20, seed=0, keep_states=True)
        found = first_violations(tr, Dpsla().stepsize, paper0.constraint)
        assert found == {"alpha_monotone": (7, 2), "level_monotone": None,
                         "corridor": (7, 2), "feasible": None}

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


def _row_from_columns(tr, k):
    """Row k of a trace read straight from its columns, None where a value does
    not exist: the residual without an optimum, a baseline's row-0 stepsizes and
    its levels."""
    none = (None,) * tr.n_agents
    return engine.TraceRecord(
        k, None if tr.residual is None else float(tr.residual[k]), float(tr.consensus_error[k]),
        none if k == 0 and tr.level is None else tuple(float(a) for a in tr.alpha[k]),
        none if tr.level is None else tuple(float(v) for v in tr.level[k]),
        tuple(bool(u) for u in tr.level_updated[k]), bool(tr.diverged[k]))


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

    @pytest.mark.parametrize("T", [63, 64, 65, 255, 256, 257, 600])
    @pytest.mark.parametrize("alg", [Dpsla(), Dgd(), NaivePolyak()],
                             ids=["dpsla", "dgd", "naive"])
    @pytest.mark.parametrize("oracle", [True, False], ids=["optimum", "no-optimum"])
    def test_rows_match_columns_across_blocks(self, paper0, T, alg, oracle):
        # iteration reads each column _RECORD_BLOCK rows at a time, indexing one row
        inst = paper0 if oracle else gen_paper_instance(rng=Rng(0))
        tr = run(inst, alg, T, seed=0)
        recs = tr.records
        cuts = [slice(None), slice(None, None, -1), slice(None, None, 3), slice(None, None, -3),
                slice(250, 262), slice(-300, None), slice(5, 5), slice(300, 2)]
        views = [(recs[c], range(T + 1)[c]) for c in cuts]
        views.append((recs[::-1][:0], range(0)))
        for view, ks in views:
            expect = [_row_from_columns(tr, k) for k in ks]
            # repr tells apart 0.0 and -0.0, float and numpy scalars, and compares NaNs
            assert repr(list(view)) == repr(expect)
            assert repr([view[i] for i in range(len(view))]) == repr(expect)
            assert view == expect
        assert engine._RECORD_BLOCK == 64 and [r.k for r in recs[::-1]] == list(range(T, -1, -1))
        assert (recs[0].alpha == (None,) * 4) == (not isinstance(alg, Dpsla))

    @pytest.mark.usefixtures("never_settle")
    def test_metrics_per_chunk(self, paper0, monkeypatch):
        # without kept states the metrics see at most _CHUNK rounds at a time;
        # the run is held from settling, which it does at row 65
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


def _main_instance(seed=0):
    cfg = cli.parse_config(json.dumps({"problem": {"seed": seed}}))
    inst = cli.build_instance(cfg)
    inst.ensure_optimum()
    return inst, cli.build_algorithm(cfg)


class TestSimplexCalls:
    """Phase-I LP solves per run: the paper shapes decide every fallen window at
    its new row's box minimizer, while the triangle still reaches the LP."""

    @pytest.fixture
    def lp_rows(self, monkeypatch):
        rows, lp = [], feasibility._phase1_lp

        def counted(A, *args):
            rows.append(len(A))
            return lp(A, *args)

        monkeypatch.setattr(feasibility, "_phase1_lp", counted)
        return rows

    def test_paper_shapes_never_reach_the_lp(self, lp_rows):
        inst, alg = _main_instance()
        run(inst, alg, 300)
        run_speedup_sweep([8], 600, [0], alg=sweep_algorithm())
        assert lp_rows == []

    def test_triangle_reaches_the_lp_with_longer_windows(self, lp_rows, triangle):
        run(triangle, Dpsla(), 500)
        assert len(lp_rows) >= 10 and min(lp_rows) >= 2


_COLUMNS = ("alpha", "level", "level_updated", "diverged", "residual", "consensus_error", "states")


def _same_rows(got, want, rows=None):
    """Every trace column of `got` has the bits of `want`'s first `rows` rows."""
    for col in _COLUMNS:
        a, b = getattr(got, col), getattr(want, col)
        assert (a is None) == (b is None), col
        if a is not None:
            assert a.tobytes() == b[:rows].tobytes(), col


@pytest.fixture
def settle_checks(monkeypatch):
    """(the rule's answer is None, the run settled) of every `_settled` call from now on."""
    calls, settled = [], engine._settled

    def spy(rest, alpha, Z, G, X, constraint):
        result = settled(rest, alpha, Z, G, X, constraint)
        calls.append((rest is None, result))
        return result

    monkeypatch.setattr(engine, "_settled", spy)
    return calls


def _settle_corpus():
    """(name, instance, algorithm, T, run keywords) of the runs whose settled
    traces are compared with fully simulated ones."""
    cases = []
    for seed in range(10):  # `reproduce main`
        inst, alg = _main_instance(seed)
        cases += [(f"main{seed}-dpsla", inst, alg, 300, {}),
                  (f"main{seed}-dgd", inst, Dgd(), 300, {})]
    tri = gen_triangle_demo()  # `reproduce divergence`
    tri.ensure_optimum(1e-11)
    cases += [("tri-dgd", tri, Dgd(), 500, {}), ("tri-naive", tri, NaivePolyak(), 500, {})]
    for n in range(3, 7):
        inst = gen_paper_instance(n=n, rng=Rng(100 + n))
        inst.ensure_optimum()
        cases += [(f"paper{n}-cap{cap}", inst, Dpsla(eta_cap=cap), 300, {}) for cap in (None, 1, 3)]
        cases += [(f"paper{n}-uniform", inst, Dpsla(), 300, {"x0": "uniform", "seed": n}),
                  (f"paper{n}-naive", inst, NaivePolyak(), 300, {"x0": "uniform", "seed": n})]
    # no optimum solved, so the trace has no residual column
    cases.append(("paper4-no-oracle", gen_paper_instance(n=4, rng=Rng(104)), Dpsla(), 300, {}))
    inst, _ = _main_instance(0)
    for name, cfg in (("clamped", StepsizeConfig(constraint_beta="clamped")),
                      ("constant", StepsizeConfig(c_kind="constant")),
                      ("constant-small", StepsizeConfig(c_kind="constant", alpha0=0.2))):
        cases.append((name, inst, Dpsla(stepsize=cfg), 300, {}))
    return cases


class TestSettle:
    """A run whose state repeats writes its remaining rows with the bits that
    simulating them gives."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _settle_corpus()

    def test_settled_rows_equal_simulated_rows(self, corpus, monkeypatch):
        settled = {}
        for name, inst, alg, T, kw in corpus:
            got = run(inst, alg, T, keep_states=True, **kw)
            bare = run(inst, alg, T, **kw)
            settled[name] = got.settled
            with monkeypatch.context() as m:
                m.setattr(engine, "_settled", lambda *args: False)
                want = run(inst, alg, T, keep_states=True, **kw)
            assert want.settled is None
            _same_rows(got, want)
            assert bare.settled == got.settled and bare.states is None
            bare.states = want.states
            _same_rows(bare, want)
        # where the data says the corpus settles: naive Polyak on the triangle
        # repeats its state from row 49, and the check at row 64 settles it
        assert settled["tri-naive"] == 65
        assert settled["main0-dpsla"] == 65 and settled["main9-dgd"] == 225
        assert settled["main0-dgd"] is None and settled["tri-dgd"] is None
        assert settled["paper4-no-oracle"] == 81
        assert sum(v is not None for v in settled.values()) >= len(settled) // 2

    @pytest.mark.parametrize("case", ["main0-dpsla", "main9-dgd", "tri-naive", "constant"])
    def test_rows_of_a_short_run_begin_the_long_run(self, corpus, case):
        # the rows of run(T) are the first T + 1 rows of run(2T)
        _, inst, alg, T, kw = next(c for c in corpus if c[0] == case)
        long = run(inst, alg, 2 * T, keep_states=True, **kw)
        for short_T in (T // 4 + 1, T):
            short = run(inst, alg, short_T, keep_states=True, **kw)
            _same_rows(short, long, short_T + 1)

    def test_no_settling_in_a_round_where_a_witness_fell(self, settle_checks):
        # main seed 0 repeats its state at rows 32 and 48, where a witness fell
        inst, alg = _main_instance(0)
        tr = run(inst, alg, 64, keep_states=True)
        assert tr.settled is None
        assert (True, False) in settle_checks
        assert all(tr.states[r].tobytes() == tr.states[r - 1].tobytes() for r in (32, 48))

    def test_no_settling_on_a_ball_with_shrinking_stepsizes(self, settle_checks):
        # three agents pulled to (2, 0) from inside the unit ball: the state sits
        # at (1, 0) and repeats, yet DGD and DPS-LA with c_k = sqrt(k+1) shrink
        # their stepsizes, and the ball projection of (1 + 2a, 0) rounds to
        # 1 - 2**-53 for some a: DPS-LA's state repeats at row 64 and leaves it
        # at row 69. With a constant c_k the rounds repeat and the run settles.
        objectives = [QuadraticObjective.least_squares(np.eye(2), [2.0, 0.0])] * 3
        inst = ProblemInstance(objectives, ConstraintSet.ball([0.0, 0.0], 1.0),
                               build_graph("ring", 3))
        for alg in (Dgd(), Dpsla()):
            tr = run(inst, alg, 100, keep_states=True)
            assert tr.settled is None
            assert tr.states[-1].tolist() == [[1.0, 0.0]] * 3
        assert (False, False) in settle_checks
        assert tr.states[64].tobytes() == tr.states[63].tobytes()
        assert tr.states[69].tolist() == [[1.0 - 2.0 ** -53, 0.0]] * 3
        const = Dpsla(stepsize=StepsizeConfig(c_kind="constant"))
        assert run(inst, const, 100).settled is not None

    @pytest.mark.usefixtures("replayable")
    def test_no_settling_on_a_box_whose_last_stepsize_leaves_the_state(self, settle_checks):
        # main seed 9's DGD settles at row 225; with its last stepsize 1e-300
        # the last step lands on Z, which lies inside the box, so the clip no
        # longer holds the state in place
        inst, _ = _main_instance(9)
        T = 300
        table = np.repeat(Dgd().schedule(T)[:, None], inst.n_agents, axis=1)
        assert run(inst, _Replay(table), T).settled == 225
        table[-1] = 1e-300
        tr = run(inst, _Replay(table), T, keep_states=True)
        assert tr.settled is None and (False, False) in settle_checks
        assert tr.states[-2].tobytes() == tr.states[-3].tobytes()
        assert tr.states[-1].tobytes() != tr.states[-2].tobytes()


class TestIntegerArguments:
    @pytest.mark.parametrize("iterations", [True, 2.0, 0, -3])
    def test_run_iterations(self, triangle, iterations):
        # True ran one round; 2.0 raised a bare TypeError
        with pytest.raises(ValueError,
                           match=re.escape(f"iterations must be an integer >= 1, got {iterations!r}")):
            run(triangle, Dgd(), iterations)

    def test_numpy_integers_accepted(self, triangle):
        assert run(triangle, Dgd(), np.int64(3)).alpha.shape == (4, 3)
        assert [r[:2] for r in run_speedup_sweep([np.int32(3)], np.int64(4), [np.uint8(2)],
                                                 sweep_algorithm()).rows] == [(3, 2)]

    @pytest.mark.parametrize("seed", [1.5, -1, True, 2 ** 48])
    def test_sweep_seeds(self, seed):
        # 1.5 ran and reported seed 1; -1 was reported as "got -65533"
        with pytest.raises(ValueError, match=re.escape(f"seeds must be integers in [0, 2**48), got {seed!r}")):
            run_speedup_sweep([3], 4, [0, seed], sweep_algorithm())

    @pytest.mark.parametrize("T", [4.0, True, 1])
    def test_sweep_horizon(self, T):
        with pytest.raises(ValueError, match=re.escape(f"T must be an integer >= 2, got {T!r}")):
            run_speedup_sweep([3], T, [0], sweep_algorithm())

    @pytest.mark.parametrize("n", [3.0, 1, np.float64(4)])
    def test_sweep_agent_counts(self, n):
        with pytest.raises(ValueError, match=re.escape(f"agent_counts must hold integers >= 2, got {n!r}")):
            run_speedup_sweep([2, n], 4, [0], sweep_algorithm())


class TestRoundBudget:
    """Calls that dpsla's own frames make per simulated round of `run`.

    A profile hook counts every call whose calling Python frame belongs to a
    dpsla source file, in a T-round and a 2T-round run; the difference
    divided by T leaves out the set-up. What numpy's Python wrappers call in
    turn is not counted, so a budget moves when dpsla's per-round code
    changes, not when numpy's wrappers do. The counted runs never settle, so
    every round is simulated; the test of whether the state repeats, made
    every 16th round, adds 0.125 calls per round. The five shapes are the
    `reproduce main` instance (seed 0) under DPS-LA with `sweep_algorithm()`,
    under DGD and, for T=32, under its own DPS-LA config, whose levels climb
    (58 of its first 64 rounds update one; it settles at row 65), and the
    triangle under DGD and, for T=16, naive Polyak, which settles at row 65."""

    ROOT = os.path.dirname(dpsla.__file__) + os.sep

    def calls_per_round(self, inst, alg, T):
        def count(rounds):
            calls = 0

            def hook(frame, event, arg):
                nonlocal calls
                caller = frame.f_back if event == "call" else frame if event == "c_call" else None
                if caller is not None and caller.f_code.co_filename.startswith(self.ROOT):
                    calls += 1

            sys.setprofile(hook)
            try:
                trace = run(inst, alg, rounds)
            finally:
                sys.setprofile(None)
            assert trace.settled is None
            return calls

        run(inst, alg, 3)  # fill the instance's cached stacks before counting
        return (count(2 * T) - count(T)) / T

    # measured 11.3, 6.2, 9.2, 11.1 and 16.7 with numpy 2.4 and Python 3.11 (15.3,
    # 9.2, 10.2, 12.1 and 21.6 before the clip ufunc and the C `count_nonzero`
    # were called directly: a numpy function with a Python wrapper counts twice,
    # its dispatcher and its Python body); the test ids name the shape only, so
    # that a new budget keeps them
    BUDGETS = {"dpsla_main": 16, "dgd_main": 10, "dgd_triangle": 11, "naive_triangle": 13,
               "dpsla_level_climb": 22}

    @pytest.mark.parametrize("shape", BUDGETS)
    def test_calls_per_round(self, shape, triangle):
        T = 256
        if shape == "dpsla_level_climb":
            (inst, alg), T = _main_instance(), 32
        elif shape.endswith("main"):
            inst, _ = _main_instance()
            alg = sweep_algorithm() if shape.startswith("dpsla") else Dgd(scale=2.0)
        elif shape.startswith("dgd"):
            inst, alg = triangle, Dgd(scale=2.0)
        else:
            inst, alg, T = triangle, NaivePolyak(target="local_min"), 16
        assert self.calls_per_round(inst, alg, T) <= self.BUDGETS[shape]
