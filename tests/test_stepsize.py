import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsla import engine
from dpsla.engine import Dpsla, run
from dpsla.feasibility import EPS_FEAS, HalfSpace, InequalitySystem
from dpsla.problem import ConstraintSet, ProblemInstance, QuadraticObjective
from dpsla.stepsize import WINDOW_ROWS, LevelWindows, StepsizeConfig, decide_alpha, record_step
from dpsla.topology import build_graph

from .util import one_row_windows


def cfg_unit():
    # c0 = 1, alpha0 = 1 makes the base-case arithmetic transparent
    return StepsizeConfig(gamma=1.0, gamma_bar=1.5, alpha0=1.0, c_scale=1.0)


def fresh_cap(cfg, n=1):
    return np.full(n, cfg.c0 * cfg.alpha0)


def polyak(cfg, f_val, level, grad_sq):
    """The Polyak value `decide_alpha` returns for one agent with a nonzero gradient."""
    return decide_alpha(cfg, fresh_cap(cfg), np.array([f_val]), np.array([level]),
                        np.array([grad_sq]), np.array([True]), cfg.c0)[1][0]


def alpha_for(cfg, cap, beta, c_k):
    """`decide_alpha` for active agents whose Polyak values are `beta`: with gamma = 1,
    F = beta, level 0 and ||g||^2 = 1 give gamma (F - level) / ||g||^2 == beta exactly."""
    assert cfg.gamma == 1.0
    beta = np.asarray(beta, dtype=float)
    ones = np.ones_like(beta)
    return decide_alpha(cfg, cap, beta, np.zeros_like(beta), ones, ones > 0, c_k)[0]


def record(win, cfg, G, b, F, active):
    """`record_step` with the witness dots G[i] . witness[i], which the engine's
    rule takes from its stacked dot pass."""
    return record_step(win, cfg, G, b, F, active, np.vecdot(G, win.witness))


def step(win, cfg, z, f_val, g, beta):
    """One round of a one-agent window, with the half-space built as the engine
    builds it: g.x <= g.z - (beta / gamma_bar) ||g||^2. Returns the new level
    when the window turned infeasible, else None."""
    z, g = np.asarray(z, dtype=float), np.asarray(g, dtype=float)
    grad_sq = float(g @ g)
    b = float(g @ z) - float(beta) * grad_sq / cfg.gamma_bar
    updated = record(win, cfg, g[None, :], np.array([b]), np.array([f_val]),
                          np.array([True]))
    return float(win.level[0]) if updated[0] else None


def count_checks(monkeypatch):
    """The row count of every system `InequalitySystem.check_feasible` decides from now on."""
    checked, check = [], InequalitySystem.check_feasible

    def spy(system, *args, **kwargs):
        checked.append(system.size)
        return check(system, *args, **kwargs)

    monkeypatch.setattr(InequalitySystem, "check_feasible", spy)
    return checked


def window_min_f(win, i=0):
    """Smallest f-value in agent i's window, inf when it is empty."""
    return min(win.window(i)[2], default=math.inf)


class TestCSchedule:
    def test_benchmark_scale(self):
        assert StepsizeConfig().c_value(0) == 0.5

    def test_sqrt(self):
        assert StepsizeConfig(c_scale=1.0).c_value(3) == 2.0

    def test_constant(self):
        s = StepsizeConfig(c_kind="constant", c_scale=1.0)
        assert s.c_value(0) == s.c_value(17) == 1.0

    def test_non_decreasing(self):
        s = StepsizeConfig(c_scale=0.5)
        vals = [s.c_value(k) for k in range(100)]
        assert vals == sorted(vals)
        assert all(v > 0 for v in vals)

    @pytest.mark.parametrize("kind", ["sqrt", "constant"])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.7])
    def test_array_form_has_the_scalar_bits(self, kind, scale):
        s = StepsizeConfig(c_kind=kind, c_scale=scale)
        table = s.c_value(np.arange(10 ** 5))
        assert table.shape == (10 ** 5,)
        assert table.tobytes() == np.array([s.c_value(k) for k in range(10 ** 5)]).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="c-schedule scale must be positive"):
            StepsizeConfig(c_scale=-1.0)
        with pytest.raises(ValueError, match="k must be >= 0"):
            StepsizeConfig(c_scale=1.0).c_value(np.array([3, -1]))
        with pytest.raises(ValueError, match="unknown c-schedule kind 'linear'"):
            StepsizeConfig(c_kind="linear")


class TestConfig:
    def test_gamma_ordering_enforced(self):
        with pytest.raises(ValueError):
            StepsizeConfig(gamma=1.5, gamma_bar=1.0)
        with pytest.raises(ValueError):
            StepsizeConfig(gamma=1.0, gamma_bar=2.0)
        with pytest.raises(ValueError):
            StepsizeConfig(gamma=0.0, gamma_bar=1.0)

    @pytest.mark.parametrize("field, value", [
        ("alpha0", math.nan), ("alpha0", math.inf), ("alpha0", 0.0),
        ("eps_grad", math.nan), ("eps_grad", math.inf), ("eps_grad", -1e-12)])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            StepsizeConfig(**{field: value})

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0])
    def test_schedule_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            StepsizeConfig(c_scale=scale)

    def test_c0_is_schedule_value_at_zero(self):
        cfg = StepsizeConfig(c_scale=0.5)
        assert cfg.c0 == 0.5


class TestRawBeta:
    """The unclamped Polyak value gamma (f - level) / ||g||^2 that `decide_alpha`
    returns beside the stepsizes."""

    def test_direct(self):
        cfg = cfg_unit()
        assert polyak(cfg, 3.0, 1.0, 4.0) == 0.5

    def test_polyak_halving_on_parabola(self):
        # f(x) = x^2/2 at x=2 with level 0: beta = 2/4, step lands at x=1
        cfg = cfg_unit()
        x = 2.0
        beta = polyak(cfg, 0.5 * x * x, 0.0, x * x)
        assert beta == 0.5
        assert x - beta * x == 1.0

    def test_zero_gap(self):
        assert polyak(cfg_unit(), 1.0, 1.0, 4.0) == 0.0

    def test_negative_allowed(self):
        assert polyak(cfg_unit(), 0.0, 1.0, 4.0) < 0.0

    def test_elementwise(self):
        cfg = cfg_unit()
        grad_sq = np.array([4.0, 4.0, 0.0])
        _, beta = decide_alpha(cfg, fresh_cap(cfg, 3), np.array([3.0, 1.0, 5.0]),
                               np.array([1.0, 1.0, 0.0]), grad_sq, grad_sq > 0, cfg.c0)
        assert beta[:2].tolist() == [0.5, 0.0]

    def test_zero_gradient_row_is_inert(self, monkeypatch):
        # agent 0's gradient is exactly zero and agent 1's is below eps_grad; both
        # take the lower clamp, add no row to their windows and hand `record_step`
        # a finite offset, with no floating-point warning on the way
        tiny = QuadraticObjective.least_squares([[1e-14, 0.0]], [1.0])
        flat = QuadraticObjective.least_squares(np.zeros((1, 2)), [0.0])
        steep = QuadraticObjective.quadratic([[2.0, 0.5], [0.5, 3.0]], [-4.0, -2.0])
        inst = ProblemInstance(objectives=[flat, tiny, steep],
                               constraint=ConstraintSet.ball([0.0, 0.0], 4.0),
                               graph=build_graph("triangle", 3))
        cfg, seen = cfg_unit(), []
        call = engine.record_step

        def spy(win, cfg, G, b, F, active, gw):
            seen.append((win, np.vecdot(G, G), b.copy(), active.copy()))
            return call(win, cfg, G, b, F, active, gw)

        monkeypatch.setattr(engine, "record_step", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(inst, Dpsla(stepsize=cfg), 30, seed=0)
        assert len(seen) == 30
        win, grad_sq = seen[0][:2]
        assert grad_sq[0] == 0.0 and 0.0 < grad_sq[1] <= cfg.eps_grad ** 2
        for k, (_, _, b, active) in enumerate(seen):
            assert active.tolist() == [False, False, True]
            assert np.isfinite(b).all()
            assert tr.alpha[k + 1, :2].tolist() == [cfg.beta_floor / cfg.c_value(k)] * 2
        assert win.count[:2].tolist() == [0, 0]
        assert win.window(0)[1].size == win.window(1)[1].size == 0


class TestDecideAlpha:
    def test_base_case_large_beta(self):
        cfg = cfg_unit()
        # hits the c0*alpha0 cap
        assert alpha_for(cfg, fresh_cap(cfg), [10.0], cfg.c_value(0)) == 1.0

    def test_base_case_small_beta(self):
        cfg = cfg_unit()
        # lower clamp c0*alpha0/2
        assert alpha_for(cfg, fresh_cap(cfg), [0.1], cfg.c_value(0)) == 0.5

    def test_zero_gradient_is_lower_clamp(self):
        # the gap would give beta = 10, the cap, but the row is not active
        cfg = cfg_unit()
        alpha, _ = decide_alpha(cfg, fresh_cap(cfg), np.array([10.0]), np.array([0.0]),
                                np.array([1e-30]), np.array([False]), cfg.c_value(0))
        assert alpha == 0.5

    def test_nan_beta_propagates_and_inactive_rows_take_the_floor(self):
        # as max(beta, floor): a NaN beta on an active row gives a NaN stepsize
        # and cap; the inactive rows take the lower clamp whatever F says
        cfg = cfg_unit()
        cap = fresh_cap(cfg, 4)
        alpha, beta = decide_alpha(cfg, cap, np.array([np.nan, 0.7, np.nan, 10.0]),
                                   np.zeros(4), np.ones(4),
                                   np.array([True, True, False, False]), cfg.c_value(0))
        assert np.isnan(alpha[0]) and np.isnan(cap[0]) and np.isnan(beta[0])
        assert alpha[1:].tolist() == [0.7, cfg.beta_floor, cfg.beta_floor]

    def test_three_way_case_split(self):
        # closed-form case analysis of min{max{beta, h}, cap} / c_k
        cfg = cfg_unit()
        for k, cap, beta in [(0, 1.0, 0.2), (0, 1.0, 0.7), (0, 1.0, 5.0),
                             (3, 0.8, 0.2), (3, 0.8, 0.6), (3, 0.8, 2.0)]:
            got = alpha_for(cfg, np.array([cap]), [beta], cfg.c_value(k))[0]
            h = cfg.c0 * cfg.alpha0 / 2
            if beta <= h:
                expected = min(h, cap) / cfg.c_value(k)
            elif beta >= cap:
                expected = cap / cfg.c_value(k)
            else:
                expected = beta / cfg.c_value(k)
            assert got == expected

    @staticmethod
    def where_form(cfg, cap, F, level, grad_sq, active, c_k):
        """`decide_alpha` with each masked row divided by 1, as it was first written."""
        beta = cfg.gamma * (F - level) / np.where(active, grad_sq, 1.0)
        floor = cfg.beta_floor
        inner = np.where(active, np.maximum(beta, floor), floor)
        cap[...] = np.where(cap < inner, cap, inner)
        return cap / c_k, inner if cfg.constraint_beta == "clamped" else beta

    @pytest.mark.parametrize("constraint_beta", ["raw", "clamped"])
    def test_masked_divide_is_the_where_form(self, constraint_beta):
        # a masked row keeps gamma (F - level), the bits of dividing it by 1, and
        # the masked divide raises no warning; the engine passes the config's
        # numbers as 0-d arrays, which must give the same bits as Python floats
        cfg = StepsizeConfig(gamma=0.7, constraint_beta=constraint_beta)
        boxed = SimpleNamespace(gamma=np.array(cfg.gamma), beta_floor=np.array(cfg.beta_floor),
                                constraint_beta=constraint_beta)
        gen = np.random.default_rng(7)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                n = int(gen.integers(1, 20))
                F = gen.standard_normal(n) * 10.0 ** gen.integers(-5, 6, n)
                odd = gen.random(n) < 0.3
                F[odd] = gen.choice(special, odd.sum())
                grad_sq = gen.random(n) * 10.0 ** gen.integers(-5, 6, n)
                grad_sq[gen.random(n) < 0.3] = 0.0
                level = gen.standard_normal(n) * 100.0
                active = grad_sq > cfg.eps_grad ** 2
                cap = fresh_cap(cfg, n) * gen.uniform(0.3, 1.0, n)
                cap[gen.random(n) < 0.1] = np.nan  # the cap after a NaN beta
                c_k = cfg.c_value(int(gen.integers(0, 100)))
                want_cap = cap.copy()
                want = self.where_form(cfg, want_cap, F, level, grad_sq, active, c_k)
                for spec in (cfg, boxed):
                    got_cap = cap.copy()
                    got = decide_alpha(spec, got_cap, F, level, grad_sq, active, c_k)
                    for a, b in zip(got + (got_cap,), want + (want_cap,)):
                        assert a.tobytes() == b.tobytes()

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_corridor_bounds_exact(self, betas):
        cfg = StepsizeConfig()  # benchmark defaults, c = 0.5 sqrt(k+1)
        cap = fresh_cap(cfg)
        prev = None
        for k, beta in enumerate(betas):
            a = alpha_for(cfg, cap, [beta], cfg.c_value(k))[0]
            ck = cfg.c_value(k)
            assert (cfg.c0 * cfg.alpha0 / 2) / ck <= a <= (cfg.c0 * cfg.alpha0) / ck
            if prev is not None:
                assert a <= prev
            prev = a


class TestRecordStep:
    @staticmethod
    def _fresh(level=-500.0, eta_cap=None):
        """One agent's windows in dim 1, on a box wide enough to decide nothing."""
        return LevelWindows([level], 1, (np.array([-100.0]), np.array([100.0])), eta_cap=eta_cap)

    def test_first_constraint_kept(self):
        cfg = cfg_unit()
        win = self._fresh()
        out = step(win, cfg, np.array([0.0]), 10.0, np.array([1.0]), 1.5)
        assert out is None
        assert win.count[0] == 1

    def test_level_update_arithmetic(self):
        # force infeasibility with x <= -1 then -x <= -1 (beta/gamma_bar = 1)
        cfg = cfg_unit()
        win = self._fresh(level=-500.0)
        outs = [step(win, cfg, np.array([0.0]), 10.0, np.array([1.0]), 1.5),
                step(win, cfg, np.array([0.0]), 12.0, np.array([-1.0]), 1.5)]
        assert outs[0] is None
        new = outs[1]
        assert new == pytest.approx(-330.0, abs=1e-12)  # (2/3)(-500) + (1/3)(10)
        assert win.level[0] == new
        assert win.count[0] == 0 and sum(o is not None for o in outs) == 1
        assert window_min_f(win) == math.inf

    def test_strict_increase_when_window_above_level(self):
        cfg = cfg_unit()
        win = self._fresh(level=-5.0)
        step(win, cfg, np.array([0.0]), 3.0, np.array([1.0]), 1.5)
        new = step(win, cfg, np.array([0.0]), 4.0, np.array([-1.0]), 1.5)
        assert new is not None and new > -5.0

    def test_monotone_guard_on_low_window(self):
        # window minimum below the level: the update must not lower the level
        cfg = cfg_unit()
        win = self._fresh(level=100.0)
        step(win, cfg, np.array([0.0]), -50.0, np.array([1.0]), 1.5)
        new = step(win, cfg, np.array([0.0]), -60.0, np.array([-1.0]), 1.5)
        assert new == 100.0

    def test_zero_gradient_contributes_nothing(self):
        # agent 0 has f = 0 everywhere, so its gradient is zero in every round:
        # its window stays empty, its level never moves and its stepsize takes
        # the lower clamp of the corridor
        flat = QuadraticObjective.least_squares(np.zeros((1, 2)), [0.0])
        others = [QuadraticObjective.quadratic([[2.0, 0.5], [0.5, 3.0]], [-4.0, -2.0]),
                  QuadraticObjective.quadratic([[3.0, 0.0], [0.0, 2.0]], [1.0, -3.0], 2.0)]
        inst = ProblemInstance(objectives=[flat] + others,
                               constraint=ConstraintSet.ball([0.0, 0.0], 4.0),
                               graph=build_graph("triangle", 3))
        cfg = cfg_unit()
        tr = run(inst, Dpsla(stepsize=cfg), 40, seed=0)
        assert all(r.level[0] == -500.0 and not r.level_updated[0] for r in tr.records)
        assert any(any(r.level_updated[1:]) for r in tr.records)
        for k, r in enumerate(tr.records[1:]):
            assert r.alpha[0] == cfg.beta_floor / cfg.c_value(k)

    def test_window_min_tracks(self):
        cfg = cfg_unit()
        win = self._fresh()
        step(win, cfg, np.array([0.0]), 7.0, np.array([1.0]), 0.1)
        step(win, cfg, np.array([0.1]), 3.0, np.array([1.0]), 0.1)
        step(win, cfg, np.array([0.2]), 9.0, np.array([1.0]), 0.1)
        assert window_min_f(win) == 3.0

    def test_eta_cap_drops_oldest_and_recomputes_min(self):
        cfg = cfg_unit()
        win = self._fresh(eta_cap=2)
        step(win, cfg, np.array([0.0]), 1.0, np.array([1.0]), 0.01)
        step(win, cfg, np.array([0.0]), 5.0, np.array([1.0]), 0.01)
        step(win, cfg, np.array([0.0]), 6.0, np.array([1.0]), 0.01)
        assert win.count[0] == 2
        assert window_min_f(win) == 5.0  # the f=1 row was evicted

    def test_level_converges_where_no_descent_room_remains(self):
        # f(x) = (x+3)^2 on the box [-2, 2]: the constrained minimum sits at
        # x = -2 with value 1 and an inward gradient. With the iterate parked
        # there every new constraint is box-infeasible, so updates fire each
        # round and the level climbs to the constrained value from below.
        cfg = StepsizeConfig()
        f_star = 1.0
        win = LevelWindows([-500.0], 1, bounds=(np.array([-2.0]), np.array([2.0])))
        z = np.array([-2.0])
        for k in range(200):
            f_val = float((z[0] + 3.0) ** 2)
            g = np.array([2.0 * (z[0] + 3.0)])
            beta = polyak(cfg, f_val, win.level[0], float(g @ g))
            step(win, cfg, z, f_val, g, beta)
            assert win.level[0] < f_star
        assert f_star - win.level[0] < 1e-6

    def test_level_stalls_at_certified_bound_with_descent_room(self):
        # same function evaluated at the far boundary: plenty of descent room
        # remains inside the box, so after a burst of early updates the window
        # stays feasible and the level freezes strictly below the optimum.
        cfg = StepsizeConfig()
        win = LevelWindows([-500.0], 1, bounds=(np.array([-2.0]), np.array([2.0])))
        z = np.array([2.0])
        levels = []
        for k in range(100):
            f_val = float((z[0] + 3.0) ** 2)
            g = np.array([2.0 * (z[0] + 3.0)])
            beta = polyak(cfg, f_val, win.level[0], float(g @ g))
            step(win, cfg, z, f_val, g, beta)
            levels.append(float(win.level[0]))
        assert levels[-1] == levels[50]  # stalled
        assert levels[-1] < 1.0  # still a sound lower bound on the box optimum

    def test_box_infeasible_new_row_skips_the_check(self, monkeypatch):
        # on the box [-1, 1]: round 0 gives both agents x <= 0.5, a one-row
        # window decided with no check at its box minimizer -1; in round 1 agent 0
        # adds x <= -5, which no point of the box satisfies, and agent 1 adds
        # x >= 0.2, which only its witness misses
        checked = count_checks(monkeypatch)
        cfg = cfg_unit()
        win = LevelWindows([-5.0, -5.0], 1, bounds=(np.array([-1.0]), np.array([1.0])))
        active = np.array([True, True])
        updated = record(win, cfg, np.array([[1.0], [1.0]]), np.array([0.5, 0.5]),
                              np.array([1.0, 2.0]), active)
        assert not updated.any() and checked == []
        assert win.witness[:, 0].tolist() == [-1.0, -1.0]
        updated = record(win, cfg, np.array([[1.0], [-1.0]]), np.array([-5.0, -0.2]),
                              np.array([4.0, 3.0]), active)
        assert checked == [2]  # agent 1's window reached the LP, agent 0's did not
        assert updated.tolist() == [True, False]
        assert win.level[0] == pytest.approx((2.0 / 3.0) * -5.0 + (1.0 / 3.0) * 1.0)
        assert win.count.tolist() == [0, 2]
        G_1, b_1, _ = win.window(1)  # a non-empty window keeps a witness
        assert (G_1 @ win.witness[1] - b_1 <= EPS_FEAS).all()

    def test_one_row_update_reads_its_new_row_beside_a_longer_window(self, monkeypatch):
        # on the box [-1, 1]: in round 0 agent 0's row x <= -5 misses the box, so
        # its level rises and its window is reset; agent 1 keeps x <= 0.5 at f = 1.
        # In round 1 agent 0 has a zero gradient (its stored f of -100 is in no
        # window) and agent 1 adds x <= 0.6. In round 2 agent 0's one-row window
        # x <= -5 misses the box again, and agent 1's x >= 0.7 leaves its
        # three-row window infeasible by the LP: both levels rise in one round,
        # agent 0's from f = 7 alone, agent 1's from its oldest row's f = 1
        checked = count_checks(monkeypatch)
        cfg = cfg_unit()
        keep = cfg.gamma / cfg.gamma_bar
        win = LevelWindows([-5.0, -5.0], 1, bounds=(np.array([-1.0]), np.array([1.0])))
        rounds = [([1.0, 1.0], [-5.0, 0.5], [1.0, 1.0], [True, True]),
                  ([0.0, 1.0], [np.nan, 0.6], [-100.0, 5.0], [False, True]),
                  ([1.0, -1.0], [-5.0, -0.7], [7.0, 9.0], [True, True])]
        got = [record(win, cfg, np.array(G)[:, None], np.array(b), np.array(F),
                      np.array(active)).tolist() for G, b, F, active in rounds]
        assert got == [[True, False], [False, False], [True, True]]
        assert checked == [3]  # only agent 1's window reached the LP
        level_0 = keep * -5.0 + (1.0 - keep) * 1.0
        assert win.level.tolist() == [keep * level_0 + (1.0 - keep) * 7.0,
                                      keep * -5.0 + (1.0 - keep) * 1.0]
        assert win.count.tolist() == [0, 0]

    def test_quiet_only_when_every_witness_holds(self):
        # a round is quiet when no active agent's witness falls; updating no
        # level is not enough: a fresh window and a window the LP keeps feasible
        # update none, yet a witness fell in both
        cfg = cfg_unit()
        win = LevelWindows([-5.0, -5.0], 1, bounds=(np.array([-1.0]), np.array([1.0])))
        active, G, F = np.array([True, True]), np.array([[1.0], [1.0]]), np.array([1.0, 2.0])
        rounds = [(G, [0.5, 0.5], active), (G, [0.5, 0.5], active),
                  (np.array([[1.0], [-1.0]]), [0.5, -0.2], active),
                  (np.array([[1.0], [-1.0]]), [0.5, -0.2], active),
                  (G, [-5.0, -5.0], np.array([False, False]))]
        got = [(record(win, cfg, g, np.array(b), F, a).any(), win.quiet)
               for g, b, a in rounds]
        assert got == [(False, False), (False, True), (False, False), (False, True),
                       (False, True)]

    @pytest.mark.parametrize("dim", [1, 3, 17, 81, 100, 200])
    def test_one_row_windows_decided_as_the_check_decides_them(self, dim, monkeypatch):
        # fresh windows, so every active agent's window is its new row: each is
        # decided with no LP by the exact one-row check, at the row's minimizer
        # over the box, which becomes the witness iff it satisfies the row
        rng = np.random.default_rng(dim)
        cfg, n = cfg_unit(), 40
        G, b, lo, hi = one_row_windows(rng, n, dim)
        level, F = rng.uniform(-5.0, 0.0, n), rng.uniform(-1.0, 3.0, n)
        active = rng.random(n) > 0.1
        win = LevelWindows(level, dim, bounds=(lo, hi))
        checked = count_checks(monkeypatch)
        updated = record(win, cfg, G, b, F, active)
        assert checked == []
        keep = cfg.gamma / cfg.gamma_bar
        for i in range(n):
            if not active[i]:
                assert not updated[i] and win.count[i] == 0 and win.level[i] == level[i]
                continue
            x = np.where(G[i] < 0, hi, lo)
            feasible = np.vecdot(G[i], x) - b[i] <= EPS_FEAS
            assert updated[i] == (not feasible)
            assert win.count[i] == feasible
            if feasible:
                assert win.witness[i].tobytes() == x.tobytes()
                assert win.level[i] == level[i]
            else:
                assert win.level[i] == max(level[i], keep * level[i] + (1.0 - keep) * F[i])
        assert 0 < updated.sum() < active.sum()

    def test_one_row_window_met_by_a_box_point_stays_feasible(self):
        # g = (1, -5e-10) on [0, 1000]^2: the box point (0, 1000) satisfies
        # g.x <= -1e-7 by 4e-7, so the window must keep its level, although the
        # second component lies above the LP's reduced-cost cut-off of -1e-9
        win = LevelWindows([-5.0], 2, bounds=(np.zeros(2), np.full(2, 1000.0)))
        updated = record(win, cfg_unit(), np.array([[1.0, -5e-10]]), np.array([-1e-7]),
                              np.array([3.0]), np.array([True]))
        assert updated.tolist() == [False]
        assert win.level.tolist() == [-5.0] and win.count.tolist() == [1]
        assert win.witness.tolist() == [[0.0, 1000.0]]

    def test_a_witness_that_misses_its_new_row_by_a_little_is_replaced(self):
        # round 0 gives x + y <= 0 on the box [-1, 1]^2, a one-row window whose
        # witness is its box minimizer (-1, -1); round 1 adds x >= -1 + 5e-9,
        # which that witness misses by 5e-9, more than EPS_FEAS. The window stays
        # feasible, and its witness must satisfy both rows within EPS_FEAS
        cfg = cfg_unit()
        win = LevelWindows([-5.0], 2, bounds=(np.full(2, -1.0), np.ones(2)))
        active, F = np.array([True]), np.array([1.0])
        record(win, cfg, np.array([[1.0, 1.0]]), np.array([0.0]), F, active)
        assert win.witness.tolist() == [[-1.0, -1.0]]
        updated = record(win, cfg, np.array([[-1.0, 0.0]]), np.array([1.0 - 5e-9]), F, active)
        assert not updated[0] and win.count[0] == 2
        G_0, b_0, _ = win.window(0)
        assert np.max(G_0 @ win.witness[0] - b_0) <= EPS_FEAS
        assert (np.abs(win.witness[0]) <= 1.0).all()

    def test_eta_cap_validated(self):
        # Dpsla's rule: a float or a bool cap is refused at construction
        for eta_cap in (0, 2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match="eta_cap must be None or an integer >= 1"):
                self._fresh(eta_cap=eta_cap)

    def test_box_required(self):
        with pytest.raises(ValueError, match="level windows need a box"):
            LevelWindows([0.0], 1, None)


class TestWindowReplay:
    """`LevelWindows` against a per-agent reference that keeps its own list of
    rows and rebuilds an `InequalitySystem` from it in every round."""

    @pytest.mark.parametrize("eta_cap", [None, 1, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_agent_reference(self, eta_cap, seed):
        _, joint, _ = self.replay(seed, eta_cap, rounds=60)
        # several levels rise in one round, some windows decided by the box and
        # some by the LP; a one-row window that meets the box is never infeasible
        assert (joint >= 3) == (eta_cap != 1)

    @pytest.mark.parametrize("eta_cap", [None, 2, 5])
    def test_quiet_stretches_trim_the_log(self, eta_cap):
        # in rounds 20-59 and 80-139 every point of the box satisfies every new
        # row, so no witness falls and the rounds are only stored; the uncapped
        # windows outgrow the initial rows, the capped ones are shifted out
        still, _, win = self.replay(7, eta_cap, rounds=160,
                                 quiet=lambda k: 20 <= k < 60 or 80 <= k < 140)
        assert still >= 80
        assert (len(win.b) > WINDOW_ROWS) == (eta_cap is None)

    @staticmethod
    def replay(seed, eta_cap, rounds, quiet=lambda k: False):
        """Run random rounds through `record_step` and the reference; returns the
        number of rounds in which no witness fell, the number in which several
        levels rose together, some decided by the box test and some by an LP
        check, and the windows."""
        rng = np.random.default_rng(seed)
        n, dim = 3 + seed % 3, 2 + seed % 2
        still = joint = longest = 0
        box = (-np.ones(dim), np.ones(dim))
        cfg = cfg_unit()
        keep = cfg.gamma / cfg.gamma_bar
        level = rng.uniform(-5.0, 0.0, n)
        win = LevelWindows(level, dim, bounds=box, eta_cap=eta_cap)
        windows = [[] for _ in range(n)]  # (round, g, b, f) rows, oldest first
        for k in range(rounds):
            G = rng.normal(size=(n, dim))
            b = rng.uniform(-2.5, 1.0, n)
            F = rng.uniform(-1.0, 3.0, n)
            active = rng.random(n) > 0.2  # zero-gradient rounds land mid-window
            if quiet(k):
                b = np.abs(G).sum(1) + 1.0
            G[~active], b[~active] = 0.0, np.nan  # zero-gradient rows; their b is ignored
            # and their F must move no level although a fallen round computes a
            # proposal for every agent: +inf, -inf or NaN, picked without a draw
            idle = np.flatnonzero(~active)
            F[idle] = np.array([np.inf, -np.inf, np.nan])[(k + idle) % 3]
            held, witness = win.count > 0, win.witness.copy()
            updated = record(win, cfg, G, b, F, active)
            still += bool(held[active].all() and (win.count > 0)[active].all()
                          and np.array_equal(witness, win.witness))
            misses_box = np.minimum(G * box[0], G * box[1]).sum(1) - b > EPS_FEAS
            joint += bool(updated.sum() >= 2 and (updated & misses_box).any()
                          and (updated & ~misses_box).any())
            for i in np.flatnonzero(active):
                rows = windows[i]
                rows.append((k, G[i].copy(), float(b[i]), float(F[i])))
                if eta_cap is not None:
                    del rows[:-eta_cap]
                system = InequalitySystem(dim, bounds=box)
                for _, g, b_i, _ in rows:
                    system.add_constraint(HalfSpace(a=g, b=b_i))
                infeasible = not system.check_feasible().feasible
                assert updated[i] == infeasible, (k, i)
                if infeasible:
                    proposed = keep * level[i] + (1.0 - keep) * min(f for *_, f in rows)
                    level[i] = max(level[i], proposed)
                    rows.clear()
            assert not updated[~active].any()
            assert np.array_equal(win.count[active] == 0, updated[active])
            assert win.level.tolist() == level.tolist()
            for i, rows in enumerate(windows):
                G_i, b_i, F_i = win.window(i)
                assert G_i.shape == (len(rows), dim)
                assert all(np.array_equal(g, r[1]) for g, r in zip(G_i, rows))
                assert b_i.tolist() == [r[2] for r in rows] and F_i.tolist() == [r[3] for r in rows]
                # only the newest row of a window can miss the box
                box_min = np.minimum(G_i * box[0], G_i * box[1]).sum(1)
                assert (box_min[:-1] - b_i[:-1] <= EPS_FEAS).all(), (k, i)
                # every non-empty window keeps a witness
                assert all(g @ win.witness[i] - b <= EPS_FEAS for g, b in zip(G_i, b_i))
            # the stored rounds reach back to the oldest row of every window, and
            # their arrays grow with the longest window span, not with the rounds
            span = max((k + 1 - rows[0][0] for rows in windows if rows), default=0)
            longest = max(longest, span)
            assert span <= win.rows <= len(win.b) <= max(WINDOW_ROWS, 4 * longest), k
        return still, joint, win
