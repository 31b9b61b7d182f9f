import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dpsla import feasibility
from dpsla.engine import Dpsla, run
from dpsla.feasibility import (EPS_FEAS, HalfSpace, InequalitySystem, SolverStallError,
                               _phase1_lp)
from dpsla.problem import gen_triangle_demo

from .util import brute_force_margin, one_row_windows, random_halfspace_system


def hs(a, b):
    return HalfSpace(a=np.asarray(a, dtype=float), b=float(b))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: hs([1.0, 0.0], math.inf), "right-hand side must be finite", id="b-inf"),
    pytest.param(lambda: hs([1.0, 0.0], math.nan), "right-hand side must be finite", id="b-nan"),
    pytest.param(lambda: InequalitySystem(0), "dim must be >= 1", id="dim-0"),
    pytest.param(lambda: InequalitySystem(2, bounds=([0.0, 1.0], [1.0, 1.0])),
                 "bounds must satisfy lo < hi componentwise", id="flat-box"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


class TestHalfSpace:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            hs([0.0, 0.0], 1.0)

    def test_violation(self):
        # the system keeps the half-space's a and b as given: its raw violation
        # a.x - b reads off the stored arrays
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, 0.0], 2.0))
        assert (sys._A @ np.array([3.0, 0.0]) - sys._b).tolist() == [1.0]


class TestAddConstraint:
    def test_grows_and_single_feasible(self):
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, 1.0], 5.0))
        assert sys.size == 1
        assert sys.check_feasible().feasible

    def test_witness_invalidated(self):
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, 0.0], 10.0))
        sys.check_feasible()
        w = sys.witness
        sys.add_constraint(hs([-1.0, 0.0], -(w[0] + 1.0)))  # x1 >= w+1 violates witness
        assert sys.witness is None

    def test_dimension_mismatch(self):
        sys = InequalitySystem(2)
        with pytest.raises(ValueError):
            sys.add_constraint(hs([1.0], 0.0))


class TestCheckFeasible:
    def test_opposing_pair_infeasible(self):
        sys = InequalitySystem(1)
        sys.add_constraint(hs([1.0], -1.0))   # x <= -1
        sys.add_constraint(hs([-1.0], -1.0))  # x >= 1
        v = sys.check_feasible()
        assert not v.feasible
        assert abs(v.phase1_value - 1.0) <= 1e-9  # min over x of max(x+1, 1-x) = 1

    def test_halfplane_feasible(self):
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, 0.0], 0.0))
        v = sys.check_feasible()
        assert v.feasible
        assert v.point[0] <= EPS_FEAS

    def test_origin_systems_feasible(self):
        gen = np.random.default_rng(0)
        for _ in range(30):
            sys = InequalitySystem(3)
            for _ in range(6):
                a = gen.normal(size=3)
                sys.add_constraint(hs(a, abs(gen.normal()) + 0.01))  # b >= 0 keeps origin inside
            v = sys.check_feasible()
            assert v.feasible

    def test_witness_satisfies_all(self):
        gen = np.random.default_rng(1)
        for trial in range(50):
            sys = InequalitySystem(2)
            for h in random_halfspace_system(gen, int(gen.integers(2, 9))):
                sys.add_constraint(h)
            v = sys.check_feasible()
            if v.feasible:
                assert np.max(sys._A @ v.point - sys._b) <= EPS_FEAS

    def test_tiny_normals_feasible(self):
        # a slack slope of |a| per unit of x sits below the simplex tolerances
        # unless rows are scaled first; the verdict must not depend on |a|
        for scale in (1e-11, 1e-6, 1.0, 1e3):
            sys = InequalitySystem(2)
            sys.add_constraint(hs([scale, 0.0], -1000.0 * scale))  # x1 <= -1000
            sys.add_constraint(hs([0.0, -scale], -1000.0 * scale))  # x2 >= 1000
            v = sys.check_feasible()
            assert v.feasible, scale
            assert v.point[0] <= -1000.0 and v.point[1] >= 1000.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            InequalitySystem(2).check_feasible()


class TestOracleAgreement:
    def test_random_systems_match_brute_force(self):
        gen = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            halfspaces = random_halfspace_system(gen, int(gen.integers(1, 11)))
            margin = brute_force_margin(halfspaces)
            if abs(margin) < 1e-5:
                continue  # oracle-marginal
            sys = InequalitySystem(2)
            for h in halfspaces:
                sys.add_constraint(h)
            verdict = sys.check_feasible()
            assert verdict.feasible == (margin <= 1e-6), \
                f"margin={margin}, lp={verdict.phase1_value}"
            checked += 1
        assert checked > 150


def random_window(gen):
    """A random window in dim 2-32 with 1-500 rows, row norms from 1e-6 to 1e3
    and up to half its rows nearly parallel to another row; half the windows
    come with a box. The rows before scaling are returned for the reference."""
    dim = int(gen.integers(2, 33))
    m = int(gen.integers(1, 501))
    center = gen.normal(scale=3.0, size=dim)
    A = gen.normal(size=(m, dim))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    pairs = int(gen.integers(0, m // 2 + 1))
    A[:pairs] = A[m - pairs:] + gen.normal(scale=1e-7, size=(pairs, dim))
    b = A @ center + gen.uniform(-gen.choice([0.0, 0.05, 1.0]), 1.0, size=m)
    row_scale = 10.0 ** gen.uniform(-1.0, 1.0, size=m)
    A *= row_scale[:, None]
    b *= row_scale
    bounds = None
    if gen.random() < 0.5:
        half = gen.uniform(0.5, 5.0, size=dim)
        mid = center + gen.uniform(-1.0, 1.0, size=dim) * half
        bounds = (mid - half, mid + half)
    return A, b, bounds, 10.0 ** gen.uniform(-5.0, 2.0)


class TestHighsAgreement:
    def test_random_windows_match_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        gen = np.random.default_rng(11)
        checked = feasible = 0
        for _ in range(60):
            A, b, bounds, scale = random_window(gen)
            m, dim = A.shape
            # reference: min s s.t. A x - s <= b on the unscaled rows, s >= -1
            box = [(None, None)] * dim if bounds is None else list(zip(*bounds))
            ref = linprog(np.r_[np.zeros(dim), 1.0], A_ub=np.hstack([A, -np.ones((m, 1))]),
                          b_ub=b, bounds=box + [(-1.0, None)], method="highs")
            assert ref.status == 0, ref.message
            A, b = scale * A, scale * b
            sys = InequalitySystem(dim, bounds=bounds)
            for a, b_t in zip(A, b):
                sys.add_constraint(HalfSpace(a=a, b=float(b_t)))
            verdict = sys.check_feasible()
            if verdict.feasible:
                assert np.max(A @ verdict.point - b) <= EPS_FEAS
                if bounds is not None:
                    assert np.all(verdict.point >= bounds[0] - EPS_FEAS)
                    assert np.all(verdict.point <= bounds[1] + EPS_FEAS)
            # a marginal draw would make the reference's verdict moot; none of the 60
            # is (the smallest |optimum| is 1.15e-3), and a new one fails here
            assert abs(ref.fun) >= 1e-6 and abs(scale * ref.fun) >= 10 * EPS_FEAS, \
                f"marginal draw: highs={ref.fun}, scale={scale}, shape={A.shape}"
            assert verdict.feasible == (ref.fun < 0), \
                f"highs={ref.fun}, scale={scale}, lp={verdict.phase1_value}, shape={A.shape}"
            checked += 1
            feasible += verdict.feasible
        assert checked == 60 and 10 <= feasible <= checked - 10


def _exact(values) -> list:
    return [Fraction(float(v)) for v in values]


class TestTriangleVerdictAudit:
    """Every LP verdict of the triangle under `Dpsla()` at T=500, certified in
    exact rational arithmetic on the rows, box and witness the LP saw.

    A feasible verdict: its witness lies in the box and breaks no row by more
    than EPS_FEAS. An infeasible one: HiGHS's duals y >= 0 of the unit-scaled
    Phase-I LP give weights w_t = y_t / |a_t| >= 0 with
    min over the box of (sum w_t a_t).x - sum w_t b_t > EPS_FEAS sum w_t, so at
    every point of the box some row is broken by more than EPS_FEAS. Any
    nonnegative weights make a valid certificate, so w need not be exact."""

    @staticmethod
    def verdicts(monkeypatch, eta_cap) -> list:
        """(A, b, bounds, verdict, dump) of each check_feasible call of the run."""
        seen, check = [], InequalitySystem.check_feasible

        def recorded(system):
            verdict = check(system)
            seen.append((system._A.copy(), system._b.copy(), system.bounds, verdict,
                         system.dump()))
            return verdict

        monkeypatch.setattr(InequalitySystem, "check_feasible", recorded)
        run(gen_triangle_demo(), Dpsla(eta_cap=eta_cap), 500, seed=0)
        return seen

    @staticmethod
    def certified(linprog, A, b, bounds, verdict) -> bool:
        lo, hi = _exact(bounds[0]), _exact(bounds[1])
        rows, rhs, eps = [_exact(a) for a in A], _exact(b), Fraction(EPS_FEAS)
        if verdict.feasible:
            x = _exact(verdict.point)
            return (all(l <= xj <= h for l, xj, h in zip(lo, x, hi))
                    and max(sum(map(Fraction.__mul__, a, x)) - b_t
                            for a, b_t in zip(rows, rhs)) <= eps)
        m, dim = A.shape
        norms = np.linalg.norm(A, axis=1)
        lp = linprog(np.r_[np.zeros(dim), 1.0],
                     A_ub=np.hstack([A / norms[:, None], -np.ones((m, 1))]), b_ub=b / norms,
                     bounds=[*zip(*bounds), (None, None)], method="highs")
        assert lp.status == 0, lp.message
        w = [max(Fraction(float(-y)), Fraction(0)) / Fraction(float(nrm))
             for y, nrm in zip(lp.ineqlin.marginals, norms)]
        g = [sum(w_t * a[j] for w_t, a in zip(w, rows)) for j in range(dim)]
        low = sum(gj * (l if gj > 0 else h) for gj, l, h in zip(g, lo, hi))
        return low - sum(map(Fraction.__mul__, w, rhs)) > eps * sum(w)

    @pytest.mark.parametrize("eta_cap, checks, infeasible", [(None, 17, 12), (3, 17, 12),
                                                             (1, 0, 0)])
    def test_every_verdict_is_certified(self, monkeypatch, eta_cap, checks, infeasible):
        linprog = pytest.importorskip("scipy.optimize").linprog
        seen = self.verdicts(monkeypatch, eta_cap)
        assert (len(seen), sum(not v.feasible for *_, v, _ in seen)) == (checks, infeasible)
        for number, (A, b, bounds, verdict, dump) in enumerate(seen):
            assert self.certified(linprog, A, b, bounds, verdict), \
                f"check {number}, feasible={verdict.feasible}:\n{dump}"


def boxed_windows(count: int = 60) -> list:
    """(A, b, bounds) of the first `count` boxed draws of `random_window` from
    the seed of `TestHighsAgreement`, scaled as it scales them."""
    gen, windows = np.random.default_rng(11), []
    while len(windows) < count:
        A, b, bounds, scale = random_window(gen)
        if bounds is not None:
            windows.append((scale * A, scale * b, bounds))
    return windows


class TestBoxedWindowAudit:
    """The LP's verdicts on boxed `random_window` draws (dim 2-32, up to 500
    rows, nearly parallel rows, scales 1e-5 to 1e2), certified in exact
    arithmetic with no window skipped. Tier-1 certifies every third
    of the 60 draws; `python tests/window_audit.py` certifies all of them."""

    @staticmethod
    def verdict(A, b, bounds):
        system = InequalitySystem(A.shape[1], bounds=bounds)
        system.load(A, b)
        return system.check_feasible()

    def test_every_third_draw_is_certified(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        feasible = []
        for A, b, bounds in boxed_windows()[::3]:
            verdict = self.verdict(A, b, bounds)
            assert TestTriangleVerdictAudit.certified(linprog, A, b, bounds, verdict), \
                f"shape {A.shape}, feasible={verdict.feasible}, phase-1 value {verdict.phase1_value}"
            feasible.append(verdict.feasible)
        assert 5 <= sum(feasible) <= len(feasible) - 5  # 10 feasible, 10 infeasible


class TestMonotonicity:
    def test_adding_never_unbreaks_infeasibility(self):
        gen = np.random.default_rng(3)
        for _ in range(60):
            sys = InequalitySystem(2)
            seen_infeasible = False
            for h in random_halfspace_system(gen, 10):
                sys.add_constraint(h)
                feasible = sys.check_feasible().feasible
                if seen_infeasible:
                    assert not feasible
                seen_infeasible = seen_infeasible or not feasible


class TestBoundedSystems:
    def test_single_constraint_can_be_infeasible_in_box(self):
        bounds = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        sys = InequalitySystem(2, bounds=bounds)
        sys.add_constraint(hs([1.0, 1.0], -5.0))  # x1+x2 <= -5 impossible in the unit box
        v = sys.check_feasible()
        assert not v.feasible
        assert v.phase1_value > 1.0

    def test_box_confines_witness(self):
        bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        sys = InequalitySystem(2, bounds=bounds)
        sys.add_constraint(hs([1.0, 0.0], 0.5))
        v = sys.check_feasible()
        assert v.feasible
        assert np.all(v.point >= bounds[0] - 1e-9) and np.all(v.point <= bounds[1] + 1e-9)

    def test_joint_infeasibility_inside_box(self):
        bounds = (np.array([-1.0]), np.array([1.0]))
        sys = InequalitySystem(1, bounds=bounds)
        sys.add_constraint(hs([1.0], -0.5))   # x <= -0.5, fine alone
        assert sys.check_feasible().feasible
        sys.add_constraint(hs([-1.0], -0.5))  # x >= 0.5 conflicts within the box
        assert not sys.check_feasible().feasible


class TestPhase1Vertex:
    """The LP ends at the box vertex a deep one-row system reaches, above its slack floor."""

    @pytest.mark.parametrize("dim", [1, 2, 81, 82, 100, 200])
    def test_deep_vertex_stays_above_the_floor(self, dim):
        # -x_1 - ... - x_dim <= 100 sqrt(dim) on [0, 100]^dim: the unit row's
        # slack at the vertex x = hi is -(sqrt(dim) + 1) 100, the lowest a box
        # of this size allows, and the LP must still reach that vertex
        G, b = -np.ones((1, dim)), np.array([100.0 * np.sqrt(dim)])
        lo, hi = np.zeros(dim), np.full(dim, 100.0)
        s, x = _phase1_lp(G, b, lo, hi)
        assert x.tolist() == hi.tolist()
        assert s == np.max(G @ hi - b)


class TestTwoRowWindow:
    """Feasible windows of two rows that an LP stopping on unweighted reduced
    costs below 1e-9 calls infeasible: a cost that the unit-scaled rows price
    below that cut-off can still move the raw rows, which the verdict reads,
    by more than EPS_FEAS.

    Row 0 is a `tests/util.one_row_windows` row (dim 2) that meets the box at
    its corner hi; row 1 holds on the whole box. The row's x_2 coefficient is
    about -2.3e-11 of its norm, within an unweighted cost tolerance of 1e-9,
    with which the LP ends with x_2 at lo, where row 0 is violated by 5.5e-8.
    """

    A = np.array([[-584.8457234440508, -1.3569314442603039e-08],
                  [0.04464902585188473, -1.0114974569203767]])
    b = np.array([-2191.371454121958, 1.2339919334315979])
    lo = np.array([0.08220097529707716, -0.10943964154719017])
    hi = np.array([3.7469222501340496, 4.7951261485701036])

    def test_the_box_corner_meets_both_rows(self):
        assert np.max(self.A @ self.hi - self.b) < -EPS_FEAS  # -1.1e-8

    def test_check_finds_the_window_feasible(self):
        system = InequalitySystem(2, bounds=(self.lo, self.hi))
        system.load(self.A, self.b)
        assert system.check_feasible().feasible

    @staticmethod
    @functools.cache
    def random_windows() -> list:
        """(A, b, bounds, met, verdict) of 500 windows in dim 1-200: row 0 from
        `one_row_windows`, row 1 holding on the whole box by 1e-12 to 1; `met`
        says whether row 0's box minimizer passes the verdict's own test
        max(A x - b) <= EPS_FEAS. Solved once for the tests that read them."""
        rng = np.random.default_rng(0)
        windows = []
        for _ in range(500):
            dim = int(rng.integers(1, 201))
            G, b, lo, hi = one_row_windows(rng, 1, dim)
            g = rng.normal(size=dim) * 10.0 ** rng.uniform(-4.0, 4.0)
            A = np.vstack([G, g])
            b = np.append(b, np.maximum(g * lo, g * hi).sum() + 10.0 ** rng.uniform(-12.0, 0.0))
            met = np.max(A @ np.where(G[0] < 0, hi, lo) - b) <= EPS_FEAS
            system = InequalitySystem(dim, bounds=(lo, hi))
            system.load(A, b)
            windows.append((A, b, (lo, hi), met, system.check_feasible()))
        return windows

    def test_random_windows_met_at_the_box_minimizer_are_feasible(self):
        # A window whose row-0 box minimizer passes the verdict's own test is
        # feasible. The windows are classified by that test, not by the exact
        # margin: at |g| near 1e4 rounding alone puts some margin-0 rows at a
        # few 1e-9. Unweighted costs against 1e-9 give 34 false verdicts here,
        # weighted costs against 1e-9 give 12
        met = 0
        for A, _, _, is_met, verdict in self.random_windows():
            if is_met:
                assert verdict.feasible, f"dim {A.shape[1]}, phase-1 value {verdict.phase1_value}"
                met += 1
        assert met >= 300  # 318 with numpy 2.4

    def test_random_window_verdicts_are_certified(self):
        # every feasible verdict and every ninth infeasible one, certified in
        # exact arithmetic; an infeasible one costs a HiGHS solve, and all 182
        # certify too (318 feasible and 182 infeasible with numpy 2.4)
        linprog = pytest.importorskip("scipy.optimize").linprog
        windows = self.random_windows()
        feasible = [w for w in windows if w[-1].feasible]
        infeasible = [w for w in windows if not w[-1].feasible]
        assert len(feasible) >= 300 and len(infeasible) >= 150
        for A, b, bounds, _, verdict in feasible + infeasible[::9]:
            assert TestTriangleVerdictAudit.certified(linprog, A, b, bounds, verdict), \
                f"dim {A.shape[1]}, feasible={verdict.feasible}, phase-1 value {verdict.phase1_value}"


class TestNearlyParallelWindow:
    """The window of `reproduce main --seed 3020090` that stalled the two-phase
    simplex this LP replaced: six rows in dim 6 with norms 0.7389-0.7399, two
    of them parallel to within 1 - |cos| = 2e-9, in a box of side 10. The
    window is feasible: at the corner lo every row holds by 0.0137 or more."""

    A = np.array([
        [0.198475024207231, 0.33130973210269277, 0.17069631656796877, 0.34123579689476224,
         0.15521957779391715, 0.4781493581132339],
        [0.19839542644691008, 0.3312288868542066, 0.17062563008127, 0.34111322626759966,
         0.1551858056437111, 0.4780450032311525],
        [0.19831655670596168, 0.3311487810545592, 0.17055559010854915, 0.3409917767049008,
         0.15515234239209483, 0.4779416028357762],
        [0.19823867885859772, 0.3310696830219803, 0.170486430969073, 0.34087185462472963,
         0.15511930016584216, 0.4778395033918041],
        [0.19816188952672434, 0.3309916910226138, 0.17041823846198798, 0.3407536088484438,
         0.15508672003132395, 0.477738831791554],
        [0.19809344263794776, 0.3309219829575683, 0.17035746253915587, 0.34064815744436616,
         0.15505757587573013, 0.477648779408923]])
    b = np.array([28.650281043548596, 28.642296323021654, 28.634387621848383,
                  28.626581339296774, 28.618887059734124, 28.61200881027635])
    lo = np.array([-19.162415458244304, 100.75990620234693, 100.86325469136138,
                   -76.68020962634316, -18.021903646893286, 22.575619358632384])
    hi = np.array([-9.162415458244302, 110.75990620234693, 110.86325469136138,
                   -66.68020962634316, -8.021903646893286, 32.57561935863238])

    def test_phase1_lp_finds_the_window_feasible_in_the_box(self):
        U = self.A / np.linalg.norm(self.A, axis=1)[:, None]
        assert np.max(np.abs((U @ U.T)[~np.eye(6, dtype=bool)])) > 1.0 - 1e-8
        s, x = _phase1_lp(self.A, self.b, self.lo, self.hi)
        assert s == np.max(self.A @ x - self.b)
        assert s < -0.01  # -0.01367; HiGHS's unit-scaled optimum is -0.0185
        assert np.all(self.lo <= x) and np.all(x <= self.hi)

    def test_check_verdict_is_certified(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        system = InequalitySystem(6, bounds=(self.lo, self.hi))
        system.load(self.A, self.b)
        verdict = system.check_feasible()
        assert verdict.feasible
        assert TestTriangleVerdictAudit.certified(linprog, self.A, self.b, (self.lo, self.hi),
                                                  verdict)


class TestReset:
    """Loading an empty window resets a system."""

    @staticmethod
    def clear(sys):
        sys.load(np.empty((0, sys.dim)), np.empty(0))

    def test_reset_clears(self):
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, 0.0], -1.0))
        sys.add_constraint(hs([-1.0, 0.0], -1.0))
        assert not sys.check_feasible().feasible
        self.clear(sys)
        assert sys.size == 0 and sys.witness is None
        sys.add_constraint(hs([1.0, 0.0], 0.0))
        assert sys.check_feasible().feasible

    def test_reset_idempotent(self):
        sys = InequalitySystem(2)
        self.clear(sys)
        self.clear(sys)
        assert sys.size == 0

    def test_reset_keeps_bounds(self):
        bounds = (np.zeros(1), np.ones(1))
        sys = InequalitySystem(1, bounds=bounds)
        sys.add_constraint(hs([1.0], -5.0))
        assert not sys.check_feasible().feasible
        self.clear(sys)
        sys.add_constraint(hs([1.0], -5.0))
        assert not sys.check_feasible().feasible  # box still applies

    def test_load_replaces_rows_and_witness(self):
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, 0.0], 10.0))
        assert sys.check_feasible().feasible and sys.witness is not None
        sys.load(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
        assert sys.witness is None
        assert sys.dump() == "1 0 | -1\n-1 0 | -1\n"
        assert not sys.check_feasible().feasible


class TestStall:
    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(feasibility, "_PIVOT_CAP_FACTOR", 0)
        for bounds in (None, (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))):
            sys = InequalitySystem(2, bounds=bounds)
            sys.add_constraint(hs([1.0, 1.0], 0.5))
            with pytest.raises(SolverStallError, match="exceeded 0 pivots"):
                sys.check_feasible()

    def test_run_names_round_agent_and_window(self, monkeypatch):
        # the triangle's windows reach the LP with two rows or more; a one-row
        # window is decided without it
        monkeypatch.setattr(feasibility, "_PIVOT_CAP_FACTOR", 0)
        with pytest.raises(SolverStallError,
                           match=r"round 3, agent 1, window of 2 rows: .*exceeded 0 pivots"):
            run(gen_triangle_demo(), Dpsla(), 50, seed=0)


class TestDump:
    def test_dump_format(self):
        sys = InequalitySystem(2)
        sys.add_constraint(hs([1.0, -2.0], 3.0))
        assert sys.dump() == "1 -2 | 3\n"
