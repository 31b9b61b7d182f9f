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


class TestHalfSpace:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            hs([0.0, 0.0], 1.0)

    def test_violation(self):
        h = hs([1.0, 0.0], 2.0)
        assert h.violation(np.array([3.0, 0.0])) == 1.0


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
                assert max(h.violation(v.point) for h in sys.constraints) <= EPS_FEAS

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
            if abs(ref.fun) < 1e-6 or abs(scale * ref.fun) < 10 * EPS_FEAS:
                continue  # marginal
            assert verdict.feasible == (ref.fun < 0), \
                f"highs={ref.fun}, scale={scale}, lp={verdict.phase1_value}, shape={A.shape}"
            checked += 1
            feasible += verdict.feasible
        assert checked >= 50 and 10 <= feasible <= checked - 10


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

    def test_random_windows_met_at_the_box_minimizer_are_feasible(self):
        # 500 windows in dim 1-200: row 0 from `one_row_windows`, row 1 holding
        # on the whole box by 1e-12 to 1. A window whose row-0 box minimizer
        # passes the verdict's own test max(A x - b) <= EPS_FEAS is feasible.
        # The windows are classified by that test, not by the exact margin:
        # at |g| near 1e4 rounding alone puts some margin-0 rows at a few 1e-9.
        # Unweighted costs against 1e-9 give 34 false verdicts here, weighted
        # costs against 1e-9 give 12
        rng = np.random.default_rng(0)
        met = 0
        for _ in range(500):
            dim = int(rng.integers(1, 201))
            G, b, lo, hi = one_row_windows(rng, 1, dim)
            g = rng.normal(size=dim) * 10.0 ** rng.uniform(-4.0, 4.0)
            A = np.vstack([G, g])
            b = np.append(b, np.maximum(g * lo, g * hi).sum() + 10.0 ** rng.uniform(-12.0, 0.0))
            if np.max(A @ np.where(G[0] < 0, hi, lo) - b) > EPS_FEAS:
                continue
            system = InequalitySystem(dim, bounds=(lo, hi))
            system.load(A, b)
            verdict = system.check_feasible()
            assert verdict.feasible, f"dim {dim}, phase-1 value {verdict.phase1_value}"
            met += 1
        assert met >= 300  # 318 with numpy 2.4


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
