import json
import math
import re

import numpy as np
import pytest

from dpsla import numerics, problem
from dpsla.numerics import Rng
from dpsla.problem import (ConstraintSet, OracleResult, ProblemInstance, QuadraticObjective,
                           estimate_lipschitz, gen_paper_instance, gen_triangle_demo,
                           minimize_local, solve_reference)
from dpsla.topology import Graph, build_graph

from .util import mixed_instance

X_STAR_DEMO = np.array([6 / 215, 72 / 215])


def _fd_grad(obj, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (obj.eval(x + e) - obj.eval(x - e)) / (2 * h)
    return g


def _singular(*args):
    raise numerics.SingularMatrixError("pivot 0.000e+00 at column 0 below 1e-12")


@pytest.mark.parametrize("patch, call, error, message", [
    pytest.param({}, lambda: gen_paper_instance(n=1, rng=Rng(0)), ValueError,
                 "need n >= 2, dim >= 1, rows_per_agent >= 1", id="n"),
    pytest.param({}, lambda: gen_paper_instance(dim=0, rng=Rng(0)), ValueError,
                 "need n >= 2, dim >= 1, rows_per_agent >= 1", id="dim"),
    pytest.param({}, lambda: gen_paper_instance(rows_per_agent=0, rng=Rng(0)), ValueError,
                 "need n >= 2, dim >= 1, rows_per_agent >= 1", id="rows"),
    # no paper draw makes the normal system singular: its 1e-10 ridge keeps it SPD
    pytest.param({"solve_spd": _singular}, lambda: gen_paper_instance(rng=Rng(0)),
                 problem.GenerationError, "aggregate normal system is singular: pivot "
                 "0.000e+00 at column 0 below 1e-12", id="singular"),
    # the oracle converges well within ORACLE_MAX_ITER on every instance here
    pytest.param({"ORACLE_MAX_ITER": 1}, lambda: solve_reference(gen_triangle_demo(), 1e-11),
                 problem.OracleConvergenceError,
                 "projected gradient did not reach tol 1e-11 within 1 iterations", id="oracle"),
])
def test_input_and_failure_checks(monkeypatch, patch, call, error, message):
    for name, value in patch.items():
        monkeypatch.setattr(problem, name, value)
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


class TestObjective:
    def test_eval_least_squares(self):
        obj = QuadraticObjective.least_squares(np.eye(2), [1.0, 2.0])
        assert obj.eval([0.0, 0.0]) == 2.5

    def test_eval_at_minimizer(self):
        gen = np.random.default_rng(0)
        A = gen.normal(size=(5, 3))
        b = gen.normal(size=5)
        obj = QuadraticObjective.least_squares(A, b)
        x_ls, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
        assert np.linalg.norm(obj.grad(x_ls)) < 1e-10
        assert obj.eval(x_ls) <= obj.eval(x_ls + 0.1)

    def test_demo_f3_constant_term(self):
        f3 = gen_triangle_demo().objectives[2]
        assert f3.eval([0.0, 0.0]) == 2.0

    def test_grad_least_squares(self):
        obj = QuadraticObjective.least_squares(np.eye(2), [1.0, 2.0])
        assert np.allclose(obj.grad([0.0, 0.0]), [-1.0, -2.0])

    def test_grad_demo_f1(self):
        f1 = gen_triangle_demo().objectives[0]
        assert np.allclose(f1.grad([0.0, 0.0]), [-4.0, -2.0])

    def test_grad_matches_finite_differences(self):
        gen = np.random.default_rng(4)
        objs = [
            QuadraticObjective.least_squares(gen.normal(size=(3, 4)), gen.normal(size=3)),
            QuadraticObjective.quadratic(np.diag([1.0, 2.0, 3.0, 4.0]), gen.normal(size=4), 1.5),
        ]
        for obj in objs:
            for _ in range(10):
                x = gen.normal(size=4)
                g = obj.grad(x)
                fd = _fd_grad(obj, x)
                assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_indefinite_quadratic_rejected(self):
        with pytest.raises(ValueError):
            QuadraticObjective.quadratic([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])

    def test_dimension_mismatch(self):
        obj = QuadraticObjective.least_squares(np.eye(2), [1.0, 2.0])
        with pytest.raises(ValueError):
            obj.eval([1.0, 2.0, 3.0])


class TestConstraintSet:
    def test_box_clamp(self):
        cs = ConstraintSet.box([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(cs.project([5.0, -1.0]), [1.0, 0.0])

    def test_ball_radial(self):
        cs = ConstraintSet.ball([0.0, 0.0], 4.0)
        assert np.allclose(cs.project([8.0, 0.0]), [4.0, 0.0])

    def test_interior_identity(self):
        cs = ConstraintSet.ball([0.0, 0.0], 4.0)
        assert np.allclose(cs.project([0.5, -0.5]), [0.5, -0.5])

    def test_idempotent(self):
        gen = np.random.default_rng(9)
        sets = [ConstraintSet.box([-1.0, -2.0], [2.0, 1.0]), ConstraintSet.ball([1.0, 0.0], 2.0)]
        for cs in sets:
            for _ in range(50):
                y = gen.normal(scale=5.0, size=2)
                p = cs.project(y)
                assert np.allclose(cs.project(p), p, atol=1e-15)
                assert cs.contains(p)

    def test_nonexpansive(self):
        gen = np.random.default_rng(10)
        sets = [ConstraintSet.box([-1.0, -2.0], [2.0, 1.0]), ConstraintSet.ball([1.0, 0.0], 2.0)]
        for cs in sets:
            for _ in range(100):
                u = gen.normal(scale=5.0, size=2)
                v = gen.normal(scale=5.0, size=2)
                lhs = np.linalg.norm(cs.project(u) - cs.project(v))
                assert lhs <= np.linalg.norm(u - v) + 1e-12

    # (center, radius, distance past the sphere that must be rejected)
    @pytest.mark.parametrize("center, radius, out", [
        ([0.0, 0.0], 4.0, 4e-6), ([0.0, 0.0], 1e3, 1e-3), ([0.0, 0.0], 1e6, 1.0),
        ([0.0, 0.0], 1e9, 1e3), ([1e6, -1e6], 1.0, 1e-4)])
    def test_ball_membership_slack_scales_with_the_ball(self, center, radius, out):
        # rows projected onto the sphere carry a rounding error of the ball's size,
        # which an absolute slack of 1e-12 rejected for about a third of them at r=1e6
        cs = ConstraintSet.ball(center, radius)
        gen = np.random.default_rng(7)
        U = gen.normal(size=(2000, 2))
        U /= np.linalg.norm(U, axis=1)[:, None]
        P = cs._project_rows(cs.center() + 3.0 * radius * U)
        assert cs._contains_rows(P).all()
        assert not cs._contains_rows(cs.center() + (radius + out) * U).any()

    def test_bad_box(self):
        with pytest.raises(ValueError):
            ConstraintSet.box([1.0, 0.0], [0.0, 1.0])

    def test_ball_far_rows(self):
        # |y - c|^2 overflows for y = (1e200, 0), yet the row lands on the boundary,
        # not on the centre; the other rows keep the bits they get on their own
        cs = ConstraintSet.ball([0.0, 0.0], 4.0)
        Y = np.array([[1e200, 0.0], [8.0, 0.0], [0.5, -0.5]])
        with np.errstate(over="ignore"):  # numpy still reports the overflow of |y - c|^2
            rows, one = cs._project_rows(Y), cs.project(Y[0])
        assert rows.tolist() == [[4.0, 0.0], [4.0, 0.0], [0.5, -0.5]]
        assert one.tolist() == [4.0, 0.0]
        assert rows[1:].tobytes() == cs._project_rows(Y[1:]).tobytes()

    # offsets from the centre of a radius-5 ball: norms exactly 5, one ulp past 5,
    # and rows whose |d|^2 is not finite; `inside` is what the one-reduction test decides
    UP = math.nextafter(5.0, math.inf)
    EDGES = {
        "on_boundary": ([[3.0, 4.0], [-4.0, 3.0], [0.0, -5.0], [5.0, 0.0], [0.5, 0.5]], True),
        "one_ulp_out": ([[3.0, 4.0], [UP, 0.0], [0.0, -UP], [0.5, 0.5]], False),
        "nan": ([[0.5, 0.5], [math.nan, 0.0], [3.0, 4.0]], False),
        "inf": ([[math.inf, 0.0], [0.5, 0.5], [0.0, -math.inf], [math.inf, math.inf]], False),
        "overflow": ([[1e200, 0.0], [0.5, 0.5], [-1e160, 1e160]], False),
        "no_rows": (np.empty((0, 2)), True),
    }

    @pytest.mark.parametrize("case", EDGES)
    def test_ball_rows_edges_match_per_row(self, case):
        offsets, inside = self.EDGES[case]
        cs = ConstraintSet.ball([1.0, -2.0], 5.0)
        Y = cs.center() + np.asarray(offsets, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            D = Y - cs.ball_center
            norms = np.sqrt(np.vecdot(D, D))
            P = cs._project_rows(Y)
            ref = np.array([cs._project(y) for y in Y]).reshape(Y.shape)
        assert bool(np.all(norms <= cs.radius)) == inside
        if case in ("on_boundary", "one_ulp_out"):  # the norms are what the case names
            assert set(norms.tolist()) - {math.sqrt(0.5)} == ({5.0} if inside else {5.0, self.UP})
        assert P is not Y and P.shape == Y.shape
        assert P.tobytes() == ref.tobytes()


class TestNumpyEntryPoints:
    """`numerics` binds the clip ufunc and the C `count_nonzero` from
    `numpy._core`, bypassing numpy's Python wrappers; they must give the public
    functions' bits."""

    # signed zero bounds in the first four columns, finite ones in the last
    LOWER = np.array([-0.0, 0.0, -1.0, -1.0, -3.0])
    UPPER = np.array([1.0, 1.0, -0.0, 0.0, 2.5])
    ROWS = {
        "signed_zeros": [[-0.0] * 5, [0.0] * 5, [-0.0, 0.0, -0.0, 0.0, -0.0]],
        "inf_nan": [[math.inf] * 5, [-math.inf] * 5, [math.nan] * 5,
                    [math.nan, -math.inf, math.inf, math.nan, 0.5]],
        "at_bounds": [LOWER.tolist(), UPPER.tolist()],
        "one_ulp_beyond": [np.nextafter(LOWER, -math.inf).tolist(),
                           np.nextafter(UPPER, math.inf).tolist(),
                           np.nextafter(LOWER, math.inf).tolist(),
                           np.nextafter(UPPER, -math.inf).tolist()],
        "no_rows": np.empty((0, 5)),
    }

    @pytest.mark.parametrize("case", ROWS)
    def test_box_rows_are_np_clip(self, case):
        cs = ConstraintSet.box(self.LOWER, self.UPPER)
        Y = np.asarray(self.ROWS[case], dtype=float).reshape(-1, 5)
        P = cs._project_rows(Y)
        ref = np.clip(Y, self.LOWER, self.UPPER)
        assert P is not Y and P.shape == Y.shape and P.dtype == ref.dtype
        assert P.tobytes() == numerics._CLIP(Y, self.LOWER, self.UPPER).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("values", [
        np.array([True, False, True, True]), np.zeros((3, 2), dtype=bool),
        np.array([[0.0, -0.0, 1.5], [math.nan, math.inf, -2.0]]), np.empty(0), np.empty((0, 3), bool)])
    def test_count_is_np_count_nonzero(self, values):
        assert numerics._count(values) == np.count_nonzero(values)


class TestGenerators:
    def test_paper_instance_shapes_and_ranges(self):
        inst = gen_paper_instance(rng=Rng(0))
        assert inst.n_agents == 4 and inst.dim == 6
        for obj in inst.objectives:
            assert obj.A.shape == (2, 6)
            assert np.all(obj.A >= 0) and np.all(obj.A < 0.1)
            assert np.all(obj.b >= 0) and np.all(obj.b < 5.0)

    def test_paper_instance_needs_an_rng_keyword(self):
        with pytest.raises(TypeError, match="rng"):
            gen_paper_instance()
        with pytest.raises(TypeError):
            gen_paper_instance(4, 6, 2, Rng(0))

    def test_paper_instance_bounds_formula(self):
        inst = gen_paper_instance(rng=Rng(1))
        H = sum(o.A.T @ o.A for o in inst.objectives) + 1e-10 * np.eye(6)
        rhs = sum(o.A.T @ o.b for o in inst.objectives)
        theta_unc = np.linalg.solve(H, rhs)
        j = np.arange(1, 7)
        expected_lo = theta_unc + 10.0 + 10.0 * np.sin(j * math.pi / 120.0)
        assert np.allclose(inst.constraint.lower, expected_lo, atol=1e-9)
        assert np.allclose(inst.constraint.upper - inst.constraint.lower, 10.0)
        # offset of the first coordinate: 10 + 10 sin(pi/120)
        off = inst.constraint.lower[0] - theta_unc[0]
        assert math.isclose(off, 10.0 + 10.0 * math.sin(math.pi / 120.0), rel_tol=1e-12)

    @pytest.mark.parametrize("n, dim, rows", [(4, 6, 2), (32, 6, 2), (3, 1, 1), (5, 4, 7)])
    def test_paper_instance_equals_per_agent_draws(self, n, dim, rows):
        """Agent by agent, A_i's entries in row-major order from U(0, 0.1), then
        b_i's from U(0, 5); the graph draws from where they leave the stream."""
        inst = gen_paper_instance(n=n, dim=dim, rows_per_agent=rows, rng=Rng(11))
        gen = np.random.default_rng(11)
        for o in inst.objectives:
            A = [[gen.uniform(0.0, 0.1) for _ in range(dim)] for _ in range(rows)]
            b = [gen.uniform(0.0, 5.0) for _ in range(rows)]
            assert o.A.tobytes() == np.array(A).tobytes()
            assert o.b.tobytes() == np.array(b).tobytes()
        rest = Rng(11)
        rest._gen.bit_generator.state = gen.bit_generator.state
        assert inst.graph == build_graph("random", n, edge_prob=0.5, rng=rest)

    def test_paper_instance_draws_two_blocks(self, monkeypatch):
        calls = []
        draw = Rng.uniform_array
        monkeypatch.setattr(Rng, "uniform_array",
                            lambda self, *args: calls.append(args) or draw(self, *args))
        gen_paper_instance(n=32, dim=6, rng=Rng(0))
        assert len(calls) == 2  # the agents' data, then the graph's pairs

    def test_paper_instance_deterministic(self):
        a = gen_paper_instance(rng=Rng(7))
        b = gen_paper_instance(rng=Rng(7))
        assert a.to_json() == b.to_json()

    def test_triangle_demo_structure(self):
        inst = gen_triangle_demo()
        hessians = [o.hessian() for o in inst.objectives]
        assert np.allclose(hessians[0], [[4, 1], [1, 6]])
        assert np.allclose(hessians[1], [[2, -2], [-2, 8]])
        assert np.allclose(hessians[2], [[6, 0], [0, 4]])
        for H in hessians:
            assert np.all(np.linalg.eigvalsh(H) > 0)
        # aggregate stationary point from the 2x2 solve is feasible and interior
        agg = sum(hessians, np.zeros((2, 2)))
        q = sum(o.grad(np.zeros(2)) for o in inst.objectives)
        x = np.linalg.solve(agg, -q)
        assert np.allclose(x, X_STAR_DEMO, atol=1e-14)
        assert np.linalg.norm(x) < 4


class TestReferenceSolver:
    def test_triangle_demo_optimum(self):
        inst = gen_triangle_demo()
        orc = inst.ensure_optimum(1e-11)
        assert np.linalg.norm(orc.x_star - X_STAR_DEMO) <= 1e-8
        assert orc.kkt_residual <= 1e-9
        for fi, obj in zip(orc.local_values, inst.objectives):
            assert math.isclose(fi, obj.eval(orc.x_star), rel_tol=1e-12)

    def test_interior_box_recovers_unconstrained(self):
        gen = np.random.default_rng(3)
        A = gen.uniform(0.2, 1.0, size=(8, 3))
        b = gen.uniform(0.0, 5.0, size=8)
        objs = [QuadraticObjective.least_squares(A[2 * i:2 * i + 2], b[2 * i:2 * i + 2])
                for i in range(4)]
        H = A.T @ A
        theta_unc = np.linalg.solve(H, A.T @ b)
        cs = ConstraintSet.box(theta_unc - 1.0, theta_unc + 1.0)
        from dpsla.topology import Graph, build_graph
        inst = ProblemInstance(objectives=objs, constraint=cs, graph=build_graph("complete", 4))
        orc = solve_reference(inst, 1e-11)
        assert np.linalg.norm(orc.x_star - theta_unc) <= 1e-7

    def test_paper_instance_boundary_active(self):
        inst = gen_paper_instance(rng=Rng(0))
        orc = inst.ensure_optimum(1e-10)
        lo, hi = inst.constraint.bounding_box()
        active = np.abs(orc.x_star - lo) < 1e-6
        assert active.any()
        # KKT at the lower bounds: gradient components pointing inward
        g = sum(o.grad(orc.x_star) for o in inst.objectives)
        assert np.all(g[active] >= -1e-7)

    def test_first_order_optimality(self):
        inst = gen_paper_instance(rng=Rng(2))
        orc = inst.ensure_optimum(1e-10)
        g = sum(o.grad(orc.x_star) for o in inst.objectives)
        gen = np.random.default_rng(0)
        lo, hi = inst.constraint.bounding_box()
        for _ in range(100):
            x = lo + gen.uniform(size=6) * (hi - lo)
            assert g @ (x - orc.x_star) >= -1e-8

    def test_minimize_local_triangle(self):
        inst = gen_triangle_demo()
        x1, f1 = minimize_local(inst.objectives[0], inst.constraint)
        assert np.allclose(x1, [22 / 23, 4 / 23], atol=1e-7)
        assert math.isclose(f1, inst.objectives[0].eval([22 / 23, 4 / 23]), abs_tol=1e-9)


class TestSummationPath:
    """Every sum over agents runs on stacked arrays, with the bits of a loop
    over the per-agent objects that adds them in order from an exact zero."""

    @pytest.mark.parametrize("case", ["triangle", "paper_n4", "paper_n32", "paper_dim32",
                                      "mixed_ball"])
    def test_solver_gradient_is_the_per_objective_loop(self, case, monkeypatch):
        ball = ConstraintSet.ball([0.5, 0.0, -0.5], 1.5)
        inst = {"triangle": gen_triangle_demo,
                "paper_n4": lambda: gen_paper_instance(n=4, rng=Rng(4)),
                "paper_n32": lambda: gen_paper_instance(n=32, rng=Rng(32)),
                "paper_dim32": lambda: gen_paper_instance(n=4, dim=32, rng=Rng(5)),
                "mixed_ball": lambda: mixed_instance(ball)}[case]()
        assert case != "mixed_ball" or len(inst._groups) == 3
        solve = problem._projected_gradient
        taken = []
        monkeypatch.setattr(problem, "_projected_gradient",
                            lambda grad_fn, *args: taken.append(grad_fn) or solve(grad_fn, *args))
        solve_reference(inst)
        [grad_fn] = taken
        gen = np.random.default_rng(0)
        for scale in 10.0 ** np.arange(-3, 4):
            for _ in range(4):
                x = gen.normal(size=inst.dim) * scale
                g = np.zeros(inst.dim)
                for o in inst.objectives:
                    g += o._grad(x)
                assert grad_fn(x).tobytes() == g.tobytes()

    @pytest.mark.parametrize("n", [4, 32])
    def test_paper_box_from_per_object_normal_equations(self, n):
        j = np.arange(1, 7)
        offset = 10.0 + 10.0 * np.sin(j * math.pi / 120.0)
        for seed in range(20):
            inst = gen_paper_instance(n=n, rng=Rng(seed))
            H = sum((o.A.T @ o.A for o in inst.objectives), np.zeros((6, 6)))
            rhs = sum((o.A.T @ o.b for o in inst.objectives), np.zeros(6))
            theta = numerics.solve_spd(H + 1e-10 * np.eye(6), rhs)
            assert inst.constraint.lower.tobytes() == (theta + offset).tobytes()
            assert inst.constraint.upper.tobytes() == (theta + 10.0 + offset).tobytes()


def _lipschitz_reference(H, iters=200):
    """Power iteration with the Rayleigh quotient taken on every iteration, as
    `estimate_lipschitz` computed it before it took the quotient once."""
    n = H.shape[0]
    v = np.ones(n) / math.sqrt(n)
    v[0] += 1e-3
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 1.0
        v = w / norm
        lam = float(v @ H @ v)
    return max(lam * 1.01, 1e-12)


class TestEstimateLipschitz:
    def test_bitwise_equal_to_reference(self):
        gen = np.random.default_rng(8)
        cases = [np.zeros((3, 3))]
        for dim in range(1, 33):
            for rank in {1, max(dim // 2, 1), dim}:
                M = gen.normal(scale=10.0 ** gen.uniform(-4, 4), size=(dim, rank))
                cases.append(M @ M.T)
        for H in cases:
            assert estimate_lipschitz(H) == _lipschitz_reference(H)
        assert estimate_lipschitz(np.zeros((3, 3))) == 1.0

    def test_stops_at_a_repeat_with_the_bits_of_every_iteration(self, monkeypatch):
        # the aggregate and local Hessians of paper instances and of the
        # triangle: the iterate soon repeats bit for bit, and the value taken
        # from its cycle equals the one the full loop ends at, for any count
        class Counted(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counted.products += 1
                return np.asarray(self) @ other

        cases = [o.hessian() for o in gen_triangle_demo().objectives]
        for n, dim in [(2, 2), (4, 6), (8, 16), (32, 32)]:
            objectives = gen_paper_instance(n=n, dim=dim, rng=Rng(n + dim)).objectives
            cases += [sum(o.hessian() for o in objectives)] + [o.hessian() for o in objectives]
        products = []
        for H in cases:
            for iterations in (1, 2, 3, 7, 200):
                monkeypatch.setattr(problem, "POWER_ITERATIONS", iterations)
                assert estimate_lipschitz(H) == _lipschitz_reference(H, iterations)
            Counted.products = 0
            estimate_lipschitz(H.view(Counted))
            products.append(Counted.products)
        assert max(products) <= 201 and np.median(products) < 100


class TestSerialization:
    def test_round_trip_paper(self):
        inst = gen_paper_instance(rng=Rng(5))
        inst.ensure_optimum(1e-10)
        clone = ProblemInstance.from_json(inst.to_json())
        assert clone.to_json() == inst.to_json()
        assert clone.n_agents == 4
        assert np.allclose(clone.optimum.x_star, inst.optimum.x_star)

    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_non_optimal_optimum_rejected(self, kind):
        # x*, f*, the local values and the residual agree with each other and with
        # the objectives, but x* is the centre of the set, not its minimum
        inst = gen_triangle_demo() if kind == "ball" else gen_paper_instance(rng=Rng(5))
        assert inst.constraint.kind == kind
        x = inst.constraint.center()
        values = [o.eval(x) for o in inst.objectives]
        inst.optimum = OracleResult(x, sum(values), values, 0.0)
        with pytest.raises(ValueError, match="not optimal: its duality gap is"):
            ProblemInstance.from_json(inst.to_json())
        inst.optimum = None
        inst.ensure_optimum(1e-10)  # the oracle's own optimum passes
        assert ProblemInstance.from_json(inst.to_json()).to_json() == inst.to_json()

    def test_round_trip_triangle(self):
        inst = gen_triangle_demo()
        clone = ProblemInstance.from_json(inst.to_json())
        assert clone.constraint.kind == "ball"
        assert clone.to_json() == inst.to_json()
        x = np.array([0.3, -0.2])
        for a, b in zip(inst.objectives, clone.objectives):
            assert a.eval(x) == b.eval(x)


class TestConstructorPath:
    """A problem file is read back by the constructors: each object's `to_dict`
    holds its constructor's keywords."""

    @staticmethod
    def _objects() -> dict:
        gen = np.random.default_rng(6)
        M = gen.normal(size=(3, 3))
        ls = QuadraticObjective.least_squares(gen.uniform(-1, 1, (2, 3)), gen.normal(size=2))
        return {"least_squares": ls,
                "quadratic": QuadraticObjective.quadratic(M @ M.T, gen.normal(size=3), -1.25),
                "quadratic_no_c": QuadraticObjective.quadratic(M @ M.T, gen.normal(size=3)),
                "box": ConstraintSet.box([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0]),
                "ball": ConstraintSet.ball([0.5, -1.0, 0.0], 2.5),
                "optimum": solve_reference(gen_triangle_demo(), 1e-11)}

    @pytest.mark.parametrize("name", ["least_squares", "quadratic", "quadratic_no_c", "box",
                                      "ball", "optimum"])
    def test_to_dict_rebuilds_by_the_constructor(self, name):
        o = self._objects()[name]
        clone = type(o)(**json.loads(json.dumps(o.to_dict())))  # as a problem file gives it
        assert clone.to_dict() == o.to_dict()

    def test_quadratic_without_c_has_c_zero(self):
        o = self._objects()["quadratic_no_c"]
        d = o.to_dict()
        assert d.pop("c") == 0.0
        assert QuadraticObjective(**d).to_dict() == o.to_dict()

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_graph_from_its_sorted_edges(self, n):
        g = build_graph("random", n, edge_prob=0.4, rng=Rng(n))
        clone = Graph(**{"n_agents": n, "edges": sorted(g.edges)})
        assert clone == g and clone.edges == g.edges
        assert Graph(**json.loads(json.dumps({"n_agents": n, "edges": sorted(g.edges)}))) == g
