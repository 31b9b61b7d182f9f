import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsla.engine import Dgd, Dpsla, RunTrace, run
from dpsla.metrics import (CLIP, _lines, consensus_error, csv_header, residual, write_csv,
                           write_sweep_csv)
from dpsla.numerics import Rng
from dpsla.problem import (ConstraintSet, ProblemInstance, QuadraticObjective,
                           gen_paper_instance, gen_triangle_demo)

from .util import consensus_floor, parse_csv


@pytest.fixture(scope="module")
def triangle():
    inst = gen_triangle_demo()
    inst.ensure_optimum(1e-11)
    return inst


class TestResidual:
    def test_zero_at_optimum(self, triangle):
        x = triangle.optimum.x_star
        assert abs(residual(triangle, [x, x, x])) <= 1e-9

    def test_origin_value(self, triangle):
        # f_sum(0,0) = 0 + 0 + 2, so the residual is 2 - f*_sum
        got = residual(triangle, [np.zeros(2)] * 3)
        assert math.isclose(got, 2.0 - triangle.optimum.f_star, rel_tol=1e-12)

    def test_nonnegative_on_feasible_states(self, triangle):
        gen = np.random.default_rng(0)
        for _ in range(50):
            xs = []
            for _ in range(3):
                v = gen.normal(size=2) * 3
                xs.append(triangle.constraint.project(v))
            assert residual(triangle, xs) >= -1e-8

    def test_translation_consistency(self):
        # shifting one objective by a constant shifts f and f* equally
        base = gen_triangle_demo()
        base.ensure_optimum(1e-11)
        f3 = base.objectives[2]
        shifted = ProblemInstance(
            objectives=[base.objectives[0], base.objectives[1],
                        QuadraticObjective.quadratic(f3.Q, f3.q, f3.c + 7.5)],
            constraint=base.constraint,
            graph=base.graph,
        )
        shifted.ensure_optimum(1e-11)
        xs = [np.array([0.3, -0.1])] * 3
        assert math.isclose(residual(base, xs), residual(shifted, xs), abs_tol=1e-8)

    def test_requires_oracle(self):
        inst = gen_triangle_demo()
        with pytest.raises(ValueError):
            residual(inst, [np.zeros(2)] * 3)


@pytest.fixture(scope="module")
def paper9():
    inst = gen_paper_instance(n=9, dim=5, rng=Rng(2))
    inst.ensure_optimum()
    return inst


class TestStackedMetrics:
    """A (K, n, dim) stack gives, bit for bit, the per-state values."""

    @pytest.mark.parametrize("name", ["paper9", "triangle"])
    def test_stack_equals_per_state(self, name, request):
        inst = request.getfixturevalue(name)
        gen = np.random.default_rng(3)
        scale = 10.0 ** gen.uniform(-3, 1, size=(40, 1, 1))
        S = inst.constraint._project_rows(
            (inst.constraint.center() + scale * gen.normal(size=(40, inst.n_agents, inst.dim)))
            .reshape(-1, inst.dim)).reshape(40, inst.n_agents, inst.dim)
        res, ce = residual(inst, S), consensus_error(S)
        assert res.shape == ce.shape == (40,)
        for k, X in enumerate(S):
            assert res[k] == residual(inst, X)
            assert ce[k] == consensus_error(X)
        assert residual(inst, S[:1])[0] == residual(inst, S[0])

    def test_sum_value_in_agent_order(self, paper9):
        # pairwise summation over the 9 agents would change the last bits
        gen = np.random.default_rng(5)
        X = paper9.constraint.center() + gen.normal(scale=50.0, size=(200, paper9.dim))
        batched = paper9._sum_value(X)
        for x, b in zip(X, batched):
            ordered = sum(o._eval(x) for o in paper9.objectives)
            assert paper9._sum_value(x) == ordered == b


class TestConsensusFloor:
    """The consensus errors that criteria 5c and 8b read sit on the floor of one
    round from consensus at x*, and criterion 8a's reads 0 because its floor does."""

    @pytest.mark.parametrize("alg, T, rows", [(Dgd(), 500, (100, 500)),
                                              (Dpsla(), 2000, (500, 1000, 2000))])
    def test_triangle_trace_on_the_floor(self, triangle, alg, T, rows):
        trace = run(triangle, alg, T, seed=0)
        for k in rows:
            floor = consensus_floor(triangle, trace.alpha[k])
            assert floor > 1e-3
            assert math.isclose(trace.consensus_error[k], floor, rel_tol=1e-10), k

    @pytest.mark.parametrize("seed", range(10))
    def test_reproduce_main_floor_is_zero(self, seed):
        inst = gen_paper_instance(rng=Rng(seed))
        inst.ensure_optimum()
        trace = run(inst, Dpsla(), 300, seed=seed)
        assert consensus_floor(inst, trace.alpha[300]) == 0.0
        assert trace.consensus_error[300] == 0.0


class TestConsensusError:
    def test_identical_states(self):
        assert consensus_error([np.ones(3)] * 4 ) == 0.0

    def test_two_agents(self):
        assert consensus_error([np.array([0.0, 0.0]), np.array([2.0, 0.0])]) == 1.0

    def test_translation_invariance(self):
        gen = np.random.default_rng(1)
        xs = [gen.normal(size=3) for _ in range(5)]
        off = gen.normal(size=3)
        a = consensus_error(xs)
        b = consensus_error([x + off for x in xs])
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_zero_iff_equal(self):
        xs = [np.zeros(2), np.array([1e-14, 0.0])]
        assert consensus_error(xs) > 0.0

    @pytest.mark.parametrize("xs", [np.empty((0, 2)), np.empty((3, 0, 2)), [1.0, 2.0], 1.0])
    def test_no_state_rejected(self, xs):
        with pytest.raises(ValueError, match="^consensus_error needs at least one state$"):
            consensus_error(xs)


class TestCsv:
    def test_row_count_and_header(self, tmp_path, triangle):
        tr = run(triangle, Dpsla(), 3, seed=0)
        p = tmp_path / "t.csv"
        write_csv(tr, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 5  # header + k=0..3
        assert lines[0] == csv_header(3)
        assert lines[0].count(",") + 1 == 3 + 2 * 3 + 1
        assert p.read_text().endswith("\n")

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_record_every_must_be_positive(self, tmp_path, triangle, record_every):
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
            write_csv(run(triangle, Dgd(), 3), p, record_every=record_every)
        assert not p.exists()

    @pytest.mark.parametrize("record_every", [2.5, 2.0, True, "2"])
    def test_record_every_must_be_an_integer(self, tmp_path, triangle, record_every):
        # 2.5 failed inside range() with a bare TypeError, and True was taken as 1
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"record_every must be an integer >= 1, got {record_every!r}")):
            write_csv(run(triangle, Dgd(), 3), p, record_every=record_every)
        assert not p.exists()

    def test_record_every_takes_a_numpy_integer(self, tmp_path, triangle):
        tr = run(triangle, Dgd(), 5)
        write_csv(tr, tmp_path / "a.csv", record_every=np.int64(2))
        write_csv(tr, tmp_path / "b.csv", record_every=2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_round_trip_exact(self, tmp_path, triangle):
        tr = run(triangle, Dpsla(), 25, seed=0)
        p = tmp_path / "t.csv"
        write_csv(tr, p)
        cols = parse_csv(p)
        for idx, rec in enumerate(tr.records):
            assert cols["k"][idx] == rec.k
            assert cols["residual"][idx] == rec.residual
            for i in range(3):
                assert cols[f"alpha_{i}"][idx] == rec.alpha[i]
                assert cols[f"level_{i}"][idx] == rec.level[i]

    def test_byte_determinism(self, tmp_path, triangle):
        tr1 = run(triangle, Dpsla(), 20, seed=4)
        tr2 = run(triangle, Dpsla(), 20, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(tr1, p1)
        write_csv(tr2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_none_fields_print_nan(self, tmp_path, triangle):
        tr = run(triangle, Dgd(), 2, seed=0)
        p = tmp_path / "d.csv"
        write_csv(tr, p)
        row0 = p.read_text().splitlines()[1].split(",")
        assert row0[3] == "nan"  # no alpha before the first dgd round
        assert row0[6] == "nan"  # dgd has no levels

    def test_record_every_thinning(self, tmp_path, triangle):
        tr = run(triangle, Dpsla(), 10, seed=0)
        p = tmp_path / "thin.csv"
        write_csv(tr, p, record_every=4)
        ks = [int(line.split(",")[0]) for line in p.read_text().splitlines()[1:]]
        assert ks == [0, 4, 8, 10]  # multiples plus the final row

    def test_sweep_csv(self, tmp_path):
        p = tmp_path / "s.csv"
        write_sweep_csv([(4, 0, 1.25), (8, 0, 0.5)], p)
        lines = p.read_text().splitlines()
        assert lines[0] == "n,seed,gap"
        assert lines[1] == "4,0,1.25"


def _per_cell_lines(heads, table, tails=None):
    """The reference for `_lines`: each cell clipped and formatted on its own."""
    template = "%d" + ",%.17g" * table.shape[1] + ("" if tails is None else ",%d")
    extra = [()] * len(table) if tails is None else [(d,) for d in tails]
    return [template % (k, *row, *d)
            for k, row, d in zip(heads, np.clip(table, -CLIP, CLIP).tolist(), extra)]


_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0ABC], dtype=np.int64).view(float).item()
# signed zeros, NaNs of both signs and with a payload, values clipped to +/-CLIP,
# subnormals; drawn from a short list so that values repeat across rows and columns
_CELLS = st.sampled_from([
    0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, -_NAN_PAYLOAD, math.inf, -math.inf,
    1e13, -1e13, CLIP, -CLIP, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
    1.0, 0.1, -7.25, 1 / 3]) | st.floats()


@st.composite
def _tables(draw, min_cols=1):
    m, c = draw(st.integers(1, 12)), draw(st.integers(min_cols, 6))
    return np.array(draw(st.lists(_CELLS, min_size=m * c, max_size=m * c))).reshape(m, c)


class TestLines:
    def test_signed_zeros_in_one_column_stay_apart(self):
        table = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 1e13]])
        assert _lines(range(3), table, [0, 1, 0]) == ["0,0,-0,0", "1,-0,0,1", "2,0,1000000000000,0"]

    @given(_tables(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_formatting(self, table, with_tails, data):
        m = len(table)
        heads = data.draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m))
        tails = data.draw(st.lists(st.booleans(), min_size=m, max_size=m)) if with_tails else None
        assert _lines(heads, table, tails) == _per_cell_lines(heads, table, tails)

    @given(_tables(min_cols=4), st.integers(1, 5), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_write_csv_matches_per_cell_formatting(self, tmp_path_factory, table, record_every,
                                                   baseline, data):
        n = (table.shape[1] - 2) // 2
        rows = len(table)
        diverged = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        tr = RunTrace(alpha=table[:, 2:2 + n], level=None if baseline else table[:, 2 + n:2 + 2 * n],
                      level_updated=np.zeros((rows, n), dtype=bool), diverged=diverged,
                      residual=None if baseline else table[:, 0], consensus_error=table[:, 1],
                      settled=None, states=None)
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(tr, p, record_every=record_every)
        ks = sorted({*range(0, rows, record_every), rows - 1})
        expect = table[:, :2 + 2 * n].copy()
        if baseline:
            expect[:, 0] = expect[:, 2 + n:] = np.nan
        lines = [csv_header(n)] + _per_cell_lines(ks, expect[ks], diverged[ks].tolist())
        assert p.read_text() == "\n".join(lines) + "\n"


class TestLevelGaps:
    def test_gap_signs(self, triangle):
        tr = run(triangle, Dpsla(), 50, seed=0)
        gaps = np.array(triangle.optimum.local_values) - tr.level
        assert all(g >= -1e-6 for g in gaps[50])  # levels stay below f_i(x*)
        assert all(g0 >= g for g0, g in zip(gaps[0], gaps[50]))  # gaps shrink
