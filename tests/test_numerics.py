import math

import numpy as np
import pytest

from dpsla.numerics import Rng, SingularMatrixError, solve_spd


class TestSolveSpd:
    def test_identity(self):
        assert np.allclose(solve_spd(np.eye(2), [5, 6]), [5, 6])

    def test_demo_aggregate_system(self):
        # 2x2 solve by Cramer's rule: det = 215, x = (6/215, 72/215)
        x = solve_spd([[12, -1], [-1, 18]], [0, 6])
        assert np.allclose(x, [6 / 215, 72 / 215], atol=1e-14)

    def test_scaling(self):
        assert np.allclose(solve_spd(2 * np.eye(2), [4, 4]), [2, 2])

    def test_random_spd_residual(self):
        gen = np.random.default_rng(3)
        for _ in range(40):
            n = int(gen.integers(1, 17))
            M = gen.normal(size=(n, n))
            A = M.T @ M + np.eye(n)
            b = gen.normal(size=n)
            x = solve_spd(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_non_spd_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_spd([[1, 2], [2, 1]], [1, 1])  # indefinite
        with pytest.raises(SingularMatrixError):
            solve_spd([[1, 1], [1, 1]], [1, 1])  # singular

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd([[1, 2], [0, 1]], [1, 1])


class TestRng:
    def test_uniform_range(self):
        rng = Rng(0)
        for lo, hi in ((0.0, 0.1), (0.0, 5.0)):
            draws = rng.uniform_array(2000, lo, hi)
            assert np.all((lo <= draws) & (draws < hi))

    def test_uniform_mean(self):
        rng = Rng(123)
        n = 100_000
        draws = rng.uniform_array(n, 0.0, 5.0)
        se = (5.0 / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(draws.mean() - 2.5) <= 3 * se

    def test_determinism(self):
        a = Rng(42)
        b = Rng(42)
        seq_a = a.uniform_array(20, 0, 1).tolist() + [a.integer(0, 100)]
        seq_b = b.uniform_array(20, 0, 1).tolist() + [b.integer(0, 100)]
        assert seq_a == seq_b

    def test_different_seeds_differ(self):
        assert Rng(1).uniform_array(1, 0, 1)[0] != Rng(2).uniform_array(1, 0, 1)[0]

    def test_bad_bounds(self):
        for lo, hi in [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                       ([0.0, 1.0], [1.0, 1.0]), (0.0, [1.0, -1.0])]:
            with pytest.raises(ValueError, match="need lo < hi"):
                Rng(0).uniform_array(2, lo, hi)

    def test_array_bounds_equal_one_draw_per_entry(self):
        """A block with per-entry bounds has the bits of one draw per entry from
        the generator, in C order, and leaves the stream where they leave it."""
        lo, hi = np.array([-3.0, 0.0, 1e-3]), np.array([2.0, 0.1, 7.5])
        for seed in range(5):
            rng, ref = Rng(seed), np.random.default_rng(seed)
            block = rng.uniform_array((4, 3), lo, hi)
            one_by_one = [[ref.uniform(lo[j], hi[j]) for j in range(3)] for _ in range(4)]
            assert block.tobytes() == np.array(one_by_one).tobytes()
            assert rng.uniform_array(1, 0.0, 1.0)[0] == ref.uniform(0.0, 1.0)

    def test_no_scalar_uniform(self):
        assert not hasattr(Rng, "uniform")

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", -1, 2 ** 64])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            Rng(seed)

    def test_numpy_integer_seed(self):
        assert Rng(np.uint64(7)).uniform_array(3, 0, 1).tolist() == \
            Rng(7).uniform_array(3, 0, 1).tolist()


def _layouts(a: np.ndarray):
    """`a` in C order and as equal arrays laid out as the round's operands can be:
    F-ordered, reversed along the first and the last axis, gathered by a fancy
    index and as a strided view."""
    yield "C", a
    yield "F", np.asfortranarray(a)
    yield "reversed rows", np.ascontiguousarray(a[::-1])[::-1]
    yield "reversed entries", np.ascontiguousarray(a[..., ::-1])[..., ::-1]
    yield "fancy-indexed", np.concatenate([a, a])[np.arange(len(a))]
    wide = np.repeat(a, 2, axis=-1)
    yield "strided", wide[..., ::2]


class TestGufuncKernels:
    """`np.vecdot`, `np.matvec` and `np.vecmat` against the 1-D products they batch.

    The batched round is bitwise equal to the single-agent `_eval`/`_grad`/
    `_project` (and the golden traces hold) only while every gufunc entry is
    the same dot as the per-row `a @ b`, `M_i @ z_i` or `z_i @ Q_i` of the same
    operands. A numpy build whose gufunc loops sum in another order, or use
    another kernel, fails here, naming the case.
    """

    @staticmethod
    def draw(gen, shape):
        """Normal entries, each row scaled by its own power of ten in 1e-8..1e8."""
        return gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, size=shape[:-1] + (1,))

    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["rows", "stacks"])
    def test_vecdot_is_the_row_dot(self, lead):
        gen = np.random.default_rng(11)
        for dim in range(1, 65):
            A, B = self.draw(gen, lead + (dim,)), self.draw(gen, lead + (dim,))
            for name, A_ in _layouts(A):
                got = np.vecdot(A_, B)
                for idx in np.ndindex(lead):
                    assert got[idx] == A_[idx] @ B[idx], f"vecdot, dim {dim}, {name}, row {idx}"

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["rows", "stacks"])
    def test_matvec_is_the_matrix_vector_product(self, lead):
        gen = np.random.default_rng(12)
        g = 3
        for dim in range(1, 65):
            for m in sorted({1, 2, dim}):
                M, Z = self.draw(gen, (g, m, dim)), self.draw(gen, lead + (g, dim))
                MT = self.draw(gen, (g, dim, m)).transpose(0, 2, 1)  # A' as a view
                for mat_name, mat in (("M", M), ("M as a transposed view", MT)):
                    for name, Z_ in _layouts(Z):
                        got = np.matvec(mat, Z_)
                        for idx in np.ndindex(lead + (g,)):
                            assert np.array_equal(got[idx], mat[idx[-1]] @ Z_[idx]), \
                                f"matvec, {mat_name} ({m}, {dim}), z {name}, row {idx}"

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["rows", "stacks"])
    def test_vecmat_is_the_vector_matrix_product(self, lead):
        gen = np.random.default_rng(13)
        g = 3
        for dim in range(1, 65):
            Q, Z = self.draw(gen, (g, dim, dim)), self.draw(gen, lead + (g, dim))
            for name, Z_ in _layouts(Z):
                got = np.vecmat(Z_, Q)
                for idx in np.ndindex(lead + (g,)):
                    assert np.array_equal(got[idx], Z_[idx] @ Q[idx[-1]]), \
                        f"vecmat, dim {dim}, z {name}, row {idx}"

    def test_stacked_vecdot_is_the_separate_calls(self):
        # the DPS-LA rule takes G.G, G.Z and G.witness in one call, on a (3, n, dim)
        # operand whose slices hold G, Z and the witnesses; each row of the result
        # must be the row of its own call
        gen = np.random.default_rng(14)
        for _ in range(500):
            n, dim = int(gen.integers(2, 40)), int(gen.integers(1, 40))
            G, Z, witness = (self.draw(gen, (n, dim)) for _ in range(3))
            S = np.empty((3, n, dim))
            S[0], S[1], S[2] = G, Z, witness
            for row, B, name in zip(np.vecdot(G, S), (G, Z, witness), ("G", "Z", "witness")):
                assert row.tobytes() == np.vecdot(G, B).tobytes(), f"G.{name}, n {n}, dim {dim}"
