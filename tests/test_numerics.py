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
            draws = [rng.uniform(lo, hi) for _ in range(2000)]
            assert all(lo <= d < hi for d in draws)

    def test_uniform_mean(self):
        rng = Rng(123)
        n = 100_000
        draws = rng.uniform_array(n, 0.0, 5.0)
        se = (5.0 / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(draws.mean() - 2.5) <= 3 * se

    def test_determinism(self):
        a = Rng(42)
        b = Rng(42)
        seq_a = [a.uniform(0, 1) for _ in range(20)] + [a.integer(0, 100)]
        seq_b = [b.uniform(0, 1) for _ in range(20)] + [b.integer(0, 100)]
        assert seq_a == seq_b

    def test_different_seeds_differ(self):
        assert Rng(1).uniform(0, 1) != Rng(2).uniform(0, 1)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            Rng(0).uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Rng(0).uniform(2.0, 1.0)
