"""Dense vector/matrix helpers, the seeded random stream, numpy's C entry points
and the base of the package's record classes.

All systems in this project are tiny (dimension <= 32), so everything here is
plain dense float64 arithmetic with eager validation at the API boundary. The
package reaches into the private `numpy._core` here alone, for `_count` and `_CLIP`.
"""

from __future__ import annotations

import math

import numpy as np

# Cholesky pivots below this are treated as a singular / non-SPD input.
SPD_PIVOT_TOL = 1e-12
# the C function that `np.count_nonzero` calls for a whole array and the ufunc that
# `ndarray.clip` reaches through its Python `_clip` wrapper: only the private
# `numpy._core` exposes them, and a few-agent round is set by its calls' overhead
_count = np._core.multiarray.count_nonzero
_CLIP = np._core.umath.clip


class Record:
    """Base of the package's record classes, written by hand because the
    dataclass decorator compiles the methods it generates on every import. A
    subclass's fields are the parameters of its `__init__`, which stores each
    under its own name, usually with `self._init(locals())`. Instances print as
    `Name(field=value, ...)` and compare by their fields, an ndarray field bit for
    bit (dtype, shape and C-order bytes); a changed copy is built with the constructor."""

    def __init_subclass__(cls):
        if "__init__" in vars(cls):  # not in `Value`, a base
            code = cls.__init__.__code__  # the fields: its positional parameters after self
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _init(self, values: dict) -> None:
        """Store the fields from `values`, `__init__`'s locals; other names are ignored."""
        vars(self).update({name: values[name] for name in self._fields})

    def _asdict(self) -> dict:
        return dict(zip(self._fields, map(vars(self).__getitem__, self._fields)))

    def _key(self) -> tuple:
        return tuple((v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in self._asdict().values())

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable record: it refuses assignment and deletion and hashes by its
    fields. A `functools.cached_property` still caches into its `__dict__`."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key())


class SingularMatrixError(ValueError):
    """Raised when a direct factorization meets a pivot that is not safely positive."""


def is_int(v) -> bool:
    """A Python or numpy integer; bools are rejected even though Python counts them as ints."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def require_positive(name: str, value) -> None:
    """ValueError unless `value` is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_seed(seed) -> None:
    """ValueError unless `seed` is a 64-bit unsigned integer, the seeds `Rng` takes."""
    if not (is_int(seed) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def as_vec(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert `x` to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_mat(x) -> np.ndarray:
    """Validate and convert `x` to a finite 2-D float64 array."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with explicit pivot checks (dims here are <= 32)."""
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        if d < SPD_PIVOT_TOL:
            raise SingularMatrixError(f"pivot {d:.3e} at column {j} below {SPD_PIVOT_TOL:g}")
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_spd(A, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by Cholesky factorization."""
    M = as_mat(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(M).max())):
        raise ValueError("matrix must be symmetric")
    v = as_vec(b, dim=M.shape[0])
    L = _cholesky(M)
    # forward then backward substitution
    n = v.size
    y = np.zeros(n)
    for i in range(n):
        y[i] = (v[i] - L[i, :i] @ y[:i]) / L[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


class Rng:
    """Deterministic pseudo-random stream.

    Backed by numpy's PCG64 generator: the same 64-bit seed always reproduces
    the same sequence of draws within this package. One instance is owned by a
    single run thread and must never be shared across threads.
    """

    def __init__(self, seed: int):
        require_seed(seed)
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def uniform_array(self, shape, lo, hi) -> np.ndarray:
        """Block of U[lo, hi) draws in C order, `lo` and `hi` broadcast to `shape`;
        each entry has the bits of a one-at-a-time draw with its own bounds."""
        if not np.all(np.less(lo, hi)):
            raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
        return self._gen.uniform(lo, hi, size=shape)

    def integer(self, lo: int, hi: int) -> int:
        """One integer draw from [lo, hi); advances the stream."""
        if not (lo < hi):
            raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
        return int(self._gen.integers(lo, hi))
