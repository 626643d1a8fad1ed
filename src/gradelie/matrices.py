"""Exact matrices over Q(i) and their double-precision shadows.

Mat stores one grid of Gaussian-integer numerators (row-major tuples for the
real and imaginary parts) plus a single positive denominator, gcd-reduced so
equality is structural.  Multiplication runs through a guarded numpy int64
path when magnitude bounds prove it exact, with a big-int fallback otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .scalars import GaussianRational

__all__ = [
    "Mat",
    "NumMat",
    "bracket",
    "jordan_product",
    "triple_product",
    "trace_product",
    "is_nilpotent_exact",
    "flatten",
    "unflatten",
    "to_numeric",
    "ShapeError",
]

_INT64_SAFE = 2**62


class ShapeError(ValueError):
    """Raised when an operation is applied to non-conformable shapes."""


def _gcd_all(values: Iterable[int], start: int) -> int:
    g = start
    for v in values:
        if v:
            g = math.gcd(g, v if v > 0 else -v)
            if g == 1:
                return 1
    return g


def _as_fraction_pair(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    raise TypeError(f"cannot use {type(value).__name__} as an exact matrix entry")


class Mat:
    """Immutable exact matrix; entries are GaussianRational."""

    __slots__ = ("n_rows", "n_cols", "re", "im", "den", "_np", "_maxabs")

    def __init__(self, n_rows: int, n_cols: int, re: tuple, im: tuple, den: int):
        # trusted constructor: inputs must already be normalized
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_np", None)
        object.__setattr__(self, "_maxabs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- construction ---------------------------------------------------

    @staticmethod
    def _normalized(n_rows: int, n_cols: int, re: list, im: list, den: int) -> "Mat":
        if den < 0:
            den = -den
            re = [-v for v in re]
            im = [-v for v in im]
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        g = _gcd_all(re, den)
        if g != 1:
            g = _gcd_all(im, g)
        if g > 1:
            re = [v // g for v in re]
            im = [v // g for v in im]
            den //= g
        return Mat(n_rows, n_cols, tuple(re), tuple(im), den)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        pairs = []
        for r in rows:
            if len(r) != n_cols:
                raise ShapeError("ragged rows")
            pairs.extend(_as_fraction_pair(v) for v in r)
        den = 1
        for fr, fi in pairs:
            den = den * fr.denominator // math.gcd(den, fr.denominator)
            den = den * fi.denominator // math.gcd(den, fi.denominator)
        re = [int(fr * den) for fr, _ in pairs]
        im = [int(fi * den) for _, fi in pairs]
        return cls._normalized(n_rows, n_cols, re, im, den)

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]]) -> "Mat":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        re = []
        for r in rows:
            if len(r) != n_cols:
                raise ShapeError("ragged rows")
            re.extend(int(v) for v in r)
        return cls._normalized(n_rows, n_cols, re, [0] * len(re), 1)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int | None = None) -> "Mat":
        if n_cols is None:
            n_cols = n_rows
        z = (0,) * (n_rows * n_cols)
        return cls(n_rows, n_cols, z, z, 1)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        re = [0] * (n * n)
        for i in range(n):
            re[i * n + i] = 1
        return cls(n, n, tuple(re), (0,) * (n * n), 1)

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Mat":
        """Elementary matrix E_ij in gl(n)."""
        re = [0] * (n * n)
        re[i * n + j] = 1
        return cls(n, n, tuple(re), (0,) * (n * n), 1)

    # -- access ----------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        k = i * self.n_cols + j
        return GaussianRational(Fraction(self.re[k], self.den), Fraction(self.im[k], self.den))

    def rows(self) -> list[list[GaussianRational]]:
        return [[self.entry(i, j) for j in range(self.n_cols)] for i in range(self.n_rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def is_scalar(self) -> bool:
        """True iff this square matrix is a scalar multiple of the identity."""
        if not self.is_square():
            return False
        n = self.n_cols
        d_re, d_im = self.re[0], self.im[0]
        for i in range(n):
            for j in range(n):
                k = i * n + j
                want = (d_re, d_im) if i == j else (0, 0)
                if (self.re[k], self.im[k]) != want:
                    return False
        return True

    def max_abs_num(self) -> int:
        m = self._maxabs
        if m is None:
            m = max(
                max(map(abs, self.re), default=0),
                max(map(abs, self.im), default=0),
            )
            object.__setattr__(self, "_maxabs", m)
        return m

    def _arrays(self):
        cached = self._np
        if cached is None:
            ar = np.array(self.re, dtype=np.int64).reshape(self.n_rows, self.n_cols)
            ai = np.array(self.im, dtype=np.int64).reshape(self.n_rows, self.n_cols)
            cached = (ar, ai)
            object.__setattr__(self, "_np", cached)
        return cached

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other: "Mat", sign: int, verb: str) -> "Mat":
        """self + sign*other over the common denominator, normalized once."""
        if self.shape != other.shape:
            raise ShapeError(f"cannot {verb} {self.shape} and {other.shape}")
        da, db = self.den, other.den
        g = math.gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        re = [x * ma + y * mb for x, y in zip(self.re, other.re)]
        im = [x * ma + y * mb for x, y in zip(self.im, other.im)]
        return Mat._normalized(self.n_rows, self.n_cols, re, im, da * ma)

    def __add__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        return self._combine(other, 1, "add")

    def __sub__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        return self._combine(other, -1, "subtract")

    def __neg__(self) -> "Mat":
        return Mat(
            self.n_rows, self.n_cols,
            tuple(-v for v in self.re), tuple(-v for v in self.im), self.den,
        )

    def scale(self, c) -> "Mat":
        cr, ci = _as_fraction_pair(c)
        p, q = cr.numerator, ci.numerator
        d = cr.denominator * ci.denominator // math.gcd(cr.denominator, ci.denominator)
        p *= d // cr.denominator
        q *= d // ci.denominator
        re = [x * p - y * q for x, y in zip(self.re, self.im)]
        im = [x * q + y * p for x, y in zip(self.re, self.im)]
        return Mat._normalized(self.n_rows, self.n_cols, re, im, self.den * d)

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        inner = self.n_cols
        # max(., 1): a zero operand does not make the other one fit in int64
        bound = 2 * inner * max(self.max_abs_num(), 1) * max(other.max_abs_num(), 1)
        if bound < _INT64_SAFE:
            ar, ai = self._arrays()
            br, bi = other._arrays()
            cr = ar @ br - ai @ bi
            ci = ar @ bi + ai @ br
            return Mat._normalized(
                self.n_rows, other.n_cols,
                cr.ravel().tolist(), ci.ravel().tolist(), self.den * other.den,
            )
        n, m = self.n_rows, other.n_cols
        a_re, a_im, b_re, b_im = self.re, self.im, other.re, other.im
        re = [0] * (n * m)
        im = [0] * (n * m)
        for i in range(n):
            base = i * inner
            for k in range(inner):
                xr, xi = a_re[base + k], a_im[base + k]
                if not xr and not xi:
                    continue
                rowb = k * m
                for j in range(m):
                    yr, yi = b_re[rowb + j], b_im[rowb + j]
                    if yr or yi:
                        re[i * m + j] += xr * yr - xi * yi
                        im[i * m + j] += xr * yi + xi * yr
        return Mat._normalized(n, m, re, im, self.den * other.den)

    def power(self, k: int) -> "Mat":
        if not self.is_square():
            raise ShapeError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Mat.identity(self.n_rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def transpose(self) -> "Mat":
        n, m = self.n_rows, self.n_cols
        re = [self.re[i * m + j] for j in range(m) for i in range(n)]
        im = [self.im[i * m + j] for j in range(m) for i in range(n)]
        return Mat(m, n, tuple(re), tuple(im), self.den)

    def trace(self) -> GaussianRational:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        n = self.n_cols
        tr_re = sum(self.re[i * n + i] for i in range(n))
        tr_im = sum(self.im[i * n + i] for i in range(n))
        return GaussianRational(Fraction(tr_re, self.den), Fraction(tr_im, self.den))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; (a kron b)[(i,k),(j,l)] = a[i,j] * b[k,l]."""
        p, q = other.n_rows, other.n_cols
        n, m = self.n_rows, self.n_cols
        re = [0] * (n * p * m * q)
        im = [0] * (n * p * m * q)
        for i in range(n):
            for j in range(m):
                ar, ai = self.re[i * m + j], self.im[i * m + j]
                if not ar and not ai:
                    continue
                for k in range(p):
                    for l in range(q):
                        br, bi = other.re[k * q + l], other.im[k * q + l]
                        if br or bi:
                            idx = (i * p + k) * (m * q) + (j * q + l)
                            re[idx] = ar * br - ai * bi
                            im[idx] = ar * bi + ai * br
        return Mat._normalized(n * p, m * q, re, im, self.den * other.den)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.den, self.re, self.im))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.n_cols))
            for i in range(self.n_rows)
        )
        return f"Mat[{self.n_rows}x{self.n_cols}: {body}]"


class NumMat:
    """Immutable complex double-precision matrix; entries must be finite."""

    __slots__ = ("array",)

    def __init__(self, array_like):
        arr = np.array(array_like, dtype=np.complex128)
        if arr.ndim != 2:
            raise ShapeError("NumMat requires a 2-d grid")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("NumMat entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("NumMat is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def __eq__(self, other):
        if not isinstance(other, NumMat):
            return NotImplemented
        return self.shape == other.shape and bool(np.all(self.array == other.array))

    def __repr__(self):
        return f"NumMat({self.array!r})"


# -- free functions -------------------------------------------------------


def _require_square_same(a: Mat, b: Mat) -> None:
    if not a.is_square() or a.shape != b.shape:
        raise ShapeError(f"need equal square shapes, got {a.shape} and {b.shape}")


def _ab_plus_sign_ba(a: Mat, b: Mat, sign: int) -> Mat:
    """ab + sign*ba, fused into one int64 expression when that is exact."""
    _require_square_same(a, b)
    n = a.n_rows
    # every partial sum of both products together is bounded by this
    if 4 * n * max(a.max_abs_num(), 1) * max(b.max_abs_num(), 1) < 2**63:
        ar, ai = a._arrays()
        br, bi = b._arrays()
        cr = (ar @ br - ai @ bi) + sign * (br @ ar - bi @ ai)
        ci = (ar @ bi + ai @ br) + sign * (br @ ai + bi @ ar)
        return Mat._normalized(n, n, cr.ravel().tolist(), ci.ravel().tolist(), a.den * b.den)
    return a @ b - b @ a if sign < 0 else a @ b + b @ a


def bracket(a: Mat, b: Mat) -> Mat:
    """Commutator ab - ba."""
    return _ab_plus_sign_ba(a, b, -1)


def jordan_product(a: Mat, b: Mat) -> Mat:
    """Anticommutator ab + ba."""
    return _ab_plus_sign_ba(a, b, 1)


def triple_product(a: Mat, b: Mat, c: Mat) -> Mat:
    """Iterated commutator [a, [b, c]]."""
    return bracket(a, bracket(b, c))


def trace_product(a: Mat, b: Mat) -> GaussianRational:
    """tr(a @ b) without forming the product."""
    if a.n_cols != b.n_rows or a.n_rows != b.n_cols:
        raise ShapeError(f"trace of product undefined for {a.shape} and {b.shape}")
    n, m = a.n_rows, a.n_cols
    tr_re = 0
    tr_im = 0
    for i in range(n):
        for j in range(m):
            xr, xi = a.re[i * m + j], a.im[i * m + j]
            if not xr and not xi:
                continue
            yr, yi = b.re[j * n + i], b.im[j * n + i]
            tr_re += xr * yr - xi * yi
            tr_im += xr * yi + xi * yr
    return GaussianRational(Fraction(tr_re, a.den * b.den), Fraction(tr_im, a.den * b.den))


def is_nilpotent_exact(a: Mat) -> bool:
    """True iff a^n = 0 exactly, n the matrix size."""
    if not a.is_square():
        raise ShapeError("nilpotency is defined for square matrices")
    n = a.n_rows
    if n == 0:
        return True
    if not a.trace().is_zero():
        return False
    p = a
    e = 1
    while e < n:
        p = p @ p
        e *= 2
        if p.is_zero():
            return True
    return p.is_zero()


def flatten(a: Mat) -> tuple[GaussianRational, ...]:
    """Row-major entry vector of a square matrix."""
    if not a.is_square():
        raise ShapeError("flatten expects a square matrix")
    n = a.n_cols
    return tuple(a.entry(i, j) for i in range(n) for j in range(n))


def unflatten(v: Sequence, n: int) -> Mat:
    """Inverse of flatten for a length n*n vector."""
    if len(v) != n * n:
        raise ShapeError(f"expected {n * n} entries, got {len(v)}")
    return Mat.from_rows([list(v[i * n : (i + 1) * n]) for i in range(n)])


def to_numeric(a: Mat) -> NumMat:
    """Nearest double-precision value per rational part."""
    grid = [
        [complex(float(Fraction(a.re[i * a.n_cols + j], a.den)),
                 float(Fraction(a.im[i * a.n_cols + j], a.den)))
         for j in range(a.n_cols)]
        for i in range(a.n_rows)
    ]
    return NumMat(grid)
