"""Exact scalars over the Gaussian rationals Q(i).

Every structural computation in the package runs over this field; nothing
here ever rounds.  The string grammar accepted by :func:`parse_scalar` is the
one used in document files: ``RAT``, ``RATi`` or ``RAT(+|-)RATi`` where RAT is
an optionally signed integer or ``p/q`` in lowest terms with q > 0.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

__all__ = ["GaussianRational", "Q", "parse_scalar", "format_scalar", "ScalarParseError"]

_RAT = r"[+-]?\d+(?:/\d+)?"
_ENTRY_RE = re.compile(
    rf"^(?:(?P<re>{_RAT})(?P<im>[+-]\d+(?:/\d+)?)i|(?P<only_im>{_RAT})i|(?P<only_re>{_RAT}))$"
)


class ScalarParseError(ValueError):
    """Raised when a scalar literal does not match the exact entry grammar."""


class GaussianRational:
    """An exact complex scalar re + im*i with arbitrary-precision rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"Q({self.re!r}, {self.im!r})" if self.im else f"Q({self.re!r})"

    def __str__(self):
        return format_scalar(self)


def Q(re=0, im=0) -> GaussianRational:
    """Shorthand constructor; accepts ints, Fractions or 'p/q' strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(re, im)


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:  # the grammar admits only digits: the digit limit was hit
        raise ScalarParseError(
            f"{what}: integer of {len(tok.lstrip('+-'))} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


def _check_lowest_terms(tok: str, what: str) -> Fraction:
    if "/" in tok:
        num, den = tok.split("/")
        n, d = _int(num, what), _int(den, what)
        if d <= 0:
            raise ScalarParseError(f"{what}: denominator must be positive in {tok!r}")
        if d == 1:
            raise ScalarParseError(f"{what}: integral value written as fraction in {tok!r}")
        if math.gcd(abs(n), d) != 1:
            raise ScalarParseError(f"{what}: {tok!r} is not in lowest terms")
        return Fraction(n, d)
    return Fraction(_int(tok, what))


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact entry literal; rejects anything outside the grammar."""
    m = _ENTRY_RE.match(text.strip())
    if m is None:
        raise ScalarParseError(f"not a valid exact scalar literal: {text!r}")
    if m.group("only_re") is not None:
        return GaussianRational(_check_lowest_terms(m.group("only_re"), "real part"))
    if m.group("only_im") is not None:
        return GaussianRational(0, _check_lowest_terms(m.group("only_im"), "imaginary part"))
    re_part = _check_lowest_terms(m.group("re"), "real part")
    im_part = _check_lowest_terms(m.group("im"), "imaginary part")
    return GaussianRational(re_part, im_part)


def _fmt_frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def format_scalar(z: GaussianRational) -> str:
    """Canonical literal; parse_scalar(format_scalar(z)) == z."""
    if not z.im:
        return _fmt_frac(z.re)
    if not z.re:
        return _fmt_frac(z.im) + "i"
    sign = "+" if z.im > 0 else ""
    return _fmt_frac(z.re) + sign + _fmt_frac(z.im) + "i"
