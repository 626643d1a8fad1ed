"""Exact arithmetic over Q(i) for checking gradelie's outputs, with no gradelie code.

Matrices are Gaussian-integer pairs ``(re, im)`` of numpy object arrays of Python
ints.  Spans, closures, nilpotency, invariance and triangularity do not change
when a matrix is scaled, so every input is scaled to Gaussian integers first.
Dimensions come from one exact fraction-free echelon form over Z[i].
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


# -- Gaussian-integer matrices ------------------------------------------------


def gi(re_rows, im_rows=None):
    """A Gaussian-integer matrix from integer rows."""
    re_arr = np.array([[int(v) for v in row] for row in re_rows], dtype=object)
    if im_rows is None:
        im_arr = np.zeros(re_arr.shape, dtype=object)
    else:
        im_arr = np.array([[int(v) for v in row] for row in im_rows], dtype=object)
    return re_arr, im_arr


def gi_from_fractions(grid):
    """Scale a grid of (re, im) Fraction pairs to a Gaussian-integer matrix."""
    den = 1
    for row in grid:
        for fr, fi in row:
            den = math.lcm(den, fr.denominator, fi.denominator)
    re_rows = [[int(fr * den) for fr, _ in row] for row in grid]
    im_rows = [[int(fi * den) for _, fi in row] for row in grid]
    return gi(re_rows, im_rows)


def gi_identity(n: int):
    return gi([[int(i == j) for j in range(n)] for i in range(n)])


def gi_mul(a, b):
    ar, ai = a
    br, bi = b
    return ar.dot(br) - ai.dot(bi), ar.dot(bi) + ai.dot(br)


def gi_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def gi_bracket(a, b):
    return gi_sub(gi_mul(a, b), gi_mul(b, a))


def gi_is_zero(a) -> bool:
    return not any(a[0].flat) and not any(a[1].flat)


def gi_primitive(a):
    """a divided by the gcd of all its integer parts (a itself when zero)."""
    g = 0
    for v in a[0].flat:
        g = math.gcd(g, v)
    for v in a[1].flat:
        g = math.gcd(g, v)
    if g <= 1:
        return a
    return a[0] // g, a[1] // g


def gi_equal(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def gi_is_nilpotent(a) -> bool:
    """a^n == 0 exactly, n the size."""
    n = a[0].shape[0]
    power = gi_identity(n)
    for _ in range(n):
        power = gi_primitive(gi_mul(power, a))
    return gi_is_zero(power)


def gi_trace_of_product(a, b):
    """tr(a b) as a (re, im) pair of ints."""
    pr, pi = gi_mul(a, b)
    return int(np.trace(pr)), int(np.trace(pi))


def gi_vec(a) -> tuple[list[int], list[int]]:
    return [int(v) for v in a[0].flat], [int(v) for v in a[1].flat]


# -- exact echelon form -----------------------------------------------------------


def _gi_gcd_content(re_part, im_part) -> int:
    g = 0
    for v in re_part:
        g = math.gcd(g, v)
    for v in im_part:
        g = math.gcd(g, v)
    return g


class Echelon:
    """Exact fraction-free row echelon form over Z[i] (hence over Q(i)).

    Vectors are (re, im) lists of ints; each reduced row is divided by the gcd
    of its integer parts, so entries stay small on the short vectors checked
    here (at most 16 columns).
    """

    def __init__(self):
        self.rows: list[tuple[list[int], list[int]]] = []
        self.pivots: list[int] = []

    def reduce(self, vec):
        vr, vi = list(vec[0]), list(vec[1])
        for (rr, ri), col in zip(self.rows, self.pivots):
            cr, ci = vr[col], vi[col]
            if not cr and not ci:
                continue
            pr, pi = rr[col], ri[col]
            # v <- p*v - c*row, which clears column col
            vr, vi = (
                [pr * a - pi * b - (cr * x - ci * y) for a, b, x, y in zip(vr, vi, rr, ri)],
                [pr * b + pi * a - (cr * y + ci * x) for a, b, x, y in zip(vr, vi, rr, ri)],
            )
            g = _gi_gcd_content(vr, vi)
            if g > 1:
                vr = [a // g for a in vr]
                vi = [b // g for b in vi]
        return vr, vi

    def contains(self, vec) -> bool:
        vr, vi = self.reduce(vec)
        return not any(vr) and not any(vi)

    def insert(self, vec) -> bool:
        vr, vi = self.reduce(vec)
        for col, (a, b) in enumerate(zip(vr, vi)):
            if a or b:
                self.rows.append((vr, vi))
                self.pivots.append(col)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def lie_closure(gens):
    """Basis (as matrices) of the Lie closure of Gaussian-integer matrices.

    The basis elements are exact iterated brackets of the generators.
    """
    ech = Echelon()
    basis = []
    work = [gi_primitive(g) for g in gens]
    while work:
        m = work.pop()
        if gi_is_zero(m) or not ech.insert(gi_vec(m)):
            continue
        for b in basis:
            work.append(gi_primitive(gi_bracket(m, b)))
        basis.append(m)
    return basis


def assoc_closure_dim(gens) -> int:
    """Dimension of the unital associative algebra the matrices generate."""
    n = gens[0][0].shape[0]
    ech = Echelon()
    queue = [gi_identity(n)]
    head = 0
    while head < len(queue):
        m = queue[head]
        head += 1
        if not ech.insert(gi_vec(m)):
            continue
        queue.extend(gi_primitive(gi_mul(g, m)) for g in gens)
    return ech.rank


def is_flag(mats, p) -> bool:
    """Whether the columns p_1..p_n of p are a basis with A p_k in span(p_1..p_k).

    That is P^-1 A P upper triangular for every A, with no inverse computed.
    """
    n = p[0].shape[1]
    ech = Echelon()
    for k in range(n):
        col = (p[0][:, k : k + 1], p[1][:, k : k + 1])
        if not ech.insert(gi_vec(col)):
            return False
        if not all(ech.contains(gi_vec(gi_mul(m, col))) for m in mats):
            return False
    return True


def charpoly(a) -> list[tuple[int, int]]:
    """Characteristic polynomial of a Gaussian-integer matrix, leading coefficient first.

    Faddeev-LeVerrier: M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I.
    Every c_k is a Gaussian integer, so each division by k is exact.
    """
    n = a[0].shape[0]
    coeffs = [(1, 0)]
    m = gi_identity(n)
    for k in range(1, n + 1):
        am = gi_mul(a, m)
        tr_re, tr_im = int(np.trace(am[0])), int(np.trace(am[1]))
        if tr_re % k or tr_im % k:
            raise ArithmeticError("characteristic coefficient is not a Gaussian integer")
        c = (-tr_re // k, -tr_im // k)
        coeffs.append(c)
        eye = gi_identity(n)
        m = (am[0] + c[0] * eye[0], am[1] + c[1] * eye[0])
    return coeffs


def _deflate(coeffs, root):
    """Divide by (t - root); returns the quotient, or None unless root is a root."""
    rr, ri = root
    acc, out = (0, 0), []
    for cr, ci in coeffs:
        acc = (acc[0] * rr - acc[1] * ri + cr, acc[0] * ri + acc[1] * rr + ci)
        out.append(acc)
    return out[:-1] if out[-1] == (0, 0) else None


def splits_over_qi(mats) -> bool:
    """Whether the characteristic polynomial of each matrix has all its roots in Q(i).

    The polynomial is monic over Z[i], so a root in Q(i) lies in Z[i].  Floating
    point proposes the roots; each is rounded and confirmed by exact division.
    """
    for a in mats:
        coeffs = charpoly(a)
        while len(coeffs) > 1:
            guesses = np.roots([complex(*c) for c in coeffs])
            for z in sorted(guesses, key=lambda z: abs(z - complex(round(z.real), round(z.imag)))):
                quotient = _deflate(coeffs, (round(z.real), round(z.imag)))
                if quotient is not None:
                    coeffs = quotient
                    break
            else:
                return False
    return True


def is_solvable_cartan(spanning) -> bool:
    """Cartan's criterion: L is solvable iff tr([x, y] z) = 0 for x, y, z spanning L."""
    brackets = [
        gi_bracket(x, y) for k, x in enumerate(spanning) for y in spanning[k + 1 :]
    ]
    return all(gi_trace_of_product(w, z) == (0, 0) for w in brackets for z in spanning)


# -- exact membership in a reduced row-echelon span -----------------------------


def rref_pivots(re_rows, im_rows, den: int) -> list[int] | None:
    """Pivot columns of an integer-numerator basis over a common denominator.

    Returns None unless every row has a leading entry equal to 1 (den/den)
    whose column is zero in every other row, i.e. the basis is reduced.
    """
    pivots = []
    for k, (rr, ri) in enumerate(zip(re_rows, im_rows)):
        col = next((j for j, (a, b) in enumerate(zip(rr, ri)) if a or b), None)
        if col is None or rr[col] != den or ri[col] != 0:
            return None
        for other, (orr, ori) in enumerate(zip(re_rows, im_rows)):
            if other != k and (orr[col] or ori[col]):
                return None
        pivots.append(col)
    return pivots


class RrefSpan:
    """A claimed reduced row-echelon basis (integer numerators over one denominator).

    ``valid`` is False unless every row has a leading entry equal to 1
    (den/den) whose column is zero in every other row.  For a reduced basis the
    only candidate coefficients of a vector are its entries at the pivot
    columns, so membership is one exact identity:
    den * vec == sum_k vec[p_k] * row_k.
    """

    def __init__(self, re_rows, im_rows, den: int):
        self.dim = len(re_rows)
        self.den = den
        self.re = np.array([list(r) for r in re_rows], dtype=object)
        self.im = np.array([list(r) for r in im_rows], dtype=object)
        self.pivots = rref_pivots(re_rows, im_rows, den) if self.dim else []
        self.valid = self.pivots is not None

    def contains(self, vec) -> bool:
        vr = np.array(vec[0], dtype=object)
        vi = np.array(vec[1], dtype=object)
        if not self.dim:
            return not any(vr) and not any(vi)
        cr, ci = vr[self.pivots], vi[self.pivots]
        acc_r = cr.dot(self.re) - ci.dot(self.im)
        acc_i = cr.dot(self.im) + ci.dot(self.re)
        return np.array_equal(acc_r, self.den * vr) and np.array_equal(acc_i, self.den * vi)


# -- exact entry literals of CLI reports ---------------------------------------------

_LITERAL = re.compile(r"^([+-]?\d+(?:/\d+)?)?(?:([+-]?\d+(?:/\d+)?)i)?$")


def parse_literal(text: str) -> tuple[Fraction, Fraction]:
    """Read an exact entry literal such as "3", "-1/2", "2i" or "1-2/3i"."""
    m = _LITERAL.match(text.strip())
    if m is None or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"not an exact literal: {text!r}")
    re_part = Fraction(m.group(1)) if m.group(1) is not None else Fraction(0)
    im_part = Fraction(m.group(2)) if m.group(2) is not None else Fraction(0)
    return re_part, im_part
