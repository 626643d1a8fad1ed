"""Canonical subspaces of coordinate spaces over Q(i).

A Subspace is held as a reduced row-echelon basis, so equality of subspaces
is plain structural equality of their basis matrices.  The elimination engine
works on scaled Gaussian-integer rows (numerator lists plus one denominator
per row) and skips zero coefficients, which keeps block-structured inputs
cheap.  Kernels, the inverse and intersections are one augmented elimination
(``_augmented``), and results leave as matrices built straight from the
rows.  This module is the only one that knows that row format: everything
else hands it matrices (read row-major) or vectors.  MatSubspace, a subspace
of gl(n) with its canonical matrix basis, is defined here too; a Lie algebra
is a bracket-closed one, which ``lie.require_closed`` decides, and
``LieAlgebra`` names the same class.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .matrices import Mat, ShapeError
from .scalars import GaussianRational

__all__ = [
    "Subspace",
    "MatSubspace",
    "LieAlgebra",
    "canonicalize",
    "subspace_sum",
    "subspace_intersect",
    "linear_relations",
    "mat_span",
    "pivot_columns",
    "span_basis_mats",
    "span_closure",
    "column_kernel",
    "mat_inverse",
    "stack_vertical",
]

# A working row is [re_nums, im_nums, den]; value at j is (re[j] + im[j]*i)/den.
# Row operations replace a row's lists and never change one in place, so rows
# may share a list (real rows share their zero imaginary list).
_Row = list


def _as_row(x, width: int | None = None) -> _Row:
    """The working row of a vector, or of a matrix read row-major."""
    if not isinstance(x, Mat):
        x = Mat.from_rows([x])
    row = [list(x.re), list(x.im), x.den]
    if width is not None and len(row[0]) != width:
        raise ShapeError(f"vector of length {len(row[0])} against ambient {width}")
    return row


def _row_is_zero(row: _Row) -> bool:
    return not any(row[0]) and not any(row[1])


def _row_normalize(row: _Row) -> None:
    re, im, den = row
    g = den
    for v in re:
        if v:
            g = math.gcd(g, abs(v))
            if g == 1:
                return
    real = not any(im)
    if not real:
        for v in im:
            if v:
                g = math.gcd(g, abs(v))
                if g == 1:
                    return
    if g > 1:
        row[0] = [v // g for v in re]
        if not real:
            row[1] = [v // g for v in im]
        row[2] = den // g


def _row_first_nonzero(row: _Row, limit: int) -> int:
    re, im, _ = row
    for j in range(limit):
        if re[j] or im[j]:
            return j
    return -1


def _row_make_pivot_one(row: _Row, col: int) -> None:
    re, im, _ = row
    a, b = re[col], im[col]
    if b == 0:
        # real pivot: move its sign to the numerators and rescale the denominator
        if a < 0:
            row[0] = [-x for x in re]
            row[1] = [-y for y in im]
            a = -a
        row[2] = a
        _row_normalize(row)
        return
    norm = a * a + b * b
    row[0] = [x * a + y * b for x, y in zip(re, im)]
    row[1] = [y * a - x * b for x, y in zip(re, im)]
    row[2] = norm
    _row_normalize(row)


def _row_eliminate(row: _Row, pivot_row: _Row, col: int) -> None:
    """row -= row[col] * pivot_row, assuming pivot_row[col] == 1."""
    r_re, r_im, r_den = row
    a, b = r_re[col], r_im[col]
    if not a and not b:
        return
    p_re, p_im, p_den = pivot_row
    if not b and not any(r_im) and not any(p_im):
        # both rows real: the row keeps its zero imaginary list
        row[0] = [x * p_den - a * pr for x, pr in zip(r_re, p_re)]
    else:
        row[0] = [
            x * p_den - (a * pr - b * pi)
            for x, pr, pi in zip(r_re, p_re, p_im)
        ]
        row[1] = [
            y * p_den - (a * pi + b * pr)
            for y, pr, pi in zip(r_im, p_re, p_im)
        ]
    row[2] = r_den * p_den
    _row_normalize(row)


class _Echelon:
    """Fully reduced row-echelon accumulator with optional pivot-column limit."""

    def __init__(self, n_cols: int, pivot_limit: int | None = None):
        self.n_cols = n_cols
        self.pivot_limit = n_cols if pivot_limit is None else pivot_limit
        self.rows: list[_Row] = []
        self.pivots: list[int] = []

    def reduce(self, row: _Row) -> _Row:
        for prow, col in zip(self.rows, self.pivots):
            _row_eliminate(row, prow, col)
        return row

    def insert(self, row: _Row) -> bool:
        """Insert a (copy-safe) row; True when the rank grew."""
        self.reduce(row)
        if _row_is_zero(row):
            return False
        col = _row_first_nonzero(row, self.pivot_limit)
        if col < 0:
            return False
        _row_make_pivot_one(row, col)
        for other in self.rows:
            _row_eliminate(other, row, col)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < col:
            pos += 1
        self.rows.insert(pos, row)
        self.pivots.insert(pos, col)
        return True

    def add(self, x) -> bool:
        """Insert a vector or a matrix (read row-major); True when the rank grew."""
        return self.insert(_as_row(x, self.n_cols))

    def outside(self, items):
        """The first item (vector or matrix) outside the span, or None."""
        for x in items:
            if not _row_is_zero(self.reduce(_as_row(x, self.n_cols))):
                return x
        return None

    def coordinates(self, items) -> Mat | None:
        """The Mat whose column j holds the coefficients of item j (a vector,
        or a matrix read row-major) against the stored rows, or None as soon
        as an item is outside the span.

        The rows are fully reduced with unit pivots, so those coefficients
        are the item's own entries in the pivot columns.
        """
        cols = []
        for x in items:
            row = _as_row(x, self.n_cols)
            re, im, den = row
            cols.append(([re[c] for c in self.pivots], [im[c] for c in self.pivots], den))
            if not _row_is_zero(self.reduce(row)):
                return None
        return _stacked(len(cols), len(self.rows), cols).transpose()

    def subspace(self) -> "Subspace":
        """The span of the stored rows, in canonical form."""
        return Subspace(self.n_cols, self.basis_mat())

    def basis_mat(self) -> Mat:
        return _stacked(len(self.rows), self.n_cols, self.rows)


def _stacked(n_rows: int, n_cols: int, parts: Sequence) -> Mat:
    """The n_rows x n_cols Mat whose row-major entries are those of the parts,
    each an (re, im, den) triple, laid end to end over their common
    denominator."""
    den = 1
    for _, _, d in parts:
        den = den * d // math.gcd(den, d)
    re: list[int] = []
    im: list[int] = []
    for p_re, p_im, d in parts:
        f = den // d
        if f == 1:
            re.extend(p_re)
            im.extend(p_im)
        else:
            re.extend(v * f for v in p_re)
            im.extend(v * f for v in p_im)
    return Mat._normalized(n_rows, n_cols, re, im, den)


class Subspace:
    """A linear subspace of Q(i)^ambient_dim in canonical RREF form."""

    __slots__ = ("ambient_dim", "basis_rows")

    def __init__(self, ambient_dim: int, basis_rows: Mat):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis_rows", basis_rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis_rows.n_rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def _echelon(self) -> _Echelon:
        """An accumulator holding the stored rows; they are reduced already."""
        ech = _Echelon(self.ambient_dim)
        ech.rows = _rows_of(self.basis_rows)
        ech.pivots = [_row_first_nonzero(row, self.ambient_dim) for row in ech.rows]
        return ech

    def contains(self, x) -> bool:
        """Whether the vector, or the matrix read row-major, lies in the subspace."""
        return self._echelon().outside([x]) is None

    def contains_all(self, items) -> bool:
        """Whether every item (vector or matrix) lies in the subspace."""
        return self._echelon().outside(items) is None

    def outside(self, items):
        """The first of the items (vectors or matrices) outside the subspace, or None."""
        return self._echelon().outside(items)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        if self.dim == self.ambient_dim:
            return True
        ech = self._echelon()
        return all(_row_is_zero(ech.reduce(row)) for row in _rows_of(other.basis_rows))

    def coordinates(self, x):
        """Coefficients of a vector or matrix against the RREF basis, or None if outside."""
        col = self._echelon().coordinates([x])
        return None if col is None else [col.entry(i, 0) for i in range(col.n_rows)]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis_rows == other.basis_rows

    def __hash__(self):
        return hash((self.ambient_dim, self.basis_rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim})"


def canonicalize(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> Subspace:
    """RREF span of the given vectors; idempotent and order-independent."""
    vectors = list(vectors)
    if ambient_dim is None:
        ambient_dim = len(vectors[0]) if vectors else 0
    ech = _Echelon(ambient_dim)
    for v in vectors:
        ech.add(v)
    return ech.subspace()


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    ech = a._echelon()
    for row in _rows_of(b.basis_rows):
        ech.insert(row)
    return ech.subspace()


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B by Zassenhaus's algorithm: eliminate [a_i | a_i] and [b_j | 0].

    A row dropped there is a relation sum c_i a_i + sum d_j b_j = 0, and its
    tail sum c_i a_i = -sum d_j b_j lies in A ∩ B.  Each dropped row has a
    nonzero coefficient on its own b_j and none on a later one, so the tails
    are independent, and there are dim A + dim B - dim(A + B) of them.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    k = a.ambient_dim
    a_rows = _rows_of(a.basis_rows)
    b_rows = _rows_of(b.basis_rows)
    tails = [(row[0], row[1]) for row in a_rows] + [([0] * k, [0] * k)] * len(b_rows)
    ech = _Echelon(k)
    for tail in _augmented(a_rows + b_rows, tails, k)[1]:
        ech.insert(tail)
    return ech.subspace()


def linear_relations(items: Sequence) -> list[list[GaussianRational]]:
    """A basis of the coefficient vectors c with sum_i c_i * items_i = 0.

    The items are vectors or matrices (read row-major) of one common length.
    """
    rows = [_as_row(x) for x in items]
    if not rows:
        return []
    width = len(rows[0][0])
    if any(len(row[0]) != width for row in rows):
        raise ShapeError("relations among items of different lengths")
    return [
        [GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)]
        for re, im, den in _augmented(rows, _identity_tails(rows), width)[1]
    ]


def _rows_of(m: Mat) -> list[_Row]:
    out = []
    for i in range(m.n_rows):
        row = [
            list(m.re[i * m.n_cols : (i + 1) * m.n_cols]),
            list(m.im[i * m.n_cols : (i + 1) * m.n_cols]),
            m.den,
        ]
        _row_normalize(row)
        out.append(row)
    return out


def _identity_tails(rows: list[_Row]) -> list[tuple[list, list]]:
    """The tails den_i * e_i: row i's tail reads e_i under its own denominator."""
    tails = []
    for i, row in enumerate(rows):
        re = [0] * len(rows)
        re[i] = row[2]
        tails.append((re, [0] * len(rows)))
    return tails


def _augmented(rows: list[_Row], tails: list[tuple[list, list]], n_cols: int) -> tuple[_Echelon, list[_Row]]:
    """Eliminate each [row | tail], pivoting in the first ``n_cols`` columns only.

    A tail is an (re, im) pair under its row's denominator.  Returns the
    echelon and, in order, the reduced tails (as rows) of the rows whose left
    part vanished: with the tails ``_identity_tails(rows)`` those are a basis
    of the relations among the rows.
    """
    ech = _Echelon(n_cols + (len(tails[0][0]) if tails else 0), pivot_limit=n_cols)
    dropped = []
    for row, (t_re, t_im) in zip(rows, tails):
        work = [row[0] + t_re, row[1] + t_im, row[2]]
        if not ech.insert(work):
            dropped.append([work[0][n_cols:], work[1][n_cols:], work[2]])
    return ech, dropped


def mat_span(mats: Sequence[Mat], n: int | None = None) -> Subspace:
    """Span of square matrices inside flattened gl(n)."""
    mats = list(mats)
    if n is None:
        if not mats:
            raise ValueError("mat_span needs a matrix or an explicit size")
        n = mats[0].n_rows
    ech = _Echelon(n * n)
    for m in mats:
        if m.shape != (n, n):
            raise ShapeError("matrices of mixed shapes in span")
        ech.add(m)
    return ech.subspace()


def pivot_columns(re_rows: Sequence[list], im_rows: Sequence[list] | None = None) -> list[int]:
    """The pivot columns of the Gaussian-integer matrix with these rows (real
    and imaginary parts; no ``im_rows`` means real): from left to right, each
    column that is not a combination of the columns before it.  They index a
    basis of its column space, and their number is its rank.
    """
    if not re_rows:
        return []
    ech = _Echelon(len(re_rows[0]))
    zero = [0] * ech.n_cols
    for k, re in enumerate(re_rows):
        ech.insert([re, zero if im_rows is None else im_rows[k], 1])
    return ech.pivots


def span_closure(seeds, actions, width: int) -> tuple[list, Subspace]:
    """The smallest subspace of Q(i)^width holding the seeds and mapped into
    itself by every linear action.

    The items are vectors or matrices (read row-major).  Returns
    ``(found, span)``: the independent items in the order they were found,
    and their canonical span.  The seeds come first, then a FIFO worklist
    applies each action once to each found item; the loop stops as soon as
    the span is the whole space.
    """
    ech = _Echelon(width)
    found = [x for x in seeds if ech.add(x)]
    head = 0
    while head < len(found) < width:
        x = found[head]
        head += 1
        for act in actions:
            y = act(x)
            if ech.add(y):
                found.append(y)
                if len(found) == width:
                    break
    return found, ech.subspace()


def column_kernel(m: Mat) -> list[Mat]:
    """Basis of {x : m @ x = 0}, exact, as columns: the relations among the
    columns of m, each read off one dropped tail of the augmented elimination."""
    rows = _rows_of(m.transpose())
    k = len(rows)
    return [
        Mat._normalized(k, 1, re, im, den)
        for re, im, den in _augmented(rows, _identity_tails(rows), m.n_rows)[1]
    ]


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix: [m | I] reduces to [I | m^-1].

    Raises ValueError when singular, which is exactly when a row is dropped:
    n rows that keep n pivots among the first n columns pivot at 0..n-1.
    """
    if not m.is_square():
        raise ShapeError("inverse of a non-square matrix")
    n = m.n_rows
    rows = _rows_of(m)
    ech, dropped = _augmented(rows, _identity_tails(rows), n)
    if dropped:
        raise ValueError("matrix is singular")
    return ech.basis_mat().block(0, n, n, 2 * n)


def stack_vertical(mats: Sequence[Mat]) -> Mat:
    """Stack equal-width matrices on top of each other."""
    if not mats:
        raise ValueError("nothing to stack")
    width = mats[0].n_cols
    if any(m.n_cols != width for m in mats):
        raise ShapeError("mixed widths in stack")
    return _stacked(sum(m.n_rows for m in mats), width, [(m.re, m.im, m.den) for m in mats])


def span_basis_mats(s: Subspace, n: int) -> list[Mat]:
    """The RREF basis of a flattened-gl(n) subspace, as n x n matrices."""
    if s.ambient_dim != n * n:
        raise ShapeError(f"subspace ambient {s.ambient_dim} is not {n}*{n}")
    m = s.basis_rows
    out = []
    for i in range(m.n_rows):
        re = list(m.re[i * m.n_cols : (i + 1) * m.n_cols])
        im = list(m.im[i * m.n_cols : (i + 1) * m.n_cols])
        row = Mat._normalized(n, n, re, im, m.den)
        out.append(row)
    return out


class MatSubspace:
    """A subspace of gl(n) with a canonical matrix basis.

    No closure is assumed.  A Lie algebra is a bracket-closed one:
    ``lie.require_closed`` checks a span not known to be closed.
    ``LieAlgebra`` names this same class.  ``commutator`` holds [M, M] once
    ``lie.commutator_span`` has computed it; it is a function of the span, so
    filling it leaves the object unchanged.  The closure check, the series and
    the triangularization all read it there.
    """

    __slots__ = ("ambient_dim", "basis_mats", "span", "commutator")

    def __init__(self, ambient_dim: int, basis_mats: tuple[Mat, ...], span: Subspace):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis_mats", basis_mats)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "commutator", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatSubspace is immutable")

    @classmethod
    def from_matrices(cls, mats: Sequence[Mat], ambient_dim: int | None = None) -> "MatSubspace":
        """The span of the matrices, closure unchecked."""
        mats = [m for m in mats if not m.is_zero()]
        if ambient_dim is None:
            if not mats:
                raise ValueError("ambient_dim required for the zero subspace")
            ambient_dim = mats[0].n_rows
        return cls.from_span(mat_span(mats, ambient_dim), ambient_dim)

    @classmethod
    def from_span(cls, span: Subspace, ambient_dim: int) -> "MatSubspace":
        """Trusted constructor: the span is taken as given, closure unchecked."""
        return cls(ambient_dim, tuple(span_basis_mats(span, ambient_dim)), span)

    @property
    def dim(self) -> int:
        return self.span.dim

    def contains_mat(self, m: Mat) -> bool:
        if m.shape != (self.ambient_dim, self.ambient_dim):
            return False
        return self.span.contains(m)

    def combination(self, coeffs: Sequence) -> Mat:
        """The member sum_i coeffs[i] * basis_mats[i]."""
        acc = Mat.zeros(self.ambient_dim)
        for c, b in zip(coeffs, self.basis_mats):
            if c:
                acc = acc + b.scale(c)
        return acc

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.span == other.span

    def __hash__(self):
        return hash((self.ambient_dim, self.span))

    def __repr__(self):
        return f"MatSubspace(dim {self.dim} in gl({self.ambient_dim}))"


LieAlgebra = MatSubspace
