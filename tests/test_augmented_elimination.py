"""Differential tests of the augmented elimination against sympy.

Kernels, inverses, intersections, relations and ad-matrices are checked on
seeded real, Gaussian and bigint (entries near 2^70) inputs, including zero,
full-rank and singular ones.
"""

import random
from fractions import Fraction

import pytest

from gradelie.lie import NormalizerError, ad_matrix, lie_closure
from gradelie.matrices import Mat, bracket
from gradelie.scalars import GaussianRational
from gradelie.subspaces import (
    canonicalize,
    column_kernel,
    linear_relations,
    mat_inverse,
    subspace_intersect,
    subspace_sum,
)

sympy = pytest.importorskip("sympy")

KINDS = ("real", "gaussian", "bigint")
SHAPES = ("zero", "full", "singular", "random")


def _entry(kind: str, rng: random.Random):
    if kind == "real":
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    if kind == "gaussian":
        return GaussianRational(rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    return rng.choice((-1, 1)) * (2**70 + rng.randint(-9, 9)) if rng.random() < 0.6 else rng.randint(-2, 2)


def _random_mat(kind: str, rows: int, cols: int, rng: random.Random) -> Mat:
    return Mat.from_rows([[_entry(kind, rng) for _ in range(cols)] for _ in range(rows)])


def _mat(kind: str, shape: str, rows: int, cols: int, rng: random.Random) -> Mat:
    """A rows x cols matrix: zero, of full rank, of rank below full, or random."""
    if shape == "zero":
        return Mat.zeros(rows, cols)
    if shape == "random":
        return _random_mat(kind, rows, cols, rng)
    full = min(rows, cols)
    rank = full if shape == "full" else rng.randint(1, max(1, full - 1))
    while True:
        m = _random_mat(kind, rows, rank, rng) @ _random_mat(kind, rank, cols, rng)
        if _sym(m).rank() == rank:
            return m


def _sym(m: Mat):
    def entry(i, j):
        k = i * m.n_cols + j
        return sympy.Rational(m.re[k], m.den) + sympy.I * sympy.Rational(m.im[k], m.den)

    return sympy.Matrix(m.n_rows, m.n_cols, entry)


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for t in range(count):
        kind = KINDS[t % len(KINDS)]
        shape = SHAPES[(t // len(KINDS)) % len(SHAPES)]
        yield kind, shape, rng


def _flat(m: Mat) -> Mat:
    return Mat._normalized(1, m.n_rows * m.n_cols, list(m.re), list(m.im), m.den)


def test_column_kernel_against_sympy():
    for kind, shape, rng in _cases(1901, 36):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _mat(kind, shape, rows, cols, rng)
        kernel = column_kernel(m)
        assert len(kernel) == cols - _sym(m).rank(), (kind, shape)
        for k in kernel:
            assert k.shape == (cols, 1)
            assert (m @ k).is_zero()
        if kernel:
            assert sympy.Matrix.hstack(*map(_sym, kernel)).rank() == len(kernel)


def test_mat_inverse_against_sympy():
    for kind, shape, rng in _cases(1902, 36):
        n = rng.randint(1, 5)
        m = _mat(kind, shape, n, n, rng)
        if _sym(m).det() == 0:
            with pytest.raises(ValueError):
                mat_inverse(m)
        else:
            assert m @ mat_inverse(m) == Mat.identity(n), (kind, shape)


def test_subspace_intersect_against_sympy():
    for kind, shape, rng in _cases(1903, 36):
        k = rng.randint(1, 5)
        a_rows = _mat(kind, shape, rng.randint(1, k), k, rng)
        b_rows = _mat(kind, rng.choice(SHAPES), rng.randint(1, k), k, rng)
        # a B that shares a row with A, so some intersections are not zero
        if rng.random() < 0.5:
            b_rows = Mat.from_rows(b_rows.rows() + a_rows.rows()[:1])
        a = canonicalize(a_rows.rows(), k)
        b = canonicalize(b_rows.rows(), k)
        both = subspace_intersect(a, b)
        total = _sym(a.basis_rows).col_join(_sym(b.basis_rows)).rank()
        assert both.dim == a.dim + b.dim - total, (kind, shape)
        assert both.dim == a.dim + b.dim - subspace_sum(a, b).dim
        for row in both.basis_rows.rows():
            assert a.contains(row) and b.contains(row)


def test_linear_relations_against_sympy():
    for kind, shape, rng in _cases(1904, 36):
        count, width = rng.randint(1, 5), rng.randint(1, 4)
        stacked = _mat(kind, shape, count, width, rng)
        items = stacked.rows()
        relations = linear_relations(items)
        assert len(relations) == count - _sym(stacked).rank(), (kind, shape)
        for c in relations:
            assert len(c) == count
            assert (Mat.from_rows([c]) @ stacked).is_zero()
        if relations:
            assert _sym(Mat.from_rows(relations)).rank() == len(relations)


def test_ad_matrix_against_a_column_by_column_reference():
    for kind, shape, rng in _cases(1905, 12):
        n = rng.randint(2, 3)
        gens = [_mat(kind, "random", n, n, rng) for _ in range(2)]
        if shape != "random":
            # upper-triangular generators give solvable, smaller algebras
            gens = [Mat.from_rows([[g.entry(i, j) if j >= i else 0 for j in range(n)] for i in range(n)]) for g in gens]
        algebra = lie_closure(gens, ambient_dim=n)
        if algebra.dim == 0:
            continue
        a = algebra.combination([_entry(kind, rng) for _ in range(algebra.dim)])
        basis = sympy.Matrix.hstack(*[_sym(_flat(b)).T for b in algebra.basis_mats])
        columns = []
        for b in algebra.basis_mats:
            solution, params = basis.gauss_jordan_solve(_sym(_flat(bracket(a, b))).T)
            assert params.shape[0] == 0
            columns.append(solution)
        assert _sym(ad_matrix(algebra, a)) == sympy.Matrix.hstack(*columns), (kind, shape)


def test_ad_matrix_refuses_an_element_outside_the_normalizer():
    algebra = lie_closure([Mat.unit(2, 0, 1)], ambient_dim=2)
    with pytest.raises(NormalizerError):
        ad_matrix(algebra, Mat.unit(2, 1, 0))
