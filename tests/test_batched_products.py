"""Differential tests of the batched product span and of the echelon's real rows.

``product_span`` is checked against ``mat_span`` of the products formed one at
a time, the reference kept here, on seeded real, Gaussian and bigint inputs
and on one pair of inputs on each side of the int64 bound.  The echelon engine
is checked against sympy's RREF over Q(i) on rows that mix real and complex
entries, with negative real pivots; a stored row must be the one normalized
form of its value.
"""

import math
import random
from fractions import Fraction

import pytest

import gradelie.lie as lie_module
from gradelie.lie import _nil_by_products
from gradelie.matrices import _INT64_SAFE, Mat
from gradelie.scalars import GaussianRational
from gradelie.subspaces import _Echelon, mat_span, product_span

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

KINDS = ("real", "gaussian", "bigint")
I = GaussianRational(0, 1)


def _entry(kind: str, rng: random.Random):
    if kind == "real":
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    if kind == "gaussian":
        return GaussianRational(rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    return rng.choice((-1, 1)) * (2**70 + rng.randint(-9, 9)) if rng.random() < 0.6 else rng.randint(-2, 2)


def _random_mat(kind: str, n: int, rng: random.Random) -> Mat:
    return Mat.from_rows([[_entry(kind, rng) for _ in range(n)] for _ in range(n)])


def _reference(lefts, rights, n: int):
    return mat_span([a @ w for a in lefts for w in rights], n)


def _count_matmuls(monkeypatch) -> list:
    calls = []
    original = Mat.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    return calls


def test_product_span_matches_the_one_at_a_time_reference():
    rng = random.Random(2101)
    for t in range(36):
        left_kind, right_kind = KINDS[t % 3], KINDS[(t // 3) % 3]
        n = 2 + t % 4
        lefts = [_random_mat(left_kind, n, rng) for _ in range(rng.randint(1, 3))]
        rights = [_random_mat(right_kind, n, rng) for _ in range(rng.randint(1, 4))]
        if t % 4 == 0:
            # a zero and a repeated factor: some products vanish, some repeat
            rights += [Mat.zeros(n), rights[0]]
        got = product_span(lefts, rights, n)
        assert got == _reference(lefts, rights, n), (left_kind, right_kind, n)
    assert product_span([], [Mat.identity(2)], 2).is_zero()


def _edge_mat(n: int, big: int, gaussian: bool, rng: random.Random) -> Mat:
    """An integer n x n matrix whose largest numerator is exactly ``big``."""
    re = [rng.randint(-big, big) for _ in range(n * n)]
    re[rng.randrange(n * n)] = rng.choice((-big, big))
    im = [rng.randint(-big, big) for _ in range(n * n)] if gaussian else [0] * (n * n)
    return Mat._normalized(n, n, re, im, 1)


@pytest.mark.parametrize("gaussian", [False, True])
def test_product_span_on_each_side_of_the_int64_bound(monkeypatch, gaussian):
    rng = random.Random(2102)
    n, big_a = 4, 2**29
    for big_w, one_at_a_time in ((2**30 - 1, False), (2**30, True)):
        assert (2 * n * big_a * big_w < _INT64_SAFE) is not one_at_a_time
        lefts = [_edge_mat(n, big_a, gaussian, rng) for _ in range(2)]
        rights = [_edge_mat(n, big_w, gaussian, rng) for _ in range(3)]
        want = _reference(lefts, rights, n)
        calls = _count_matmuls(monkeypatch)
        got = product_span(lefts, rights, n)
        monkeypatch.undo()
        assert got == want, big_w
        assert len(calls) == (len(lefts) * len(rights) if one_at_a_time else 0)


def _strictly_upper(n: int, big: int, rng: random.Random) -> Mat:
    re = [rng.randint(-3, 3) if j > i else 0 for i in range(n) for j in range(n)]
    re[n - 1] = big
    return Mat._normalized(n, n, re, [0] * (n * n), 1)


def test_nil_chain_forms_no_single_product_on_int64_safe_input(monkeypatch):
    rng = random.Random(2103)
    nil = [_strictly_upper(5, 3, rng) for _ in range(3)]
    not_nil = nil + [Mat.identity(5)]
    calls = _count_matmuls(monkeypatch)
    assert _nil_by_products(nil, 5)
    assert not _nil_by_products(not_nil, 5)
    assert calls == []


def test_nil_chain_forms_d_times_k_products_per_level_above_the_bound(monkeypatch):
    rng = random.Random(2104)
    n = 4
    # 2 * n * 2^61 is past the bound whatever the right-hand factor holds
    mats = [_strictly_upper(n, 2**61, rng) for _ in range(2)]
    calls = _count_matmuls(monkeypatch)
    levels = []
    original = lie_module.product_span

    def recorded(lefts, rights, side):
        before = len(calls)
        out = original(lefts, rights, side)
        levels.append((len(lefts) * len(rights), len(calls) - before))
        return out

    monkeypatch.setattr(lie_module, "product_span", recorded)
    assert _nil_by_products(mats, n)
    assert len(levels) >= 2
    assert all(want == made for want, made in levels), levels


def _sym_entry(v):
    z = v if isinstance(v, GaussianRational) else GaussianRational(v)
    return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
        z.im.numerator, z.im.denominator
    )


def _normal_form(values) -> tuple[list, list, int]:
    """The (re, im, den) of a row of sympy Gaussian rationals, in lowest terms."""
    parts = [sympy.Rational(p) for v in values for p in (sympy.re(v), sympy.im(v))]
    den = math.lcm(*(int(p.q) for p in parts))
    nums = [int(p * den) for p in parts]
    return nums[0::2], nums[1::2], den


def _check_against_sympy(rows, width: int):
    ech = _Echelon(width)
    for row in rows:
        ech.add(row)
    m = sympy.Matrix(len(rows), width, lambda i, j: _sym_entry(rows[i][j]))
    rref, pivots = DomainMatrix.from_Matrix(m).convert_to(sympy.QQ_I).rref()
    rref = rref.to_Matrix()
    assert ech.pivots == list(pivots), rows
    for k, stored in enumerate(ech.rows):
        want = _normal_form(list(rref.row(k)))
        assert (stored[0], stored[1], stored[2]) == want, rows


def test_echelon_rows_mixing_real_and_complex_match_sympy():
    named = {
        "real row against a complex pivot row": [[1, I, 2], [2, 3, 1]],
        "complex row against a real pivot row": [[1, 2, 0], [3, 1 + I, I]],
        "negative real pivots": [[-2, 4, 6], [0, -3, 1], [-1, -1, -1]],
        "complex row reduced to a negative real pivot": [[1, I, 0], [2, 2 * I - 3, 5]],
        "real rows against a row made real by reduction": [[2, 2 * I, 1], [1, I - 1, 0], [3, -5, 7]],
    }
    for name, rows in named.items():
        _check_against_sympy(rows, len(rows[0]))
    rng = random.Random(2105)
    for _ in range(60):
        width, count = rng.randint(2, 5), rng.randint(1, 6)
        rows = []
        for _ in range(count):
            kind = rng.choice(("real", "real", "gaussian"))
            row = [_entry(kind, rng) for _ in range(width)]
            if rng.random() < 0.5:
                row[rng.randrange(width)] = -rng.randint(1, 4)
            if rows and rng.random() < 0.3:
                # a combination of earlier rows, which must reduce to zero
                row = [a - 2 * b for a, b in zip(rows[-1], rng.choice(rows))]
            rows.append(row)
        _check_against_sympy(rows, width)
