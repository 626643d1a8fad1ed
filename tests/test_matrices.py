import math
import random
from fractions import Fraction

import pytest

from gradelie.scalars import GaussianRational, Q
from gradelie.matrices import (
    Mat,
    NumMat,
    ShapeError,
    bracket,
    flatten,
    is_nilpotent_exact,
    jordan_product,
    to_numeric,
    trace_product,
    triple_product,
    unflatten,
)


def pauli():
    a = Mat.from_rows([[0, 1], [-1, 0]])
    b = Mat.from_rows([[Q(0), Q(0, -1)], [Q(0, -1), Q(0)]])
    c = Mat.from_rows([[Q(0, -1), Q(0)], [Q(0), Q(0, 1)]])
    return a, b, c


def test_pauli_bracket_relations():
    a, b, c = pauli()
    assert bracket(a, b) == c.scale(2)
    assert bracket(b, c) == a.scale(2)
    assert bracket(c, a) == b.scale(2)
    assert bracket(a, a).is_zero()


def test_weight_basis_relations():
    e = Mat.unit(2, 0, 1)
    f = Mat.unit(2, 1, 0).scale(Fraction(1, 2))
    g = Mat.from_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
    assert bracket(e, f) == g
    assert bracket(g, e) == e
    assert bracket(g, f) == -f


def test_bracket_trace_zero():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = Mat.from_int_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = Mat.from_int_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert bracket(a, b).trace().is_zero()


def test_addition_mixed_denominators():
    # regression: the sum denominator must be the lcm, not den^2 / gcd
    a = Mat.from_rows([[Fraction(1, 2), 0], [0, 0]])
    b = Mat.from_rows([[Fraction(1, 3), 0], [0, 0]])
    s = a + b
    assert s.entry(0, 0) == Q(Fraction(5, 6))
    assert s.den == 6
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 3)
        x = Mat.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        )
        y = Mat.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        )
        z = Mat.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        )
        assert (x + y) @ z == x @ z + y @ z
        assert bracket(x + y, z) == bracket(x, z) + bracket(y, z)


def test_matmul_big_entries_fallback():
    big = 10**12
    a = Mat.from_int_rows([[big, 0], [0, big]])
    assert a @ a == Mat.from_int_rows([[big * big, 0], [0, big * big]])


def test_shape_errors():
    a = Mat.from_int_rows([[1, 2]])
    with pytest.raises(ShapeError):
        a @ a
    with pytest.raises(ShapeError):
        a.trace()
    with pytest.raises(ShapeError):
        bracket(a, a)


def test_nilpotency_examples():
    upper = Mat.from_rows([[0, 1, 5], [0, 0, -2], [0, 0, 0]])
    assert is_nilpotent_exact(upper)
    assert not is_nilpotent_exact(Mat.identity(3))
    a = Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    b = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert is_nilpotent_exact(a + b)
    assert (a + b).power(3).is_zero()


def _char_poly_coeffs(a: Mat):
    """Faddeev-LeVerrier; independent oracle for the nilpotency test."""
    n = a.n_rows
    coeffs = [GaussianRational(1)]
    m = Mat.zeros(n)
    c = GaussianRational(1)
    for k in range(1, n + 1):
        m = a @ m + Mat.identity(n).scale(c)
        c = (a @ m).trace() * GaussianRational(Fraction(-1, k))
        coeffs.append(c)
    return coeffs


def test_nilpotency_matches_char_poly_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        a = Mat.from_int_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        )
        if rng.random() < 0.5:
            # bias towards nilpotent inputs
            a = Mat.from_int_rows(
                [
                    [rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                    for i in range(n)
                ]
            )
        coeffs = _char_poly_coeffs(a)
        oracle = all(c.is_zero() for c in coeffs[1:])
        assert is_nilpotent_exact(a) == oracle


def test_flatten_unflatten():
    a, b, c = pauli()
    assert flatten(Mat.identity(2)) == (Q(1), Q(0), Q(0), Q(1))
    assert flatten(c) == (Q(0, -1), Q(0), Q(0), Q(0, 1))
    for m in (a, b, c):
        assert unflatten(flatten(m), 2) == m
    with pytest.raises(ShapeError):
        unflatten((Q(1),) * 3, 2)


def test_jordan_and_triple_products():
    e = Mat.unit(2, 0, 1)
    f = Mat.unit(2, 1, 0)
    assert jordan_product(e, Mat.zeros(2)).is_zero()
    assert jordan_product(e, f) == Mat.identity(2)
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 3)
        mats = [
            Mat.from_int_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            for _ in range(3)
        ]
        a, b, c = mats
        lhs = triple_product(a, b, c)
        rhs = jordan_product(jordan_product(a, b), c) - jordan_product(
            jordan_product(a, c), b
        )
        assert lhs == rhs


def test_to_numeric():
    m = Mat.from_rows([[Fraction(1, 3), Q(Fraction(1, 2), Fraction(1, 2))], [0, 1]])
    nm = to_numeric(m)
    assert nm.array[0, 0] == pytest.approx(1 / 3)
    assert nm.array[0, 1] == pytest.approx(0.5 + 0.5j)
    assert to_numeric(Mat.zeros(2)).array.sum() == 0


def test_to_numeric_overflow_surfaces():
    huge = Mat.from_int_rows([[10**400]])
    with pytest.raises(OverflowError):
        to_numeric(huge)


def test_nummat_rejects_nonfinite():
    with pytest.raises(ValueError):
        NumMat([[float("nan"), 0], [0, 0]])
    with pytest.raises(ValueError):
        NumMat([[float("inf"), 0], [0, 0]])


def test_trace_product_matches_full_product():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = Mat.from_int_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = Mat.from_int_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert trace_product(a, b) == (a @ b).trace()


def test_scalar_detection():
    assert Mat.identity(3).scale(Q(0, 2)).is_scalar()
    assert not Mat.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 1]]).is_scalar()
    assert Mat.zeros(2).is_scalar()


def _gaussian_rational_mat(rng, n, num, dens):
    return Mat.from_rows(
        [
            [
                GaussianRational(
                    Fraction(rng.randint(-num, num), rng.choice(dens)),
                    Fraction(rng.randint(-num, num), rng.choice(dens)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_subtraction_is_addition_of_the_negative():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(20):
            x = _gaussian_rational_mat(rng, n, 6, (1, 2, 3, 4, 9))
            y = _gaussian_rational_mat(rng, n, 6, (1, 2, 5, 6))
            assert x - y == x + (-y)
            assert (x - x).is_zero() and (x - x).den == 1
    with pytest.raises(ShapeError):
        Mat.zeros(2) - Mat.zeros(3)


def test_fused_products_match_matmul():
    rng = random.Random(5)
    for n in range(1, 9):
        for _ in range(12):
            a = _gaussian_rational_mat(rng, n, 9, (1, 2, 3, 4, 6, 10))
            b = _gaussian_rational_mat(rng, n, 9, (1, 3, 5, 7))
            assert bracket(a, b) == a @ b - b @ a
            assert jordan_product(a, b) == a @ b + b @ a


def _entrywise_product(a: Mat, b: Mat) -> list:
    n = a.n_rows
    zero = GaussianRational(0)
    return [
        [sum((a.entry(i, k) * b.entry(k, j) for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def _edge_mat(rng, n, top, den):
    # numerators in [-top, top] with top itself present and a 1 keeping the gcd at 1
    re = [rng.randint(-top, top) for _ in range(n * n)]
    im = [rng.randint(-top, top) for _ in range(n * n)]
    re[0], im[-1] = top, 1
    m = Mat._normalized(n, n, re, im, den)
    assert m.max_abs_num() == top
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_fused_products_at_the_int64_guard(n, monkeypatch):
    rng = random.Random(n)
    below = math.isqrt((2**63 - 1) // (4 * n))
    matmuls = []
    real_matmul = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda x, y: matmuls.append(1) or real_matmul(x, y))
    for top, fused in ((below, True), (below + 1, False)):
        a = _edge_mat(rng, n, top, 2)
        b = _edge_mat(rng, n, top, 3)
        assert (4 * n * top * top < 2**63) == fused
        ab, ba = _entrywise_product(a, b), _entrywise_product(b, a)
        want_bracket = Mat.from_rows([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)])
        want_jordan = Mat.from_rows([[x + y for x, y in zip(r, s)] for r, s in zip(ab, ba)])
        matmuls.clear()
        got_bracket, got_jordan = bracket(a, b), jordan_product(a, b)
        # the int64 kernel never goes through __matmul__; the fallback makes both products
        assert len(matmuls) == (0 if fused else 4)
        assert got_bracket == want_bracket
        assert got_jordan == want_jordan
        assert got_bracket == real_matmul(a, b) - real_matmul(b, a)


def test_zero_operand_with_entries_beyond_int64():
    huge = Mat.from_int_rows([[2**70, 1], [0, -(2**65)]])
    zero = Mat.zeros(2)
    assert (huge @ zero).is_zero() and (zero @ huge).is_zero()
    assert bracket(huge, zero).is_zero() and jordan_product(zero, huge).is_zero()
