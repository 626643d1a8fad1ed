"""Differential tests of the nil decision's image chain, its batched
nilpotency check, and the echelon's real rows.

``lie._nil_by_products`` walks U_j = V^j Q(i)^m.  It is checked against the
product chain it replaced, W_j = span(V W_{j-1}) in gl(m), kept here as the
reference: ``mat_span`` of the products formed one at a time.  The families
are seeded real, Gaussian and bigint ones, plus integer ones whose chain
starts under the int64 bound and leaves it.  ``matrices.all_nilpotent_exact``
is checked against ``is_nilpotent_exact`` on each matrix.  The echelon engine
is checked against sympy's RREF over Q(i) on rows that mix real and complex
entries, with negative real pivots; a stored row must be the one normalized
form of its value.
"""

import math
import random
from fractions import Fraction

import pytest

import gradelie.lie as lie_module
import gradelie.matrices as matrices_module
from gradelie.lie import _nil_by_products
from gradelie.matrices import _INT64_SAFE, Mat, all_nilpotent_exact, is_nilpotent_exact
from gradelie.scalars import GaussianRational
from gradelie.subspaces import _Echelon, mat_inverse, mat_span, span_basis_mats

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


def _random_mat(kind: str, n: int, rng: random.Random, keep=lambda i, j: True) -> Mat:
    return Mat.from_rows([[_entry(kind, rng) if keep(i, j) else 0 for j in range(n)] for i in range(n)])


def _unimodular(n: int, rng: random.Random) -> tuple[Mat, Mat]:
    """A seeded integer g = L U with unit diagonals, and its inverse."""
    lower = Mat.from_int_rows([[int(i == j) or (rng.randint(-1, 1) if i > j else 0) for j in range(n)] for i in range(n)])
    upper = Mat.from_int_rows([[int(i == j) or (rng.randint(-1, 1) if i < j else 0) for j in range(n)] for i in range(n)])
    g = lower @ upper
    return g, mat_inverse(g)


def _reference_chain(mats, n: int) -> bool:
    """The product chain: True when W_j = span(V W_{j-1}) reaches 0 within n steps."""
    level = list(mats)
    for _ in range(n - 1):
        nxt = mat_span([a @ w for a in mats for w in level], n)
        if nxt.is_zero():
            return True
        level = span_basis_mats(nxt, n)
    return False


def _count_matmuls(monkeypatch) -> list:
    calls = []
    original = Mat.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    return calls


def _chain_families(kind: str, n: int, rng: random.Random):
    """Spanning sets on which the chain vanishes, stops at a nonzero
    subspace, or stops at once."""
    g, gi = _unimodular(n, rng)
    strict = lambda i, j: j > i  # noqa: E731
    nil = [g @ _random_mat(kind, n, rng, strict) @ gi for _ in range(rng.randint(1, 4))]
    yield nil
    # strictly upper but for a last diagonal block the chain cannot shrink
    tail = lambda i, j: j > i or (i >= n - 2 and j >= n - 2)  # noqa: E731
    yield nil[:1] + [g @ _random_mat(kind, n, rng, tail) @ gi]
    if n <= 4:
        # a dense member: W_j fills gl(n), which the reference is slow to reach past n = 4
        yield nil + [_random_mat(kind, n, rng)]


def _edge_family(n: int, rng: random.Random):
    """Strictly upper integer matrices whose largest numerator is 2^27: the
    chain's first product is int64-safe for n <= 6, and its second is not."""
    big = 2**27
    mats = []
    for _ in range(rng.randint(2, 3)):
        re = [rng.randint(-big, big) if j > i else 0 for i in range(n) for j in range(n)]
        re[n - 1] = big
        mats.append(Mat._normalized(n, n, re, [0] * (n * n), 1))
    return mats


def test_image_chain_matches_the_product_chain(monkeypatch):
    rng = random.Random(2101)
    verdicts = set()
    paths = set()
    for n in range(2, 7):
        families = [(kind, mats) for kind in KINDS for mats in _chain_families(kind, n, rng)]
        families.append(("edge", _edge_family(n, rng)))
        for kind, mats in families:
            basis = span_basis_mats(mat_span(mats, n), n)
            want = _reference_chain(basis, n)
            calls = _count_matmuls(monkeypatch)
            got = _nil_by_products(basis, n)
            monkeypatch.undo()
            assert got == want, (kind, n)
            verdicts.add(want)
            paths.add(bool(calls))
    assert verdicts == {True, False}
    # some chains made only int64 products, and some made exact ones
    assert paths == {True, False}


def _edge_mat(rows: int, cols: int, big: int, gaussian: bool, rng: random.Random) -> Mat:
    """An integer matrix whose largest numerator is exactly ``big``."""
    re = [rng.randint(-big, big) for _ in range(rows * cols)]
    re[rng.randrange(rows * cols)] = rng.choice((-big, big))
    im = [rng.randint(-big, big) for _ in range(rows * cols)] if gaussian else [0] * (rows * cols)
    return Mat._normalized(rows, cols, re, im, 1)


@pytest.mark.parametrize("gaussian", [False, True])
def test_image_chain_on_each_side_of_the_int64_bound(monkeypatch, gaussian):
    """One level [A_1 B | ... | A_d B] is the exact products, made with no
    single product under the bound and with one per A_i above it."""
    rng = random.Random(2102)
    n, k, big_a = 4, 3, 2**29
    for big_b, exact in ((2**30 - 1, False), (2**30, True)):
        assert (2 * n * big_a * big_b < _INT64_SAFE) is not exact
        mats = [_edge_mat(n, n, big_a, gaussian, rng) for _ in range(3)]
        b = _edge_mat(n, k, big_b, gaussian, rng)
        b_rows = lambda grid: [list(grid[r * k : (r + 1) * k]) for r in range(n)]  # noqa: E731
        calls = _count_matmuls(monkeypatch)
        re, im = lie_module._images(mats, b_rows(b.re), b_rows(b.im) if gaussian else None)
        monkeypatch.undo()
        assert len(calls) == (len(mats) if exact else 0)
        im = im or [[0] * (len(mats) * k)] * n
        for i, a in enumerate(mats):
            block = lambda rows: [v for row in rows for v in row[i * k : (i + 1) * k]]  # noqa: E731
            assert Mat._normalized(n, k, block(re), block(im), 1) == a @ b, (big_b, i)


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


def test_nil_chain_forms_d_products_per_level_above_the_bound(monkeypatch):
    rng = random.Random(2104)
    n = 4
    # 2 * n * 2^61 is past the bound whatever the right-hand factor holds
    mats = [_strictly_upper(n, 2**61, rng) for _ in range(2)]
    calls = _count_matmuls(monkeypatch)
    levels = []
    original = lie_module._images

    def recorded(lefts, b_re, b_im):
        before = len(calls)
        out = original(lefts, b_re, b_im)
        levels.append(len(calls) - before)
        return out

    monkeypatch.setattr(lie_module, "_images", recorded)
    assert _nil_by_products(mats, n)
    assert len(levels) >= 2
    assert levels == [len(mats)] * len(levels)


def _per_matrix(mats) -> bool:
    return all(is_nilpotent_exact(a) for a in mats)


def _conjugated(mats, rng: random.Random):
    g, gi = _unimodular(mats[0].n_rows, rng)
    return [g @ a @ gi for a in mats]


def test_batched_nilpotency_on_conjugated_jordan_blocks():
    """J_n has index exactly n: one squaring short of exponent n reads it as
    not nilpotent."""
    rng = random.Random(2106)
    for n in range(2, 8):
        jordan = Mat.from_int_rows([[int(j == i + 1) for j in range(n)] for i in range(n)])
        powers = [jordan.power(k) for k in range(1, n)]
        # trace 0 and not nilpotent: diag(1, -1, 0, ...)
        hyperbolic = Mat.from_int_rows([[(i == j) * (1 if i == 0 else -1 if i == 1 else 0) for j in range(n)] for i in range(n)])
        assert not jordan.power(n - 1).is_zero()
        for mats, want in ((powers, True), (powers + [hyperbolic], False), ([hyperbolic], False)):
            mats = _conjugated(mats, rng)
            assert _per_matrix(mats) is want
            assert all_nilpotent_exact(mats) is want, n


def test_batched_nilpotency_refuses_a_nonzero_trace_first(monkeypatch):
    rng = random.Random(2107)
    mats = _conjugated([_strictly_upper(4, 2, rng) for _ in range(3)] + [Mat.identity(4)], rng)
    assert not _per_matrix(mats)
    # with no numpy, a squaring would raise: the trace alone must refute
    monkeypatch.setattr(matrices_module, "np", None)
    assert not all_nilpotent_exact(mats)


def test_batched_nilpotency_on_a_gaussian_set():
    rng = random.Random(2108)
    for n in range(2, 6):
        strict = lambda i, j: j > i  # noqa: E731
        nil = _conjugated([_random_mat("gaussian", n, rng, strict) for _ in range(3)], rng)
        # i E_{0,1} + E_{1,0} has trace 0 and square i on its block
        swap = Mat.from_rows([[I if (i, j) == (0, 1) else int((i, j) == (1, 0)) for j in range(n)] for i in range(n)])
        for mats, want in ((nil, True), (nil + _conjugated([swap], rng), False)):
            assert _per_matrix(mats) is want
            assert all_nilpotent_exact(mats) is want, n


@pytest.mark.parametrize("gaussian", [False, True])
def test_batched_nilpotency_just_above_the_int64_bound(monkeypatch, gaussian):
    n = 4
    big = math.isqrt((_INT64_SAFE - 1) // (2 * n))
    assert 2 * n * big * big < _INT64_SAFE <= 2 * n * (big + 1) ** 2
    rng = random.Random(2109)
    nil = []
    for _ in range(3):
        re = [rng.randint(-9, 9) if j > i else 0 for i in range(n) for j in range(n)]
        re[n - 1] = big + 1
        im = [rng.randint(-9, 9) if j > i and gaussian else 0 for i in range(n) for j in range(n)]
        nil.append(Mat._normalized(n, n, re, im, 1))
    # trace 0, square (big + 1) on its block: not nilpotent
    cycle = Mat._normalized(n, n, [0, big + 1] + [0] * 2 + [1] + [0] * 11, [0] * 16, 1)
    for mats, want in ((nil, True), (nil + [cycle], False)):
        exact = []
        original = matrices_module.is_nilpotent_exact
        monkeypatch.setattr(matrices_module, "is_nilpotent_exact", lambda a: exact.append(a) or original(a))
        got = all_nilpotent_exact(mats)
        monkeypatch.undo()
        assert got is want is _per_matrix(mats)
        # the bound fails before the first squaring: each matrix is decided exactly
        assert exact == mats


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
