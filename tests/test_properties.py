"""Property-based tests for the algebraic invariants."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gradelie.scalars import GaussianRational
from gradelie.matrices import Mat, bracket, jordan_product
from gradelie.subspaces import canonicalize, subspace_intersect, subspace_sum
from gradelie.groups import FinAbGroup, cyclic_pair
from gradelie.lie import derived_series, is_nilpotent_lie, is_solvable, lie_closure
from gradelie.grading import ampliate, check_maptri, verify_subgrading
from gradelie.generators import gen_weight_graded

small_fraction = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 3)
)
scalar = st.builds(GaussianRational, small_fraction, small_fraction)


def mat_strategy(n):
    return st.lists(
        st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Mat.from_rows)


dims = st.integers(2, 3)


@st.composite
def square_mats(draw, count=1):
    n = draw(dims)
    return [draw(mat_strategy(n)) for _ in range(count)]


@given(square_mats(count=2))
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetric_traceless(mats):
    a, b = mats
    w = bracket(a, b)
    assert w == -bracket(b, a)
    assert w.trace().is_zero()


@given(square_mats(count=3))
@settings(max_examples=60, deadline=None)
def test_jacobi(mats):
    a, b, c = mats
    jacobi = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert jacobi.is_zero()


@given(square_mats(count=3))
@settings(max_examples=60, deadline=None)
def test_triple_product_from_jordan_products(mats):
    a, b, c = mats
    lhs = bracket(a, bracket(b, c))
    rhs = jordan_product(jordan_product(a, b), c) - jordan_product(
        jordan_product(a, c), b
    )
    assert lhs == rhs


vectors = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=4)


@given(vectors)
@settings(max_examples=80, deadline=None)
def test_canonicalize_projection(vecs):
    s = canonicalize(vecs, ambient_dim=3)
    assert canonicalize(s.basis_rows.rows(), ambient_dim=3) == s


@given(vectors, vectors)
@settings(max_examples=60, deadline=None)
def test_dimension_formula(va, vb):
    a = canonicalize(va, ambient_dim=3)
    b = canonicalize(vb, ambient_dim=3)
    assert (
        subspace_sum(a, b).dim + subspace_intersect(a, b).dim == a.dim + b.dim
    )


@given(st.lists(st.integers(1, 6), min_size=0, max_size=2))
@settings(max_examples=40, deadline=None)
def test_noncyclic_pairs_iff_cyclic(moduli):
    group = FinAbGroup(moduli)
    elems = group.elements()
    noncyclic = [(a, b) for a in elems for b in elems if not cyclic_pair(group, a, b)]
    assert (len(noncyclic) == 0) == group.is_cyclic()


int_mats = st.lists(
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3).map(
        Mat.from_int_rows
    ),
    min_size=1,
    max_size=2,
)


@given(int_mats)
@settings(max_examples=40, deadline=None)
def test_closure_idempotent(gens):
    algebra = lie_closure(gens, ambient_dim=3)
    again = lie_closure(list(algebra.basis_mats), ambient_dim=3)
    assert algebra.span == again.span


@given(int_mats, st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_weight_graded_ampliation_roundtrip(gens, seed):
    from gradelie.generators import gen_weight_graded

    s = gen_weight_graded(3, [2], seed)
    result = ampliate(s)
    amp = result.ampliated
    # re-verifying the produced components must succeed
    re_verified = verify_subgrading(
        amp.algebra, amp.group, {g: c for g, c in amp.components.items() if c.dim}
    )
    assert re_verified.is_direct
    assert sum(c.dim for c in amp.components.values()) == amp.algebra.dim


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_solvable_families_stay_solvable(seed):
    from gradelie.generators import gen_solvable

    assert is_solvable(gen_solvable(3, seed))


small_moduli = st.sampled_from([[2], [3], [4], [5], [2, 2], [2, 3]])


@given(st.integers(2, 4), small_moduli, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_graded_series_match_the_kronecker_form(n, moduli, seed):
    s = gen_weight_graded(n, moduli, seed)
    # a non-direct one too: L in degree 0 and the ideal [L, L] again in degree 1 of Z_2
    derived = derived_series(s.algebra).terms[1]
    doubled = verify_subgrading(s.algebra, FinAbGroup([2]), {(0,): s.algebra.span, (1,): derived})
    for graded in (s, doubled):
        amp = ampliate(graded).ampliated
        report = check_maptri(graded)
        assert report.ampliated_engel == is_nilpotent_lie(amp.algebra)
        assert report.ampliated_solvable == is_solvable(amp.algebra)
