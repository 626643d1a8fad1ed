import random
from fractions import Fraction

import pytest

from gradelie.scalars import Q, GaussianRational
from gradelie.matrices import Mat, bracket, flatten
from gradelie.subspaces import linear_relations, mat_span
from gradelie.groups import FinAbGroup
from gradelie.lie import lie_closure
from gradelie.grading import (
    GradingError,
    ampliate,
    check_maptri,
    coarsen_by_subgroup,
    endo_eigenspace_product_check,
    grading_from_automorphism,
    homogeneous_commutators,
    nonzero_opposite_bracket_ideal,
    opposite_bracket_ideal,
    verify_subgrading,
)

E = Mat.unit


def pauli_graded():
    a = Mat.from_rows([[0, 1], [-1, 0]])
    b = Mat.from_rows([[Q(0), Q(0, -1)], [Q(0, -1), Q(0)]])
    c = Mat.from_rows([[Q(0, -1), Q(0)], [Q(0), Q(0, 1)]])
    algebra = lie_closure([a, b])
    return a, b, c, verify_subgrading(
        algebra, FinAbGroup([2, 2]), {(0, 1): [a], (1, 0): [b], (1, 1): [c]}
    )


def weight_graded_sl2():
    e = E(2, 0, 1)
    f = E(2, 1, 0).scale(Fraction(1, 2))
    g = Mat.from_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
    algebra = lie_closure([e, f])
    return e, f, g, verify_subgrading(
        algebra, FinAbGroup([3]), {(0,): [g], (1,): [e], (2,): [f]}
    )


def test_trivial_grading():
    algebra = lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    s = verify_subgrading(algebra, FinAbGroup(()), {(): algebra.span})
    assert s.is_direct
    assert s.component(()).dim == 3


def test_pauli_grading_direct_with_empty_zero():
    _, _, _, s = pauli_graded()
    assert s.is_direct
    assert s.component((0, 0)).dim == 0
    assert {g: s.component(g).dim for g in s.support} == {
        (0, 1): 1,
        (1, 0): 1,
        (1, 1): 1,
    }


def test_weight_grading_valid():
    _, _, _, s = weight_graded_sl2()
    assert s.is_direct
    assert s.component((0,)).dim == 1


def test_grading_violation_reports_witness():
    e, f, g, _ = weight_graded_sl2()
    algebra = lie_closure([e, f])
    with pytest.raises(GradingError) as info:
        verify_subgrading(
            algebra, FinAbGroup([3]), {(0,): [e], (1,): [g], (2,): [f]}
        )
    assert info.value.witness is not None


def test_component_sum_must_cover():
    e, f, g, _ = weight_graded_sl2()
    algebra = lie_closure([e, f])
    with pytest.raises(GradingError):
        verify_subgrading(algebra, FinAbGroup([3]), {(1,): [e], (2,): [f]})


def test_homogeneous_commutators():
    a, b, c, s = pauli_graded()
    tagged = homogeneous_commutators(s)
    by_degree = {}
    for degree, m in tagged:
        if not m.is_zero():
            by_degree.setdefault(degree, []).append(m)
    assert mat_span(by_degree[(1, 1)]) == mat_span([c])
    assert mat_span(by_degree[(0, 1)]) == mat_span([a])
    assert mat_span(by_degree[(1, 0)]) == mat_span([b])
    # abelian graded algebra: all commutators literally zero
    ab = lie_closure([E(2, 0, 0), E(2, 1, 1)])
    sab = verify_subgrading(
        ab, FinAbGroup([2]), {(0,): [E(2, 0, 0)], (1,): [E(2, 1, 1)]}
    )
    assert all(m.is_zero() for _, m in homogeneous_commutators(sab))


def test_opposite_bracket_ideals():
    _, _, _, s = pauli_graded()
    # every degree is its own negative and the components are lines
    p = opposite_bracket_ideal(s)
    assert p.component((0, 0)).dim == 0
    assert p.algebra.dim == 3
    e, f, g, s1 = weight_graded_sl2()
    p1 = opposite_bracket_ideal(s1)
    assert p1.component((0,)) == mat_span([g])
    p2 = nonzero_opposite_bracket_ideal(s1)
    assert p2.component((0,)) == mat_span([g])  # [L_1, L_2] already spans it
    ab = lie_closure([E(2, 0, 0), E(2, 1, 1)])
    sab = verify_subgrading(
        ab, FinAbGroup([2]), {(0,): [E(2, 0, 0)], (1,): [E(2, 1, 1)]}
    )
    assert nonzero_opposite_bracket_ideal(sab).component((0,)).dim == 0


def test_ampliate_pauli():
    _, _, _, s = pauli_graded()
    result = ampliate(s)
    amp = result.ampliated
    assert amp.algebra.ambient_dim == 8
    assert amp.is_direct
    assert sorted(amp.support) == sorted(s.support)
    pairs = [
        (m, o) for deg in result.back_map_table for m, o in result.back_map_table[deg]
    ]
    for m1, o1 in pairs:
        for m2, o2 in pairs:
            assert result.f_pi(bracket(m1, m2)) == bracket(o1, o2)


def test_ampliate_nondirect_doubles():
    e12 = E(2, 0, 1)
    algebra = lie_closure([e12])
    s = verify_subgrading(
        algebra, FinAbGroup([2]), {(0,): [e12], (1,): [e12]}
    )
    assert not s.is_direct
    result = ampliate(s)
    assert result.ampliated.is_direct
    assert result.ampliated.algebra.dim == 2
    assert s.algebra.dim == 1


def test_f_pi_rejects_outside():
    _, _, _, s = pauli_graded()
    result = ampliate(s)
    # identity is degreewise decomposable (I_2 tensor pi(0)) and collapses to I_2
    assert result.f_pi(Mat.identity(8)) == Mat.identity(2)
    # a lone unit matrix breaks the tensor consistency pattern
    with pytest.raises(ValueError):
        result.f_pi(E(8, 0, 1))


def test_check_maptri():
    _, _, _, s = pauli_graded()
    rep = check_maptri(s)
    assert rep.ok
    assert not rep.ampliated_solvable and not rep.original_solvable
    heis = lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    sheis = verify_subgrading(
        heis,
        FinAbGroup([2]),
        {(0,): [E(3, 0, 2)], (1,): [E(3, 0, 1), E(3, 1, 2)]},
    )
    rep2 = check_maptri(sheis)
    assert rep2.ok and rep2.ampliated_engel and rep2.original_engel


def _coords_in(mats, m):
    for combo in linear_relations(mats + [m]):
        if not combo[-1].is_zero():
            s = combo[-1]
            return [-(x / s) for x in combo[:-1]]
    return None


def _order_two_automorphism(sl2, e, f, g):
    cols = []
    for bj in sl2.basis_mats:
        al, be, ga = _coords_in([e, f, g], bj)
        img = e.scale(-al) + f.scale(-be) + g.scale(ga)
        cols.append(sl2.span.coordinates(flatten(img)))
    return Mat.from_rows([[cols[j][i] for j in range(3)] for i in range(3)])


def test_grading_from_automorphism_order_two():
    e, f, g, _ = weight_graded_sl2()
    sl2 = lie_closure([e, f])
    phi = _order_two_automorphism(sl2, e, f, g)
    s = grading_from_automorphism(sl2, phi, 2)
    assert s.component((0,)) == mat_span([g])
    assert s.component((1,)) == mat_span([e, f])
    assert s.is_direct


def test_grading_from_identity():
    heis = lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    s = grading_from_automorphism(heis, Mat.identity(3), 1)
    assert s.component((0,)).dim == 3


def test_grading_from_order_four_rotation():
    ab = lie_closure([E(2, 0, 0), E(2, 1, 1)])
    phi = Mat.from_rows([[Q(0), Q(1)], [Q(-1), Q(0)]])
    s = grading_from_automorphism(ab, phi, 4)
    assert s.component((1,)).dim == 1
    assert s.component((3,)).dim == 1
    assert s.component((0,)).dim == 0


def test_grading_from_order_three_rejects():
    ab = lie_closure([E(2, 0, 0), E(2, 1, 1)])
    rot3 = Mat.from_rows([[0, -1], [1, -1]])
    assert rot3.power(3) == Mat.identity(2)
    with pytest.raises(GradingError):
        grading_from_automorphism(ab, rot3, 3)


def test_grading_from_non_automorphism_rejects():
    e, f, g, _ = weight_graded_sl2()
    sl2 = lie_closure([e, f])
    bad = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(GradingError):
        grading_from_automorphism(sl2, bad, 2)


def test_coarsen_by_subgroup():
    a, b, c, s = pauli_graded()
    m = coarsen_by_subgroup(s, [(0, 1)])
    assert m.group.moduli == (2,)
    assert m.component((0,)) == mat_span([a])
    assert m.component((1,)) == mat_span([b, c])
    whole = coarsen_by_subgroup(s, [(0, 1), (1, 0)])
    assert whole.group.order == 1
    assert whole.component(()).dim == 3
    e, f, g, s1 = weight_graded_sl2()
    unchanged = coarsen_by_subgroup(s1, [])
    assert {x: unchanged.component(x).dim for x in unchanged.support} == {
        (0,): 1,
        (1,): 1,
        (2,): 1,
    }
    with pytest.raises(ValueError):
        coarsen_by_subgroup(s, [(0, 5)])


def test_endo_eigenspace_products():
    e, f, g, _ = weight_graded_sl2()
    sl2 = lie_closure([e, f])
    phi = _order_two_automorphism(sl2, e, f, g)
    report = endo_eigenspace_product_check(sl2, phi)
    assert report.ok
    assert any(abs(lam + 1) < 1e-6 for lam in report.eigenvalues)
    ident = endo_eigenspace_product_check(sl2, Mat.identity(3))
    assert ident.ok


def test_round_trip_reverification():
    # every grading-producing operation yields data verify_subgrading accepts
    a, b, c, s = pauli_graded()
    for produced in (
        coarsen_by_subgroup(s, [(0, 1)]),
        opposite_bracket_ideal(s),
        nonzero_opposite_bracket_ideal(s),
        ampliate(s).ampliated,
    ):
        again = verify_subgrading(
            produced.algebra,
            produced.group,
            {g: sub for g, sub in produced.components.items() if sub.dim},
        )
        assert again.is_direct == produced.is_direct
    e, f, g, _ = weight_graded_sl2()
    sl2 = lie_closure([e, f])
    phi = _order_two_automorphism(sl2, e, f, g)
    produced = grading_from_automorphism(sl2, phi, 2)
    again = verify_subgrading(
        produced.algebra,
        produced.group,
        {x: sub for x, sub in produced.components.items() if sub.dim},
    )
    assert again.is_direct


def test_endo_random_diagonal_weights():
    rng = random.Random(3)
    for _ in range(50):
        n = 3
        gl = lie_closure(
            [E(n, i, j) for i in range(n) for j in range(n)], ambient_dim=n
        )
        d = gl.dim
        diag = [GaussianRational(rng.choice([1, -1, 2]))]
        phi_grid = [[GaussianRational(0)] * d for _ in range(d)]
        # conjugation by an invertible diagonal matrix is an automorphism
        entries = [GaussianRational(rng.choice([1, -1, 2])) for _ in range(n)]
        dm = Mat.from_rows(
            [[entries[i] if i == j else Q(0) for j in range(n)] for i in range(n)]
        )
        inv = Mat.from_rows(
            [
                [Q(1) / entries[i] if i == j else Q(0) for j in range(n)]
                for i in range(n)
            ]
        )
        cols = []
        for bj in gl.basis_mats:
            img = dm @ bj @ inv
            cols.append(gl.span.coordinates(flatten(img)))
        phi = Mat.from_rows([[cols[j][i] for j in range(d)] for i in range(d)])
        report = endo_eigenspace_product_check(gl, phi)
        assert report.ok
