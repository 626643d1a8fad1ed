import random
from fractions import Fraction

import pytest

from gradelie.matrices import Mat, bracket
from gradelie.subspaces import mat_span
from gradelie.lie import PreconditionError, is_solvable, lie_closure
from gradelie.groups import FinAbGroup
from gradelie.grading import verify_subgrading
from gradelie.structures import (
    MatSubspace,
    bracket_power_spans,
    is_jordan_algebra,
    is_jordan_ideal,
    is_lie_n_product_system,
    is_lie_triple_system,
    jordan_ideal_chain,
    jordan_ideal_generated,
    jordan_to_z2,
    m_bracket_powers,
    triple_envelope,
    triple_to_z2,
)

E = Mat.unit


def e2_system():
    a = Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    b = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    return a, b, MatSubspace.from_matrices([a, b])


def test_lie_algebras_are_triple_systems():
    sl2 = MatSubspace.from_matrices(
        [E(2, 0, 1), E(2, 1, 0), Mat.from_rows([[1, 0], [0, -1]])]
    )
    assert is_lie_triple_system(sl2)
    assert is_lie_triple_system(MatSubspace.from_matrices([E(2, 0, 1)]))


def test_e2_triple_verdict_and_powers():
    a, b, m = e2_system()
    # [a, [a, b]] = -3(E12 + E23) has the wrong sign pattern for span{a, b}
    assert not is_lie_triple_system(m)
    p2 = m_bracket_powers(m, 2)
    assert mat_span(p2) == mat_span([Mat.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 1]])])
    assert is_lie_n_product_system(m, 5)
    assert not is_lie_n_product_system(m, 2)
    assert not is_lie_n_product_system(m, 3)
    assert not is_lie_n_product_system(m, 4)


def test_bracket_powers_of_abelian():
    m = MatSubspace.from_matrices([E(3, 0, 1), E(3, 0, 2)])
    assert m_bracket_powers(m, 2) == []
    assert is_lie_n_product_system(m, 2)


def test_bracket_powers_come_from_one_walk(monkeypatch):
    # every level of one walk equals the level-by-level oracle; the walk to
    # M^[5] brackets the pairs of M's basis once and then each basis element
    # with the basis of each level once: 1 + 2 * (1 + 2 + 3) on e2's subspace
    from gradelie import matrices
    from gradelie.generators import gen_nilpotent_triple
    from gradelie.subspaces import span_basis_mats

    calls = []
    real = matrices.bracket
    monkeypatch.setattr(matrices, "bracket", lambda a, b: calls.append(1) or real(a, b))
    subspaces = [e2_system()[2]] + [gen_nilpotent_triple(n, seed) for n in (3, 4) for seed in range(3)]
    for m in subspaces:
        n = m.ambient_dim
        spans = bracket_power_spans(m, 6)
        level = list(m.basis_mats)
        for span in spans:
            assert span == mat_span(level, n)
            level = [real(a, b) for a in m.basis_mats for b in span_basis_mats(span, n)]
    del calls[:]
    bracket_power_spans(MatSubspace.from_matrices(e2_system()[:2]), 5)
    assert len(calls) == 13


def test_bracket_powers_reuse_the_commutator(monkeypatch):
    from gradelie import matrices, structures
    from gradelie.lie import commutator_span

    calls = []
    for module in (matrices, structures):
        monkeypatch.setattr(module, "bracket", lambda a, b, real=bracket: calls.append(1) or real(a, b))
    _, _, m = e2_system()
    commutator_span(m)
    del calls[:]
    assert mat_span(m_bracket_powers(m, 2)) == commutator_span(m)
    assert calls == []


def test_weight_pair_powers():
    e = E(2, 0, 1)
    f = E(2, 1, 0).scale(Fraction(1, 2))
    m = MatSubspace.from_matrices([e, f])
    p2 = m_bracket_powers(m, 2)
    g = Mat.from_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
    assert mat_span(p2) == mat_span([g])


def test_triple_envelope_examples():
    sl2_mats = [E(2, 0, 1), E(2, 1, 0), Mat.from_rows([[1, 0], [0, -1]])]
    already = MatSubspace.from_matrices(sl2_mats)
    assert triple_envelope(already).span == mat_span(sl2_mats)
    sym = MatSubspace.from_matrices(
        [Mat.from_rows([[1, 0], [0, -1]]), Mat.from_rows([[0, 1], [1, 0]])]
    )
    assert triple_envelope(sym).dim == 3
    offdiag = MatSubspace.from_matrices([E(2, 0, 1), E(2, 1, 0)])
    assert triple_envelope(offdiag).dim == 3
    _, _, m = e2_system()
    with pytest.raises(PreconditionError):
        triple_envelope(m)


def test_triple_to_z2():
    abelian = MatSubspace.from_matrices([E(3, 0, 1), E(3, 0, 2)])
    s = triple_to_z2(abelian)
    assert s.component((0,)).dim == 0
    offdiag = MatSubspace.from_matrices([E(2, 0, 1), E(2, 1, 0)])
    s2 = triple_to_z2(offdiag)
    assert s2.component((0,)) == mat_span([Mat.from_rows([[1, 0], [0, -1]])])
    assert s2.component((1,)) == offdiag.span
    assert s2.is_direct
    sl2 = MatSubspace.from_matrices(
        [E(2, 0, 1), E(2, 1, 0), Mat.from_rows([[1, 0], [0, -1]])]
    )
    s3 = triple_to_z2(sl2)
    assert not s3.is_direct
    assert s3.component((0,)).dim == 3 and s3.component((1,)).dim == 3


def test_e2_z4_subgrading():
    a, b, m = e2_system()
    algebra = lie_closure([a, b])
    comps = {
        (1,): mat_span(list(m.basis_mats), 3),
        (2,): mat_span(m_bracket_powers(m, 2), 3),
        (3,): mat_span(m_bracket_powers(m, 3), 3),
        (0,): mat_span(m_bracket_powers(m, 4), 3),
    }
    s = verify_subgrading(algebra, FinAbGroup([4]), comps)
    assert s.algebra.dim == 8
    assert {g: s.component(g).dim for g in s.support} == {
        (0,): 3,
        (1,): 2,
        (2,): 1,
        (3,): 2,
    }


def test_jordan_algebra_examples():
    sym = MatSubspace.from_matrices(
        [E(2, 0, 0), E(2, 1, 1), Mat.from_rows([[0, 1], [1, 0]])]
    )
    assert is_jordan_algebra(sym)
    gl2 = MatSubspace.from_matrices(
        [E(2, i, j) for i in range(2) for j in range(2)]
    )
    assert is_jordan_algebra(gl2)
    upper = MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    assert is_jordan_algebra(upper)
    not_jordan = MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1) + E(2, 1, 0)])
    assert not is_jordan_algebra(not_jordan)


def test_jordan_ideal():
    upper = MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    ideal = MatSubspace.from_matrices([E(2, 0, 1)])
    assert is_jordan_ideal(upper, ideal)
    not_ideal = MatSubspace.from_matrices([E(2, 0, 0)])
    assert not is_jordan_ideal(upper, not_ideal)
    with pytest.raises(PreconditionError):
        is_jordan_ideal(ideal, upper)


def test_jordan_to_z2():
    nil = MatSubspace.from_matrices([E(2, 0, 1)])
    s = jordan_to_z2(nil)
    assert s.component((0,)).dim == 0
    assert is_solvable(s.algebra)
    sym = MatSubspace.from_matrices(
        [E(2, 0, 0), E(2, 1, 1), Mat.from_rows([[0, 1], [1, 0]])]
    )
    s2 = jordan_to_z2(sym)
    assert s2.algebra.dim == 4  # closure picks up the antisymmetric part
    with pytest.raises(PreconditionError):
        jordan_to_z2(MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1) + E(2, 1, 0)]))


def test_jordan_ideal_chain():
    upper = MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    ideal = MatSubspace.from_matrices([E(2, 0, 1)])
    chain = jordan_ideal_chain(upper, ideal)
    assert chain.generated_by_ideal.span == ideal.span
    assert chain.mixed.span == ideal.span
    assert chain.generated_by_algebra.span == upper.span
    collapsed = jordan_ideal_chain(upper, upper)
    assert collapsed.generated_by_ideal.span == collapsed.generated_by_algebra.span
    zero = MatSubspace.from_matrices([], 2)
    trivial = jordan_ideal_chain(upper, zero)
    assert trivial.generated_by_ideal.dim == 0
    assert trivial.mixed.dim == 0


def test_jordan_ideal_generated():
    upper = MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    got = jordan_ideal_generated(upper, E(2, 0, 1))
    assert got.span == mat_span([E(2, 0, 1)])
    bigger = jordan_ideal_generated(upper, E(2, 0, 0))
    assert is_jordan_ideal(upper, bigger)
    with pytest.raises(PreconditionError):
        jordan_ideal_generated(upper, E(2, 1, 0))


def test_jordan_algebras_are_triple_systems():
    rng = random.Random(77)
    from gradelie.generators import gen_nilpotent_jordan, gen_jordan_pair

    for seed in range(15):
        j = gen_nilpotent_jordan(rng.randint(2, 4), seed)
        assert is_jordan_algebra(j)
        assert is_lie_triple_system(j)
        jp, ip = gen_jordan_pair(rng.randint(2, 4), seed)
        assert is_lie_triple_system(jp)
