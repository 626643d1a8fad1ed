import random
import time
from fractions import Fraction

import pytest

from gradelie.scalars import Q
from gradelie.matrices import Mat, bracket
from gradelie.subspaces import mat_span, span_basis_mats
from gradelie import grading
from gradelie.generators import gen_weight_graded
from gradelie.groups import FinAbGroup, regular_rep
from gradelie.lie import _series, lie_closure
from gradelie.checks import check_ampliation
from gradelie.grading import (
    MAX_AMPLIATED_SIDE,
    GradingError,
    ampliate,
    check_maptri,
    nonzero_opposite_bracket_ideal,
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


def homogeneous_commutator_spans(s):
    """The span of [L_g, L_h] per degree g + h: the graded derived series' first term."""
    return _series(s.components, s.algebra.ambient_dim, False, s.group.add)[1]


def test_homogeneous_commutators():
    a, b, c, s = pauli_graded()
    by_degree = homogeneous_commutator_spans(s)
    assert by_degree[(1, 1)] == mat_span([c])
    assert by_degree[(0, 1)] == mat_span([a])
    assert by_degree[(1, 0)] == mat_span([b])
    # abelian graded algebra: all commutators literally zero
    ab = lie_closure([E(2, 0, 0), E(2, 1, 1)])
    sab = verify_subgrading(
        ab, FinAbGroup([2]), {(0,): [E(2, 0, 0)], (1,): [E(2, 1, 1)]}
    )
    assert homogeneous_commutator_spans(sab) == {}


def _first_violation_over_ordered_pairs(algebra, group, components):
    """The bracket-degree law over every ordered pair of degrees and of basis
    elements: (gamma, delta, witness) of the first bracket that leaves its
    component, or None."""
    n = algebra.ambient_dim
    comp = {g: mat_span(mats, n) for g, mats in sorted(components.items())}
    support = [g for g, span in comp.items() if span.dim]
    bases = {g: span_basis_mats(comp[g], n) for g in support}
    for ga in support:
        for gb in support:
            target = comp.get(group.add(ga, gb))
            for a in bases[ga]:
                for b in bases[gb]:
                    w = bracket(a, b)
                    if not w.is_zero() and (target is None or not target.contains(w)):
                        return ga, gb, w
    return None


SCRAMBLE_MODULI = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3)]


def test_verify_subgrading_matches_the_ordered_pair_scan():
    # weight gradings with each component basis matrix moved to a random
    # degree with probability 1/2; many break the bracket-degree law
    failed = 0
    for seed in range(9000, 9600):
        rng = random.Random(seed)
        moduli = SCRAMBLE_MODULI[seed % len(SCRAMBLE_MODULI)]
        s = gen_weight_graded(2 + seed % 3, moduli, seed)
        elements = s.group.elements()
        components = {}
        for g in s.support:
            for m in s.component_mats(g):
                degree = rng.choice(elements) if rng.random() < 0.5 else g
                components.setdefault(degree, []).append(m)
        want = _first_violation_over_ordered_pairs(s.algebra, s.group, components)
        try:
            verify_subgrading(s.algebra, s.group, components)
            got = None
        except GradingError as exc:
            got = (exc.gamma, exc.delta, exc.witness)
            failed += 1
        assert got == want, seed
    assert failed == 182


def test_opposite_bracket_ideals():
    _, _, _, s = pauli_graded()
    # every degree is its own negative and the components are lines
    p = nonzero_opposite_bracket_ideal(s)
    assert p.component((0, 0)).dim == 0
    assert p.algebra.dim == 3
    e, f, g, s1 = weight_graded_sl2()
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


def _f_pi_by_kron(result, m: Mat) -> Mat:
    """f_pi as the sum of the representative blocks, checked by a kron rebuild."""
    n = result.source.algebra.ambient_dim
    g_ord = result.source.group.order
    parts = {
        deg: Mat.from_rows(
            [[m.entry(i * g_ord + r, j * g_ord + c) for j in range(n)] for i in range(n)]
        )
        for deg, (r, c) in result.rep_positions.items()
    }
    pis = regular_rep(result.source.group)
    recon = Mat.zeros(n * g_ord)
    for deg, a in parts.items():
        recon = recon + a.kron(pis[deg])
    if recon != m:
        raise ValueError("element is not in the ampliated algebra")
    total = Mat.zeros(n)
    for a in parts.values():
        total = total + a
    return total


@pytest.mark.parametrize("moduli", [[2], [3], [2, 2], [2, 4], [3, 3]])
def test_f_pi_matches_the_kron_rebuild(moduli):
    rng = random.Random(str(moduli))
    for seed in range(3):
        s = gen_weight_graded(2 + seed % 2, moduli, seed)
        result = ampliate(s)
        bigs = [big for pairs in result.back_map_table.values() for big, _ in pairs]
        combo = Mat.zeros(bigs[0].n_rows)
        for big in bigs:
            combo = combo + big.scale(Q(Fraction(rng.randint(-4, 4), rng.randint(1, 6)), 1))
        members = bigs[:4] + [bracket(x, y) for x in bigs[:4] for y in bigs[:4]] + [combo]
        for m in members:
            assert result.f_pi(m) == _f_pi_by_kron(result, m)
        g_ord = s.group.order
        n = s.algebra.ambient_dim
        for _ in range(6):
            # one entry in a block off the representative column of blocks
            i, j = rng.randrange(n), rng.randrange(n)
            p, q = rng.randrange(g_ord), rng.randrange(1, g_ord)
            bump = E(n * g_ord, i * g_ord + p, j * g_ord + q).scale(Fraction(1, 7))
            for bad in (combo + bump, bump):
                with pytest.raises(ValueError):
                    _f_pi_by_kron(result, bad)
                with pytest.raises(ValueError):
                    result.f_pi(bad)
        for wrong in (Mat.identity(n), Mat.identity(n * g_ord + 1), Mat.zeros(n * g_ord, n)):
            with pytest.raises(ValueError):
                result.f_pi(wrong)


def test_ampliate_builds_the_translations_once(monkeypatch):
    # one regular_rep build per ampliate, and none in check_maptri
    e, f, g, s = weight_graded_sl2()
    calls = []
    def counted(group, degrees=None):
        calls.append(1)
        return regular_rep(group, degrees)

    monkeypatch.setattr(grading, "regular_rep", counted)
    ampliate(s)
    assert len(calls) == 1
    assert check_maptri(s).ok
    assert len(calls) == 1
    twin = verify_subgrading(s.algebra, s.group, s.components)
    ampliate(twin)
    assert len(calls) == 2


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


def test_round_trip_reverification():
    # every grading-producing operation yields data verify_subgrading accepts
    a, b, c, s = pauli_graded()
    e, f, g, s1 = weight_graded_sl2()
    for produced in (
        nonzero_opposite_bracket_ideal(s),
        nonzero_opposite_bracket_ideal(s1),
        ampliate(s).ampliated,
        ampliate(s1).ampliated,
    ):
        again = verify_subgrading(
            produced.algebra,
            produced.group,
            {g: sub for g, sub in produced.components.items() if sub.dim},
        )
        assert again.is_direct == produced.is_direct


def test_check_maptri_reports_a_violation(monkeypatch):
    # solvable only up in the ampliation: the transfer down must be reported as failed
    _, _, _, s = pauli_graded()
    monkeypatch.setattr(grading, "_ampliation_series_vanishes", lambda graded, derived: derived)
    rep = check_maptri(s)
    assert rep.ampliated_solvable and not rep.original_solvable
    assert not rep.solvable_implication_ok and not rep.ok


def sl2_over_cyclic(order: int):
    """sl(2) weight-graded by Z_order: e in degree 1, f in degree -1, h in degree 0."""
    e, f = E(2, 0, 1), E(2, 1, 0)
    algebra = lie_closure([e, f])
    comps = {(0,): [bracket(e, f)], (1,): [e], (order - 1,): [f]}
    return verify_subgrading(algebra, FinAbGroup([order]), comps)


def test_check_maptri_reads_only_the_support():
    # the Kronecker form of Z_200000 would have side 400000; the graded series never builds it
    s = sl2_over_cyclic(200000)
    heis = lie_closure([E(3, 0, 1), E(3, 1, 2)])
    one_component = verify_subgrading(heis, FinAbGroup([200000]), {(0,): heis.span})
    start = time.perf_counter()
    rep, rep_heis = check_maptri(s), check_maptri(one_component)
    assert time.perf_counter() - start < 0.5
    assert rep.ok and not rep.ampliated_solvable and not rep.ampliated_engel
    assert rep_heis.ok and rep_heis.ampliated_engel and rep_heis.ampliated_solvable


def test_oversized_ampliation_is_refused(monkeypatch):
    assert MAX_AMPLIATED_SIDE == 64
    assert ampliate(sl2_over_cyclic(32)).ampliated.algebra.ambient_dim == 64
    s = sl2_over_cyclic(200000)
    # refused before any translation matrix is built
    monkeypatch.setattr(grading, "regular_rep", lambda group, degrees=None: pytest.fail("built"))
    want = r"n\*\|G\| = 2\*200000 = 400000 is above MAX_AMPLIATED_SIDE = 64"
    with pytest.raises(GradingError, match=want) as refused:
        ampliate(s)
    with pytest.raises(GradingError, match=r"2\*33 = 66 is above"):
        ampliate(sl2_over_cyclic(33))
    # the fuzz campaign's check reports the refusal as a replayable failure
    report = check_ampliation(s)
    assert not report.passed
    assert report.conclusions == {"ampliation_verified": False}
    assert report.counterexample["detail"] == {"error": str(refused.value)}
