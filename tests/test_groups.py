import itertools

from gradelie.matrices import Mat
from gradelie.groups import (
    FinAbGroup,
    cyclic_pair,
    regular_rep,
)


def test_group_basics():
    g = FinAbGroup([2, 3])
    assert g.order == 6
    assert g.zero() == (0, 0)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 2)) == (1, 1)
    assert g.element((-1, 5)) == (1, 2)
    assert len(g.elements()) == 6
    assert g.element_order((1, 1)) == 6
    trivial = FinAbGroup(())
    assert trivial.order == 1 and trivial.elements() == [()]


def test_invariant_factors_and_cyclicity():
    assert FinAbGroup([2, 3]).invariant_factors() == (6,)
    assert FinAbGroup([2, 3]).is_cyclic()
    assert FinAbGroup([2, 2]).invariant_factors() == (2, 2)
    assert not FinAbGroup([2, 2]).is_cyclic()
    assert FinAbGroup([1, 1]).invariant_factors() == ()
    assert FinAbGroup([4, 6]).invariant_factors() == (2, 12)


def noncyclic_pairs(group):
    """The ordered pairs of elements that lie in no common cyclic subgroup."""
    elems = group.elements()
    return {(a, b) for a in elems for b in elems if not cyclic_pair(group, a, b)}


def test_noncyclic_pairs():
    assert noncyclic_pairs(FinAbGroup([7])) == set()
    assert noncyclic_pairs(FinAbGroup(())) == set()
    k4 = noncyclic_pairs(FinAbGroup([2, 2]))
    assert ((0, 1), (1, 0)) in k4
    assert ((1, 0), (0, 1)) in k4  # symmetric
    nonzero = [(0, 1), (1, 0), (1, 1)]
    assert k4 == {(a, b) for a in nonzero for b in nonzero if a != b}


def test_noncyclic_pairs_empty_iff_cyclic():
    for moduli in [(2,), (5,), (2, 3), (2, 2), (2, 4), (3, 3), (4, 2)]:
        g = FinAbGroup(moduli)
        assert (len(noncyclic_pairs(g)) == 0) == g.is_cyclic()
    # the predicate agrees with the subgroup's largest element order
    for moduli in [(2, 4), (4, 6), (3, 3)]:
        g = FinAbGroup(moduli)
        for a, b in itertools.product(g.elements(), repeat=2):
            sub = g.subgroup([a, b])
            assert cyclic_pair(g, a, b) == (max(g.element_order(x) for x in sub) == len(sub))


def test_regular_rep():
    trivial = regular_rep(FinAbGroup(()))
    assert trivial[()] == Mat.identity(1)
    z2 = regular_rep(FinAbGroup([2]))
    assert z2[(0,)] == Mat.identity(2)
    assert z2[(1,)] == Mat.from_int_rows([[0, 1], [1, 0]])
    z3 = regular_rep(FinAbGroup([3]))
    assert z3[(1,)].power(3) == Mat.identity(3)
    assert z3[(1,)] != Mat.identity(3)
    g = FinAbGroup([2, 2])
    rep = regular_rep(g)
    for a, b in itertools.product(g.elements(), repeat=2):
        assert rep[g.add(a, b)] == rep[a] @ rep[b]
