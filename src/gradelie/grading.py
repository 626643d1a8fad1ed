"""Subgradings of matrix Lie algebras by finite abelian groups.

A subgrading is a component map degree -> subspace whose sum is the whole
algebra and which respects addition of degrees under the bracket; the sum
need not be direct.  This module verifies such data and builds the graded
ampliation that turns a subgraded algebra into a genuinely graded one on a
larger space.

The ampliation sum L_g (x) pi(g), with pi the regular representation, is
isomorphic to its group-algebra form sum L_g t^g inside L (x) Q(i)[G],
where [a t^g, b t^h] = [a, b] t^{g+h}.  Its degree law is therefore the
source's, which ``verify_subgrading`` (the only constructor of a
``SubgradedAlgebra``) has checked, so the Kronecker form is not verified
again; and its derived and lower central series are computed degree by
degree in gl(n), on the support alone, by the series engine of ``lie``.
Every bracket of basis pairs here, in ``verify_subgrading`` too, comes from
``matrices.bracket_pairs``, which takes each unordered pair once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence

from .matrices import Mat, bracket_pairs
from .subspaces import Subspace, mat_span, span_basis_mats, subspace_sum
from .groups import FinAbGroup, GroupElem, regular_rep
from .lie import (
    LieAlgebra,
    _bracket_spans,
    _series,
    is_ideal,
    is_nilpotent_lie,
    is_solvable,
)

__all__ = [
    "SubgradedAlgebra",
    "AmpliationResult",
    "GradingError",
    "verify_subgrading",
    "ampliate",
    "MAX_AMPLIATED_SIDE",
    "check_maptri",
    "MaptriReport",
    "nonzero_opposite_bracket_ideal",
]


class GradingError(ValueError):
    """Grading data violates the component-sum or bracket-degree law."""

    def __init__(self, message, gamma=None, delta=None, witness=None):
        super().__init__(message)
        self.gamma = gamma
        self.delta = delta
        self.witness = witness


class SubgradedAlgebra:
    """A Lie algebra with a verified degree decomposition."""

    __slots__ = ("algebra", "group", "components", "is_direct")

    def __init__(
        self,
        algebra: LieAlgebra,
        group: FinAbGroup,
        components: Mapping[GroupElem, Subspace],
        is_direct: bool,
    ):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "components", dict(components))
        object.__setattr__(self, "is_direct", is_direct)

    def __setattr__(self, name, value):
        raise AttributeError("SubgradedAlgebra is immutable")

    def component(self, degree: Sequence[int]) -> Subspace:
        key = self.group.element(degree)
        got = self.components.get(key)
        if got is None:
            return Subspace.zero(self.algebra.ambient_dim ** 2)
        return got

    @property
    def support(self) -> list[GroupElem]:
        return sorted(g for g, s in self.components.items() if s.dim > 0)

    def component_mats(self, degree: Sequence[int]) -> list[Mat]:
        return span_basis_mats(self.component(degree), self.algebra.ambient_dim)

    def __repr__(self):
        dims = {g: s.dim for g, s in sorted(self.components.items()) if s.dim}
        return (
            f"SubgradedAlgebra(dim {self.algebra.dim} in gl({self.algebra.ambient_dim}), "
            f"group {self.group.moduli}, components {dims}, direct={self.is_direct})"
        )


def _as_subspace(value, n: int) -> Subspace:
    if isinstance(value, Subspace):
        return value
    return mat_span(list(value), n)


def verify_subgrading(
    algebra: LieAlgebra,
    group: FinAbGroup,
    components: Mapping[Sequence[int], object],
) -> SubgradedAlgebra:
    """Check the component-sum and bracket-degree laws; raise GradingError on failure."""
    n = algebra.ambient_dim
    zero = Subspace.zero(n * n)
    comp: dict[GroupElem, Subspace] = {}
    for key, value in components.items():
        g = group.element(tuple(key))
        sub = _as_subspace(value, n)
        if comp.get(g, zero).dim:
            sub = subspace_sum(comp[g], sub)
        comp[g] = sub
    # only the given degrees are stored; group elements are visited in order
    comp = dict(sorted(comp.items()))
    total = zero
    for g, sub in comp.items():
        if not algebra.span.contains_subspace(sub):
            raise GradingError(f"component {g} is not inside the algebra", gamma=g)
        if sub.dim:
            total = subspace_sum(total, sub)
    if total != algebra.span:
        raise GradingError(
            f"component sum has dimension {total.dim}, algebra has {algebra.dim}"
        )
    support = [g for g, s in comp.items() if s.dim > 0]
    basis_cache = {g: span_basis_mats(comp[g], n) for g in support}
    # a pair fails exactly when its reverse does, and the reverse comes later
    # in a scan over ordered pairs, so the first failure is that scan's
    for ga, gb, brackets in bracket_pairs(basis_cache):
        target = group.add(ga, gb)
        w = comp.get(target, zero).outside(brackets)
        if w is not None:
            raise GradingError(
                f"bracket of degrees {ga} and {gb} leaves component {target}",
                gamma=ga,
                delta=gb,
                witness=w,
            )
    direct = sum(s.dim for s in comp.values()) == algebra.dim
    return SubgradedAlgebra(algebra, group, comp, direct)


# -- graded ampliation -------------------------------------------------------


@dataclass(frozen=True)
class AmpliationResult:
    ampliated: SubgradedAlgebra
    back_map_table: dict
    source: SubgradedAlgebra
    rep_positions: dict

    @cached_property
    def _collapse_plan(self) -> tuple:
        """Getters for the flat entries f_pi reads; they depend on n and the group only.

        Entry ((i, p), (j, q)) of sum a_g (x) pi(g) is a_g[i, j] for the one g
        with elems[p] = g + elems[q], and a_g is read at g's representative
        position.  The first getter returns, for every entry in row-major
        order, the entry it must equal; the second returns, for each entry of
        sum a_g in row-major order, the |G| representative entries it sums.
        """
        n = self.source.algebra.ambient_dim
        group = self.source.group
        elems = sorted(group.elements())
        g_ord = len(elems)
        big_n = n * g_ord
        rep = [[self.rep_positions[group.add(ep, group.neg(eq))] for eq in elems] for ep in elems]
        source = [
            (i * g_ord + rep[p][q][0]) * big_n + j * g_ord + rep[p][q][1]
            for i in range(n) for p in range(g_ord)
            for j in range(n) for q in range(g_ord)
        ]
        summed = [
            (i * g_ord + r) * big_n + j * g_ord + c
            for i in range(n) for j in range(n)
            for r, c in self.rep_positions.values()
        ]
        return _gather(source), _gather(summed)

    def f_pi(self, m: Mat) -> Mat:
        """Collapse an ampliated element back to the original algebra.

        m lies in the image of a -> sum a_g (x) pi(g) exactly when every
        entry equals the entry of its degree's representative block.
        """
        n = self.source.algebra.ambient_dim
        g_ord = len(self.rep_positions)
        if m.shape != (n * g_ord, n * g_ord):
            raise ValueError("element is not in the ampliated algebra")
        source, summed = self._collapse_plan
        if source(m.re) != m.re or source(m.im) != m.im:
            raise ValueError("element is not in the ampliated algebra")
        parts_re, parts_im = summed(m.re), summed(m.im)
        re = [sum(parts_re[k : k + g_ord]) for k in range(0, len(parts_re), g_ord)]
        im = [sum(parts_im[k : k + g_ord]) for k in range(0, len(parts_im), g_ord)]
        return Mat._normalized(n, n, re, im, m.den)


def _gather(indices: list[int]):
    """The entries of a flat tuple at the given indices, always as a tuple."""
    if len(indices) == 1:
        (k,) = indices
        return lambda values: (values[k],)
    return itemgetter(*indices)


MAX_AMPLIATED_SIDE = 64
"""The largest side n*|G| of an ampliation's Kronecker form that ampliate builds."""


def ampliate(subgraded: SubgradedAlgebra) -> AmpliationResult:
    """Tensor each component with its degree's regular-representation matrix.

    The Kronecker form is checked for directness and against the back map;
    its bracket-degree law is the source's (see ``_kronecker_subgrading``).
    Ampliations with n*|G| above ``MAX_AMPLIATED_SIDE`` are refused with a
    GradingError before anything is built.
    """
    src = subgraded
    n = src.algebra.ambient_dim
    group = src.group
    big_n = n * group.order
    if big_n > MAX_AMPLIATED_SIDE:
        raise GradingError(
            f"ampliation side n*|G| = {n}*{group.order} = {big_n} is above "
            f"MAX_AMPLIATED_SIDE = {MAX_AMPLIATED_SIDE}"
        )
    pis = regular_rep(group, src.support)
    # pi(deg) maps e_0 to e_deg: the column of the zero element is a representative
    rep_positions = {deg: (i, 0) for i, deg in enumerate(sorted(group.elements()))}
    back_map = {
        deg: tuple((a.kron(pis[deg]), a) for a in src.component_mats(deg))
        for deg in src.support
    }
    ampliated = _kronecker_subgrading(group, back_map, big_n)
    if not ampliated.is_direct:
        raise GradingError("ampliation failed to be direct")
    result = AmpliationResult(ampliated, back_map, src, rep_positions)
    for pairs in back_map.values():
        for big, original in pairs:
            if result.f_pi(big) != original:
                raise GradingError("back map does not invert the ampliation")
    return result


def _kronecker_subgrading(
    group: FinAbGroup, back_map: Mapping[GroupElem, tuple], big_n: int
) -> SubgradedAlgebra:
    """The Kronecker form sum L_g (x) pi(g) as a subgraded algebra.

    Its bracket-degree law needs no check: [a (x) pi(g), b (x) pi(h)] is
    [a, b] (x) pi(g + h), and the source, built only by verify_subgrading,
    has [L_g, L_h] inside L_{g+h}.  Directness is counted: the component
    dimensions must add up to the dimension of the span of all elements.
    """
    components = {
        deg: mat_span([big for big, _ in pairs], big_n) for deg, pairs in back_map.items()
    }
    span = mat_span([big for pairs in back_map.values() for big, _ in pairs], big_n)
    direct = sum(c.dim for c in components.values()) == span.dim
    return SubgradedAlgebra(LieAlgebra.from_span(span, big_n), group, components, direct)


@dataclass(frozen=True)
class MaptriReport:
    ampliated_engel: bool
    original_engel: bool
    ampliated_solvable: bool
    original_solvable: bool

    @property
    def engel_implication_ok(self) -> bool:
        return (not self.ampliated_engel) or self.original_engel

    @property
    def solvable_implication_ok(self) -> bool:
        return (not self.ampliated_solvable) or self.original_solvable

    @property
    def ok(self) -> bool:
        return self.engel_implication_ok and self.solvable_implication_ok


def check_maptri(subgraded: SubgradedAlgebra) -> MaptriReport:
    """Engel/solvable transfer from the ampliation down to the original algebra.

    The ampliation's series are computed on its group-algebra form, degree
    by degree in gl(n), so no Kronecker matrix is built and the group's
    order does not matter.  The report says whether the transfer holds;
    ``ok`` is false on a violation.
    """
    return MaptriReport(
        ampliated_engel=_ampliation_series_vanishes(subgraded, derived=False),
        original_engel=is_nilpotent_lie(subgraded.algebra),
        ampliated_solvable=_ampliation_series_vanishes(subgraded, derived=True),
        original_solvable=is_solvable(subgraded.algebra),
    )


def _ampliation_series_vanishes(subgraded: SubgradedAlgebra, derived: bool) -> bool:
    """Whether the ampliation's derived (or lower central) series reaches 0,
    computed on the group-algebra form by the graded series engine."""
    terms = _series(
        subgraded.components, subgraded.algebra.ambient_dim, not derived, subgraded.group.add
    )
    return not terms[-1]


def nonzero_opposite_bracket_ideal(subgraded: SubgradedAlgebra) -> SubgradedAlgebra:
    """Replace the zero component by the sum of [L_g, L_{-g}] over nonzero degrees."""
    group = subgraded.group
    n = subgraded.algebra.ambient_dim
    zero = group.zero()
    bases = {g: subgraded.component_mats(g) for g in subgraded.support}
    opposite = (
        (g, h, brackets)
        for g, h, brackets in bracket_pairs(bases)
        if g != zero and group.add(g, h) == zero
    )
    new_zero = _bracket_spans(opposite, n, group.add).get(zero, Subspace.zero(n * n))
    comps: dict[GroupElem, Subspace] = {}
    total = new_zero
    for g in subgraded.support:
        if g == zero:
            continue
        comps[g] = subgraded.component(g)
        total = subspace_sum(total, comps[g])
    comps[zero] = new_zero
    algebra = LieAlgebra.from_span(total, n)
    result = verify_subgrading(algebra, group, comps)
    if not is_ideal(subgraded.algebra, algebra.span):
        raise AssertionError("rebuilt zero-component subalgebra failed the ideal check")
    return result
