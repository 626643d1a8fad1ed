"""Subgradings of matrix Lie algebras by finite abelian groups.

A subgrading is a component map degree -> subspace whose sum is the whole
algebra and which respects addition of degrees under the bracket; the sum
need not be direct.  This module verifies such data and builds the graded
ampliation that turns a subgraded algebra into a genuinely graded one on a
larger space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence

from .matrices import Mat, bracket
from .subspaces import (
    Subspace,
    mat_span,
    span_basis_mats,
    subspace_sum,
)
from .groups import FinAbGroup, GroupElem, regular_rep
from .lie import (
    LieAlgebra,
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
    "check_maptri",
    "MaptriReport",
    "homogeneous_commutators",
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

    # _ampliation: the result of ampliate(self), set once by ampliate
    __slots__ = ("algebra", "group", "components", "is_direct", "_ampliation")

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
        object.__setattr__(self, "_ampliation", None)

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
    for ga in support:
        for gb in support:
            target = group.add(ga, gb)
            w = comp.get(target, zero).outside(
                bracket(a, b) for a in basis_cache[ga] for b in basis_cache[gb]
            )
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


def ampliate(subgraded: SubgradedAlgebra) -> AmpliationResult:
    """Tensor each component with its degree's regular-representation matrix.

    The result is kept on the algebra, so each algebra is ampliated once.
    """
    if subgraded._ampliation is not None:
        return subgraded._ampliation
    src = subgraded
    n = src.algebra.ambient_dim
    group = src.group
    pis = regular_rep(group)
    elems = sorted(group.elements())
    index = {g: i for i, g in enumerate(elems)}
    g_ord = len(elems)
    big_n = n * g_ord
    rep_positions = {}
    for deg in elems:
        # pi(deg) maps e_h to e_{deg+h}; column of the zero element is a representative
        rep_positions[deg] = (index[group.add(deg, elems[0])], index[elems[0]])
    big_components: dict[GroupElem, object] = {}
    back_map: dict[GroupElem, tuple] = {}
    all_big: list[Mat] = []
    for deg in src.support:
        originals = src.component_mats(deg)
        bigs = [a.kron(pis[deg]) for a in originals]
        big_components[deg] = bigs
        back_map[deg] = tuple(zip(bigs, originals))
        all_big.extend(bigs)
    big_algebra = LieAlgebra.from_span(mat_span(all_big, big_n), big_n)
    ampliated = verify_subgrading(big_algebra, group, big_components)
    if not ampliated.is_direct:
        raise GradingError("ampliation failed to be direct")
    result = AmpliationResult(ampliated, back_map, src, rep_positions)
    for deg, pairs in back_map.items():
        for big, original in pairs:
            if result.f_pi(big) != original:
                raise GradingError("back map does not invert the ampliation")
    object.__setattr__(subgraded, "_ampliation", result)
    return result


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

    The report says whether the transfer holds; ``ok`` is false on a violation.
    """
    amp = ampliate(subgraded).ampliated
    return MaptriReport(
        ampliated_engel=is_nilpotent_lie(amp.algebra),
        original_engel=is_nilpotent_lie(subgraded.algebra),
        ampliated_solvable=is_solvable(amp.algebra),
        original_solvable=is_solvable(subgraded.algebra),
    )


def homogeneous_commutators(subgraded: SubgradedAlgebra) -> list[tuple[GroupElem, Mat]]:
    """Brackets of component-basis pairs, tagged with their degree."""
    group = subgraded.group
    support = subgraded.support
    cache = {g: subgraded.component_mats(g) for g in support}
    out: list[tuple[GroupElem, Mat]] = []
    for ai, ga in enumerate(support):
        for gb in support[ai:]:
            deg = group.add(ga, gb)
            mats_a, mats_b = cache[ga], cache[gb]
            if ga == gb:
                for i, a in enumerate(mats_a):
                    for b in mats_b[i + 1 :]:
                        out.append((deg, bracket(a, b)))
            else:
                for a in mats_a:
                    for b in mats_b:
                        out.append((deg, bracket(a, b)))
    return out


def nonzero_opposite_bracket_ideal(subgraded: SubgradedAlgebra) -> SubgradedAlgebra:
    """Replace the zero component by the sum of [L_g, L_{-g}] over nonzero degrees."""
    group = subgraded.group
    n = subgraded.algebra.ambient_dim
    zero = group.zero()
    new_zero = Subspace.zero(n * n)
    done = set()
    for g in subgraded.support:
        neg = group.neg(g)
        key = (min(g, neg), max(g, neg))
        if g == zero or key in done:
            continue
        done.add(key)
        if subgraded.component(neg).dim == 0:
            continue
        piece = mat_span(
            [
                bracket(a, b)
                for a in subgraded.component_mats(g)
                for b in subgraded.component_mats(neg)
            ],
            n,
        )
        if piece.dim:
            new_zero = subspace_sum(new_zero, piece)
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
