"""Subgradings of matrix Lie algebras by finite abelian groups.

A subgrading is a component map degree -> subspace whose sum is the whole
algebra and which respects addition of degrees under the bracket; the sum
need not be direct.  This module verifies such data, transports it along
quotient groups and automorphisms, and builds the graded ampliation that
turns a subgraded algebra into a genuinely graded one on a larger space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .matrices import Mat, bracket, to_numeric
from .scalars import GaussianRational
from .subspaces import (
    Subspace,
    column_kernel,
    mat_span,
    span_basis_mats,
    subspace_sum,
)
from .groups import FinAbGroup, GroupElem, quotient_group, regular_rep
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
    "opposite_bracket_ideal",
    "nonzero_opposite_bracket_ideal",
    "grading_from_automorphism",
    "coarsen_by_subgroup",
    "endo_eigenspace_product_check",
    "EndoReport",
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
    """Engel/solvable transfer from the ampliation down to the original algebra."""
    amp = ampliate(subgraded).ampliated
    report = MaptriReport(
        ampliated_engel=is_nilpotent_lie(amp.algebra),
        original_engel=is_nilpotent_lie(subgraded.algebra),
        ampliated_solvable=is_solvable(amp.algebra),
        original_solvable=is_solvable(subgraded.algebra),
    )
    if not report.ok:
        raise AssertionError(f"ampliation transfer violated: {report}")
    return report


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


def _paired_zero_component(subgraded: SubgradedAlgebra, include_zero: bool) -> Subspace:
    group = subgraded.group
    n = subgraded.algebra.ambient_dim
    zero = group.zero()
    acc = Subspace.zero(n * n)
    done = set()
    for g in subgraded.support:
        neg = group.neg(g)
        if g == zero and not include_zero:
            continue
        key = (min(g, neg), max(g, neg))
        if key in done:
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
            acc = subspace_sum(acc, piece)
    return acc


def _rebuild_zero_component(subgraded: SubgradedAlgebra, include_zero: bool) -> SubgradedAlgebra:
    group = subgraded.group
    n = subgraded.algebra.ambient_dim
    zero = group.zero()
    new_zero = _paired_zero_component(subgraded, include_zero)
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


def opposite_bracket_ideal(subgraded: SubgradedAlgebra) -> SubgradedAlgebra:
    """Replace the zero component by the sum of [L_g, L_{-g}] over all degrees."""
    return _rebuild_zero_component(subgraded, include_zero=True)


def nonzero_opposite_bracket_ideal(subgraded: SubgradedAlgebra) -> SubgradedAlgebra:
    """Replace the zero component by the sum of [L_g, L_{-g}] over nonzero degrees."""
    return _rebuild_zero_component(subgraded, include_zero=False)


# -- gradings from automorphisms ---------------------------------------------

_FOURTH_ROOTS = {
    0: GaussianRational(1),
    1: GaussianRational(0, 1),
    2: GaussianRational(-1),
    3: GaussianRational(0, -1),
}


def _apply_coord_map(algebra: LieAlgebra, phi: Mat, m: Mat) -> Mat:
    coords = algebra.span.coordinates(m)
    if coords is None:
        raise ValueError("matrix is outside the algebra")
    new_coords = [
        sum(
            (phi.entry(k, i) * coords[i] for i in range(algebra.dim)),
            GaussianRational(0),
        )
        for k in range(algebra.dim)
    ]
    return algebra.combination(new_coords)


def _check_bracket_compatible(algebra: LieAlgebra, phi: Mat) -> None:
    d = algebra.dim
    if phi.shape != (d, d):
        raise GradingError(f"endomorphism matrix must be {d}x{d}")
    images = [_apply_coord_map(algebra, phi, b) for b in algebra.basis_mats]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = _apply_coord_map(algebra, phi, bracket(algebra.basis_mats[i], algebra.basis_mats[j]))
            rhs = bracket(images[i], images[j])
            if lhs != rhs:
                raise GradingError("map does not preserve the bracket")


def grading_from_automorphism(algebra: LieAlgebra, phi: Mat, n: int) -> SubgradedAlgebra:
    """Eigenspace decomposition of a finite-order automorphism as a Z_n grading."""
    if n < 1:
        raise ValueError("order must be positive")
    d = algebra.dim
    _check_bracket_compatible(algebra, phi)
    if phi.power(n) != Mat.identity(d):
        raise GradingError(f"map does not have order dividing {n}")
    # invertibility follows from phi^n = 1; no separate rank check needed
    group = FinAbGroup([n])
    components: dict[GroupElem, object] = {}
    covered = 0
    phi_num = None
    for k in range(n):
        if (4 * k) % n == 0:
            theta = _FOURTH_ROOTS[(4 * k // n) % 4]
            shift = phi - Mat.identity(d).scale(theta)
            kernel = column_kernel(shift)
            mats = [algebra.combination(vec) for vec in kernel]
            if mats:
                components[(k,)] = mats
                covered += len(kernel)
        else:
            if phi_num is None:
                phi_num = to_numeric(phi).array
            theta_num = complex(np.exp(2j * np.pi * k / n))
            shift_num = phi_num - theta_num * np.eye(d)
            sv = np.linalg.svd(shift_num, compute_uv=False) if d else np.array([])
            scale = sv[0] if len(sv) and sv[0] > 0 else 1.0
            nullity = int(np.sum(sv <= 1e-9 * scale))
            if nullity > 0:
                raise GradingError(
                    f"eigenspace at a root of unity outside Q(i) (k={k}) cannot be "
                    "rationalized"
                )
    if covered != d:
        raise GradingError("eigenspaces do not span the algebra")
    return verify_subgrading(algebra, group, components)


def coarsen_by_subgroup(
    subgraded: SubgradedAlgebra, subgroup_gens: Sequence[GroupElem]
) -> SubgradedAlgebra:
    """Push the grading forward along the quotient by a subgroup."""
    quo, proj = quotient_group(subgraded.group, list(subgroup_gens))
    n = subgraded.algebra.ambient_dim
    comps: dict[GroupElem, Subspace] = {}
    for g in subgraded.support:
        target = proj[g]
        piece = subgraded.component(g)
        if target in comps:
            comps[target] = subspace_sum(comps[target], piece)
        else:
            comps[target] = piece
    return verify_subgrading(subgraded.algebra, quo, comps)


# -- endomorphism eigenspace products ----------------------------------------


@dataclass(frozen=True)
class EndoEntry:
    lam: complex
    mu: complex
    product: complex
    max_residual: float
    ok: bool


@dataclass(frozen=True)
class EndoReport:
    eigenvalues: tuple
    entries: tuple[EndoEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def endo_eigenspace_product_check(
    algebra: LieAlgebra, phi: Mat, tol: float = 1e-9
) -> EndoReport:
    """[E_lam, E_mu] lands in the generalized eigenspace of lam*mu, numerically."""
    d = algebra.dim
    _check_bracket_compatible(algebra, phi)
    if d == 0:
        return EndoReport((), ())
    phi_num = to_numeric(phi).array
    eigvals = np.linalg.eigvals(phi_num)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    clusters: list[complex] = []
    for ev in eigvals:
        for c in clusters:
            if abs(ev - c) <= 1e-6 * scale:
                break
        else:
            clusters.append(complex(ev))
    spaces = {}
    for lam in clusters:
        power = np.linalg.matrix_power(phi_num - lam * np.eye(d), d)
        _, sv, vh = np.linalg.svd(power)
        top = sv[0] if sv[0] > 0 else 1.0
        nullity = int(np.sum(sv <= 1e-9 * top))
        basis = vh[d - nullity :].conj().T if nullity else np.zeros((d, 0))
        spaces[lam] = basis
    # exact structure tensor, evaluated numerically
    tensor = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            coords = algebra.span.coordinates(bracket(algebra.basis_mats[i], algebra.basis_mats[j]))
            vec = np.array([complex(c) for c in coords])
            tensor[i, j, :] = vec
            tensor[j, i, :] = -vec
    entries = []
    for lam in clusters:
        for mu in clusters:
            ba, bb = spaces[lam], spaces[mu]
            if ba.shape[1] == 0 or bb.shape[1] == 0:
                continue
            prod = lam * mu
            target = None
            for c in clusters:
                if abs(prod - c) <= 1e-6 * max(1.0, abs(prod)):
                    target = spaces[c]
                    break
            worst = 0.0
            for x in ba.T:
                for y in bb.T:
                    w = np.einsum("i,j,ijk->k", x, y, tensor)
                    norm = float(np.linalg.norm(w))
                    if target is not None and target.shape[1]:
                        q, _ = np.linalg.qr(target)
                        resid = float(np.linalg.norm(w - q @ (q.conj().T @ w)))
                    else:
                        resid = norm
                    worst = max(worst, resid)
            entries.append(
                EndoEntry(lam, mu, prod, worst, worst <= tol * max(1.0, scale ** 2))
            )
    return EndoReport(tuple(clusters), tuple(entries))
