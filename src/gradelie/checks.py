"""Executable theorem checks.

Each check decides its hypothesis exactly (the nil-subspace decision, exact
scalar tests), asserts the conclusion with the package's structural
machinery, and returns a report from ``check_report``.  A hypothesis-unmet
instance passes vacuously but says so.  A failing report carries a
replayable counterexample payload; the instance document and its digest are
built only when a report is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .groups import cyclic_pair
from .matrices import Mat, bracket_pairs, is_nilpotent_exact
from .subspaces import MatSubspace, Subspace, mat_span, span_basis_mats
from .lie import (
    LieAlgebra,
    SeriesReport,
    ad_matrix,
    cartan_test,
    derived_series,
    is_engel_element,
    is_nil_subspace,
    is_scalar_set,
    is_solvable,
)
from .grading import (
    GradingError,
    SubgradedAlgebra,
    ampliate,
    check_maptri,
    nonzero_opposite_bracket_ideal,
)
from .structures import (
    IdealChainError,
    jordan_ideal_chain,
    jordan_to_z2,
    triple_to_z2,
)
from .spectral import assoc_closure_dim
from .documents import AlgebraDocument, document_from, document_to_dict, instance_digest

__all__ = [
    "CheckReport",
    "CheckUsageError",
    "check_report",
    "subspace_engel_in",
    "check_scalar_zero_solvable",
    "check_graded_cartan",
    "check_engel_components_solvable",
    "check_engel_commutators_solvable",
    "check_engel_pairings_solvable",
    "check_nonabelian_solvable_zero_reducible",
    "check_odd_engel_solvable",
    "check_nilpotent_sum_closed",
    "check_engel_sum_closed",
    "check_cartan_equivalence",
    "check_triple_volterra",
    "check_jordan_volterra",
    "check_jordan_chain",
    "check_ampliation",
]


class CheckUsageError(ValueError):
    """The check was pointed at a structurally unsuitable instance."""


@dataclass(frozen=True)
class CheckReport:
    check: str
    hypothesis: dict
    hypothesis_met: bool
    conclusions: dict
    passed: bool
    instance: object  # the checked object; its document is built on demand
    structure: str | None = None  # document structure tag, None for the default
    detail: dict | None = None  # what the counterexample payload says about a failure

    @cached_property
    def document(self) -> AlgebraDocument:
        return document_from(self.instance, self.structure)

    @cached_property
    def digest(self) -> str:
        return instance_digest(self.document)

    @property
    def counterexample(self) -> dict | None:
        if self.passed:
            return None
        return {"instance": document_to_dict(self.document), "detail": self.detail}

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        met = "hypothesis met" if self.hypothesis_met else "hypothesis unmet"
        return f"[{status}] {self.check} ({met}) instance {self.digest}"


def check_report(
    check: str,
    instance,
    hypothesis: dict,
    met: bool,
    conclusions: dict,
    detail: dict | None = None,
    structure: str | None = None,
) -> CheckReport:
    """The report of a check: it passes unless the hypothesis is met and a
    conclusion fails."""
    passed = not met or all(conclusions.values())
    return CheckReport(check, hypothesis, met, conclusions, passed, instance, structure, detail)


def subspace_engel_in(algebra: LieAlgebra, sub: Subspace) -> bool:
    """Exact decision: does every element of the subspace act ad-nilpotently?

    Fast path: a subspace of nilpotent operators always acts ad-nilpotently.
    Otherwise single elements are screened first and the nil-subspace
    decision runs on the adjoint image.  Both nil decisions go through the
    three exact stages of ``is_nil_subspace``: a seeded combination that is
    not nilpotent refutes (an exact certificate, not a sample), a vanishing
    product chain proves, and the polarized trace expansion decides the rest.
    """
    n = algebra.ambient_dim
    if sub.dim == 0:
        return True
    if is_nil_subspace(sub, n):
        return True
    mats = span_basis_mats(sub, n)
    for m in mats:
        if not is_engel_element(algebra, m):
            return False
    if len(mats) == 1:
        return True
    return is_nil_subspace([ad_matrix(algebra, m) for m in mats])


def _zero_component(s: SubgradedAlgebra) -> Subspace:
    return s.component(s.group.zero())


def _reducible(s: SubgradedAlgebra) -> bool:
    """Burnside: the set is reducible iff its associative closure is not all of gl(n)."""
    n = s.algebra.ambient_dim
    return assoc_closure_dim(list(s.algebra.basis_mats)) < n * n


def _solvable_if(
    check: str, s: SubgradedAlgebra, hypothesis: dict, met: bool,
    derived: SeriesReport | None = None,
) -> CheckReport:
    """The report of a theorem that concludes solvability; ``derived`` is the
    algebra's derived series when the caller already holds it."""
    if met and derived is None:
        derived = derived_series(s.algebra)
    conclusions = {"solvable": derived.terminal_dim == 0} if met else {}
    return check_report(check, s, hypothesis, met, conclusions, {"failed": "solvable"})


def check_scalar_zero_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Cyclic grading with scalar zero component forces solvability."""
    if not s.group.is_cyclic():
        raise CheckUsageError("check requires a cyclic grading group")
    scalar0 = is_scalar_set(_zero_component(s), s.algebra.ambient_dim)
    hypothesis = {"graded": s.is_direct, "zero_component_scalar": scalar0}
    return _solvable_if("scalar-zero-solvable", s, hypothesis, s.is_direct and scalar0)


def _candidate_homogeneous(s: SubgradedAlgebra, degree) -> list[Mat]:
    """Basis elements plus a small deterministic grid of combinations."""
    mats = s.component_mats(degree)
    out = list(mats)
    if len(mats) >= 2:
        for coeffs in itertools.product((-1, 0, 1), repeat=len(mats)):
            nz = [c for c in coeffs if c]
            if len(nz) < 2:
                continue
            acc = Mat.zeros(s.algebra.ambient_dim)
            for c, m in zip(coeffs, mats):
                if c:
                    acc = acc + (m if c == 1 else -m)
            out.append(acc)
    return out


def check_graded_cartan(s: SubgradedAlgebra) -> CheckReport:
    """Scalar zero component plus a non-scalar homogeneous Engel element
    forces reducibility."""
    n = s.algebra.ambient_dim
    scalar0 = is_scalar_set(_zero_component(s), n)
    witness_degree = None
    if s.is_direct and scalar0 and n > 1:
        witness_degree = next(
            (
                degree
                for degree in s.support
                for cand in _candidate_homogeneous(s, degree)
                if not cand.is_scalar() and is_engel_element(s.algebra, cand)
            ),
            None,
        )
    found = witness_degree is not None
    hypothesis = {
        "graded": s.is_direct,
        "zero_component_scalar": scalar0,
        "nonscalar_engel_homogeneous_found": found,
        "scanned_grid": "component bases and {-1,0,1} combinations",
    }
    met = s.is_direct and scalar0 and found
    conclusions = {"reducible": _reducible(s)} if met else {}
    detail = {"failed": "reducible", "witness_degree": list(witness_degree)} if met else None
    return check_report("scalar-zero-engel-reducible", s, hypothesis, met, conclusions, detail)


def check_engel_components_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Engel components force solvability (all components, or the zero one
    when the group is cyclic)."""
    met = all(subspace_engel_in(s.algebra, s.component(g)) for g in s.support)
    hypothesis = {"all_components_engel": met}
    if s.group.is_cyclic():
        met_zero = subspace_engel_in(s.algebra, _zero_component(s))
        hypothesis["cyclic_and_zero_component_engel"] = met_zero
        met = met or met_zero
    return _solvable_if("engel-components-solvable", s, hypothesis, met)


def check_engel_commutators_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Engel homogeneous commutators force solvability.

    By bilinearity the homogeneous commutators [L_g, L_h] span [L, L], the
    derived series' first term.
    """
    ds = derived_series(s.algebra)
    met = subspace_engel_in(s.algebra, ds.terms[1])
    return _solvable_if(
        "engel-commutators-solvable", s, {"homogeneous_commutator_span_engel": met}, met, ds
    )


def check_engel_pairings_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Engel brackets over opposite or non-cocyclic degree pairs force solvability."""
    group = s.group
    bases = {g: s.component_mats(g) for g in s.support}
    # the designated pairs are symmetric, so each unordered pair is enough
    mats = [
        w
        for ga, gb, brackets in bracket_pairs(bases)
        if group.add(ga, gb) == group.zero() or not cyclic_pair(group, ga, gb)
        for w in brackets
        if not w.is_zero()
    ]
    met = subspace_engel_in(s.algebra, mat_span(mats, s.algebra.ambient_dim))
    return _solvable_if(
        "engel-pairings-solvable", s, {"designated_pair_bracket_span_engel": met}, met
    )


def check_nonabelian_solvable_zero_reducible(s: SubgradedAlgebra) -> CheckReport:
    """A solvable non-commutative zero component forces reducibility."""
    n = s.algebra.ambient_dim
    ds = derived_series(LieAlgebra.from_span(_zero_component(s), n))
    derived_nonzero = ds.terms[1].dim > 0
    solvable0 = ds.terminal_dim == 0
    hypothesis = {
        "graded": s.is_direct,
        "zero_component_solvable": solvable0,
        "zero_component_noncommutative": derived_nonzero,
    }
    met = s.is_direct and solvable0 and derived_nonzero and n > 1
    conclusions = {"reducible": _reducible(s)} if met else {}
    return check_report(
        "nonabelian-solvable-zero-reducible", s, hypothesis, met, conclusions,
        {"failed": "reducible"},
    )


def check_odd_engel_solvable(s: SubgradedAlgebra) -> CheckReport:
    """In a two-component grading, an Engel odd part makes the paired ideal
    solvable (and the algebra reducible when the odd part is non-scalar)."""
    if s.group.moduli != (2,):
        raise CheckUsageError("check requires a two-element grading group")
    n = s.algebra.ambient_dim
    odd = s.component((1,))
    met = subspace_engel_in(s.algebra, odd)
    conclusions = {}
    if met:
        solvable = is_solvable(nonzero_opposite_bracket_ideal(s).algebra)
        conclusions["paired_ideal_solvable"] = solvable
        if solvable and not is_scalar_set(odd, n) and n > 1:
            conclusions["reducible"] = _reducible(s)
    return check_report(
        "odd-engel-solvable", s, {"odd_component_engel": met}, met, conclusions,
        {"failed": [k for k, v in conclusions.items() if not v]},
    )


def _nilpotent_grid(algebra: LieAlgebra) -> list[Mat]:
    basis = list(algebra.basis_mats)
    cands = list(basis)
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            cands.append(a + b)
            cands.append(a - b)
    return [m for m in cands if is_nilpotent_exact(m)]


def check_nilpotent_sum_closed(algebra: LieAlgebra) -> CheckReport:
    """Triangularizable algebras keep nilpotents closed under addition; for
    non-triangularizable ones the report records whether the grid exhibits an
    offending pair (no assertion either way)."""
    solvable = is_solvable(algebra)
    nils = _nilpotent_grid(algebra)
    closed = all(
        is_nilpotent_exact(a + b) for i, a in enumerate(nils) for b in nils[i + 1 :]
    )
    hypothesis = {"triangularizable": solvable, "grid_size": len(nils)}
    return check_report(
        "nilpotent-sum-closed", algebra, hypothesis, solvable,
        {"nilpotent_sums_closed_on_grid": closed},
        {"failed": "nilpotent sum", "pair": "see instance"},
    )


def check_engel_sum_closed(algebra: LieAlgebra) -> CheckReport:
    """In a solvable algebra, sums of ad-nilpotent grid elements stay ad-nilpotent."""
    solvable = is_solvable(algebra)
    conclusions = {}
    if solvable:
        basis = list(algebra.basis_mats)
        cands = basis + [a + b for i, a in enumerate(basis) for b in basis[i + 1 :]]
        engels = [m for m in cands if is_engel_element(algebra, m)]
        conclusions["engel_sums_closed_on_grid"] = all(
            is_engel_element(algebra, a + b)
            for i, a in enumerate(engels)
            for b in engels[i + 1 :]
        )
    return check_report(
        "engel-sum-closed", algebra, {"solvable": solvable}, solvable, conclusions,
        {"failed": "engel sum"},
    )


def check_cartan_equivalence(algebra: LieAlgebra) -> CheckReport:
    """The trace-form test and the derived series agree on solvability."""
    agreed = cartan_test(algebra) == is_solvable(algebra)
    return check_report(
        "cartan-equivalence", algebra, {}, True, {"trace_test_matches_derived_series": agreed}
    )


def check_triple_volterra(m: MatSubspace) -> CheckReport:
    """A nil triple system has a solvable envelope."""
    solvable = is_solvable(triple_to_z2(m).algebra)
    return check_report(
        "triple-volterra", m, {"nil_triple_system": True}, True,
        {"envelope_solvable": solvable}, structure="triple",
    )


def check_jordan_volterra(j: MatSubspace) -> CheckReport:
    """A nil Jordan algebra has a solvable envelope."""
    solvable = is_solvable(jordan_to_z2(j).algebra)
    return check_report(
        "jordan-volterra", j, {"nil_jordan_algebra": True}, True,
        {"envelope_solvable": solvable}, structure="jordan",
    )


def check_jordan_chain(pair: tuple[MatSubspace, MatSubspace]) -> CheckReport:
    """A Jordan algebra and an ideal give a verified chain of nested Lie algebras."""
    j, i = pair
    try:
        jordan_ideal_chain(j, i)
        error = None
    except IdealChainError as exc:
        error = str(exc)
    return check_report(
        "jordan-chain", j, {"jordan_ideal_pair": True}, True,
        {"chain_verified": error is None}, {"error": error}, "jordan",
    )


def check_ampliation(s: SubgradedAlgebra) -> CheckReport:
    """The ampliation is direct with a back map that inverts it, and Engel and
    solvability transfer back down."""
    hypothesis = {"graded_instance": True}
    try:
        direct = ampliate(s).ampliated.is_direct
    except GradingError as exc:  # too large to build, not direct, or the back map fails
        return check_report(
            "ampliation", s, hypothesis, True, {"ampliation_verified": False}, {"error": str(exc)}
        )
    return check_report(
        "ampliation", s, hypothesis, True, {"direct": direct, "transfer_ok": check_maptri(s).ok}
    )
