"""Executable theorem checks.

Each check decides its hypothesis exactly (nil-subspace polarization, exact
scalar tests), asserts the conclusion with the package's structural
machinery, and reports a replayable counterexample payload on failure.  A
hypothesis-unmet instance passes vacuously but says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .matrices import Mat, bracket, is_nilpotent_exact
from .subspaces import Subspace, mat_span, span_basis_mats
from .lie import (
    LieAlgebra,
    ad_matrix,
    is_engel_element,
    is_nil_subspace,
    is_scalar_set,
    is_solvable,
)
from .grading import (
    SubgradedAlgebra,
    homogeneous_commutators,
    nonzero_opposite_bracket_ideal,
)
from .spectral import assoc_closure_dim
from .documents import document_from, document_to_dict, instance_digest

__all__ = [
    "CheckReport",
    "CheckUsageError",
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
]


class CheckUsageError(ValueError):
    """The check was pointed at a structurally unsuitable instance."""


@dataclass(frozen=True)
class CheckReport:
    check: str
    digest: str
    hypothesis: dict
    hypothesis_met: bool
    conclusions: dict
    passed: bool
    counterexample: dict | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        met = "hypothesis met" if self.hypothesis_met else "hypothesis unmet"
        return f"[{status}] {self.check} ({met}) instance {self.digest}"


def _payload(obj, detail: dict) -> dict:
    doc = document_from(obj)
    return {"instance": document_to_dict(doc), "detail": detail}


def subspace_engel_in(algebra: LieAlgebra, sub: Subspace) -> bool:
    """Exact decision: does every element of the subspace act ad-nilpotently?

    Fast path: a subspace of nilpotent operators always acts ad-nilpotently.
    Otherwise single elements are screened first and the polarization test
    runs on the adjoint image.
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


def check_scalar_zero_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Cyclic grading with scalar zero component forces solvability."""
    if not s.group.is_cyclic():
        raise CheckUsageError("check requires a cyclic grading group")
    digest = instance_digest(document_from(s))
    scalar0 = is_scalar_set(_zero_component(s), s.algebra.ambient_dim)
    hypothesis = {"graded": s.is_direct, "zero_component_scalar": scalar0}
    met = s.is_direct and scalar0
    conclusions = {}
    passed = True
    payload = None
    if met:
        solvable = is_solvable(s.algebra)
        conclusions["solvable"] = solvable
        passed = solvable
        if not passed:
            payload = _payload(s, {"failed": "solvable"})
    return CheckReport(
        "scalar-zero-solvable", digest, hypothesis, met, conclusions, passed, payload
    )


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
    digest = instance_digest(document_from(s))
    n = s.algebra.ambient_dim
    scalar0 = is_scalar_set(_zero_component(s), n)
    witnesses = []
    if s.is_direct and scalar0 and n > 1:
        for degree in s.support:
            for cand in _candidate_homogeneous(s, degree):
                if cand.is_scalar():
                    continue
                if is_engel_element(s.algebra, cand):
                    witnesses.append((degree, cand))
    hypothesis = {
        "graded": s.is_direct,
        "zero_component_scalar": scalar0,
        "nonscalar_engel_homogeneous_found": bool(witnesses),
        "scanned_grid": "component bases and {-1,0,1} combinations",
    }
    met = s.is_direct and scalar0 and bool(witnesses)
    conclusions = {}
    passed = True
    payload = None
    if met:
        passed = _reducible(s)
        conclusions["reducible"] = passed
        if not passed:
            payload = _payload(s, {"failed": "reducible", "witness_degree": list(witnesses[0][0])})
    return CheckReport(
        "scalar-zero-engel-reducible", digest, hypothesis, met, conclusions, passed, payload
    )


def check_engel_components_solvable(s: SubgradedAlgebra, mode: str = "auto") -> CheckReport:
    """Engel components force solvability (all components, or the zero one
    when the group is cyclic)."""
    if mode not in ("auto", "all", "zero"):
        raise CheckUsageError(f"unknown mode {mode!r}")
    digest = instance_digest(document_from(s))
    hypothesis: dict = {}
    met_all = met_zero = False
    if mode in ("auto", "all"):
        met_all = all(
            subspace_engel_in(s.algebra, s.component(g)) for g in s.support
        )
        hypothesis["all_components_engel"] = met_all
    if mode in ("auto", "zero") and s.group.is_cyclic():
        met_zero = subspace_engel_in(s.algebra, _zero_component(s))
        hypothesis["cyclic_and_zero_component_engel"] = met_zero
    met = met_all or met_zero
    conclusions = {}
    passed = True
    payload = None
    if met:
        solvable = is_solvable(s.algebra)
        conclusions["solvable"] = solvable
        passed = solvable
        if not passed:
            payload = _payload(s, {"failed": "solvable", "mode": mode})
    return CheckReport(
        "engel-components-solvable", digest, hypothesis, met, conclusions, passed, payload
    )


def check_engel_commutators_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Engel homogeneous commutators force solvability."""
    digest = instance_digest(document_from(s))
    n = s.algebra.ambient_dim
    commutators = [m for _, m in homogeneous_commutators(s) if not m.is_zero()]
    met = subspace_engel_in(s.algebra, mat_span(commutators, n))
    hypothesis = {"homogeneous_commutator_span_engel": met}
    conclusions = {}
    passed = True
    payload = None
    if met:
        solvable = is_solvable(s.algebra)
        conclusions["solvable"] = solvable
        passed = solvable
        if not passed:
            payload = _payload(s, {"failed": "solvable"})
    return CheckReport(
        "engel-commutators-solvable", digest, hypothesis, met, conclusions, passed, payload
    )


def check_engel_pairings_solvable(s: SubgradedAlgebra) -> CheckReport:
    """Engel brackets over opposite or non-cocyclic degree pairs force solvability."""
    from .groups import noncyclic_pairs

    digest = instance_digest(document_from(s))
    n = s.algebra.ambient_dim
    group = s.group
    sharp = noncyclic_pairs(group)
    mats: list[Mat] = []
    for ga in s.support:
        for gb in s.support:
            if group.add(ga, gb) == group.zero() or (ga, gb) in sharp:
                mats.extend(
                    bracket(a, b)
                    for a in s.component_mats(ga)
                    for b in s.component_mats(gb)
                )
    mats = [m for m in mats if not m.is_zero()]
    met = subspace_engel_in(s.algebra, mat_span(mats, n))
    hypothesis = {"designated_pair_bracket_span_engel": met}
    conclusions = {}
    passed = True
    payload = None
    if met:
        solvable = is_solvable(s.algebra)
        conclusions["solvable"] = solvable
        passed = solvable
        if not passed:
            payload = _payload(s, {"failed": "solvable"})
    return CheckReport(
        "engel-pairings-solvable", digest, hypothesis, met, conclusions, passed, payload
    )


def check_nonabelian_solvable_zero_reducible(s: SubgradedAlgebra) -> CheckReport:
    """A solvable non-commutative zero component forces reducibility."""
    digest = instance_digest(document_from(s))
    n = s.algebra.ambient_dim
    zero_alg = LieAlgebra.from_span(_zero_component(s), n)
    derived_nonzero = any(
        not bracket(a, b).is_zero()
        for i, a in enumerate(zero_alg.basis_mats)
        for b in zero_alg.basis_mats[i + 1 :]
    )
    solvable0 = is_solvable(zero_alg)
    hypothesis = {
        "graded": s.is_direct,
        "zero_component_solvable": solvable0,
        "zero_component_noncommutative": derived_nonzero,
    }
    met = s.is_direct and solvable0 and derived_nonzero and n > 1
    conclusions = {}
    passed = True
    payload = None
    if met:
        passed = _reducible(s)
        conclusions["reducible"] = passed
        if not passed:
            payload = _payload(s, {"failed": "reducible"})
    return CheckReport(
        "nonabelian-solvable-zero-reducible", digest, hypothesis, met, conclusions, passed, payload
    )


def check_odd_engel_solvable(s: SubgradedAlgebra) -> CheckReport:
    """In a two-component grading, an Engel odd part makes the paired ideal
    solvable (and the algebra reducible when the odd part is non-scalar)."""
    if s.group.moduli != (2,):
        raise CheckUsageError("check requires a two-element grading group")
    digest = instance_digest(document_from(s))
    n = s.algebra.ambient_dim
    odd = s.component((1,))
    met = subspace_engel_in(s.algebra, odd)
    hypothesis = {"odd_component_engel": met}
    conclusions = {}
    passed = True
    payload = None
    if met:
        ideal = nonzero_opposite_bracket_ideal(s)
        solvable = is_solvable(ideal.algebra)
        conclusions["paired_ideal_solvable"] = solvable
        passed = solvable
        if passed and not is_scalar_set(odd, n) and n > 1:
            passed = _reducible(s)
            conclusions["reducible"] = passed
        if not passed:
            payload = _payload(s, {"failed": [k for k, v in conclusions.items() if not v]})
    return CheckReport(
        "odd-engel-solvable", digest, hypothesis, met, conclusions, passed, payload
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
    non-triangularizable ones the report records an offending pair if the
    grid exhibits one (no assertion either way)."""
    digest = instance_digest(document_from(algebra))
    solvable = is_solvable(algebra)
    nils = _nilpotent_grid(algebra)
    offending = None
    for i, a in enumerate(nils):
        for b in nils[i + 1 :]:
            if not is_nilpotent_exact(a + b):
                offending = (a, b)
                break
        if offending:
            break
    hypothesis = {"triangularizable": solvable, "grid_size": len(nils)}
    conclusions = {"nilpotent_sums_closed_on_grid": offending is None}
    passed = (offending is None) if solvable else True
    payload = None
    if not passed:
        payload = _payload(algebra, {"failed": "nilpotent sum", "pair": "see instance"})
    return CheckReport(
        "nilpotent-sum-closed", digest, hypothesis, solvable, conclusions, passed, payload
    )


def check_engel_sum_closed(algebra: LieAlgebra) -> CheckReport:
    """In a solvable algebra, sums of ad-nilpotent grid elements stay ad-nilpotent."""
    digest = instance_digest(document_from(algebra))
    solvable = is_solvable(algebra)
    hypothesis = {"solvable": solvable}
    conclusions = {}
    passed = True
    payload = None
    if solvable:
        basis = list(algebra.basis_mats)
        cands = list(basis)
        for i, a in enumerate(basis):
            for b in basis[i + 1 :]:
                cands.append(a + b)
        engels = [m for m in cands if is_engel_element(algebra, m)]
        ok = True
        for i, a in enumerate(engels):
            for b in engels[i + 1 :]:
                if not is_engel_element(algebra, a + b):
                    ok = False
                    break
            if not ok:
                break
        conclusions["engel_sums_closed_on_grid"] = ok
        passed = ok
        if not passed:
            payload = _payload(algebra, {"failed": "engel sum"})
    return CheckReport(
        "engel-sum-closed", digest, hypothesis, solvable, conclusions, passed, payload
    )
