"""Seeded fuzz campaigns over the theorem checks.

A campaign is a pure function of (seed, trials, dim_max): per-trial instances
come from the deterministic generators, every hypothesis is decided exactly,
and any failing check ships a replayable counterexample document.  Campaign
names have short aliases for the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .subspaces import span_basis_mats
from .lie import cartan_test, is_solvable, is_nil_subspace, lie_closure
from .grading import ampliate, check_maptri
from .spectral import assoc_closure_dim
from .structures import (
    jordan_ideal_chain,
    jordan_to_z2,
    triple_to_z2,
    IdealChainError,
)
from .generators import (
    gen_jordan_pair,
    gen_lie_algebra,
    gen_nilpotent_jordan,
    gen_nilpotent_triple,
    gen_solvable,
    gen_weight_graded,
)
from .examples import build_example
from .documents import document_from, document_to_dict, instance_digest, materialize
from .checks import (
    CheckReport,
    check_engel_commutators_solvable,
    check_engel_components_solvable,
    check_engel_pairings_solvable,
    check_engel_sum_closed,
    check_graded_cartan,
    check_nilpotent_sum_closed,
    check_odd_engel_solvable,
    check_scalar_zero_solvable,
)

__all__ = ["CampaignResult", "run_campaign", "CAMPAIGNS", "resolve_campaign"]


@dataclass
class CampaignResult:
    name: str
    trials: int
    hypothesis_met: int = 0
    failures: list[CheckReport] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = "".join(f", {k}={v}" for k, v in sorted(self.notes.items()))
        return (
            f"[{status}] campaign {self.name}: {self.trials} trials, "
            f"{self.hypothesis_met} hypothesis-met, {len(self.failures)} failures{extra}"
        )


def _subseed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _dims(dim_max: int, lo: int = 2) -> list[int]:
    if dim_max < lo:
        raise ValueError(f"dim-max must be at least {lo}")
    return list(range(lo, dim_max + 1))


def _collect(result: CampaignResult, report: CheckReport) -> None:
    if report.hypothesis_met:
        result.hypothesis_met += 1
    if not report.passed:
        result.failures.append(report)


_CYCLIC_MODULI = ([2], [3], [4], [5])
_MIXED_MODULI = ([2], [3], [4], [5], [2, 2], [2, 4], [3, 3])


def _control_unmet(result: CampaignResult, name: str, check) -> None:
    """Run a named example as a mandatory hypothesis-unmet negative control."""
    s = materialize(build_example(name))
    report = check(s)
    result.notes[f"control_{name}"] = "unmet" if not report.hypothesis_met else "MET"
    if report.hypothesis_met:
        result.failures.append(
            CheckReport(
                report.check,
                report.digest,
                report.hypothesis,
                True,
                {"negative_control_should_be_unmet": False},
                False,
                {"instance": document_to_dict(build_example(name)), "detail": {"control": name}},
            )
        )


def _campaign_cartan(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("cartan-equivalence", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        algebra = gen_lie_algebra(n, _subseed(seed, t))
        agreed = cartan_test(algebra) == is_solvable(algebra)
        result.hypothesis_met += 1
        if not agreed:
            doc = document_from(algebra)
            result.failures.append(
                CheckReport(
                    "cartan-equivalence",
                    instance_digest(doc),
                    {"trial": t},
                    True,
                    {"trace_test_matches_derived_series": False},
                    False,
                    {"instance": document_to_dict(doc), "detail": {"trial": t}},
                )
            )
    return result


def _campaign_scalar_zero(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("scalar-zero", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        moduli = _CYCLIC_MODULI[t % len(_CYCLIC_MODULI)]
        s = gen_weight_graded(n, moduli, _subseed(seed, t))
        _collect(result, check_scalar_zero_solvable(s))
    return result


def _campaign_scalar_zero_engel(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("scalar-zero-engel", trials)
    _control_unmet(result, "pauli", check_graded_cartan)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        moduli = _MIXED_MODULI[t % len(_MIXED_MODULI)]
        s = gen_weight_graded(n, moduli, _subseed(seed, t))
        _collect(result, check_graded_cartan(s))
    return result


def _campaign_engel_components(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("engel-components", trials)
    _control_unmet(result, "pauli", check_engel_components_solvable)
    _control_unmet(result, "e1", check_engel_components_solvable)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        moduli = _MIXED_MODULI[t % len(_MIXED_MODULI)]
        s = gen_weight_graded(n, moduli, _subseed(seed, t))
        _collect(result, check_engel_components_solvable(s))
    return result


def _campaign_engel_commutators(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("engel-commutators", trials)
    _control_unmet(result, "pauli", check_engel_commutators_solvable)
    _control_unmet(result, "e1", check_engel_commutators_solvable)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        moduli = _MIXED_MODULI[t % len(_MIXED_MODULI)]
        s = gen_weight_graded(n, moduli, _subseed(seed, t))
        _collect(result, check_engel_commutators_solvable(s))
    return result


def _campaign_engel_pairings(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("engel-pairings", trials)
    _control_unmet(result, "pauli", check_engel_pairings_solvable)
    _control_unmet(result, "e1", check_engel_pairings_solvable)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        moduli = _MIXED_MODULI[t % len(_MIXED_MODULI)]
        s = gen_weight_graded(n, moduli, _subseed(seed, t))
        _collect(result, check_engel_pairings_solvable(s))
    return result


def _campaign_odd_engel(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("odd-engel", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        if t % 2 == 0:
            s = triple_to_z2(gen_nilpotent_triple(n, _subseed(seed, t)))
        else:
            s = gen_weight_graded(n, [2], _subseed(seed, t))
        _collect(result, check_odd_engel_solvable(s))
    return result


def _campaign_nilpotent_sum(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("nilpotent-sum", trials)
    sl2 = materialize(build_example("sl2"))
    control = check_nilpotent_sum_closed(sl2)
    negative_seen = not control.conclusions.get("nilpotent_sums_closed_on_grid", True)
    result.notes["control_sl2_nonclosed_pair"] = negative_seen
    if not negative_seen:
        result.failures.append(control)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        algebra = gen_lie_algebra(n, _subseed(seed, t))
        _collect(result, check_nilpotent_sum_closed(algebra))
    return result


def _campaign_engel_sum(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("engel-sum", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        algebra = gen_solvable(n, _subseed(seed, t))
        _collect(result, check_engel_sum_closed(algebra))
    return result


def _campaign_triple(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("triple-volterra", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        m = gen_nilpotent_triple(n, _subseed(seed, t))
        result.hypothesis_met += 1
        s = triple_to_z2(m)  # raises GradingError on a grading-law failure
        if not is_solvable(s.algebra):
            doc = document_from(m, "triple")
            result.failures.append(
                CheckReport(
                    "triple-volterra",
                    instance_digest(doc),
                    {"nil_triple_system": True},
                    True,
                    {"envelope_solvable": False},
                    False,
                    {"instance": document_to_dict(doc), "detail": {"trial": t}},
                )
            )
    return result


def _campaign_jordan(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("jordan-volterra", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        j = gen_nilpotent_jordan(n, _subseed(seed, t))
        result.hypothesis_met += 1
        s = jordan_to_z2(j)
        if not is_solvable(s.algebra):
            doc = document_from(j, "jordan")
            result.failures.append(
                CheckReport(
                    "jordan-volterra",
                    instance_digest(doc),
                    {"nil_jordan_algebra": True},
                    True,
                    {"envelope_solvable": False},
                    False,
                    {"instance": document_to_dict(doc), "detail": {"trial": t}},
                )
            )
    return result


def _campaign_jordan_chain(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("jordan-chain", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        j, i = gen_jordan_pair(n, _subseed(seed, t))
        result.hypothesis_met += 1
        try:
            jordan_ideal_chain(j, i)
        except IdealChainError as exc:
            doc = document_from(j, "jordan")
            result.failures.append(
                CheckReport(
                    "jordan-chain",
                    instance_digest(doc),
                    {"jordan_ideal_pair": True},
                    True,
                    {"chain_verified": False},
                    False,
                    {
                        "instance": document_to_dict(doc),
                        "detail": {"trial": t, "error": str(exc)},
                    },
                )
            )
    return result


def _campaign_ampliation(trials, seed, dim_max) -> CampaignResult:
    result = CampaignResult("ampliation", trials)
    dims = _dims(dim_max)
    for t in range(trials):
        n = dims[t % len(dims)]
        moduli = _MIXED_MODULI[t % len(_MIXED_MODULI)]
        s = gen_weight_graded(n, moduli, _subseed(seed, t))
        result.hypothesis_met += 1
        amp = ampliate(s)  # directness and the back map are verified inside
        report = check_maptri(s)
        if not (amp.ampliated.is_direct and report.ok):
            doc = document_from(s)
            result.failures.append(
                CheckReport(
                    "ampliation",
                    instance_digest(doc),
                    {"graded_instance": True},
                    True,
                    {"direct": amp.ampliated.is_direct, "transfer_ok": report.ok},
                    False,
                    {"instance": document_to_dict(doc), "detail": {"trial": t}},
                )
            )
    return result


def _campaign_three_product_search(trials, seed, dim_max) -> CampaignResult:
    """Search mode: three-component cyclic gradings with a nilpotent odd part
    that generates; verdicts are tallied, nothing is asserted."""
    result = CampaignResult("three-product-search", trials)
    dims = _dims(dim_max, lo=2)
    irreducible_found = 0
    candidates = 0
    for t in range(trials):
        n = dims[t % len(dims)]
        s = gen_weight_graded(n, [3], _subseed(seed, t))
        odd = s.component((1,))
        if odd.dim == 0 or not is_nil_subspace(odd, n):
            continue
        odd_mats = span_basis_mats(odd, n)
        if lie_closure(odd_mats, ambient_dim=n).span != s.algebra.span:
            continue
        candidates += 1
        if assoc_closure_dim(list(s.algebra.basis_mats)) == n * n:
            irreducible_found += 1
    result.hypothesis_met = candidates
    result.notes["irreducible_found"] = irreducible_found
    return result


CAMPAIGNS = {
    "cartan-equivalence": _campaign_cartan,
    "scalar-zero": _campaign_scalar_zero,
    "scalar-zero-engel": _campaign_scalar_zero_engel,
    "engel-components": _campaign_engel_components,
    "engel-commutators": _campaign_engel_commutators,
    "engel-pairings": _campaign_engel_pairings,
    "odd-engel": _campaign_odd_engel,
    "nilpotent-sum": _campaign_nilpotent_sum,
    "engel-sum": _campaign_engel_sum,
    "triple-volterra": _campaign_triple,
    "jordan-volterra": _campaign_jordan,
    "jordan-chain": _campaign_jordan_chain,
    "ampliation": _campaign_ampliation,
    "three-product-search": _campaign_three_product_search,
}

_ALIASES = {
    "cartan": "cartan-equivalence",
    "prime": "scalar-zero",
    "cart": "scalar-zero-engel",
    "finsubgraded": "engel-components",
    "multiset": "engel-commutators",
    "lieset": "engel-pairings",
    "findim2": "odd-engel",
    "crit12": "nilpotent-sum",
    "tensor": "engel-sum",
    "triple": "triple-volterra",
    "jordan": "jordan-volterra",
}


def resolve_campaign(name: str) -> str:
    key = _ALIASES.get(name, name)
    if key not in CAMPAIGNS:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r}; known: {known}")
    return key


def run_campaign(name: str, trials: int = 200, seed: int = 0, dim_max: int = 4) -> CampaignResult:
    key = resolve_campaign(name)
    return CAMPAIGNS[key](trials, seed, dim_max)
