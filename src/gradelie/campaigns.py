"""Seeded fuzz campaigns over the theorem checks.

A campaign is a pure function of (seed, trials, dim_max).  Each campaign is
one row of a table: an instance generator, the check every instance goes
through, and named examples that must come out as negative controls.  One
trial loop runs every row: instances come from the deterministic generators,
every hypothesis is decided exactly, and any failing check ships a
replayable counterexample document.  Campaign names have short aliases for
the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .subspaces import span_basis_mats
from .lie import is_nil_subspace, lie_closure
from .spectral import assoc_closure_dim
from .structures import triple_to_z2
from .generators import (
    gen_jordan_pair,
    gen_lie_algebra,
    gen_nilpotent_jordan,
    gen_nilpotent_triple,
    gen_solvable,
    gen_solvable_zero_graded,
    gen_weight_graded,
    WEIGHT_GRADED_MAX_DIM,
)
from .examples import build_example
from .documents import materialize
from .checks import (
    CheckReport,
    check_ampliation,
    check_cartan_equivalence,
    check_engel_commutators_solvable,
    check_engel_components_solvable,
    check_engel_pairings_solvable,
    check_engel_sum_closed,
    check_graded_cartan,
    check_jordan_chain,
    check_jordan_volterra,
    check_nilpotent_sum_closed,
    check_nonabelian_solvable_zero_reducible,
    check_odd_engel_solvable,
    check_report,
    check_scalar_zero_solvable,
    check_triple_volterra,
)

__all__ = [
    "CampaignError",
    "CampaignResult",
    "Campaign",
    "Control",
    "run_campaign",
    "CAMPAIGNS",
    "resolve_campaign",
]

# every campaign starts its dimension cycle here
_LOWEST_DIM = 2


class CampaignError(ValueError):
    """A campaign parameter is out of range; ``option`` names the parameter."""

    def __init__(self, option: str, message: str):
        super().__init__(message)
        self.option = option


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


def _dims(trials: int, dim_max: int, highest: int | None = None) -> list[int]:
    if trials < 0:
        raise CampaignError("trials", f"must be at least 0, got {trials}")
    if dim_max < _LOWEST_DIM:
        raise CampaignError("dim-max", f"must be at least {_LOWEST_DIM}, got {dim_max}")
    if highest is not None and dim_max > highest:
        raise CampaignError(
            "dim-max", f"must be at most {highest} for this campaign, got {dim_max}"
        )
    return list(range(_LOWEST_DIM, dim_max + 1))


@dataclass(frozen=True)
class Control:
    """A named example the campaign's check must report as ``expect``.

    ``observe`` reads the value from the example's report; it is recorded in
    the campaign notes under ``note``.
    """

    example: str
    note: str
    observe: Callable[[CheckReport], object]
    expect: object


def _unmet(example: str) -> Control:
    """A negative control that must leave the hypothesis unmet."""
    return Control(
        example, f"control_{example}", lambda r: "MET" if r.hypothesis_met else "unmet", "unmet"
    )


@dataclass(frozen=True)
class Campaign:
    """One row of the campaign table: ``make(n, trial, subseed)`` builds the
    instance of a trial and ``check`` decides it; ``highest_dim`` caps
    ``dim_max`` when the instance generator has a size limit."""

    name: str
    make: Callable[[int, int, int], object]
    check: Callable[[object], CheckReport]
    controls: tuple[Control, ...] = ()
    highest_dim: int | None = None

    def __call__(self, trials: int, seed: int, dim_max: int) -> CampaignResult:
        dims = _dims(trials, dim_max, self.highest_dim)
        result = CampaignResult(self.name, trials)
        for control in self.controls:
            instance = materialize(build_example(control.example))
            report = self.check(instance)
            seen = control.observe(report)
            result.notes[control.note] = seen
            if seen != control.expect:
                result.failures.append(
                    check_report(
                        report.check, instance, report.hypothesis, True,
                        {"negative_control_holds": False}, {"control": control.example},
                    )
                )
        for t in range(trials):
            report = self.check(self.make(dims[t % len(dims)], t, _subseed(seed, t)))
            result.hypothesis_met += report.hypothesis_met
            if not report.passed:
                result.failures.append(replace(report, detail={"trial": t, **(report.detail or {})}))
        return result


_CYCLIC_MODULI = ([2], [3], [4], [5])
_MIXED_MODULI = ([2], [3], [4], [5], [2, 2], [2, 4], [3, 3])


def _graded(cycle, gen=gen_weight_graded) -> Callable[[int, int, int], object]:
    """Graded instances of ``gen`` whose group runs through the moduli cycle."""
    return lambda n, t, subseed: gen(n, cycle[t % len(cycle)], subseed)


def _weighted(name: str, cycle, check, controls: tuple[Control, ...] = ()) -> Campaign:
    """A row on gen_weight_graded instances, whose ambient dimension is capped."""
    return Campaign(name, _graded(cycle), check, controls, WEIGHT_GRADED_MAX_DIM)


def _plain(gen) -> Callable[[int, int, int], object]:
    return lambda n, t, subseed: gen(n, subseed)


def _odd_engel_instance(n: int, t: int, subseed: int):
    """Nil triple systems embedded in Z2 gradings, alternating with Z2 weight gradings."""
    if t % 2 == 0:
        return triple_to_z2(gen_nilpotent_triple(n, subseed))
    return gen_weight_graded(n, [2], subseed)


def _three_product_search(trials: int, seed: int, dim_max: int) -> CampaignResult:
    """Search mode: three-component cyclic gradings with a nilpotent odd part
    that generates; verdicts are tallied, nothing is asserted."""
    result = CampaignResult("three-product-search", trials)
    dims = _dims(trials, dim_max, WEIGHT_GRADED_MAX_DIM)
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


_PAULI_E1 = (_unmet("pauli"), _unmet("e1"))
_SL2_NONCLOSED = Control(
    "sl2",
    "control_sl2_nonclosed_pair",
    lambda r: not r.conclusions["nilpotent_sums_closed_on_grid"],
    True,
)

CAMPAIGNS: dict[str, Callable[[int, int, int], CampaignResult]] = {
    row.name: row
    for row in (
        Campaign("cartan-equivalence", _plain(gen_lie_algebra), check_cartan_equivalence),
        _weighted("scalar-zero", _CYCLIC_MODULI, check_scalar_zero_solvable),
        _weighted("scalar-zero-engel", _MIXED_MODULI, check_graded_cartan, (_unmet("pauli"),)),
        _weighted("engel-components", _MIXED_MODULI, check_engel_components_solvable, _PAULI_E1),
        _weighted("engel-commutators", _MIXED_MODULI, check_engel_commutators_solvable, _PAULI_E1),
        _weighted("engel-pairings", _MIXED_MODULI, check_engel_pairings_solvable, _PAULI_E1),
        Campaign(
            "odd-engel", _odd_engel_instance, check_odd_engel_solvable,
            highest_dim=WEIGHT_GRADED_MAX_DIM,
        ),
        Campaign(
            "nilpotent-sum", _plain(gen_lie_algebra), check_nilpotent_sum_closed,
            (_SL2_NONCLOSED,),
        ),
        Campaign("engel-sum", _plain(gen_solvable), check_engel_sum_closed),
        Campaign("triple-volterra", _plain(gen_nilpotent_triple), check_triple_volterra),
        Campaign("jordan-volterra", _plain(gen_nilpotent_jordan), check_jordan_volterra),
        Campaign("jordan-chain", _plain(gen_jordan_pair), check_jordan_chain),
        _weighted("ampliation", _MIXED_MODULI, check_ampliation),
        Campaign(
            "nonabelian-zero", _graded(_MIXED_MODULI, gen_solvable_zero_graded),
            check_nonabelian_solvable_zero_reducible, _PAULI_E1,
        ),
    )
}
CAMPAIGNS["three-product-search"] = _three_product_search

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
    """Run a campaign; CampaignError names a trial count or dimension out of range."""
    return CAMPAIGNS[resolve_campaign(name)](trials, seed, dim_max)
