import pytest

from gradelie.campaigns import CAMPAIGNS, resolve_campaign, run_campaign


def test_aliases_resolve():
    assert resolve_campaign("prime") == "scalar-zero"
    assert resolve_campaign("cart") == "scalar-zero-engel"
    assert resolve_campaign("finsubgraded") == "engel-components"
    assert resolve_campaign("multiset") == "engel-commutators"
    assert resolve_campaign("lieset") == "engel-pairings"
    assert resolve_campaign("findim2") == "odd-engel"
    assert resolve_campaign("crit12") == "nilpotent-sum"
    assert resolve_campaign("tensor") == "engel-sum"
    assert resolve_campaign("cartan-equivalence") == "cartan-equivalence"
    with pytest.raises(KeyError):
        resolve_campaign("nonsense")


def test_campaigns_deterministic():
    for name in ("scalar-zero", "engel-components", "triple-volterra"):
        first = run_campaign(name, trials=15, seed=9, dim_max=4)
        second = run_campaign(name, trials=15, seed=9, dim_max=4)
        assert first.hypothesis_met == second.hypothesis_met
        assert first.notes == second.notes
        assert len(first.failures) == len(second.failures) == 0


def test_all_campaigns_run_clean_briefly():
    for name in CAMPAIGNS:
        result = run_campaign(name, trials=6, seed=3, dim_max=3)
        assert result.ok, (name, result.failures[:1])


def test_search_mode_asserts_nothing():
    result = run_campaign("three-product-search", trials=30, seed=0, dim_max=3)
    assert result.ok
    assert "irreducible_found" in result.notes


def test_reducibility_is_decided_by_closure_dimension():
    # both campaigns met reducible sets whose invariant subspaces are not
    # defined over Q(i); Burnside's dimension count needs no witness
    assert run_campaign("scalar-zero-engel", trials=30, seed=3).ok
    assert run_campaign("odd-engel", trials=30, seed=3).ok


def test_passing_campaigns_compute_no_digest(monkeypatch):
    # the digest is built when a report is read for output, so only for failures
    import sys

    calls = []

    def counting(doc):
        calls.append(doc)
        return "0" * 16

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("gradelie") and hasattr(
            module, "instance_digest"
        ):
            monkeypatch.setattr(module, "instance_digest", counting)
    for name in ("engel-components", "nilpotent-sum", "jordan-chain", "ampliation"):
        assert run_campaign(name, trials=8, seed=3, dim_max=3).ok
    assert calls == []

