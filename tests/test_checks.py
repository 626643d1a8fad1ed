import pytest

from gradelie.matrices import Mat
from gradelie.documents import document_from, instance_digest, materialize, parse_document
from gradelie.examples import build_example
from gradelie.generators import gen_nilpotent_triple, gen_weight_graded
from gradelie.structures import triple_to_z2
from gradelie.lie import derived_series, lie_closure
from gradelie.checks import (
    CheckUsageError,
    check_cartan_equivalence,
    check_engel_commutators_solvable,
    check_engel_components_solvable,
    check_engel_pairings_solvable,
    check_engel_sum_closed,
    check_graded_cartan,
    check_nilpotent_sum_closed,
    check_nonabelian_solvable_zero_reducible,
    check_odd_engel_solvable,
    check_report,
    check_scalar_zero_solvable,
    subspace_engel_in,
)

E = Mat.unit


def test_scalar_zero_on_e1_hypothesis_unmet():
    s = materialize(build_example("e1"))
    report = check_scalar_zero_solvable(s)
    assert not report.hypothesis_met  # zero component is diag(1/2, -1/2): non-scalar
    assert report.passed


def test_scalar_zero_requires_cyclic():
    s = materialize(build_example("pauli"))
    with pytest.raises(CheckUsageError):
        check_scalar_zero_solvable(s)


def test_scalar_zero_on_solvable_instances():
    hits = 0
    for seed in range(40):
        s = gen_weight_graded(3, [4], seed)
        report = check_scalar_zero_solvable(s)
        assert report.passed, report
        hits += report.hypothesis_met
    assert hits >= 5


def test_graded_cartan_pauli_unmet():
    s = materialize(build_example("pauli"))
    report = check_graded_cartan(s)
    # zero component is scalar (it is zero) but no homogeneous element is Engel
    assert report.hypothesis["zero_component_scalar"]
    assert not report.hypothesis["nonscalar_engel_homogeneous_found"]
    assert not report.hypothesis_met
    assert report.passed


def test_engel_components_controls():
    pauli = materialize(build_example("pauli"))
    e1 = materialize(build_example("e1"))
    for s in (pauli, e1):
        report = check_engel_components_solvable(s)
        assert not report.hypothesis_met
        assert report.passed
    # heisenberg with a two-component split is fully Engel and solvable
    heis = lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    from gradelie.grading import verify_subgrading
    from gradelie.groups import FinAbGroup

    s = verify_subgrading(
        heis,
        FinAbGroup([2]),
        {(0,): [E(3, 0, 2)], (1,): [E(3, 0, 1), E(3, 1, 2)]},
    )
    report = check_engel_components_solvable(s)
    assert report.hypothesis_met and report.passed
    assert report.conclusions["solvable"]


def test_engel_commutators_controls():
    e1 = materialize(build_example("e1"))
    report = check_engel_commutators_solvable(e1)
    assert not report.hypothesis_met  # [L1, L2] contains the non-Engel weight element
    assert report.passed
    pauli = materialize(build_example("pauli"))
    report2 = check_engel_commutators_solvable(pauli)
    assert not report2.hypothesis_met


def test_engel_pairings_controls():
    e1 = materialize(build_example("e1"))
    assert not check_engel_pairings_solvable(e1).hypothesis_met
    pauli = materialize(build_example("pauli"))
    assert not check_engel_pairings_solvable(pauli).hypothesis_met


def test_nonabelian_zero_check():
    # pauli: zero component is 0, commutative, hypothesis unmet
    pauli = materialize(build_example("pauli"))
    rep = check_nonabelian_solvable_zero_reducible(pauli)
    assert not rep.hypothesis_met and rep.passed
    # build a graded algebra whose zero component is the (solvable,
    # noncommutative) upper-triangular algebra of gl(2), inside gl(4)
    from gradelie.grading import verify_subgrading
    from gradelie.groups import FinAbGroup

    def emb(m, corner):
        grid = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                grid[corner[0] + i][corner[1] + j] = int(m.entry(i, j).re)
        return Mat.from_int_rows(grid)

    zero_mats = [emb(E(2, 0, 0), (0, 0)), emb(E(2, 0, 1), (0, 0)), emb(E(2, 1, 1), (0, 0))]
    algebra = lie_closure(zero_mats, ambient_dim=4)
    s = verify_subgrading(
        algebra, FinAbGroup([2]), {(0,): list(algebra.basis_mats)}
    )
    rep2 = check_nonabelian_solvable_zero_reducible(s)
    assert rep2.hypothesis_met
    assert rep2.passed and rep2.conclusions["reducible"]


def test_odd_engel_on_triple_embedding():
    for seed in range(8):
        s = triple_to_z2(gen_nilpotent_triple(3, seed))
        report = check_odd_engel_solvable(s)
        assert report.hypothesis_met
        assert report.passed
        assert report.conclusions["paired_ideal_solvable"]


def test_odd_engel_requires_two_components():
    with pytest.raises(CheckUsageError):
        check_odd_engel_solvable(materialize(build_example("e1")))


def test_nilpotent_sum_sl2_negative_direction():
    sl2 = materialize(build_example("sl2"))
    report = check_nilpotent_sum_closed(sl2)
    assert not report.hypothesis_met  # not triangularizable
    assert not report.conclusions["nilpotent_sums_closed_on_grid"]
    assert report.passed  # no assertion without the hypothesis
    heis = materialize(build_example("heisenberg"))
    report2 = check_nilpotent_sum_closed(heis)
    assert report2.hypothesis_met and report2.passed


def test_engel_sum_check_heisenberg():
    heis = materialize(build_example("heisenberg"))
    report = check_engel_sum_closed(heis)
    assert report.hypothesis_met and report.passed


def test_counterexample_payload_replays():
    s = materialize(build_example("e1"))
    report = check_scalar_zero_solvable(s)
    assert report.passed and report.counterexample is None
    # a failing report on the same instance replays to the same digest
    failing = check_report("synthetic", s, {}, True, {"holds": False}, {"note": "synthetic"})
    assert not failing.passed
    assert failing.counterexample["detail"] == {"note": "synthetic"}
    replayed = materialize(parse_document(failing.counterexample["instance"]))
    assert instance_digest(document_from(replayed)) == failing.digest == report.digest
    # an unmet hypothesis passes vacuously, whatever the conclusions say
    assert check_report("synthetic", s, {}, False, {"holds": False}).passed


def test_subspace_engel_in_modes():
    heis = lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    from gradelie.subspaces import mat_span

    assert subspace_engel_in(heis, mat_span([E(3, 0, 1)], 3))
    assert subspace_engel_in(heis, heis.span)
    sl2 = materialize(build_example("sl2"))
    h = Mat.from_rows([[1, 0], [0, -1]])
    assert not subspace_engel_in(sl2, mat_span([h], 2))
    # non-nilpotent operators can still act ad-nilpotently: the identity
    big = lie_closure([Mat.identity(2), E(2, 0, 1)])
    assert subspace_engel_in(big, mat_span([Mat.identity(2)], 2))


def test_campaign_checks_return_reports():
    from gradelie.checks import (
        check_ampliation,
        check_cartan_equivalence,
        check_jordan_chain,
        check_jordan_volterra,
        check_triple_volterra,
    )
    from gradelie.generators import gen_jordan_pair, gen_lie_algebra, gen_nilpotent_jordan

    triple = gen_nilpotent_triple(3, 5)
    jordan = gen_nilpotent_jordan(3, 5)
    pair = gen_jordan_pair(3, 5)
    reports = [
        (check_cartan_equivalence(gen_lie_algebra(3, 5)), "lie"),
        (check_triple_volterra(triple), "triple"),
        (check_jordan_volterra(jordan), "jordan"),
        (check_jordan_chain(pair), "jordan"),
        (check_ampliation(gen_weight_graded(3, [2, 2], 5)), "subgraded"),
    ]
    for report, structure in reports:
        assert report.hypothesis_met and report.passed, report.check
        assert report.counterexample is None
        assert report.document.structure == structure
    assert reports[1][0].digest == instance_digest(document_from(triple, "triple"))
    assert reports[3][0].document == document_from(pair[0], "jordan")


def test_cartan_equivalence_brackets_l_l_once(monkeypatch):
    # the trace test and the derived series share one [L, L], so the check
    # brackets as much as the derived series alone, each on a fresh algebra
    from gradelie import matrices

    calls = []
    real = matrices.bracket
    monkeypatch.setattr(matrices, "bracket", lambda a, b: calls.append(1) or real(a, b))
    builders = (
        lambda: lie_closure([E(3, 0, 0), E(3, 0, 1), E(3, 1, 2)]),
        lambda: materialize(build_example("sl2")),
    )
    for build in builders:
        algebra = build()
        del calls[:]
        derived_series(algebra)
        alone = len(calls)
        algebra = build()
        del calls[:]
        assert check_cartan_equivalence(algebra).passed
        assert len(calls) == alone > 0
