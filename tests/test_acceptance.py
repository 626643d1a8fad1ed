"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  Every tolerance and trial count is pinned here.
"""

import time

from gradelie.scalars import Q
from gradelie.matrices import Mat, bracket, is_nilpotent_exact
from gradelie.subspaces import mat_span
from gradelie.groups import FinAbGroup
from gradelie.lie import (
    is_engel_element,
    is_nil_subspace,
    is_nilpotent_lie,
    is_solvable,
    lie_closure,
)
from gradelie.grading import ampliate, check_maptri, verify_subgrading
from gradelie.spectral import (
    Flag,
    decide_irreducible,
    triangularize_solvable,
    verify_flag,
)
from gradelie.structures import MatSubspace, is_lie_n_product_system, m_bracket_powers
from gradelie.documents import materialize
from gradelie.examples import build_example
from gradelie.generators import gen_solvable, gen_weight_graded
from gradelie.campaigns import run_campaign

SEED = 2024

_RESULTS = []


class _Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line = (
            f"ACCEPTANCE {self.number:>2} {status} ({elapsed:7.2f}s / limit "
            f"{self.limit_s:>4.0f}s) {self.label}"
        )
        print(line, flush=True)
        _RESULTS.append(line)
        if exc_type is None and elapsed >= self.limit_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime limit: "
                f"{elapsed:.2f}s >= {self.limit_s}s"
            )
        return False


def test_criterion_01_pauli():
    with _Criterion(1, "Klein four-group grading of the Pauli basis", 1.0):
        doc = build_example("pauli")
        (a,) = doc.components[(0, 1)]
        (b,) = doc.components[(1, 0)]
        (c,) = doc.components[(1, 1)]
        s = materialize(doc)
        assert s.is_direct
        assert s.component((0, 0)).dim == 0
        assert bracket(a, b) == c.scale(2)
        assert bracket(b, c) == a.scale(2)
        assert bracket(c, a) == b.scale(2)
        verdict = decide_irreducible(list(s.algebra.basis_mats))
        assert verdict.irreducible and verdict.assoc_dim == 4
        # a, b and c square to -I and anticommute in pairs, so
        # (lam x + mu y)^2 = -(lam^2 + mu^2) I exactly: the eigenvalues are
        # the square roots of -(lam^2 + mu^2), of modulus |lam^2 + mu^2|^(1/2)
        one = Mat.identity(2)
        for m in (a, b, c):
            assert m @ m == -one
        grid = [Q(1), Q(-1), Q(0, 1), Q(0, -1), Q(1, 1)]
        for x, y in ((a, b), (b, c), (a, c)):
            assert (x @ y + y @ x).is_zero()
            for lam in grid:
                for mu in grid:
                    z = x.scale(lam) + y.scale(mu)
                    assert z @ z == one.scale(-(lam * lam + mu * mu))


def test_criterion_02_weight_graded_sl2():
    with _Criterion(2, "three-component cyclic grading of sl(2)", 1.0):
        doc = build_example("e1")
        (g,) = doc.components[(0,)]
        (e,) = doc.components[(1,)]
        (f,) = doc.components[(2,)]
        s = materialize(doc)
        assert s.is_direct
        assert is_nilpotent_exact(e) and is_nilpotent_exact(f)
        assert not is_engel_element(s.algebra, g)
        w = bracket(e, f)
        assert w == g and not is_nilpotent_exact(w)
        verdict = decide_irreducible(list(s.algebra.basis_mats))
        assert verdict.irreducible
        # hypothesis filters of the scalar-zero and Engel-component checks
        # must report this instance unmet
        from gradelie.checks import (
            check_engel_components_solvable,
            check_scalar_zero_solvable,
        )

        assert not check_scalar_zero_solvable(s).hypothesis_met
        assert not check_engel_components_solvable(s).hypothesis_met


def test_criterion_03_nilpotent_pair():
    with _Criterion(3, "irreducible five-fold bracket-power system", 1.0):
        doc = build_example("e2")
        a, b = doc.generators
        # symbolic-coefficient expansion of (lam a + mu b)^3
        coeff_mats = {
            (3, 0): a @ a @ a,
            (2, 1): a @ a @ b + a @ b @ a + b @ a @ a,
            (1, 2): a @ b @ b + b @ a @ b + b @ b @ a,
            (0, 3): b @ b @ b,
        }
        assert all(m.is_zero() for m in coeff_mats.values())
        assert is_nil_subspace(mat_span([a, b]), 3)
        for lam in range(-2, 3):
            for mu in range(-2, 3):
                combo = a.scale(lam) + b.scale(mu)
                assert combo.power(3).is_zero()
        m = MatSubspace.from_matrices([a, b])
        assert is_lie_n_product_system(m, 5)
        assert not is_lie_n_product_system(m, 2)
        algebra = lie_closure([a, b])
        verdict = decide_irreducible(list(algebra.basis_mats))
        assert verdict.irreducible
        comps = {
            (1,): mat_span(list(m.basis_mats), 3),
            (2,): mat_span(m_bracket_powers(m, 2), 3),
            (3,): mat_span(m_bracket_powers(m, 3), 3),
            (0,): mat_span(m_bracket_powers(m, 4), 3),
        }
        s = verify_subgrading(algebra, FinAbGroup([4]), comps)
        assert s.algebra.dim == 8


def test_criterion_04_cartan_equivalence():
    with _Criterion(4, "trace test == derived series on 500 closures", 60.0):
        result = run_campaign("cartan-equivalence", trials=500, seed=SEED, dim_max=4)
        assert result.ok, result.failures[:1]
        assert result.trials == 500


def test_criterion_05_scalar_zero_suite():
    with _Criterion(5, "scalar zero component forces solvability (500 seeds)", 120.0):
        result = run_campaign("scalar-zero", trials=500, seed=SEED, dim_max=4)
        assert result.ok, result.failures[:1]
        assert result.hypothesis_met >= 30, result.hypothesis_met


def test_criterion_06a_engel_components_suite():
    with _Criterion(6, "Engel components force solvability (300 seeds)", 120.0):
        result = run_campaign("engel-components", trials=300, seed=SEED, dim_max=4)
        assert result.ok, result.failures[:1]
        assert result.notes["control_pauli"] == "unmet"
        assert result.notes["control_e1"] == "unmet"


def test_criterion_06b_engel_commutators_suite():
    with _Criterion(6, "Engel homogeneous commutators (300 seeds)", 120.0):
        result = run_campaign("engel-commutators", trials=300, seed=SEED, dim_max=4)
        assert result.ok, result.failures[:1]
        assert result.notes["control_pauli"] == "unmet"
        assert result.notes["control_e1"] == "unmet"


def test_criterion_06c_engel_pairings_suite():
    with _Criterion(6, "Engel opposite/non-cocyclic pairings (300 seeds)", 120.0):
        result = run_campaign("engel-pairings", trials=300, seed=SEED, dim_max=4)
        assert result.ok, result.failures[:1]
        assert result.notes["control_pauli"] == "unmet"
        assert result.notes["control_e1"] == "unmet"


def test_criterion_07_triple_jordan_suite():
    with _Criterion(7, "nil triple systems, Jordan algebras, ideal chains", 120.0):
        triples = run_campaign("triple-volterra", trials=200, seed=SEED, dim_max=4)
        assert triples.ok and triples.hypothesis_met == 200
        jordans = run_campaign("jordan-volterra", trials=200, seed=SEED, dim_max=4)
        assert jordans.ok and jordans.hypothesis_met == 200
        chains = run_campaign("jordan-chain", trials=200, seed=SEED, dim_max=4)
        assert chains.ok and chains.hypothesis_met == 200


def test_criterion_08_triangularization_certificates():
    with _Criterion(8, "flag certificates verify at 1e-9; sl(2) rejected", 60.0):
        for trial in range(100):
            n = 2 + (trial % 3)
            algebra = gen_solvable(n, SEED * 1_000_003 + trial)
            flag = triangularize_solvable(algebra)
            report = verify_flag(list(algebra.basis_mats), flag, 1e-9)
            assert report.all_ok, trial
        sl2 = materialize(build_example("sl2"))
        mats = list(sl2.basis_mats)
        coordinate_changes = (
            Mat.identity(2),
            Mat.from_int_rows([[0, 1], [1, 0]]),
        )
        for u in coordinate_changes:
            flag = Flag(u)
            assert not verify_flag(mats, flag, 1e-9).all_ok


def _graded_instances_from_criteria_1_to_6():
    """The same instance streams criteria 1-6 run on, regenerated."""
    yield materialize(build_example("pauli"))
    yield materialize(build_example("e1"))
    doc = build_example("e2")
    a, b = doc.generators
    m = MatSubspace.from_matrices([a, b])
    algebra = lie_closure([a, b])
    yield verify_subgrading(
        algebra,
        FinAbGroup([4]),
        {
            (1,): mat_span(list(m.basis_mats), 3),
            (2,): mat_span(m_bracket_powers(m, 2), 3),
            (3,): mat_span(m_bracket_powers(m, 3), 3),
            (0,): mat_span(m_bracket_powers(m, 4), 3),
        },
    )
    cyclic = ([2], [3], [4], [5])
    mixed = ([2], [3], [4], [5], [2, 2], [2, 4], [3, 3])
    dims = [2, 3, 4]
    for t in range(500):  # criterion 5 stream
        yield gen_weight_graded(dims[t % 3], cyclic[t % 4], SEED * 1_000_003 + t)
    for t in range(300):  # criterion 6 stream (shared by all three suites)
        yield gen_weight_graded(dims[t % 3], mixed[t % 7], SEED * 1_000_003 + t)


def _verify_fpi_homomorphism(result, max_basis: int) -> bool:
    pairs = [
        (big, orig)
        for deg in sorted(result.back_map_table)
        for big, orig in result.back_map_table[deg]
    ][:max_basis]
    for m1, o1 in pairs:
        for m2, o2 in pairs:
            if result.f_pi(bracket(m1, m2)) != bracket(o1, o2):
                return False
    originals = [o for _, ps in result.back_map_table.items() for _, o in ps]
    surjective = (
        mat_span(originals, result.source.algebra.ambient_dim)
        == result.source.algebra.span
    )
    return surjective


def test_criterion_09_ampliation_suite():
    with _Criterion(9, "ampliations direct, back map a homomorphism, transfer ok", 60.0):
        count = 0
        for s in _graded_instances_from_criteria_1_to_6():
            result = ampliate(s)
            assert result.ampliated.is_direct
            max_basis = 12 if count < 3 else 6
            assert _verify_fpi_homomorphism(result, max_basis), count
            report = check_maptri(s)
            assert report.ok, count
            count += 1
        assert count == 803


def test_graded_series_match_the_kronecker_form():
    # check_maptri computes the ampliation's series degree by degree in gl(n),
    # and ampliate does not re-verify the Kronecker grading: both are checked
    # here against the n*|G| Kronecker form on the criterion-09 instances
    count = 0
    for s in _graded_instances_from_criteria_1_to_6():
        result = ampliate(s)
        amp = result.ampliated
        report = check_maptri(s)
        assert report.ampliated_engel == is_nilpotent_lie(amp.algebra), count
        assert report.ampliated_solvable == is_solvable(amp.algebra), count
        bigs = {deg: [big for big, _ in pairs] for deg, pairs in result.back_map_table.items()}
        again = verify_subgrading(amp.algebra, amp.group, bigs)
        assert again.components == amp.components, count
        assert again.is_direct == amp.is_direct, count
        count += 1
    assert count == 803


def test_criterion_10_engel_sum_suite():
    with _Criterion(10, "ad-nilpotent sums stay ad-nilpotent in solvable algebras", 60.0):
        result = run_campaign("engel-sum", trials=200, seed=SEED, dim_max=4)
        assert result.ok, result.failures[:1]
        sl2 = materialize(build_example("sl2"))
        e = Mat.unit(2, 0, 1)
        f = Mat.unit(2, 1, 0)
        assert is_engel_element(sl2, e) and is_engel_element(sl2, f)
        assert not is_engel_element(sl2, e + f)


def test_zz_summary():
    print()
    for line in _RESULTS:
        print(line)
