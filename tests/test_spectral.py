import random

import numpy as np
import pytest

from gradelie.scalars import Q
from gradelie.matrices import Mat
from gradelie.subspaces import canonicalize, mat_inverse
from gradelie.lie import PreconditionError, is_solvable, lie_closure
from gradelie.spectral import (
    Flag,
    TriangularizationError,
    assoc_closure_dim,
    decide_irreducible,
    triangularize_solvable,
    verify_flag,
)

E = Mat.unit


def pauli():
    a = Mat.from_rows([[0, 1], [-1, 0]])
    b = Mat.from_rows([[Q(0), Q(0, -1)], [Q(0, -1), Q(0)]])
    c = Mat.from_rows([[Q(0, -1), Q(0)], [Q(0), Q(0, 1)]])
    return a, b, c


def test_assoc_closure_dims():
    assert assoc_closure_dim([]) == 1
    assert assoc_closure_dim([Mat.identity(2)]) == 1
    a, b, c = pauli()
    assert assoc_closure_dim([a, b, c]) == 4
    heis = [E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)]
    assert assoc_closure_dim(heis) < 9
    # monotone under adding generators, capped by n^2
    assert assoc_closure_dim(heis + [E(3, 1, 0)]) >= assoc_closure_dim(heis)
    assert assoc_closure_dim(heis + [E(3, 1, 0), E(3, 2, 1)]) <= 9


def test_decide_irreducible_examples():
    v = decide_irreducible([Mat.identity(2)])
    assert not v.irreducible and v.assoc_dim == 1
    assert v.witness is not None and v.witness.dim == 1
    a, b, c = pauli()
    vp = decide_irreducible([a, b, c])
    assert vp.irreducible and vp.assoc_dim == 4 and vp.witness is None
    e2a = Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    e2b = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    lm = lie_closure([e2a, e2b])
    ve = decide_irreducible(list(lm.basis_mats))
    assert ve.irreducible and ve.assoc_dim == 9


def test_witness_is_invariant():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 4)
        mats = [
            Mat.from_int_rows(
                [[rng.randint(-2, 2) if j >= i else 0 for j in range(n)] for i in range(n)]
            )
            for _ in range(rng.randint(1, 3))
        ]
        verdict = decide_irreducible(mats)
        assert not verdict.irreducible  # triangular sets are always reducible
        w = verdict.witness
        assert 0 < w.dim < n
        for m in mats:
            for v in w.basis_rows.rows():
                image = [
                    sum((m.entry(i, j) * v[j] for j in range(n)), Q(0))
                    for i in range(n)
                ]
                assert w.contains(image)


def test_irreducible_consistency_small_probes():
    # exhaustive small-grid probe: every nonzero orbit is full iff irreducible
    import itertools

    a, b, c = pauli()
    mats = [a, b]
    n = 2
    from gradelie.spectral import _orbit_span

    full = True
    for probe in itertools.product(range(-1, 2), repeat=2):
        if probe == (0, 0):
            continue
        vec = Mat.from_int_rows([[x] for x in probe])
        if _orbit_span(mats, vec, n).dim < n:
            full = False
    assert full == decide_irreducible(mats).irreducible


def test_triangularize_diagonal():
    algebra = lie_closure([Mat.from_rows([[1, 0], [0, 2]])])
    flag = triangularize_solvable(algebra)
    assert [s.dim for s in flag.chain] == [1]
    assert verify_flag(list(algebra.basis_mats), flag, 0.0).all_ok


def test_triangularize_heisenberg_chain():
    heis = lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    flag = triangularize_solvable(heis)
    assert flag.chain[0] == canonicalize([[1, 0, 0]], 3)
    assert flag.chain[1] == canonicalize([[1, 0, 0], [0, 1, 0]], 3)
    assert verify_flag(list(heis.basis_mats), flag, 0.0).all_ok


# gen_solvable (n, seed) pairs whose every eigenvalue is a diagonal entry,
# trace/t or 0 of the restricted splitting element
_CHEAP_SOLVABLE = ((2, 0), (2, 1), (3, 0), (3, 2), (4, 0), (4, 1), (5, 1), (5, 3))


def test_cheap_eigenvalue_guesses_need_no_numeric_eigenvalues(monkeypatch):
    from gradelie.generators import gen_solvable

    algebras = [
        lie_closure([Mat.from_rows([[1, 0], [0, 2]])]),
        lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)]),
    ] + [gen_solvable(n, seed) for n, seed in _CHEAP_SOLVABLE]
    flags = [triangularize_solvable(a) for a in algebras]

    def refuse(_):
        raise AssertionError("numeric eigenvalues computed although a cheap guess wins")

    monkeypatch.setattr("gradelie.spectral.np.linalg.eigvals", refuse)
    assert [triangularize_solvable(a) for a in algebras] == flags


@pytest.mark.parametrize(
    "generator",
    [
        # eigenvalues 2 and 4: no diagonal entry, not trace/2, not 0
        Mat.from_rows([[3, 1], [1, 3]]),
        # P diag(J_2(1), 4) P^-1, defective, with diagonal 3, 5, -2 and trace/3 = 2
        Mat.from_rows([[2, 1, 0], [1, 1, 1], [0, 1, 1]])
        @ Mat.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 4]])
        @ mat_inverse(Mat.from_rows([[2, 1, 0], [1, 1, 1], [0, 1, 1]])),
    ],
)
def test_numeric_eigenvalues_follow_failed_cheap_guesses(monkeypatch, generator):
    calls = []
    real = np.linalg.eigvals

    def spy(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr("gradelie.spectral.np.linalg.eigvals", spy)
    algebra = lie_closure([generator])
    flag = triangularize_solvable(algebra)
    assert verify_flag(list(algebra.basis_mats), flag, 0.0).all_ok
    assert calls


def test_triangularize_requires_solvable():
    sl2 = lie_closure([E(2, 0, 1), E(2, 1, 0)])
    with pytest.raises(PreconditionError):
        triangularize_solvable(sl2)


def test_verify_flag_modes():
    uppers = [Mat.from_rows([[1, 5], [0, 2]]), Mat.from_rows([[0, 1], [0, 0]])]
    coord = Flag(Mat.identity(2))
    assert verify_flag(uppers, coord, 0.0).all_ok
    assert verify_flag(uppers, coord, 1e-9).all_ok
    sl2mats = [E(2, 0, 1), E(2, 1, 0), Mat.from_rows([[1, 0], [0, -1]])]
    for u in (Mat.identity(2), Mat.from_rows([[0, 1], [1, 0]])):
        flag = Flag(u)
        assert not verify_flag(sl2mats, flag, 0.0).all_ok
        assert not verify_flag(sl2mats, flag, 1e-9).all_ok


def test_flag_refuses_a_singular_basis_change():
    # a basis change that is not invertible is refused
    with pytest.raises(TriangularizationError):
        Flag(Mat.from_rows([[1, 2], [0, 0]]))
    with pytest.raises(TriangularizationError):
        Flag(Mat.from_rows([[1, 0, 1], [0, 1, 1], [0, 0, 0]]))
    with pytest.raises(TriangularizationError):
        Flag(Mat.zeros(1))


def _flag_by_membership(mats, u):
    """Reference: A p_k lies in span(p_1..p_k) for k = 1..n-1, p_k the columns of u."""
    n = u.n_rows
    cols = [[u.entry(i, k) for i in range(n)] for k in range(n)]
    verdicts = []
    for a in mats:
        ok = True
        for k in range(1, n):
            image = [
                sum((a.entry(i, j) * cols[k - 1][j] for j in range(n)), Q(0))
                for i in range(n)
            ]
            ok = ok and canonicalize(cols[:k], ambient_dim=n).contains(image)
        verdicts.append(ok)
    return verdicts


def test_verify_flag_matches_the_membership_check():
    from gradelie.generators import gen_solvable

    rng = random.Random(41)
    seen = set()
    for n in (2, 3, 4):
        for seed in range(8):
            algebra = gen_solvable(n, seed)
            mats = list(algebra.basis_mats)
            u = triangularize_solvable(algebra).basis_change
            cases = [u]
            for _ in range(3):
                # perturb one column of u
                k = rng.randrange(n)
                delta = [[rng.randint(-2, 2) if j == k else 0 for j in range(n)] for _ in range(n)]
                cases.append(u + Mat.from_int_rows(delta))
            for v in cases:
                cols = [[v.entry(i, k) for i in range(n)] for k in range(n)]
                chain = tuple(canonicalize(cols[:k], ambient_dim=n) for k in range(1, n))
                try:
                    mat_inverse(v)
                except ValueError:
                    with pytest.raises(TriangularizationError):
                        Flag(v)
                    continue
                flag = Flag(v)
                assert flag.chain == chain
                report = verify_flag(mats, flag, 0.0)
                got = [e.ok for e in report.entries]
                assert report.mode == "exact"
                assert got == _flag_by_membership(mats, v)
                seen.update(got)
    assert seen == {True, False}


def test_triangularize_fuzz_conjugated_uppers():
    rng = random.Random(31)
    for trial in range(30):
        n = rng.randint(2, 4)
        while True:
            g = Mat.from_int_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            try:
                gi = mat_inverse(g)
                break
            except ValueError:
                continue
        ups = []
        for _ in range(rng.randint(1, 3)):
            grid = [
                [rng.randint(-2, 2) if j >= i else 0 for j in range(n)]
                for i in range(n)
            ]
            ups.append(g @ Mat.from_int_rows(grid) @ gi)
        algebra = lie_closure(ups)
        assert is_solvable(algebra)
        flag = triangularize_solvable(algebra)
        assert verify_flag(list(algebra.basis_mats), flag, 1e-9).all_ok
        assert verify_flag(list(algebra.basis_mats), flag, 0.0).all_ok


def test_descent_is_read_off_the_derived_series(monkeypatch):
    # K_j = span(z_j, z_{j+1}, ...) runs from L down to 0, each an ideal of
    # codimension one in the one before; the walk up it forms no bracket and
    # ends in a joint eigenvector
    from gradelie import matrices
    from gradelie.generators import gen_nilpotent_jordan, gen_nilpotent_triple, gen_solvable
    from gradelie.lie import derived_series, is_ideal
    from gradelie.spectral import _common_eigenvector, _split_elements
    from gradelie.structures import jordan_to_z2, triple_envelope
    from gradelie.subspaces import MatSubspace

    def no_bracket(a, b):
        raise AssertionError("the descent formed a bracket")

    algebras = [gen_solvable(n, seed) for n in (3, 4, 5) for seed in range(4)]
    for n, seed in ((3, 5), (4, 0), (5, 0)):
        algebras.append(triple_envelope(gen_nilpotent_triple(n, seed)))
        algebras.append(jordan_to_z2(gen_nilpotent_jordan(n, seed)).algebra)
    longest = 0
    for algebra in algebras:
        n = algebra.ambient_dim
        terms = derived_series(algebra).terms
        splits = _split_elements(terms, n)
        chain = [MatSubspace.from_matrices(splits[j:], n) for j in range(len(splits) + 1)]
        assert chain[0] == algebra and chain[-1].dim == 0
        for upper, lower in zip(chain, chain[1:]):
            assert lower.dim == upper.dim - 1
            assert is_ideal(upper, lower.span)
        longest = max(longest, sum(t.dim > 0 for t in terms))
        with monkeypatch.context() as patched:
            patched.setattr(matrices, "bracket", no_bracket)
            v = _common_eigenvector(terms, n)
        line = canonicalize([[v.entry(i, 0) for i in range(n)]], ambient_dim=n)
        assert line.dim == 1 and line.contains_all(b @ v for b in algebra.basis_mats)
    # some series take more than one step below L, so some chains cross a term
    assert longest >= 3
