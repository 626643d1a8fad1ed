import random
from fractions import Fraction

import pytest

from gradelie.scalars import Q
from gradelie.matrices import Mat, bracket, is_nilpotent_exact, trace_product
from gradelie.subspaces import _Echelon, mat_span, span_basis_mats
from gradelie.lie import (
    LieAlgebra,
    NormalizerError,
    NotClosedError,
    PreconditionError,
    ad_matrix,
    cartan_test,
    derived_series,
    is_engel_element,
    is_ideal,
    is_nil_subspace,
    is_nilpotent_lie,
    is_scalar_set,
    is_solvable,
    lie_closure,
    lower_central_series,
    require_closed,
)

E = Mat.unit


def heisenberg():
    return lie_closure([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])


def gl(n):
    return lie_closure([E(n, i, j) for i in range(n) for j in range(n)])


def weight_sl2():
    e = E(2, 0, 1)
    f = E(2, 1, 0).scale(Fraction(1, 2))
    g = Mat.from_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
    return e, f, g, lie_closure([e, f])


def test_closure_examples():
    zero = lie_closure([Mat.zeros(2)], ambient_dim=2)
    assert zero.dim == 0
    a = Mat.from_rows([[0, 1], [-1, 0]])
    b = Mat.from_rows([[Q(0), Q(0, -1)], [Q(0, -1), Q(0)]])
    pauli_closure = lie_closure([a, b])
    assert pauli_closure.dim == 3
    c = Mat.from_rows([[Q(0, -1), Q(0)], [Q(0), Q(0, 1)]])
    assert pauli_closure.contains_mat(c)
    e2a = Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    e2b = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert lie_closure([e2a, e2b]).dim == 8


def test_closure_idempotent():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 3)
        gens = [
            Mat.from_int_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            for _ in range(2)
        ]
        l1 = lie_closure(gens)
        l2 = lie_closure(list(l1.basis_mats), ambient_dim=n)
        assert l1.span == l2.span


def _all_pairs_closure(gens, n):
    """Oracle: the closure that brackets each new element with every element
    found before it, in last-in-first-out order."""
    ech = _Echelon(n * n)
    basis = []
    work = list(gens)
    while work:
        m = work.pop()
        if m.is_zero() or not ech.add(m):
            continue
        work.extend(bracket(m, b) for b in basis)
        basis.append(m)
    return ech.subspace()


def _random_gens(rng, n, count, gaussian):
    def entry():
        if gaussian:
            return Q(rng.randint(-2, 2), rng.randint(-1, 1))
        return rng.randint(-2, 2)

    return [Mat.from_rows([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(count)]


# three dense 5x5 integer matrices whose all-pairs closure grows numerators
# of tens of thousands of bits before it reaches gl(5)
DENSE_5X5 = [
    Mat.from_int_rows(
        [[2, -2, 0, 2, 2], [0, -2, -1, -2, 2], [0, 0, 1, 1, 2], [0, 0, 0, 0, -1],
         [0, 0, 0, 0, -1]]
    ),
    Mat.from_int_rows(
        [[0, 0, 0, 0, -2], [0, -1, -2, 1, -2], [0, 0, -1, -1, 1], [0, 0, 0, -1, 1],
         [0, 0, 0, 0, 1]]
    ),
    Mat.from_int_rows(
        [[-1, 1, 1, 2, 2], [-2, -1, 2, 0, 1], [-1, 0, 2, -2, 1], [-2, 0, -1, 1, 2],
         [-1, -2, 0, -1, 0]]
    ),
]


def test_closure_matches_the_all_pairs_oracle():
    rng = random.Random(2026)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 4)
        gens = _random_gens(rng, n, rng.randint(1, 3), gaussian=rng.random() < 0.5)
        cases.append((gens, n))
    e, f, g, sl2 = weight_sl2()
    closed = [heisenberg(), sl2, lie_closure([E(3, 0, 0), E(3, 0, 1), E(3, 1, 2), E(3, 2, 2)])]
    closed += [lie_closure(gens) for gens, _ in cases[:10]]
    cases += [(list(algebra.basis_mats), algebra.ambient_dim) for algebra in closed]
    for gens, n in cases:
        assert lie_closure(gens).span == _all_pairs_closure(gens, n)


def test_dense_5x5_set_closes_to_gl5():
    assert lie_closure(DENSE_5X5).dim == 25


def test_closure_brackets_only_with_the_generators(monkeypatch):
    import gradelie.lie as lie_module

    calls = []

    def counting(a, b):
        calls.append(None)
        return bracket(a, b)

    monkeypatch.setattr(lie_module, "bracket", counting)
    rng = random.Random(5)
    sets = [DENSE_5X5, [E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)]]
    sets += [_random_gens(rng, rng.randint(2, 4), rng.randint(1, 3), False) for _ in range(10)]
    for gens in sets:
        calls.clear()
        algebra = lie_closure(gens)
        assert len(calls) <= len(gens) * algebra.dim


def test_from_matrices_verifies_closure():
    with pytest.raises(NotClosedError):
        require_closed(LieAlgebra.from_matrices([E(2, 0, 1), E(2, 1, 0)]))


def test_ad_matrix_examples():
    e, f, g, sl2 = weight_sl2()
    # central element of an abelian algebra has zero ad
    ab = lie_closure([Mat.identity(2)])
    assert ad_matrix(ab, Mat.identity(2)).is_zero()
    adg = ad_matrix(sl2, g)
    assert not is_nilpotent_exact(adg)
    # trace of (ad x)(ad y) is basis independent: Killing values in the weight basis
    ade, adf = ad_matrix(sl2, e), ad_matrix(sl2, f)
    assert trace_product(ade, adf) == Q(2)
    assert trace_product(adg, adg) == Q(2)
    assert trace_product(ade, ade) == Q(0)
    with pytest.raises(NormalizerError):
        ad_matrix(heisenberg(), Mat.from_int_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))


def test_series_examples():
    ab = lie_closure([Mat.from_rows([[1, 0], [0, 2]])])
    ds = derived_series(ab)
    assert ds.terminal_dim == 0
    assert [t.dim for t in ds.terms][:2] == [1, 0]
    heis = heisenberg()
    lc = lower_central_series(heis)
    assert [t.dim for t in lc.terms][:3] == [3, 1, 0]
    _, _, _, sl2 = weight_sl2()
    ds2 = derived_series(sl2)
    assert ds2.terminal_dim == 3
    assert all(t.dim == 3 for t in ds2.terms)


def _bracket_span_oracle(left, right, n, same):
    ech = _Echelon(n * n)
    if same:
        for i, a in enumerate(left):
            for b in left[i + 1 :]:
                ech.add(bracket(a, b))
    else:
        for a in left:
            for b in right:
                ech.add(bracket(a, b))
    return ech.subspace()


def _series_oracle(algebra, derived):
    """The terms of the derived or lower central series, bracketing basis
    pairs of each term and stopping at a repeated or zero term."""
    n = algebra.ambient_dim
    terms = [algebra.span]
    term_mats = list(algebra.basis_mats)
    while True:
        if derived:
            nxt = _bracket_span_oracle(term_mats, term_mats, n, same=True)
        else:
            nxt = _bracket_span_oracle(list(algebra.basis_mats), term_mats, n, same=False)
        terms.append(nxt)
        if nxt == terms[-2]:
            return tuple(terms)
        term_mats = span_basis_mats(nxt, n)
        if nxt.is_zero():
            terms.append(nxt)
            return tuple(terms)


def test_series_match_the_term_by_term_oracle():
    from gradelie.generators import gen_lie_algebra, gen_solvable

    algebras = [
        lie_closure([], ambient_dim=3),
        lie_closure([Mat.from_rows([[1, 0], [0, 2]]), Mat.identity(2)]),
        heisenberg(),
        weight_sl2()[3],
        gl(3),
        gl(4),
        lie_closure([E(3, 0, 1), E(3, 1, 0)]),  # a perfect sl(2) block inside gl(3)
    ]
    for n in (2, 3, 4):
        for seed in range(6):
            algebras += [gen_lie_algebra(n, seed), gen_solvable(n, seed)]
    for algebra in algebras:
        ds, lc = derived_series(algebra), lower_central_series(algebra)
        assert ds.terms == _series_oracle(algebra, derived=True)
        assert lc.terms == _series_oracle(algebra, derived=False)
        assert ds.terminal_dim == ds.terms[-1].dim and lc.terminal_dim == lc.terms[-1].dim


def _count_brackets(monkeypatch):
    """A list that grows by one entry per call of matrices.bracket."""
    from gradelie import matrices

    calls = []
    real = matrices.bracket
    monkeypatch.setattr(matrices, "bracket", lambda a, b: calls.append(1) or real(a, b))
    return calls


def _brackets_of(calls, f, *args):
    del calls[:]
    f(*args)
    return len(calls)


def test_lower_central_series_brackets_unordered_pairs_first(monkeypatch):
    # unbounded, the first step [L, L] takes d(d-1)/2 brackets and each later
    # step d * dim(C_k); the containment bound only ever stops a step early
    from gradelie.generators import gen_lie_algebra, gen_solvable

    calls = _count_brackets(monkeypatch)
    builders = [
        lambda: lie_closure([], ambient_dim=3), heisenberg, lambda: weight_sl2()[3],
        lambda: gl(3), lambda: gl(4),
    ]
    for n in (2, 3, 4):
        for seed in range(4):
            builders += [lambda n=n, seed=seed: gen_lie_algebra(n, seed), lambda n=n, seed=seed: gen_solvable(n, seed)]
    full = 0
    for build in builders:
        algebra = build()
        d, n = algebra.dim, algebra.ambient_dim
        count = _brackets_of(calls, lower_central_series, algebra)
        unbounded = d * (d - 1) // 2 + d * sum(t.dim for t in lower_central_series(build()).terms[1:-1])
        assert count <= unbounded
        if d == n * n:
            full += 1
            assert count < unbounded, n
    assert full >= 3
    # sl(2) is perfect: the series stops after its first step
    assert _brackets_of(calls, lower_central_series, weight_sl2()[3]) == 3


def test_one_commutator_per_algebra(monkeypatch):
    # [L, L] is bracketed once per algebra object: after the derived series,
    # neither the lower central series nor the trace test brackets its pairs again
    from gradelie.generators import gen_solvable
    from gradelie.lie import commutator_span

    calls = _count_brackets(monkeypatch)
    builders = [heisenberg, lambda: weight_sl2()[3], lambda: gl(3), lambda: gen_solvable(3, 0), lambda: gen_solvable(4, 1)]
    for build in builders:
        commutator = _brackets_of(calls, commutator_span, build())
        assert commutator > 0
        fresh_lower = _brackets_of(calls, lower_central_series, build())
        fresh_derived = _brackets_of(calls, derived_series, build())
        algebra = build()
        assert _brackets_of(calls, derived_series, algebra) == fresh_derived
        assert _brackets_of(calls, cartan_test, algebra) == 0
        assert _brackets_of(calls, lower_central_series, algebra) == fresh_lower - commutator
        assert _brackets_of(calls, derived_series, algebra) == fresh_derived - commutator


def test_closure_checks_keep_the_commutator(monkeypatch):
    # the closure check of a components document or of a triple envelope keeps
    # [L, L], and so does is_solvable for the triangularization after it
    from gradelie import matrices
    from gradelie.documents import document_from, materialize
    from gradelie.examples import build_example
    from gradelie.generators import gen_nilpotent_jordan, gen_nilpotent_triple, gen_solvable, gen_weight_graded
    from gradelie.lie import commutator_span
    from gradelie.spectral import triangularize_solvable
    from gradelie.structures import triple_envelope
    from gradelie.subspaces import MatSubspace

    calls = _count_brackets(monkeypatch)

    def skipped(algebra):
        """The brackets is_solvable skips on the algebra, against a fresh copy: [L, L]'s."""
        def fresh():
            return LieAlgebra.from_span(algebra.span, algebra.ambient_dim)

        commutator = _brackets_of(calls, commutator_span, fresh())
        unchecked = _brackets_of(calls, is_solvable, fresh())
        assert _brackets_of(calls, is_solvable, algebra) == unchecked - commutator
        return commutator

    for name in ("pauli", "e1"):
        assert skipped(materialize(build_example(name)).algebra) > 0
    for moduli in ([2], [3], [2, 2]):
        for seed in range(3):
            skipped(materialize(document_from(gen_weight_graded(4, moduli, seed))).algebra)
    upper = MatSubspace.from_matrices([E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    assert skipped(triple_envelope(upper)) > 0
    for seed in range(3):
        for m in (gen_nilpotent_triple(4, seed), gen_nilpotent_jordan(4, seed)):
            skipped(triple_envelope(m))
    # after is_solvable, the triangularization reads [L, L] and does not
    # bracket every pair of L's basis again
    pairs = []
    counting = matrices.bracket
    monkeypatch.setattr(matrices, "bracket", lambda a, b: pairs.append({a, b}) or counting(a, b))
    for algebra in (heisenberg(), gen_solvable(3, 0), gen_solvable(4, 1), gen_solvable(5, 0)):
        assert is_solvable(algebra)
        del pairs[:]
        triangularize_solvable(algebra)
        basis = algebra.basis_mats
        every_pair = [{a, b} for i, a in enumerate(basis) for b in basis[i + 1 :]]
        assert every_pair and not all(p in pairs for p in every_pair)


def test_series_of_a_subspace_that_is_not_closed_are_refused():
    # [M, M] leaves M in each; unrefused, the later steps of the lower central
    # series are unbounded: the first C_2 is larger than C_1, the second cycles
    # between span{E01, E10} and span{E00 - E11}, and the third drifts through
    # span{E01 + 2^(k-1) E12, E02} without repeating
    from gradelie.subspaces import MatSubspace

    subspaces = [
        [Mat.from_rows([[0, 0, -1], [0, -1, -1], [0, 0, 1]]), Mat.from_rows([[0, 0, -1], [0, 0, 0], [0, 0, -1]])],
        [E(2, 0, 1), E(2, 1, 0)],
        [Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 3]]), -E(3, 0, 1) - E(3, 1, 2).scale(Fraction(1, 2))],
    ]
    for mats in subspaces:
        m = MatSubspace.from_matrices(mats)
        for series in (derived_series, lower_central_series):
            with pytest.raises(NotClosedError):
                series(m)


def test_solvability_wrappers():
    zero = lie_closure([], ambient_dim=2)
    assert is_solvable(zero) and is_nilpotent_lie(zero)
    heis = heisenberg()
    assert is_solvable(heis) and is_nilpotent_lie(heis)
    _, _, _, sl2 = weight_sl2()
    assert not is_solvable(sl2) and not is_nilpotent_lie(sl2)


def test_cartan_test_examples():
    ab = lie_closure([Mat.identity(2)])
    assert cartan_test(ab)
    assert cartan_test(heisenberg())
    e, f, g, sl2 = weight_sl2()
    assert not trace_product(e, f).is_zero()
    assert not cartan_test(sl2)


def test_cartan_matches_solvability():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 4)
        gens = [
            Mat.from_int_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            for _ in range(rng.randint(1, 3))
        ]
        algebra = lie_closure(gens)
        assert cartan_test(algebra) == is_solvable(algebra)


def test_engel_elements():
    e, f, g, sl2 = weight_sl2()
    heis = heisenberg()
    assert is_engel_element(heis, E(3, 0, 2))  # central
    assert not is_engel_element(sl2, g)
    assert is_engel_element(sl2, e)
    e2a = Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    e2b = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    lm = lie_closure([e2a, e2b])
    assert is_engel_element(lm, e2a)
    assert is_engel_element(lm, e2b)


def test_nil_subspace():
    assert is_nil_subspace(mat_span([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)]))
    assert not is_nil_subspace(mat_span([Mat.identity(2)]))
    e2a = Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    e2b = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert is_nil_subspace(mat_span([e2a, e2b]))
    assert not is_nil_subspace([e2a, bracket(e2a, e2b)])
    assert is_nil_subspace([], )


def test_nil_subspace_matches_grid_oracle():
    # polarization agrees with exhaustive nilpotency over the {-2..2} grid
    rng = random.Random(5)
    import itertools

    for _ in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        mats = []
        for _ in range(d):
            if rng.random() < 0.6:
                grid = [
                    [rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                    for i in range(n)
                ]
            else:
                grid = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            mats.append(Mat.from_int_rows(grid))
        mats = [m for m in mats if not m.is_zero()]
        if not mats:
            continue
        span = mat_span(mats, n)
        basis = span_basis_mats(span, n)
        grid_ok = True
        for coeffs in itertools.product(range(-2, 3), repeat=len(basis)):
            acc = Mat.zeros(n)
            for c, m in zip(coeffs, basis):
                if c:
                    acc = acc + m.scale(c)
            if not is_nilpotent_exact(acc):
                grid_ok = False
                break
        assert is_nil_subspace(span, n) == grid_ok


def test_ideal_center_scalar():
    heis = heisenberg()
    assert is_ideal(heis, heis.span)
    assert is_scalar_set(mat_span([Mat.identity(3)]))
    assert not is_scalar_set(mat_span([Mat.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 1]])]))
    assert is_scalar_set(mat_span([Mat.zeros(2), Mat.identity(2)]))
    with pytest.raises(PreconditionError):
        is_ideal(heis, mat_span([Mat.identity(3)]))


def test_jacobi_identity():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 4)
        mats = [
            Mat.from_int_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            for _ in range(3)
        ]
        a, b, c = mats
        jacobi = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert jacobi.is_zero()


def test_solvable_derived_is_nil():
    rng = random.Random(13)
    from gradelie.lie import derived_subalgebra_mats

    for seed in range(15):
        from gradelie.generators import gen_solvable

        algebra = gen_solvable(rng.randint(2, 4), seed)
        assert is_solvable(algebra)
        derived = derived_subalgebra_mats(algebra)
        assert is_nil_subspace(derived or [], )


# -- the staged nil-subspace decision ----------------------------------------

E2 = (
    Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]]),
    Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
)


def _int_grid(rng, n, keep, values):
    return Mat.from_int_rows(
        [[rng.choice(values) if keep(i, j) else 0 for j in range(n)] for i in range(n)]
    )


def _conjugated_strict_uppers(rng, n, d, dense):
    """d spanning matrices g U g^-1, U strictly upper, g = L U' unimodular."""
    from gradelie.subspaces import mat_inverse

    steps = (-1, 1) if dense else (1,)
    g = (_int_grid(rng, n, lambda i, j: i > j, steps) + Mat.identity(n)) @ (
        _int_grid(rng, n, lambda i, j: i < j, steps) + Mat.identity(n)
    )
    gi = mat_inverse(g)
    mats = []
    while len(mats) < d:
        u = _int_grid(rng, n, lambda i, j: j > i, range(-2, 3))
        if not u.is_zero():
            mats.append(g @ u @ gi)
    return mats


def _cycle_refutation(rng, n, c, extra):
    """Scaled units along a c-cycle plus extra off-diagonal units: each is
    nilpotent, the cycle permutation in their span is not."""
    cycle = rng.sample(range(n), c)
    edges = [(cycle[k], cycle[(k + 1) % c]) for k in range(c)]
    pool = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in edges]
    units = edges + rng.sample(pool, min(extra, len(pool)))
    return [E(n, i, j).scale(rng.choice((-3, -2, 2, 3))) for i, j in units]


def _gaussian_strict_uppers(rng, n, d):
    from gradelie.subspaces import mat_inverse

    def entry():
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        return Q(re, Fraction(rng.randint(-2, 2), rng.choice((1, 5))))

    while True:
        g = Mat.from_rows([[entry() for _ in range(n)] for _ in range(n)])
        try:
            gi = mat_inverse(g)
            break
        except ValueError:
            continue
    return [
        g @ Mat.from_rows([[entry() if j > i else Q(0) for j in range(n)] for i in range(n)]) @ gi
        for _ in range(d)
    ]


def _counting(monkeypatch, name):
    import gradelie.lie as lie_mod

    calls = []
    real = getattr(lie_mod, name)

    def wrapper(*args):
        out = real(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(lie_mod, name, wrapper)
    return calls


def test_nil_routing_e2_needs_the_trace_expansion(monkeypatch):
    # span{E12+E23... } is nil but ABAB != 0: no flag, so the product chain never vanishes
    products = _counting(monkeypatch, "_nil_by_products")
    traces = _counting(monkeypatch, "_nil_by_traces")
    assert is_nil_subspace(list(E2))
    assert products == [False] and traces == [True]


def test_nil_routing_dense_n6_proved_by_products(monkeypatch):
    rng = random.Random(61)
    mats = _conjugated_strict_uppers(rng, 6, 15, dense=True)
    span = mat_span(mats, 6)
    assert span.dim == 15
    refute = _counting(monkeypatch, "_refuted_by_combinations")
    products = _counting(monkeypatch, "_nil_by_products")
    traces = _counting(monkeypatch, "_nil_by_traces")
    assert is_nil_subspace(span, 6)
    assert refute == [False] and products == [True] and traces == []


def test_nil_routing_cycle_refuted_by_a_combination(monkeypatch):
    rng = random.Random(62)
    mats = _cycle_refutation(rng, 5, 4, 4)
    assert all(is_nilpotent_exact(m) for m in span_basis_mats(mat_span(mats, 5), 5))
    refute = _counting(monkeypatch, "_refuted_by_combinations")
    products = _counting(monkeypatch, "_nil_by_products")
    traces = _counting(monkeypatch, "_nil_by_traces")
    assert not is_nil_subspace(mats)
    assert refute == [True] and products == [] and traces == []


def _nil_families(seed):
    rng = random.Random(seed)
    for _ in range(6):
        n = rng.randint(2, 4)
        yield _conjugated_strict_uppers(rng, n, rng.randint(2, 5), dense=rng.random() < 0.5)
        c = rng.randint(2, n)
        yield _cycle_refutation(rng, n, c, rng.randint(0, 2))
        yield _gaussian_strict_uppers(rng, n, rng.randint(2, 3))
        yield [
            _int_grid(rng, n, lambda i, j: rng.random() < 0.4, (-1, 0, 1))
            for _ in range(rng.randint(2, 3))
        ]
    yield list(E2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nil_stages_agree_with_trace_expansion(seed):
    from gradelie.lie import _nil_by_products, _nil_by_traces, _refuted_by_combinations

    verdicts = set()
    for mats in _nil_families(seed):
        mats = [m for m in mats if not m.is_zero()]
        if not mats:
            continue
        n = mats[0].n_rows
        basis = span_basis_mats(mat_span(mats, n), n)
        want = _nil_by_traces(basis, n)
        assert is_nil_subspace(mats) == want
        # each stage is sound on its own, whatever the stages before it decided
        assert not (_refuted_by_combinations(basis, n) and want)
        assert not (_nil_by_products(basis, n) and not want)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_nil_decision_matches_sympy_oracle():
    # V is nil iff (l_1 A_1 + ... + l_d A_d)^n expands to the zero matrix
    sympy = pytest.importorskip("sympy")

    def to_sympy(m):
        return sympy.Matrix(
            m.n_rows, m.n_cols,
            lambda i, j: sympy.Rational(m.re[i * m.n_cols + j], m.den)
            + sympy.I * sympy.Rational(m.im[i * m.n_cols + j], m.den),
        )

    seen = set()
    for mats in _nil_families(7):
        mats = [m for m in mats if not m.is_zero()]
        if not mats:
            continue
        n = mats[0].n_rows
        lams = sympy.symbols(f"l0:{len(mats)}")
        x = sum((lam * to_sympy(m) for lam, m in zip(lams, mats)), sympy.zeros(n, n))
        oracle = (x**n).expand() == sympy.zeros(n, n)
        assert is_nil_subspace(mats) == oracle
        seen.add(oracle)
    assert seen == {True, False}
