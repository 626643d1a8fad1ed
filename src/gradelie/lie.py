"""Structural computations for matrix Lie algebras over Q(i).

Everything here is exact: the closure of a generating set is the span
closure (``subspaces.span_closure``) under bracketing with the generators
alone, and solvability runs through the derived series.  One series engine,
``_series``, computes the derived and lower central series of a graded
algebra degree by degree from the pairs ``matrices.bracket_pairs`` gives; an
ungraded algebra is its one component {(): L}.  [L, L] is bracketed once per
algebra object: ``commutator_span`` keeps it on the ``MatSubspace``, and the
closure check ``require_closed``, both series and the trace test read it
there.  The series are taken of bracket-closed subspaces only: a subspace
whose [L, L] leaves it is refused with ``NotClosedError``.  So every term
lies in the one before, each later step stops bracketing a degree when its
span reaches that dimension, and a series of L ends within dim L + 2 terms.
The quantified hypothesis "every element of this subspace is nilpotent" is
decided by three exact stages: a seeded integer combination that is not
nilpotent refutes it (an exact certificate, not a sample), a chain of
V-invariant subspaces V^j Q(i)^m that reaches 0 proves it, and the polarized
trace identities decide what neither settles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .groups import FinAbGroup
from .matrices import (
    _INT64_SAFE,
    Mat,
    ShapeError,
    all_nilpotent_exact,
    bracket,
    bracket_pairs,
    is_nilpotent_exact,
    jordan_product,
    trace_product,
)
from .subspaces import (
    LieAlgebra,
    MatSubspace,
    Subspace,
    _Echelon,
    mat_span,
    pivot_columns,
    span_basis_mats,
    span_closure,
)

__all__ = [
    "LieAlgebra",
    "SeriesReport",
    "lie_closure",
    "ad_matrix",
    "derived_series",
    "lower_central_series",
    "is_solvable",
    "is_nilpotent_lie",
    "cartan_test",
    "is_engel_element",
    "is_nil_subspace",
    "is_ideal",
    "is_scalar_set",
    "jordan_product",
    "require_closed",
    "NotClosedError",
    "NormalizerError",
    "PreconditionError",
]


class NotClosedError(ValueError):
    """A set of matrices expected to be bracket-closed is not."""


class NormalizerError(ValueError):
    """An element does not normalize the algebra it is applied to."""


class PreconditionError(ValueError):
    """A stated operation precondition was violated by the inputs."""


@dataclass(frozen=True)
class SeriesReport:
    terms: tuple[Subspace, ...]  # from L to the first repeated term, which appears twice
    terminal_dim: int


def lie_closure(generators: Sequence[Mat], *, ambient_dim: int | None = None) -> LieAlgebra:
    """Smallest bracket-closed subspace containing the generators.

    Right-normed brackets [g_1, [g_2, ... g_k]] of the generators span the
    algebra they generate, so the closure is the smallest subspace holding
    the generators and invariant under x -> [g, x] for each generator g.
    """
    gens = list(generators)
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient_dim required for an empty generating set")
        ambient_dim = gens[0].n_rows
    n = ambient_dim
    for g in gens:
        if g.shape != (n, n):
            raise ShapeError("generators must be square and of equal size")
    actions = [lambda x, g=g: bracket(g, x) for g in gens]
    _, span = span_closure(gens, actions, n * n)
    return LieAlgebra.from_span(span, n)


def ad_matrix(algebra: LieAlgebra, a: Mat) -> Mat:
    """The adjoint action x -> [a, x] in the algebra's canonical basis."""
    n = algebra.ambient_dim
    if a.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} matrix")
    ad = algebra.span._echelon().coordinates(bracket(a, b) for b in algebra.basis_mats)
    if ad is None:
        raise NormalizerError("element does not normalize the algebra")
    return ad


# -- the series engine ------------------------------------------------------
#
# A graded algebra sum L_g t^g with [a t^g, b t^h] = [a, b] t^{g+h} has
# graded derived and lower central series: the degree-k part of the next
# term is the sum over g + h = k of [D_g, D_h] (derived) or [L_g, C_h]
# (lower central).  An ungraded algebra is the one component {(): L} of the
# trivial group.  Each term lies in the one before it, degree by degree.

_TRIVIAL = FinAbGroup(())


def _bracket_spans(pairs, n: int, add, bound: Mapping | None = None) -> dict:
    """The canonical span of the brackets from ``bracket_pairs``, one per
    degree sum, sorted by degree; zero spans are left out.

    Brackets are traceless, so no span exceeds n^2 - 1.  ``bound``, when
    given, maps each degree sum to a dimension its span is known not to
    exceed; a degree sum it leaves out is 0.  Once a degree's span reaches
    its bound it is the whole bounded space, so the rest of its brackets are
    never formed.
    """
    cap = n * n - 1
    echelons: dict = {}
    for g, h, brackets in pairs:
        k = add(g, h)
        limit = cap if bound is None else bound.get(k, 0)
        ech = echelons.get(k)
        if ech is None:
            if not limit:
                continue
            ech = echelons[k] = _Echelon(n * n)
        if len(ech.rows) < limit:
            for w in brackets:
                if ech.add(w) and len(ech.rows) == limit:
                    break
    return {k: e.subspace() for k, e in sorted(echelons.items()) if e.rows}


def _series(first: Mapping, n: int, lower: bool, add, commutator: Mapping | None = None) -> list[dict]:
    """The derived (or lower central) series of sum L_g t^g, degree by degree.

    ``first`` maps each degree to L_g, a subspace of flattened gl(n), and
    ``add`` adds degrees; ``commutator``, when given, is the first step
    [L, L] computed already.  Each term maps a degree to its nonzero part.
    The terms run from L to the first term equal to the one before it, so the
    last term appears twice; a zero term is repeated without bracketing.

    [L, L] must lie in L degree by degree, or ``NotClosedError`` is raised.
    Then each term lies in the one before it (D_{k+1} in D_k and C_{k+1} in
    C_k, by induction), so the steps after [L, L] are bounded by the term
    before: a degree stops once its span reaches that dimension, and a degree
    sum missing from the term before is not bracketed at all.
    """
    terms = [{g: s for g, s in first.items() if s.dim}]
    base = {g: span_basis_mats(s, n) for g, s in terms[0].items()}
    # the first step of both series is [L, L], so it takes unordered pairs
    term = _bracket_spans(bracket_pairs(base), n, add) if commutator is None else commutator
    if term and term != terms[0] and not all(
        g in terms[0] and terms[0][g].contains_subspace(s) for g, s in term.items()
    ):
        raise NotClosedError("[L, L] does not lie in L: the subspace is not closed under the commutator")
    while term and term != terms[-1]:
        terms.append(term)
        mats = {g: span_basis_mats(s, n) for g, s in term.items()}
        pairs = bracket_pairs(base, mats) if lower else bracket_pairs(mats)
        term = _bracket_spans(pairs, n, add, {g: s.dim for g, s in term.items()})
    terms += [term] if term == terms[-1] else [term, term]
    return terms


def _ungraded_series(algebra: LieAlgebra, lower: bool) -> SeriesReport:
    n = algebra.ambient_dim
    zero = Subspace.zero(n * n)
    derived = commutator_span(algebra)
    terms = _series({(): algebra.span}, n, lower, _TRIVIAL.add, {(): derived} if derived.dim else {})
    spans = tuple(t.get((), zero) for t in terms)
    return SeriesReport(spans, spans[-1].dim)


def derived_series(algebra: LieAlgebra) -> SeriesReport:
    """D_0 = L, D_{k+1} = [D_k, D_k]; ``NotClosedError`` unless L is bracket-closed."""
    return _ungraded_series(algebra, lower=False)


def lower_central_series(algebra: LieAlgebra) -> SeriesReport:
    """C_0 = L, C_{k+1} = [L, C_k]; ``NotClosedError`` unless L is bracket-closed."""
    return _ungraded_series(algebra, lower=True)


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra).terminal_dim == 0


def is_nilpotent_lie(algebra: LieAlgebra) -> bool:
    return lower_central_series(algebra).terminal_dim == 0


def commutator_span(m: MatSubspace) -> Subspace:
    """[M, M] for a subspace of gl(n): the span of the brackets of basis pairs.

    It is computed once per object and kept in ``m.commutator``.  Only the
    n^2 - 1 bound of traceless brackets is used, never one from M itself, so
    the value is exactly [M, M] whether or not M is closed.
    """
    if m.commutator is None:
        n = m.ambient_dim
        spans = _bracket_spans(bracket_pairs({(): m.basis_mats}), n, _TRIVIAL.add)
        # the slot caches a function of the span; MatSubspace is otherwise immutable
        object.__setattr__(m, "commutator", spans.get((), Subspace.zero(n * n)))
    return m.commutator


def require_closed(m: MatSubspace) -> MatSubspace:
    """``m`` itself when [M, M] lies in M, else ``NotClosedError``; either way
    [M, M] stays kept on ``m``, so what reads it later brackets nothing again."""
    if not m.span.contains_subspace(commutator_span(m)):
        raise NotClosedError("matrix set is not closed under the commutator")
    return m


def derived_subalgebra_mats(algebra: LieAlgebra) -> list[Mat]:
    """A canonical basis of [L, L]."""
    return span_basis_mats(commutator_span(algebra), algebra.ambient_dim)


def cartan_test(algebra: LieAlgebra) -> bool:
    """True iff tr(a b) = 0 for all a in [L, L] and b in L (checked on bases)."""
    for a in derived_subalgebra_mats(algebra):
        for b in algebra.basis_mats:
            if not trace_product(a, b).is_zero():
                return False
    return True


def is_engel_element(algebra: LieAlgebra, a: Mat) -> bool:
    """True iff ad a is nilpotent on the algebra, exactly."""
    if algebra.dim == 0:
        return True
    return is_nilpotent_exact(ad_matrix(algebra, a))


# -- nil-subspace decision --------------------------------------------------
#
# V = span{A_1..A_d} of m x m matrices is nil when every element is
# nilpotent.  Three exact stages decide it, cheapest first:
#
# (a) Refute.  The basis matrices, then two integer combinations whose
#     coefficients come from a fixed-seed local generator, go through
#     all_nilpotent_exact.  A combination that is not nilpotent is an exact
#     certificate for False; the seed only picks which elements are tried,
#     so this is not sampling: no verdict rests on a combination passing.
# (b) Prove.  U_0 = Q(i)^m and U_{j+1} = A_1 U_j + ... + A_d U_j, so U_j =
#     V^j Q(i)^m.  U_j = 0 exactly when every product of j elements of V
#     vanishes, that is when W_j = span(V^j) in gl(m) is 0; then V lies in a
#     nilpotent associative algebra and is nil, and the chain is the
#     certificate.  Each U_j is V-invariant, and U_{j+1} lies in U_j, so the
#     rank falls at every step until the chain is 0 (True, within m steps)
#     or stationary and nonzero, which it then stays (False).  It cannot
#     vanish when V is not simultaneously strictly triangularizable, and
#     some nil spaces are not (Gerstenhaber 1958; Mathes, Omladic and
#     Radjavi 1991).  A level is the m x dk matrix [A_1 B | ... | A_d B] for
#     a basis B of U_j (k columns), one batched int64 product where that is
#     exact, and its pivot columns are a basis of U_{j+1}.
# (c) Fall back.  V is nil iff tr((l_1 A_1 + ... + l_d A_d)^k) vanishes
#     identically for k = 1..m.  The monomial coefficients of these traces are
#     the symmetrized sums of traces of products over all orderings of each
#     multiset of basis elements; they are extracted by exact homogeneous
#     polynomial arithmetic.

_REFUTE_SEED = 915
_REFUTE_TRIES = 2
_REFUTE_COEFF = 99

_Poly = dict  # exponent tuple -> (re, im) Gaussian integer pair


def _poly_mul_linear(p: _Poly, var: int, coeff: tuple[int, int]) -> _Poly:
    cr, ci = coeff
    out: _Poly = {}
    for mono, (ar, ai) in p.items():
        key = mono[:var] + (mono[var] + 1,) + mono[var + 1 :]
        out[key] = (ar * cr - ai * ci, ar * ci + ai * cr)
    return out


def _poly_add_into(acc: _Poly, p: _Poly) -> None:
    for mono, (ar, ai) in p.items():
        br, bi = acc.get(mono, (0, 0))
        s = (ar + br, ai + bi)
        if s == (0, 0):
            acc.pop(mono, None)
        else:
            acc[mono] = s


def _integer_grids(mats: Sequence[Mat]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    # nilpotency of combinations is invariant under scaling each generator
    return [(m.re, m.im) for m in mats]


def _refuted_by_combinations(mats: Sequence[Mat], m_side: int) -> bool:
    """Stage (a): True when a seeded integer combination is not nilpotent."""
    rng = random.Random(_REFUTE_SEED)
    grids = _integer_grids(mats)
    size = m_side * m_side
    combinations = []
    for _ in range(_REFUTE_TRIES):
        re = [0] * size
        im = [0] * size
        for gre, gim in grids:
            c = rng.randint(-_REFUTE_COEFF, _REFUTE_COEFF)
            if c:
                for k in range(size):
                    re[k] += c * gre[k]
                    im[k] += c * gim[k]
        combinations.append(Mat._normalized(m_side, m_side, re, im, 1))
    return not all_nilpotent_exact(combinations)


def _nil_by_products(mats: Sequence[Mat], m_side: int) -> bool:
    """Stage (b): True when U_j = V^j Q(i)^m reaches 0, False once its rank
    stops falling."""
    m = m_side
    real = all(a.is_real() for a in mats)
    # U_1 is spanned by the columns of [A_1 | ... | A_d]; scaling a block of
    # columns by its denominator moves neither the span nor the pivot columns
    re = [[v for a in mats for v in a.re[r * m : (r + 1) * m]] for r in range(m)]
    im = None if real else [[v for a in mats for v in a.im[r * m : (r + 1) * m]] for r in range(m)]
    rank = m
    while True:
        cols = pivot_columns(re, im)
        if not cols:
            return True
        if len(cols) == rank:
            return False
        rank = len(cols)
        re, im = _images(
            mats,
            [[row[c] for c in cols] for row in re],
            None if real else [[row[c] for c in cols] for row in im],
        )


def _images(mats: Sequence[Mat], b_re: list, b_im: list | None) -> tuple[list, list | None]:
    """The rows of [A_1 B | ... | A_d B] up to a scalar on each block, for the
    integer m x k matrix B with rows ``b_re`` (+ i ``b_im``; None when V and B
    are real).

    Under the bound ``Mat.__matmul__`` uses, all d products are one int64
    product of the stacked numerator grids; above it each is formed exactly.
    """
    m, k, d = len(b_re), len(b_re[0]), len(mats)
    big_a = max(a.max_abs_num() for a in mats)
    big_b = max(max(map(abs, row)) for row in b_re)
    if b_im is not None:
        big_b = max(big_b, max(max(map(abs, row)) for row in b_im))
    if 2 * m * max(big_a, 1) * max(big_b, 1) < _INT64_SAFE:
        a_re = np.array([a.re for a in mats], dtype=np.int64).reshape(d, m, m)
        p_re = a_re @ np.array(b_re, dtype=np.int64)
        if b_im is None:
            return p_re.transpose(1, 0, 2).reshape(m, d * k).tolist(), None
        a_im = np.array([a.im for a in mats], dtype=np.int64).reshape(d, m, m)
        p_re = p_re - a_im @ np.array(b_im, dtype=np.int64)
        p_im = a_re @ np.array(b_im, dtype=np.int64) + a_im @ np.array(b_re, dtype=np.int64)
        return (
            p_re.transpose(1, 0, 2).reshape(m, d * k).tolist(),
            p_im.transpose(1, 0, 2).reshape(m, d * k).tolist(),
        )
    zero = [0] * (m * k)
    b = Mat._normalized(m, k, [v for row in b_re for v in row],
                        zero if b_im is None else [v for row in b_im for v in row], 1)
    products = [a @ b for a in mats]
    re = [[v for p in products for v in p.re[r * k : (r + 1) * k]] for r in range(m)]
    if b_im is None:
        return re, None
    return re, [[v for p in products for v in p.im[r * k : (r + 1) * k]] for r in range(m)]


def _nil_by_traces(mats: Sequence[Mat], m_side: int) -> bool:
    """Stage (c): the polarized trace identities, decided exactly."""
    d = len(mats)
    grids = _integer_grids(mats)
    # X[i][j] is a linear form in the coefficients
    x: list[list[_Poly]] = [[{} for _ in range(m_side)] for _ in range(m_side)]
    zero_mono = (0,) * d
    for var, (gre, gim) in enumerate(grids):
        for i in range(m_side):
            for j in range(m_side):
                c = (gre[i * m_side + j], gim[i * m_side + j])
                if c != (0, 0):
                    mono = zero_mono[:var] + (1,) + zero_mono[var + 1 :]
                    cell = x[i][j]
                    prev = cell.get(mono, (0, 0))
                    cell[mono] = (prev[0] + c[0], prev[1] + c[1])
    power = x
    for k in range(1, m_side + 1):
        if k > 1:
            nxt: list[list[_Poly]] = [[{} for _ in range(m_side)] for _ in range(m_side)]
            for i in range(m_side):
                rowp = power[i]
                for l in range(m_side):
                    p = rowp[l]
                    if not p:
                        continue
                    for j in range(m_side):
                        c = x[l][j]
                        for mono, coeff in c.items():
                            var = mono.index(1)
                            _poly_add_into(nxt[i][j], _poly_mul_linear(p, var, coeff))
            power = nxt
        trace_poly: _Poly = {}
        for i in range(m_side):
            _poly_add_into(trace_poly, power[i][i])
        if trace_poly:
            return False
    return True


def is_nil_subspace(v, ambient_side: int | None = None) -> bool:
    """True iff every element of the subspace is nilpotent, decided exactly.

    Accepts a Subspace of flattened gl(m) or a sequence of m x m matrices
    (used as a spanning set).  The three stages above run in order: a
    non-nilpotent basis matrix or seeded combination refutes, an image chain
    V^j Q(i)^m that reaches 0 proves, and the trace expansion decides what
    is left.
    """
    if isinstance(v, Subspace):
        if v.is_zero():
            return True
        m_side = ambient_side
        if m_side is None:
            m_side = int(round(v.ambient_dim ** 0.5))
            if m_side * m_side != v.ambient_dim:
                raise ShapeError("subspace ambient is not a flattened square")
        mats = span_basis_mats(v, m_side)
    else:
        mats = [m for m in v if not m.is_zero()]
        if not mats:
            return True
        mats = span_basis_mats(mat_span(mats), mats[0].n_rows)
    if not mats:
        return True
    m_side = mats[0].n_rows
    if not all_nilpotent_exact(mats):
        return False
    if len(mats) == 1:
        return True
    if _refuted_by_combinations(mats, m_side):
        return False
    if _nil_by_products(mats, m_side):
        return True
    return _nil_by_traces(mats, m_side)


def is_ideal(algebra: LieAlgebra, candidate: Subspace) -> bool:
    """True iff [L, candidate] is contained in candidate; candidate must lie in L."""
    n = algebra.ambient_dim
    if not algebra.span.contains_subspace(candidate):
        raise PreconditionError("candidate subspace is not inside the algebra")
    cand_mats = span_basis_mats(candidate, n)
    return candidate.contains_all(
        bracket(b, x) for b in algebra.basis_mats for x in cand_mats
    )


def is_scalar_set(v: Subspace, side: int | None = None) -> bool:
    """True iff the subspace consists of scalar multiples of the identity."""
    if v.is_zero():
        return True
    if side is None:
        side = int(round(v.ambient_dim ** 0.5))
        if side * side != v.ambient_dim:
            raise ShapeError("subspace ambient is not a flattened square")
    return all(m.is_scalar() for m in span_basis_mats(v, side))
