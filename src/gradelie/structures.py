"""Lie triple systems, Lie n-product systems, and operator Jordan algebras.

These are raw matrix subspaces with closure properties weaker than a Lie
algebra's; the embeddings into two-component subgraded Lie algebras are the
bridge into the rest of the package.  The two-component sum is kept as given
and may fail to be direct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .matrices import Mat, bracket, bracket_pairs, jordan_product
from .subspaces import MatSubspace, Subspace, span_basis_mats, span_closure, subspace_sum
from .groups import FinAbGroup
from .lie import (
    _TRIVIAL,
    LieAlgebra,
    NotClosedError,
    PreconditionError,
    _bracket_spans,
    commutator_span,
    is_ideal,
    require_closed,
)
from .grading import SubgradedAlgebra, verify_subgrading

__all__ = [
    "MatSubspace",
    "JordanIdealChain",
    "triple_products",
    "jordan_products",
    "is_lie_triple_system",
    "bracket_power_spans",
    "m_bracket_powers",
    "is_lie_n_product_system",
    "triple_envelope",
    "triple_to_z2",
    "is_jordan_algebra",
    "is_jordan_ideal",
    "jordan_to_z2",
    "jordan_ideal_chain",
    "jordan_ideal_generated",
    "IdealChainError",
]


class IdealChainError(AssertionError):
    """The embedded Jordan ideal chain failed an exact ideal verification."""


def triple_products(basis: Sequence[Mat]) -> list[Mat]:
    """[a, [b, c]] over basis elements a and unordered pairs b < c, which
    span the triple products of the basis since [c, b] = -[b, c]."""
    return [
        bracket(a, inner)
        for _, _, inners in bracket_pairs({(): basis})
        for inner in inners
        if not inner.is_zero()
        for a in basis
    ]


def jordan_products(basis: Sequence[Mat]) -> list[Mat]:
    """a b + b a over basis pairs i <= j, which span the Jordan products."""
    return [jordan_product(a, b) for i, a in enumerate(basis) for b in basis[i:]]


def is_lie_triple_system(m: MatSubspace) -> bool:
    """Closure under [a, [b, c]] on basis triples."""
    return m.span.contains_all(triple_products(m.basis_mats))


def bracket_power_spans(m: MatSubspace, k: int) -> list[Subspace]:
    """span M^[1], ..., span M^[k] from one walk: M^[2] = [M, M] is the
    commutator span kept on ``m``, and M^[j+1] = [M, M^[j]] on basis pairs."""
    if k < 1:
        raise ValueError("bracket power index starts at 1")
    n = m.ambient_dim
    spans = [m.span, commutator_span(m)] if k > 1 else [m.span]
    while len(spans) < k:
        level = {(): span_basis_mats(spans[-1], n)}
        nxt = _bracket_spans(bracket_pairs({(): m.basis_mats}, level), n, _TRIVIAL.add)
        spans.append(nxt.get((), Subspace.zero(n * n)))
    return spans


def m_bracket_powers(m: MatSubspace, k: int) -> list[Mat]:
    """A basis of span M^[k]."""
    return span_basis_mats(bracket_power_spans(m, k)[-1], m.ambient_dim)


def is_lie_n_product_system(m: MatSubspace, n: int) -> bool:
    """True iff span M^[n] lies inside span M."""
    if n < 2:
        raise ValueError("product-system index starts at 2")
    return m.span.contains_subspace(bracket_power_spans(m, n)[-1])


def triple_envelope(m: MatSubspace) -> LieAlgebra:
    """The Lie algebra a triple system generates: span M + span [M, M]."""
    if not is_lie_triple_system(m):
        raise PreconditionError("subspace is not closed under the triple product")
    total = subspace_sum(m.span, commutator_span(m))
    return require_closed(LieAlgebra.from_span(total, m.ambient_dim))


def triple_to_z2(m: MatSubspace) -> SubgradedAlgebra:
    """Embed a triple system as the odd part of a two-component subgraded algebra."""
    envelope = triple_envelope(m)
    return verify_subgrading(
        envelope, FinAbGroup([2]), {(0,): commutator_span(m), (1,): m.span}
    )


def is_jordan_algebra(j: MatSubspace) -> bool:
    """Closure under a b + b a on basis pairs."""
    return j.span.contains_all(jordan_products(j.basis_mats))


def is_jordan_ideal(j: MatSubspace, i: MatSubspace) -> bool:
    """True iff i sits inside j and j o i stays inside i."""
    if not j.span.contains_subspace(i.span):
        raise PreconditionError("candidate ideal is not inside the Jordan algebra")
    products = [jordan_product(a, x) for a in j.basis_mats for x in i.basis_mats]
    return i.span.contains_all(products)


def jordan_to_z2(j: MatSubspace) -> SubgradedAlgebra:
    """Embed a Jordan algebra as the odd part of a two-component subgraded algebra."""
    if not is_jordan_algebra(j):
        raise PreconditionError("subspace is not closed under the Jordan product")
    return triple_to_z2(j)


@dataclass(frozen=True)
class JordanIdealChain:
    generated_by_ideal: LieAlgebra  # L(I)
    mixed: LieAlgebra  # L(J, I) = I + [J, I]
    generated_by_algebra: LieAlgebra  # L(J)


def jordan_ideal_chain(j: MatSubspace, i: MatSubspace) -> JordanIdealChain:
    """The nested Lie algebras an ideal of a Jordan algebra gives rise to."""
    if not is_jordan_algebra(j):
        raise PreconditionError("outer subspace is not a Jordan algebra")
    if not is_jordan_ideal(j, i):
        raise PreconditionError("inner subspace is not a Jordan ideal")
    li = triple_envelope(i)
    lj = triple_envelope(j)
    n = j.ambient_dim
    cross = _bracket_spans(bracket_pairs({(): j.basis_mats}, {(): i.basis_mats}), n, _TRIVIAL.add)
    mixed_span = subspace_sum(i.span, cross.get((), Subspace.zero(n * n)))
    try:
        lji = require_closed(LieAlgebra.from_span(mixed_span, j.ambient_dim))
    except NotClosedError as exc:
        raise IdealChainError(f"I + [J, I] is not bracket-closed: {exc}") from exc
    if not lji.span.contains_subspace(li.span):
        raise IdealChainError("L(I) escapes L(J, I)")
    if not lj.span.contains_subspace(lji.span):
        raise IdealChainError("L(J, I) escapes L(J)")
    if not is_ideal(lji, li.span):
        raise IdealChainError("L(I) is not an ideal of L(J, I)")
    if not is_ideal(lj, lji.span):
        raise IdealChainError("L(J, I) is not an ideal of L(J)")
    return JordanIdealChain(li, lji, lj)


def jordan_ideal_generated(j: MatSubspace, seed: Mat) -> MatSubspace:
    """Smallest Jordan ideal of j containing the seed element."""
    if not j.contains_mat(seed):
        raise PreconditionError("seed element is outside the Jordan algebra")
    n = j.ambient_dim
    actions = [lambda x, a=a: jordan_product(a, x) for a in j.basis_mats]
    return MatSubspace.from_span(span_closure([seed], actions, n * n)[1], n)
