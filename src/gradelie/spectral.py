"""Eigenanalysis, irreducibility decisions, and triangularization certificates.

The structural decisions stay exact: irreducibility is the dimension count of
the unital associative closure, invariant-subspace witnesses are verified by
exact containment before they are returned, and a triangularization is
delivered as an explicit flag of exact subspaces that anyone can re-check.
Floating point appears only where eigenvalues live (and every numeric guess
is re-verified exactly before it is trusted).
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .matrices import Mat, ShapeError, to_numeric
from .scalars import GaussianRational
from .subspaces import (
    Subspace,
    _Echelon,
    column_kernel,
    mat_inverse,
    span_basis_mats,
    span_closure,
    stack_vertical,
)
from .lie import LieAlgebra, PreconditionError, derived_series

__all__ = [
    "Flag",
    "FlagReport",
    "IrreducibilityVerdict",
    "assoc_closure_dim",
    "decide_irreducible",
    "triangularize_solvable",
    "verify_flag",
    "WitnessSearchError",
    "TriangularizationError",
]

_WITNESS_SEED = 90717
_SINGULAR_BUDGET = 25
_RANDOM_PROBES = 100


class WitnessSearchError(RuntimeError):
    """A reducible set defeated the invariant-subspace witness search."""

    def __init__(self, message, assoc_dim: int):
        super().__init__(message)
        self.assoc_dim = assoc_dim


class TriangularizationError(ValueError):
    """A flag could not be constructed or verified."""


# -- associative closure and irreducibility ----------------------------------


def _assoc_closure(mats: Sequence[Mat], n: int) -> tuple[list[Mat], Subspace]:
    """Basis of the unital algebra generated, in construction order."""
    return span_closure([Mat.identity(n)], [lambda m, g=g: g @ m for g in mats], n * n)


def assoc_closure_dim(mats: Sequence[Mat]) -> int:
    """Dimension of the unital associative algebra the matrices generate."""
    mats = list(mats)
    if not mats:
        return 1
    n = mats[0].n_rows
    for m in mats:
        if m.shape != (n, n):
            raise ShapeError("generators must be square and of equal size")
    _, span = _assoc_closure(mats, n)
    return span.dim


@dataclass(frozen=True)
class IrreducibilityVerdict:
    irreducible: bool
    assoc_dim: int
    witness: Subspace | None


def _columns(m: Mat) -> list[Mat]:
    return [m.block(0, m.n_rows, j, j + 1) for j in range(m.n_cols)]


def _hstack(blocks: Sequence[Mat]) -> Mat:
    """Set equal-height matrices side by side."""
    return stack_vertical([b.transpose() for b in blocks]).transpose()


def _orbit_span(mats: Sequence[Mat], vec: Mat, n: int) -> Subspace:
    """Smallest subspace containing the column vec and invariant under every matrix."""
    return span_closure([vec], [g.__matmul__ for g in mats], n)[1]


def _verify_invariant(mats: Sequence[Mat], space: Subspace) -> bool:
    basis = _columns(space.basis_rows.transpose())
    return space.contains_all(g @ v for v in basis for g in mats)


def _snap(z: complex, bound: int, tol: float) -> GaussianRational | None:
    """The nearest Gaussian rational to z whose parts have denominators at
    most bound, or None when a part lies farther than tol from z's or z is
    not finite (numeric eigenvalues of finite entries can overflow)."""
    if not cmath.isfinite(z):
        return None
    re = Fraction(z.real).limit_denominator(bound)
    im = Fraction(z.imag).limit_denominator(bound)
    if abs(float(re) - z.real) > tol or abs(float(im) - z.imag) > tol:
        return None
    return GaussianRational(re, im)


def decide_irreducible(mats: Sequence[Mat]) -> IrreducibilityVerdict:
    """Dimension test for irreducibility, with an exact invariant-subspace witness.

    A proper closure always forces reducibility; the witness search tries
    kernels of singular closure elements, then standard basis vectors, then
    seeded rational probes, then rationalized numeric eigenvectors, and only
    returns a subspace whose invariance has been verified exactly.
    """
    mats = [m for m in mats]
    if not mats:
        raise ValueError("need at least one matrix to fix the ambient dimension")
    n = mats[0].n_rows
    if n < 1:
        raise ShapeError("ambient dimension must be at least 1")
    for m in mats:
        if m.shape != (n, n):
            raise ShapeError("matrices must be square and of equal size")
    basis, span = _assoc_closure(mats, n)
    assoc_dim = span.dim
    if assoc_dim == n * n:
        return IrreducibilityVerdict(True, assoc_dim, None)

    def candidates():
        singular_seen = 0
        for m in basis:
            if singular_seen >= _SINGULAR_BUDGET:
                break
            ker = column_kernel(m)
            if ker:
                singular_seen += 1
                yield from ker
        yield from _columns(Mat.identity(n))
        rng = random.Random(_WITNESS_SEED)
        for _ in range(_RANDOM_PROBES):
            yield Mat.from_int_rows([[rng.randint(-3, 3)] for _ in range(n)])
        for m in mats + basis[: 2 * _SINGULAR_BUDGET]:
            try:
                arr = to_numeric(m)
            except OverflowError:  # beyond the double range there is no guess
                continue
            vals, vecs = np.linalg.eig(arr)
            for idx in range(len(vals)):
                v = vecs[:, idx]
                big = np.argmax(np.abs(v))
                if abs(v[big]) < 1e-12:
                    continue
                v = v / v[big]
                rat = [_snap(complex(x), 10**9, 1e-9) for x in v]
                if all(r is not None for r in rat):
                    yield Mat.from_rows([rat]).transpose()

    for cand in candidates():
        if cand.is_zero():
            continue
        orbit = _orbit_span(mats, cand, n)
        if 0 < orbit.dim < n:
            if not _verify_invariant(mats, orbit):
                raise WitnessSearchError("orbit span failed exact invariance", assoc_dim)
            return IrreducibilityVerdict(False, assoc_dim, orbit)
    raise WitnessSearchError(
        f"closure dimension {assoc_dim} < {n * n} but no witness was found", assoc_dim
    )


# -- triangularization --------------------------------------------------------


def _leading_spans(u: Mat) -> list[Subspace] | None:
    """The spans of the first k columns of u for k = 1..n-1, from one echelon
    pass over its columns; None when u is not square and invertible."""
    n = u.n_rows
    if u.n_cols != n:
        return None
    ech = _Echelon(n)
    spans = []
    for col in _columns(u):
        if not ech.add(col):
            return None
        spans.append(ech.subspace())
    return spans[:-1]


@dataclass(frozen=True)
class Flag:
    """Maximal chain of invariant subspaces plus the change of basis realizing it.

    Chain member k is the span of the first k columns of ``basis_change``,
    which must be invertible; the chain is computed from it.
    """

    basis_change: Mat
    chain: tuple[Subspace, ...] = field(init=False)

    def __post_init__(self):
        spans = _leading_spans(self.basis_change)
        if spans is None:
            raise TriangularizationError("basis change is not invertible")
        object.__setattr__(self, "chain", tuple(spans))


def _complete_basis(vec: Mat, m: int) -> Mat:
    """An invertible matrix whose first column is the column vec."""
    ech = _Echelon(m)
    ech.add(vec)
    cols = [vec]
    for e in _columns(Mat.identity(m)):
        if len(cols) == m:
            break
        if ech.add(e):
            cols.append(e)
    return _hstack(cols)


def _eigenvalue_candidates(z: Mat) -> Iterator[GaussianRational]:
    """Q(i) eigenvalue guesses for an exact matrix, roughly best-first, each once.

    Wrong guesses are harmless (the caller gates each one through an exact
    kernel computation), so this errs on the side of generosity.  The cheap
    guesses (the diagonal entries, trace/t and 0) come first, and the numeric
    eigenvalues are computed only when the caller asks past them: those of
    defective matrices can be off by far more than machine epsilon, but
    cluster means and denominator snapping recover the exact value whenever
    it lies in Q(i).
    """
    t = z.n_rows
    seen: list[GaussianRational] = []

    def guesses() -> Iterator[GaussianRational | None]:
        for i in range(t):
            yield z.entry(i, i)
        yield z.trace() * GaussianRational(Fraction(1, t))
        yield GaussianRational(0)
        try:
            vals = [complex(v) for v in np.linalg.eigvals(to_numeric(z))]
        except OverflowError:  # beyond the double range there is no guess
            return
        groups: list[list[complex]] = []
        for radius in (1e-9, 1e-6, 1e-3):
            clusters: list[list[complex]] = []
            for v in vals:
                for cl in clusters:
                    if abs(v - cl[0]) <= radius:
                        cl.append(v)
                        break
                else:
                    clusters.append([v])
            groups.extend(clusters)
        for cl in groups:
            mean = sum(cl) / len(cl)
            for bound in (24, 10**4, 10**9):
                yield _snap(mean, bound, 1e-3)

    for g in guesses():
        if g is not None and g not in seen:
            seen.append(g)
            yield g


def _split_elements(terms: Sequence[Subspace], m: int) -> list[Mat]:
    """z_0, z_1, ... with K_j = span(z_j, z_{j+1}, ...) a chain of codimension-one
    ideals from L down, read off L's derived series ``terms`` in gl(m): any
    subspace between [D_k, D_k] and D_k is an ideal of every larger one, so
    D_k's RREF basis elements that extend D_{k+1} are taken last-first."""
    splits: list[Mat] = []
    for upper, lower in zip(terms, terms[1:]):
        ech = lower._echelon()
        splits += reversed([z for z in span_basis_mats(upper, m) if ech.add(z)])
    return splits


def _common_eigenvector(terms: Sequence[Subspace], m: int) -> Mat:
    """A joint eigenvector of a solvable algebra in gl(m), exact, as a column:
    Lie's descent, walked once up the chain K_j of ``_split_elements``.  W
    starts as the whole space and at each level becomes an eigenspace of z_j
    in W, the joint weight space of K_j, which K_{j-1} leaves invariant (Lie's
    lemma)."""
    splits = _split_elements(terms, m)
    identity = _columns(Mat.identity(m))
    if not splits:
        return identity[0]
    # W as a canonical echelon; coordinates come from it, so the basis must too
    w_ech = _Echelon(m)
    for e in identity:
        w_ech.add(e)
    for depth in range(len(splits) - 1, -1, -1):
        w_basis = w_ech.basis_mat().transpose()
        z_small = w_ech.coordinates(_columns(splits[depth] @ w_basis))
        if z_small is None:
            raise TriangularizationError("weight space is not invariant")
        t = z_small.n_rows
        for lam in _eigenvalue_candidates(z_small):
            kernel = column_kernel(z_small - Mat.identity(t).scale(lam))
            if kernel:
                break
        else:
            raise TriangularizationError(
                "no eigenvalue of the splitting element rationalizes to Q(i)"
            )
        if not depth:
            return w_basis @ kernel[0]
        w_ech = _Echelon(m)
        for k in kernel:
            w_ech.add(w_basis @ k)


def triangularize_solvable(algebra: LieAlgebra) -> Flag:
    """A maximal invariant flag for a solvable algebra, with exact verification.

    Each block's derived series is taken once: Lie's descent reads its chain
    off it, and the algebra's own series decides solvability (each deflated
    block is a quotient of it, so solvable too)."""
    n = algebra.ambient_dim
    u = Mat.identity(n)
    block = algebra
    for step in range(n - 1):
        m = n - step
        if step:
            block = LieAlgebra.from_matrices(nxt, m)
        terms = derived_series(block).terms
        if terms[-1].dim:
            raise PreconditionError("algebra is not solvable")
        b = _complete_basis(_common_eigenvector(terms, m), m)
        b_inv = mat_inverse(b)
        nxt = []
        for a in block.basis_mats:
            t = b_inv @ a @ b
            if not t.block(1, m, 0, 1).is_zero():
                raise TriangularizationError("eigenvector step failed verification")
            # deflate: the action on the quotient by the eigenvector
            nxt.append(t.block(1, m, 1, m))
        # u @ block-diag(I_step, b): the trailing columns times b
        u = _hstack([u.block(0, n, 0, step), u.block(0, n, step, n) @ b])
    flag = Flag(u)
    report = verify_flag(list(algebra.basis_mats), flag, 0.0)
    if not report.all_ok:
        raise TriangularizationError("constructed flag failed exact verification")
    return flag


@dataclass(frozen=True)
class FlagEntry:
    index: int
    ok: bool
    residual: float


@dataclass(frozen=True)
class FlagReport:
    mode: str  # "exact" | "numeric"
    entries: tuple[FlagEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)


def verify_flag(mats: Sequence[Mat], flag: Flag, tol: float = 0.0) -> FlagReport:
    """Check that every chain member is invariant under every matrix.

    The chain is spanned by the leading columns of the invertible basis
    change U, so it is invariant under A exactly when U^-1 A U is upper
    triangular.  With tol = 0 that is checked exactly; otherwise the
    strictly-lower residual is compared to tol, unless an entry lies beyond
    the double range, where the exact check decides instead.
    """
    if tol:
        try:
            return _verify_flag_numeric(mats, flag, tol)
        except OverflowError:
            pass
    u = flag.basis_change
    u_inv = mat_inverse(u)
    n = u.n_rows
    entries = []
    for idx, m in enumerate(mats):
        t = u_inv @ m @ u
        ok = all(t.block(j + 1, n, j, j + 1).is_zero() for j in range(n - 1))
        entries.append(FlagEntry(idx, ok, 0.0))
    return FlagReport("exact", tuple(entries))


def _verify_flag_numeric(mats: Sequence[Mat], flag: Flag, tol: float) -> FlagReport:
    u = to_numeric(flag.basis_change)
    u_inv = np.linalg.inv(u)
    entries = []
    for idx, m in enumerate(mats):
        arr = to_numeric(m)
        t = u_inv @ arr @ u
        lower = np.tril(t, k=-1)
        resid = float(np.max(np.abs(lower))) if lower.size else 0.0
        scale = max(1.0, float(np.linalg.norm(arr)))
        entries.append(FlagEntry(idx, resid <= tol * scale, resid))
    return FlagReport("numeric", tuple(entries))
