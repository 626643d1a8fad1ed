"""Eigenanalysis, irreducibility decisions, and triangularization certificates.

The structural decisions stay exact: irreducibility is the dimension count of
the unital associative closure, invariant-subspace witnesses are verified by
exact containment before they are returned, and a triangularization is
delivered as an explicit flag of exact subspaces that anyone can re-check.
Floating point appears only where eigenvalues live (and every numeric guess
is re-verified exactly before it is trusted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.linalg

from .matrices import Mat, NumMat, ShapeError, to_numeric
from .scalars import GaussianRational
from .subspaces import (
    Subspace,
    _Echelon,
    canonicalize,
    column_kernel,
    mat_inverse,
    stack_vertical,
)
from .lie import (
    LieAlgebra,
    PreconditionError,
    derived_subalgebra_mats,
    is_solvable,
    lie_closure,
)

__all__ = [
    "Flag",
    "FlagReport",
    "IrreducibilityVerdict",
    "eig_numeric",
    "spectral_radius",
    "generalized_eigenspace_numeric",
    "assoc_closure_dim",
    "decide_irreducible",
    "triangularize_solvable",
    "verify_flag",
    "SpectralConvergenceError",
    "WitnessSearchError",
    "TriangularizationError",
]

_WITNESS_SEED = 90717
_SINGULAR_BUDGET = 25
_RANDOM_PROBES = 100


class SpectralConvergenceError(RuntimeError):
    """The iterative eigenreduction failed to reach its residual target."""


class WitnessSearchError(RuntimeError):
    """A reducible set defeated the invariant-subspace witness search."""

    def __init__(self, message, assoc_dim: int):
        super().__init__(message)
        self.assoc_dim = assoc_dim


class TriangularizationError(ValueError):
    """A flag could not be constructed or verified."""


def _as_array(a) -> np.ndarray:
    if isinstance(a, NumMat):
        return a.array
    if isinstance(a, Mat):
        return to_numeric(a).array
    raise TypeError(f"expected Mat or NumMat, got {type(a).__name__}")


def eig_numeric(a, tol: float = 1e-9) -> list[complex]:
    """Eigenvalues with multiplicity, via unitary reduction to triangular form.

    The similarity residual ||a - Z T Z*|| is checked against tol * ||a||.
    """
    arr = _as_array(a)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError("eigenvalues of a non-square matrix")
    n = arr.shape[0]
    if n == 0:
        return []
    try:
        t, z = scipy.linalg.schur(arr, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SpectralConvergenceError(str(exc)) from exc
    scale = max(1.0, float(np.linalg.norm(arr)))
    resid = float(np.linalg.norm(arr - z @ t @ z.conj().T))
    if resid > tol * scale:
        raise SpectralConvergenceError(f"similarity defect {resid:.3e} above {tol:.1e}")
    return [complex(v) for v in np.diag(t)]


def spectral_radius(a, tol: float = 1e-9) -> float:
    """max |eigenvalue|."""
    vals = eig_numeric(a, tol)
    return max((abs(v) for v in vals), default=0.0)


def generalized_eigenspace_numeric(a, lam: complex, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of ker (a - lam)^n at the given tolerance (n x k array)."""
    arr = _as_array(a)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError("eigenspace of a non-square matrix")
    n = arr.shape[0]
    power = np.linalg.matrix_power(arr - lam * np.eye(n), n)
    _, sv, vh = np.linalg.svd(power)
    top = sv[0] if len(sv) and sv[0] > 0 else 1.0
    nullity = int(np.sum(sv <= tol * max(1.0, top)))
    if nullity == 0:
        return np.zeros((n, 0), dtype=complex)
    return vh[n - nullity :].conj().T


# -- associative closure and irreducibility ----------------------------------


def _assoc_closure(mats: Sequence[Mat], n: int) -> tuple[list[Mat], Subspace]:
    """Basis of the unital algebra generated, in construction order."""
    ech = _Echelon(n * n)
    basis: list[Mat] = []
    queue: list[Mat] = [Mat.identity(n)]
    head = 0
    while head < len(queue):
        m = queue[head]
        head += 1
        if not ech.add(m):
            continue
        basis.append(m)
        for g in mats:
            queue.append(g @ m)
    return basis, ech.subspace()


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


def _mat_vec(m: Mat, vec: Sequence[GaussianRational]) -> tuple[GaussianRational, ...]:
    n, k = m.n_rows, m.n_cols
    out = []
    for i in range(n):
        acc = GaussianRational(0)
        for j in range(k):
            e = m.entry(i, j)
            if e:
                acc = acc + e * vec[j]
        out.append(acc)
    return tuple(out)


def _orbit_span(mats: Sequence[Mat], vec, n: int) -> Subspace:
    """Smallest subspace containing vec and invariant under every matrix."""
    ech = _Echelon(n)
    queue = [tuple(vec)]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if not ech.add(v):
            continue
        for g in mats:
            queue.append(_mat_vec(g, v))
    return ech.subspace()


def _verify_invariant(mats: Sequence[Mat], space: Subspace) -> bool:
    return space.contains_all(_mat_vec(g, v) for v in space.basis_vectors() for g in mats)


def _rationalize_complex(z: complex, tol: float = 1e-9) -> GaussianRational | None:
    re = Fraction(z.real).limit_denominator(10**9)
    im = Fraction(z.imag).limit_denominator(10**9)
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
        one = GaussianRational(1)
        zero = GaussianRational(0)
        for i in range(n):
            yield tuple(one if j == i else zero for j in range(n))
        rng = random.Random(_WITNESS_SEED)
        for _ in range(_RANDOM_PROBES):
            yield tuple(GaussianRational(rng.randint(-3, 3)) for _ in range(n))
        for m in mats + basis[: 2 * _SINGULAR_BUDGET]:
            arr = to_numeric(m).array
            vals, vecs = np.linalg.eig(arr)
            for idx in range(len(vals)):
                v = vecs[:, idx]
                big = np.argmax(np.abs(v))
                if abs(v[big]) < 1e-12:
                    continue
                v = v / v[big]
                rat = [_rationalize_complex(complex(x)) for x in v]
                if all(r is not None for r in rat):
                    yield tuple(rat)

    for cand in candidates():
        if all(x.is_zero() for x in cand):
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


@dataclass(frozen=True)
class Flag:
    """Maximal chain of invariant subspaces plus the change of basis realizing it."""

    chain: tuple[Subspace, ...]
    basis_change: Mat

    def __post_init__(self):
        n = self.basis_change.n_rows
        if len(self.chain) != max(0, n - 1):
            raise TriangularizationError("flag chain must have dims 1..n-1")
        for k, sub in enumerate(self.chain, start=1):
            if sub.dim != k or sub.ambient_dim != n:
                raise TriangularizationError("flag chain dims must increase by one")
            cols = [
                tuple(self.basis_change.entry(i, c) for i in range(n))
                for c in range(k)
            ]
            if canonicalize(cols, ambient_dim=n) != sub:
                raise TriangularizationError(
                    "chain member does not match the leading basis-change columns"
                )


def _complete_basis(vec: Sequence[GaussianRational], m: int) -> Mat:
    """An invertible matrix whose first column is vec."""
    ech = _Echelon(m)
    cols = [tuple(vec)]
    ech.add(vec)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    for i in range(m):
        if len(cols) == m:
            break
        e = tuple(one if j == i else zero for j in range(m))
        if ech.add(e):
            cols.append(e)
    return Mat.from_rows([[cols[j][i] for j in range(m)] for i in range(m)])


def _eigenvalue_candidates(z: Mat) -> list[GaussianRational]:
    """Q(i) eigenvalue guesses for an exact matrix, roughly best-first.

    Wrong guesses are harmless (the caller gates each one through an exact
    kernel computation), so this errs on the side of generosity: numeric
    eigenvalues of defective matrices can be off by far more than machine
    epsilon, but cluster means and denominator snapping recover the exact
    value whenever it lies in Q(i).
    """
    t = z.n_rows
    out: list[GaussianRational] = []

    def push(g: GaussianRational) -> None:
        if g not in out:
            out.append(g)

    if t == 0:
        return out
    for i in range(t):
        push(z.entry(i, i))
    push(z.trace() * GaussianRational(Fraction(1, t)))
    push(GaussianRational(0))
    vals = [complex(v) for v in np.linalg.eigvals(to_numeric(z).array)]
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
            re = Fraction(mean.real).limit_denominator(bound)
            im = Fraction(mean.imag).limit_denominator(bound)
            if abs(float(re) - mean.real) <= 1e-3 and abs(float(im) - mean.imag) <= 1e-3:
                push(GaussianRational(re, im))
    return out


def _common_eigenvector(mats: Sequence[Mat], m: int) -> tuple[GaussianRational, ...]:
    """A joint eigenvector of a solvable set, exact; recursion on the algebra dim."""
    one = GaussianRational(1)
    zero = GaussianRational(0)
    e1 = tuple(one if j == 0 else zero for j in range(m))
    live = [a for a in mats if not a.is_zero()]
    if not live:
        return e1
    algebra = lie_closure(live, ambient_dim=m)
    d = algebra.dim
    if d == 0:
        return e1
    derived = derived_subalgebra_mats(algebra)
    ech = _Echelon(m * m)
    k_mats: list[Mat] = []
    for w in derived:
        if ech.add(w):
            k_mats.append(w)
    z_mat = None
    for b in algebra.basis_mats:
        if len(k_mats) == d - 1:
            # the rest of the basis stays outside; pick the first independent one as z
            if not ech.add(b):
                continue
            z_mat = b
            break
        if ech.add(b):
            k_mats.append(b)
    if z_mat is None:
        raise TriangularizationError("could not split a codimension-one ideal")
    v = _common_eigenvector(k_mats, m)
    # joint weight space of the ideal at v
    shifted: list[Mat] = []
    for k in k_mats:
        kv = _mat_vec(k, v)
        pivot = next(i for i, x in enumerate(v) if x)
        lam = kv[pivot] / v[pivot]
        if kv != tuple(lam * x for x in v):
            raise TriangularizationError("recursive eigenvector failed verification")
        shifted.append(k - Mat.identity(m).scale(lam))
    if shifted:
        w_vectors = column_kernel(stack_vertical(shifted))
    else:
        w_vectors = [
            tuple(one if j == i else zero for j in range(m)) for i in range(m)
        ]
    w_ech = _Echelon(m)
    for wv in w_vectors:
        w_ech.add(wv)
    # coordinates below come from the echelon, so the basis must too
    w_basis = w_ech.subspace().basis_vectors()
    t = len(w_basis)
    z_cols = []
    for wv in w_basis:
        coords = w_ech.coordinates(_mat_vec(z_mat, wv))
        if coords is None:
            raise TriangularizationError("weight space is not invariant")
        z_cols.append(coords)
    z_small = (
        Mat.from_rows([[z_cols[j][i] for j in range(t)] for i in range(t)])
        if t
        else Mat.zeros(0, 0)
    )
    for lam in _eigenvalue_candidates(z_small):
        kernel = column_kernel(z_small - Mat.identity(t).scale(lam))
        if kernel:
            coeffs = kernel[0]
            acc = [zero] * m
            for c, wv in zip(coeffs, w_basis):
                if c:
                    acc = [x + c * y for x, y in zip(acc, wv)]
            return tuple(acc)
    raise TriangularizationError(
        "no eigenvalue of the splitting element rationalizes to Q(i)"
    )


def triangularize_solvable(algebra: LieAlgebra) -> Flag:
    """A maximal invariant flag for a solvable algebra, with exact verification."""
    if not is_solvable(algebra):
        raise PreconditionError("algebra is not solvable")
    n = algebra.ambient_dim
    u = Mat.identity(n)
    current = list(algebra.basis_mats)
    for step in range(n - 1):
        m = n - step
        v = _common_eigenvector(current, m)
        b = _complete_basis(v, m)
        b_inv = mat_inverse(b)
        transformed = [b_inv @ a @ b for a in current]
        nxt = []
        for tmat in transformed:
            for i in range(1, m):
                if tmat.entry(i, 0):
                    raise TriangularizationError("eigenvector step failed verification")
            nxt.append(
                Mat.from_rows(
                    [[tmat.entry(i, j) for j in range(1, m)] for i in range(1, m)]
                )
            )
        # accumulate as block-diag(I_step, b)
        one = GaussianRational(1)
        zero = GaussianRational(0)
        grid = [
            [
                one if (i == j and i < step) else
                (b.entry(i - step, j - step) if i >= step and j >= step else zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        u = u @ Mat.from_rows(grid)
        current = nxt
    chain = []
    cols = [
        tuple(u.entry(i, k) for i in range(n))
        for k in range(n)
    ]
    for k in range(1, n):
        chain.append(canonicalize(cols[:k], ambient_dim=n))
    flag = Flag(tuple(chain), u)
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


def verify_flag(mats: Sequence, flag: Flag, tol: float = 0.0) -> FlagReport:
    """Check that every chain member is invariant under every matrix.

    With tol = 0 and exact matrices the check is exact; otherwise the
    strictly-lower residual of the conjugated matrices is compared to tol.
    """
    exact = tol == 0.0 and all(isinstance(m, Mat) for m in mats)
    if exact:
        entries = [
            FlagEntry(idx, all(_verify_invariant([m], sub) for sub in flag.chain), 0.0)
            for idx, m in enumerate(mats)
        ]
        return FlagReport("exact", tuple(entries))
    u = to_numeric(flag.basis_change).array
    u_inv = np.linalg.inv(u)
    entries = []
    for idx, m in enumerate(mats):
        arr = _as_array(m)
        t = u_inv @ arr @ u
        lower = np.tril(t, k=-1)
        resid = float(np.max(np.abs(lower))) if lower.size else 0.0
        scale = max(1.0, float(np.linalg.norm(arr)))
        entries.append(FlagEntry(idx, resid <= tol * scale, resid))
    return FlagReport("numeric", tuple(entries))
