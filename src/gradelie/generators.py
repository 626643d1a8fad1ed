"""Deterministic random instance generators for the fuzzing harness.

Every generator is a pure function of its seed.  Entries are drawn from
small integers so exact arithmetic stays fast and failing instances stay
readable.  "Nilpotent family" constructions conjugate strictly upper
triangular seeds by a random invertible matrix and close under the relevant
product, which guarantees the nilpotency hypothesis exactly instead of
probabilistically.
"""

from __future__ import annotations

import random
from typing import Sequence

from .matrices import Mat
from .subspaces import mat_inverse, mat_span, span_basis_mats, subspace_intersect, subspace_sum
from .groups import FinAbGroup, GroupElem
from .lie import LieAlgebra, lie_closure
from .grading import SubgradedAlgebra, verify_subgrading
from .structures import MatSubspace, jordan_ideal_generated, jordan_products, triple_products

__all__ = [
    "random_invertible",
    "gen_lie_algebra",
    "gen_solvable",
    "gen_weight_graded",
    "WEIGHT_GRADED_MAX_DIM",
    "gen_solvable_zero_graded",
    "gen_nilpotent_triple",
    "gen_nilpotent_jordan",
    "gen_jordan_pair",
]


def random_invertible(n: int, rng: random.Random) -> tuple[Mat, Mat]:
    """A small-integer invertible matrix and its exact inverse."""
    while True:
        g = Mat.from_int_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        )
        try:
            return g, mat_inverse(g)
        except ValueError:
            continue


def _random_mat(n: int, rng: random.Random) -> Mat:
    return Mat.from_int_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])


def gen_lie_algebra(n: int, seed: int) -> LieAlgebra:
    """Lie closure of up to three random small-integer matrices."""
    rng = random.Random(("lie", n, seed).__repr__())
    gens = [_random_mat(n, rng) for _ in range(rng.randint(1, 3))]
    return lie_closure(gens, ambient_dim=n)


def _random_uppers(n: int, rng: random.Random, strict: bool, count: int) -> list[Mat]:
    out = []
    for _ in range(count):
        lo = 1 if strict else 0
        grid = [
            [rng.randint(-2, 2) if j - i >= lo else 0 for j in range(n)]
            for i in range(n)
        ]
        out.append(Mat.from_int_rows(grid))
    return out


def gen_solvable(n: int, seed: int) -> LieAlgebra:
    """Closure of conjugated upper-triangular matrices; solvable by construction."""
    rng = random.Random(("solvable", n, seed).__repr__())
    g, gi = random_invertible(n, rng)
    ups = _random_uppers(n, rng, strict=False, count=rng.randint(1, 3))
    return lie_closure([g @ u @ gi for u in ups], ambient_dim=n)


# the largest ambient dimension gen_weight_graded accepts
WEIGHT_GRADED_MAX_DIM = 6


def gen_weight_graded(n: int, moduli: Sequence[int], seed: int) -> SubgradedAlgebra:
    """A genuinely graded algebra from integer weights reduced mod the group.

    E_ij carries degree w_i - w_j, so closures of homogeneous generators are
    homogeneous and the component decomposition is automatically direct.
    Roughly half of the cyclic instances restrict the generators to strictly
    upper positions with distinct weights, which pins the zero component at 0
    (the scalar-zero-component hypothesis) whenever the ambient fits.
    """
    if n > WEIGHT_GRADED_MAX_DIM:
        raise ValueError(f"weight-graded generator is desk-scale (n <= {WEIGHT_GRADED_MAX_DIM})")
    group = FinAbGroup(moduli)
    rng = random.Random(("graded", n, tuple(moduli), seed).__repr__())
    upper_mode = bool(group.moduli) and rng.random() < 0.5
    if upper_mode and group.rank == 1 and group.moduli[0] >= n:
        pool = list(range(group.moduli[0]))
        rng.shuffle(pool)
        picks = sorted(pool[:n])
        weights = [(w,) for w in picks]
    else:
        upper_mode = upper_mode and group.order > 1
        weights = [
            tuple(rng.randrange(m) for m in group.moduli) for _ in range(n)
        ]
    degree = {}
    for i in range(n):
        for j in range(n):
            degree[(i, j)] = group.add(weights[i], group.neg(weights[j]))
    classes: dict[GroupElem, list[tuple[int, int]]] = {}
    for pos, deg in degree.items():
        if upper_mode and pos[0] >= pos[1]:
            continue
        classes.setdefault(deg, []).append(pos)
    class_keys = sorted(k for k, v in classes.items() if v)
    if not class_keys:
        classes = {degree[(i, j)]: [] for i in range(n) for j in range(n)}
        for pos, deg in degree.items():
            classes[deg].append(pos)
        class_keys = sorted(k for k, v in classes.items() if v)
    gens = []
    for _ in range(rng.randint(1, 3)):
        key = class_keys[rng.randrange(len(class_keys))]
        grid = [[0] * n for _ in range(n)]
        wrote = False
        for (i, j) in classes[key]:
            v = rng.randint(-2, 2)
            if v:
                grid[i][j] = v
                wrote = True
        if not wrote:
            i, j = classes[key][rng.randrange(len(classes[key]))]
            grid[i][j] = 1
        gens.append(Mat.from_int_rows(grid))
    return _weight_graded_closure(gens, group, degree, n)


def _weight_graded_closure(
    gens: list[Mat], group: FinAbGroup, degree: dict, n: int
) -> SubgradedAlgebra:
    """The closure of generators homogeneous for E_ij -> degree[(i, j)], with
    its components cut out coordinate class by coordinate class."""
    algebra = lie_closure(gens, ambient_dim=n)
    coord_classes: dict[GroupElem, list[Mat]] = {}
    for i in range(n):
        for j in range(n):
            coord_classes.setdefault(degree[(i, j)], []).append(Mat.unit(n, i, j))
    components = {}
    for deg, mats in coord_classes.items():
        piece = subspace_intersect(algebra.span, mat_span(mats, n))
        if piece.dim:
            components[deg] = piece
    return verify_subgrading(algebra, group, components)


def gen_solvable_zero_graded(n: int, moduli: Sequence[int], seed: int) -> SubgradedAlgebra:
    """A weight-graded algebra whose zero component is seeded solvable and
    non-commutative.

    The first two indices share a weight.  A diagonal generator and a
    strictly upper triangular one on the degree-zero positions usually fail
    to commute; one or two unit matrices E_ij of nonzero degree follow.  The
    closure may still enlarge the zero component beyond solvability.
    """
    if n < 2:
        raise ValueError("a non-commutative zero component needs n >= 2")
    group = FinAbGroup(moduli)
    rng = random.Random(("solvable-zero", n, tuple(moduli), seed).__repr__())
    weights = [tuple(rng.randrange(m) for m in group.moduli) for _ in range(n)]
    weights[1] = weights[0]
    degree = {
        (i, j): group.add(weights[i], group.neg(weights[j])) for i in range(n) for j in range(n)
    }

    def homogeneous(keep) -> Mat:
        return Mat.from_int_rows(
            [[rng.randint(-2, 2) if keep(i, j) else 0 for j in range(n)] for i in range(n)]
        )

    zero = group.zero()
    gens = [
        homogeneous(lambda i, j: i == j),
        homogeneous(lambda i, j: i < j and degree[(i, j)] == zero),
    ]
    off_zero = [pos for pos, deg in degree.items() if deg != zero]
    for _ in range(rng.randint(1, 2) if off_zero else 0):
        gens.append(Mat.unit(n, *rng.choice(off_zero)))
    return _weight_graded_closure(gens, group, degree, n)


def _close_under(
    mats: list[Mat], n: int, products
) -> MatSubspace:
    span = mat_span(mats, n)
    while True:
        basis = span_basis_mats(span, n)
        fresh = [w for w in products(basis) if not w.is_zero()]
        new_span = subspace_sum(span, mat_span(fresh, n))
        if new_span == span:
            return MatSubspace.from_span(span, n)
        span = new_span


def gen_nilpotent_triple(n: int, seed: int) -> MatSubspace:
    """A triple-product-closed subspace of conjugated strictly upper triangulars."""
    rng = random.Random(("triple", n, seed).__repr__())
    g, gi = random_invertible(n, rng)
    seeds = [g @ u @ gi for u in _random_uppers(n, rng, strict=True, count=rng.randint(1, 2))]
    seeds = [m for m in seeds if not m.is_zero()] or [g @ Mat.unit(n, 0, n - 1) @ gi]
    return _close_under(seeds, n, triple_products)


def gen_nilpotent_jordan(n: int, seed: int) -> MatSubspace:
    """A Jordan-closed subspace of conjugated strictly upper triangulars."""
    rng = random.Random(("jordan", n, seed).__repr__())
    g, gi = random_invertible(n, rng)
    seeds = [g @ u @ gi for u in _random_uppers(n, rng, strict=True, count=rng.randint(1, 2))]
    seeds = [m for m in seeds if not m.is_zero()] or [g @ Mat.unit(n, 0, n - 1) @ gi]
    return _close_under(seeds, n, jordan_products)


def gen_jordan_pair(n: int, seed: int) -> tuple[MatSubspace, MatSubspace]:
    """A Jordan algebra (possibly with diagonal part) plus one of its ideals."""
    rng = random.Random(("jordan-pair", n, seed).__repr__())
    g, gi = random_invertible(n, rng)
    strict = rng.random() < 0.5
    seeds = [g @ u @ gi for u in _random_uppers(n, rng, strict=strict, count=rng.randint(1, 2))]
    seeds = [m for m in seeds if not m.is_zero()] or [g @ Mat.unit(n, 0, n - 1) @ gi]
    j = _close_under(seeds, n, jordan_products)
    pick = j.basis_mats[rng.randrange(len(j.basis_mats))]
    i = jordan_ideal_generated(j, pick)
    return j, i
