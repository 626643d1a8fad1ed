"""Finite abelian groups as direct products of cyclic groups.

Group elements are canonical residue tuples.  Invariant factors come from
the gcd/lcm divisor chain of the moduli, so the cyclic/non-cyclic structure
questions (and the cyclic pair relation) are decided exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .matrices import Mat

__all__ = [
    "FinAbGroup",
    "GroupElem",
    "cyclic_pair",
    "regular_rep",
]

GroupElem = tuple[int, ...]


@dataclass(frozen=True)
class FinAbGroup:
    """Z_{n_1} x ... x Z_{n_k}; moduli all >= 1, possibly empty (trivial group)."""

    moduli: tuple[int, ...]

    def __init__(self, moduli: Iterable[int]):
        mods = tuple(int(m) for m in moduli)
        if any(m < 1 for m in mods):
            raise ValueError("moduli must be >= 1")
        object.__setattr__(self, "moduli", mods)

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def zero(self) -> GroupElem:
        return (0,) * len(self.moduli)

    def element(self, residues: Sequence[int]) -> GroupElem:
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"element of length {len(residues)} in a rank-{len(self.moduli)} group"
            )
        return tuple(int(r) % m for r, m in zip(residues, self.moduli))

    def contains(self, g: GroupElem) -> bool:
        return len(g) == len(self.moduli) and all(
            0 <= r < m for r, m in zip(g, self.moduli)
        )

    def add(self, a: GroupElem, b: GroupElem) -> GroupElem:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: GroupElem) -> GroupElem:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def elements(self) -> list[GroupElem]:
        return [tuple(t) for t in itertools.product(*(range(m) for m in self.moduli))]

    def element_order(self, g: GroupElem) -> int:
        acc = g
        k = 1
        zero = self.zero()
        while acc != zero:
            acc = self.add(acc, g)
            k += 1
        return k

    def subgroup(self, generators: Sequence[GroupElem]) -> frozenset[GroupElem]:
        for g in generators:
            if not self.contains(g):
                raise ValueError(f"generator {g} outside the group")
        seen = {self.zero()}
        frontier = [self.zero()]
        while frontier:
            cur = frontier.pop()
            for g in generators:
                nxt = self.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def invariant_factors(self) -> tuple[int, ...]:
        """Divisor-chain form of the group; trivial group gives ()."""
        return _divisor_chain(self.moduli)

    def is_cyclic(self) -> bool:
        return len(self.invariant_factors()) <= 1


def _divisor_chain(diag: Sequence[int]) -> tuple[int, ...]:
    # Z_a + Z_b = Z_gcd(a,b) + Z_lcm(a,b); iterate to the chain form
    d = [x for x in diag if x > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            if d[i + 1] % d[i] != 0:
                g = math.gcd(d[i], d[i + 1])
                d[i], d[i + 1] = g, d[i] * d[i + 1] // g
                changed = True
    return tuple(x for x in d if x > 1)


def cyclic_pair(group: FinAbGroup, a: GroupElem, b: GroupElem) -> bool:
    """True iff a and b lie in a common cyclic subgroup, that is, iff <a, b>
    is cyclic: a finite abelian group is cyclic iff its order equals its
    exponent, and the exponent of <a, b> is lcm(ord a, ord b)."""
    return len(group.subgroup([a, b])) == math.lcm(group.element_order(a), group.element_order(b))


def regular_rep(
    group: FinAbGroup, degrees: Iterable[GroupElem] | None = None
) -> dict[GroupElem, Mat]:
    """Faithful permutation representation by translation on the group itself.

    pi(g) maps e_h to e_{g+h}, elements in sorted order; only the given
    degrees are built (all of the group by default).
    """
    elems = sorted(group.elements())
    index = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    out = {}
    for g in elems if degrees is None else degrees:
        grid = [[0] * n for _ in range(n)]
        for h in elems:
            grid[index[group.add(g, h)]][index[h]] = 1
        out[g] = Mat.from_int_rows(grid)
    return out
