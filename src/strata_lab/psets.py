"""The combinatorial S_n-sets indexing the level-1 and level-2 graded pieces.

Level 1 is labelled by subsets A of {1..n} with k+3 <= |A| <= n and
|A| = k+3 (mod 2).  Level 2 is labelled by unordered pairs of disjoint
subsets carrying positive weights a1 + a2 = k with |P_i| >= a_i + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .characters import Character, act_set
from .trees import DomainError


@dataclass(frozen=True, order=True)
class PairLabel:
    """Unordered weighted pair {(P1, a1), (P2, a2)}, kept with min(P1) < min(P2)."""

    p1: tuple[int, ...]
    a1: int
    p2: tuple[int, ...]
    a2: int

    def __post_init__(self):
        for p, a in ((self.p1, self.a1), (self.p2, self.a2)):
            if a < 1:
                raise ValueError(f"weights must be positive, got {a}")
            if len(p) < a + 2:
                raise ValueError(f"side {p} too small for weight {a}")
            if list(p) != sorted(set(p)) or p[0] < 1:
                raise ValueError(f"side {p} is not a sorted set of marks")
        if set(self.p1) & set(self.p2):
            raise ValueError("sides must be disjoint")
        if self.p1[0] > self.p2[0]:
            raise ValueError("sides must be ordered by least mark")

    @property
    def k(self) -> int:
        return self.a1 + self.a2

    @staticmethod
    def from_parts(p1, a1, p2, a2) -> "PairLabel":
        p1, p2 = tuple(sorted(p1)), tuple(sorted(p2))
        if p2 and (not p1 or p2[0] < p1[0]):
            p1, a1, p2, a2 = p2, a2, p1, a1
        return PairLabel(p1, a1, p2, a2)

    def act(self, g: tuple[int, ...]) -> "PairLabel":
        return PairLabel.from_parts(
            act_set(g, self.p1), self.a1, act_set(g, self.p2), self.a2
        )

    def to_obj(self) -> dict:
        return {"P1": list(self.p1), "a1": self.a1, "P2": list(self.p2), "a2": self.a2}

    @staticmethod
    def from_obj(obj: dict) -> "PairLabel":
        return PairLabel.from_parts(obj["P1"], obj["a1"], obj["P2"], obj["a2"])


def enumerate_p1(n: int, k: int) -> list[frozenset]:
    """All subsets A with k+3 <= |A| <= n and |A| = k+3 (mod 2)."""
    if n < 3 or k < 0:
        raise DomainError(f"bad (n, k) = ({n}, {k})")
    marks = range(1, n + 1)
    out = []
    for size in range(k + 3, n + 1, 2):
        out.extend(frozenset(c) for c in combinations(marks, size))
    return out


def cardinality_p1(n: int, k: int) -> int:
    if n < 3 or k < 0:
        raise DomainError(f"bad (n, k) = ({n}, {k})")
    return sum(comb(n, j) for j in range(k + 3, n + 1, 2))


def enumerate_p2(n: int, k: int) -> list[PairLabel]:
    """All normalized weighted pairs for the given k >= 2."""
    if n < 3 or k < 2:
        raise DomainError(f"level-2 labels need k >= 2, got (n, k) = ({n}, {k})")
    marks = list(range(1, n + 1))
    out = []
    for s1 in range(3, n - 2):
        for p1 in combinations(marks, s1):
            rest = [m for m in marks if m not in p1 and m > p1[0]]
            for s2 in range(3, n - s1 + 1):
                for p2 in combinations(rest, s2):
                    for a1 in range(max(1, k - (s2 - 2)), min(k - 1, s1 - 2) + 1):
                        out.append(PairLabel(p1, a1, p2, k - a1))
    return out


def cardinality_p2(n: int, k: int) -> int:
    """Closed-form count: ordered binomial double sum, halved."""
    if n < 3 or k < 2:
        raise DomainError(f"level-2 labels need k >= 2, got (n, k) = ({n}, {k})")
    total = 0
    for a1 in range(1, k):
        a2 = k - a1
        for s1 in range(a1 + 2, n + 1):
            for s2 in range(a2 + 2, n - s1 + 1):
                total += comb(n, s1) * comb(n - s1, s2)
    if total % 2:
        raise ArithmeticError(f"ordered level-2 label count {total} is odd")
    return total // 2


def inner_level(pair: PairLabel, n: int) -> int:
    """Number of marks outside both sides; the inner filtration level."""
    if max(pair.p1[-1], pair.p2[-1]) > n:
        raise DomainError(f"pair {pair} does not fit n={n}")
    return n - len(pair.p1) - len(pair.p2)


def character_pset(n: int, k: int, which: str) -> Character:
    """Fixed-point character of the label set "p1" or "p2"."""
    if which == "p1":
        return Character.from_fixed_points(n, enumerate_p1(n, k), act_set)
    if which == "p2":
        return Character.from_fixed_points(
            n, enumerate_p2(n, k), lambda g, pair: pair.act(g)
        )
    raise DomainError(f"unknown label set {which!r}")
