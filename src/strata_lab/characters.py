"""Cycle types, representative permutations, and integer class functions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial
from typing import Callable, Iterable

from .trees import DomainError, _json_fields


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, reverse-lex sorted."""

    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def _runs(parts: Iterable[int]) -> list[tuple[int, int]]:
    """Each run of equal consecutive parts as (part, length), in order."""
    return [(part, len(list(run))) for part, run in groupby(parts)]


def cycle_type_key(parts: Iterable[int]) -> str:
    """Compact cycle-type label, e.g. (2,1,1,1,1) -> "2,1^4"."""
    return ",".join(f"{part}^{m}" if m > 1 else f"{part}" for part, m in _runs(parts))


def parse_cycle_type_key(key: str) -> tuple[int, ...]:
    parts: list[int] = []
    for item in key.split(","):
        if "^" in item:
            val, count = item.split("^")
            parts.extend([int(val)] * int(count))
        else:
            parts.append(int(item))
    return tuple(parts)


def conjugacy_class_size(parts: tuple[int, ...]) -> int:
    """Number of permutations with the given cycle type."""
    centralizer = 1
    for part, m in _runs(parts):
        centralizer *= part ** m * factorial(m)
    return factorial(sum(parts)) // centralizer


def representative(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation with the given cycle type, cycling consecutive blocks.

    Cycle type (2,1,...,1) yields the transposition swapping 1 and 2.
    """
    n = sum(parts)
    img = list(range(1, n + 1))
    pos = 0
    for length in parts:
        for i in range(length):
            img[pos + i] = pos + 1 + (i + 1) % length
        pos += length
    return tuple(img)


def cycle_type(g: tuple[int, ...]) -> tuple[int, ...]:
    n = len(g)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = g[i] - 1
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """g after h: (compose(g, h))(i) = g(h(i))."""
    return tuple(g[h[i] - 1] for i in range(len(g)))


def act_set(g: tuple[int, ...], s: Iterable[int]) -> frozenset:
    return frozenset(g[m - 1] for m in s)


@dataclass
class Character:
    """Integer class function on S_n, indexed by cycle type."""

    n: int
    values: dict[tuple[int, ...], int] = field(default_factory=dict)

    def dim(self) -> int:
        return self.values[(1,) * self.n]

    def average(self) -> Fraction:
        """Group average of the values: the multiplicity of the trivial
        character, hence the orbit count for a permutation character."""
        total = sum(
            conjugacy_class_size(t) * v for t, v in self.values.items()
        )
        return Fraction(total, factorial(self.n))

    def __add__(self, other: "Character") -> "Character":
        if self.n != other.n or set(self.values) != set(other.values):
            raise ValueError("characters live on different groups")
        return Character(
            self.n, {t: v + other.values[t] for t, v in self.values.items()}
        )

    def to_obj(self, **labels) -> dict:
        obj = {"n": self.n, **labels}
        obj["values"] = {
            cycle_type_key(t): self.values[t] for t in partitions_of(self.n)
        }
        return obj

    def to_json(self, **labels) -> str:
        return json.dumps(self.to_obj(**labels), separators=(",", ":"))

    @staticmethod
    def from_obj(obj: dict) -> "Character":
        n, values = _json_fields(obj, "character", "n", "values")
        if type(values) is not dict or type(n) is int and set(values) != set(
                map(cycle_type_key, partitions_of(n))):  # an n that is no int is named below
            raise DomainError(f"character values must be keyed by the cycle types of S_{n}")
        for key, v in [("n", n), *values.items()]:
            if type(v) is not int:  # refused, not truncated: 2.9 is no 2
                raise ValueError(f"{key}: {v!r} is not an int")
        return Character(n, {parse_cycle_type_key(key): v for key, v in values.items()})

    @staticmethod
    def from_fixed_points(n: int, objects: Iterable, act: Callable) -> "Character":
        """Permutation character: value at g = number of objects with act(g, x) = x."""
        objs = list(objects)
        values = {}
        for parts in partitions_of(n):
            g = representative(parts)
            values[parts] = sum(1 for x in objs if act(g, x) == x)
        return Character(n, values)
