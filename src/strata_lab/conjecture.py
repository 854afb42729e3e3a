"""Closed-form candidate dimensions for the graded pieces.

The candidate for the level-r piece is a 1/r!-weighted sum of
multinomials over weight compositions and admissible size vectors; it is
exact big-integer arithmetic throughout and is cross-validated against
the rank-computed dimensions elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .trees import DomainError


class FormulaError(ArithmeticError):
    """The candidate formula produced a non-integral dimension."""


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _size_vectors(minima: tuple[int, ...], budget: int):
    """Ordered tuples p with p_i >= minima[i] and sum(p) <= budget."""
    if not minima:
        yield ()
        return
    head, tail = minima[0], minima[1:]
    rest_min = sum(tail)
    for p in range(head, budget - rest_min + 1):
        for rest in _size_vectors(tail, budget - p):
            yield (p,) + rest


def q_dim_formula(n: int, k: int, r: int) -> int:
    """Candidate dimension of the level-r graded piece of H_{2k}.

    Sum over weight compositions (a_1..a_r) of k and sizes p_i >= a_i + 2
    with p_1 + .. + p_r + b = n + r - 2, of multinomial(n+r-2; p, b) / r!.
    The accumulated rational must be an integer; FormulaError otherwise.
    """
    if not 1 <= r <= min(k, n - 2 - k):
        raise DomainError(f"no graded piece for (n, k, r) = ({n}, {k}, {r})")
    budget = n + r - 2
    rfact = factorial(r)
    total = Fraction(0)
    for alphas in _compositions(k, r):
        minima = tuple(a + 2 for a in alphas)
        for ps in _size_vectors(minima, budget):
            b = budget - sum(ps)
            multi = factorial(budget)
            for x in ps:
                multi //= factorial(x)
            multi //= factorial(b)
            total += Fraction(multi, rfact)
    if total.denominator != 1:
        raise FormulaError(f"non-integral value {total} at ({n},{k},{r})")
    return int(total)


def betti_formula(n: int, k: int) -> int:
    """Candidate Betti number: the level sums of q_dim_formula (1 for k=0)."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    if k == 0:
        return 1
    return sum(q_dim_formula(n, k, r) for r in range(1, min(k, n - 2 - k) + 1))
