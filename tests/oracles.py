"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the library's modular elimination and
enumeration strategies: ranks are fraction Gaussian elimination, strata
come from brute-force search over compatible split families,
characters are fixed-point counts, and Betti numbers come from Keel's
recursion, which is a theorem.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb


def rank_fraction(rows: list[dict[int, int]], n_cols: int) -> int:
    """Dense Gaussian elimination over Q."""
    mat = [[Fraction(r.get(c, 0)) for c in range(n_cols)] for r in rows]
    rank = 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def in_row_space(rows: list[dict[int, int]], vec: dict[int, int], n_cols: int) -> bool:
    base = rank_fraction(rows, n_cols)
    return rank_fraction(rows + [vec], n_cols) == base


def brute_force_strata(n: int, n_edges: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every compatible family of `n_edges` splits, by direct search, sorted.

    Candidate splits are all subsets of {2..n} of size 2..n-2, as sorted
    tuples; compatible means any two are nested or disjoint.  Each family
    is a sorted tuple of splits.  Exponential; keep n small.
    """
    marks = range(2, n + 1)
    candidates = [c for size in range(2, n - 1) for c in combinations(marks, size)]

    def compatible(a, b):
        a, b = set(a), set(b)
        return a <= b or b <= a or not (a & b)

    out = []
    stack = [((), 0)]
    while stack:
        chosen, start = stack.pop()
        if len(chosen) == n_edges:
            out.append(tuple(sorted(chosen)))
            continue
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all(compatible(c, x) for x in chosen):
                stack.append((chosen + (c,), i + 1))
    return sorted(out)


@lru_cache(maxsize=None)
def keel_betti(n: int) -> tuple[int, ...]:
    """dim H_{2k} of the n-marked space for k = 0..n-3, from Keel's
    recursion for the Poincare polynomial (Keel 1992):

        P_3 = 1,  P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}.
    """
    if n == 3:
        return (1,)
    m = n - 1
    prev = keel_betti(m)
    out = [Fraction(0)] * (n - 2)
    for i, c in enumerate(prev):
        out[i] += c
        out[i + 1] += c
    for j in range(2, m - 1):
        for x, ca in enumerate(keel_betti(j + 1)):
            for y, cb in enumerate(keel_betti(m - j + 1)):
                out[x + y + 1] += Fraction(comb(m, j) * ca * cb, 2)
    if any(c.denominator != 1 for c in out):
        raise ArithmeticError(f"Keel's recursion gave a non-integer at n={n}")
    return tuple(int(c) for c in out)
