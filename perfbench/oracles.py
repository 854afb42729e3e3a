"""Oracles the benchmark checks strata-lab's outputs against.

Each one is a theorem or a count, computed here without strata-lab's
elimination and without its conjecture formula, so a wrong rank or a
wrong enumeration cannot also corrupt the expected value.  Checks return
a list of problem strings rather than asserting, so they still run under
``python -O``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def keel_poincare(n: int) -> tuple[int, ...]:
    """Betti row of the n-marked genus-0 moduli space, by Keel's recursion.

    Keel (Trans. AMS 330, 1992): with q of degree 2, P_3 = 1 and
    P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m, j) P_{j+1} P_{m-j+1}.
    Entry k is dim H_{2k}.
    """
    if n < 3:
        raise ValueError(f"no moduli space for n={n}")
    if n == 3:
        return (1,)
    m = n - 1
    prev = keel_poincare(m)
    acc = [0] * (n - 2)
    for i, c in enumerate(prev):
        acc[i] += c
        acc[i + 1] += c
    twice = [0] * (n - 2)
    for j in range(2, m - 1):
        a, b = keel_poincare(j + 1), keel_poincare(m - j + 1)
        for x, ca in enumerate(a):
            for y, cb in enumerate(b):
                twice[x + y + 1] += comb(m, j) * ca * cb
    for i, c in enumerate(twice):
        if c % 2:
            raise ArithmeticError(f"Keel's recursion gave an odd sum at n={n}")
        acc[i] += c // 2
    return tuple(acc)


def keel_betti(n: int, k: int) -> int:
    return keel_poincare(n)[k]


def trivalent_count(n: int) -> int:
    """(2n-5)!!: the number of trivalent stable trees with n marks."""
    out = 1
    for f in range(2 * n - 5, 0, -2):
        out *= f
    return out


def check_enumerate(stdout: bytes, n: int) -> list[str]:
    """`enumerate --n n --k 0` prints every trivalent tree once."""
    lines = stdout.decode().splitlines()
    problems = []
    if len(lines) != trivalent_count(n):
        problems.append(f"enumerate printed {len(lines)} trees, want {trivalent_count(n)}")
    if len(set(lines)) != len(lines):
        problems.append("enumerate printed a tree twice")
    for line in lines:
        obj = json.loads(line)
        if obj.get("n") != n or len(obj.get("splits", ())) != n - 3:
            problems.append(f"enumerate printed a non-trivalent tree: {line}")
            break
    return problems


def check_betti_table(stdout: bytes, n: int, ks: list[int]) -> list[str]:
    """`betti` table output: header, then one `n k betti` row per k."""
    lines = stdout.decode().splitlines()
    want = [["n", "k", "betti"]] + [[str(n), str(k), str(keel_betti(n, k))] for k in ks]
    have = [line.split() for line in lines]
    if have != want:
        return [f"betti table {have} differs from Keel's {want}"]
    return []
