"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The n=8 computations
(criteria 1, 3, 9, 10) are marked slow; they share cached eliminations,
so the whole file stays well inside the time budget.
"""

import math
import random
import time

import pytest

from strata_lab.conjecture import betti_formula, q_dim_formula
from strata_lab.exact_linalg import ModEchelon, prime_stream
from strata_lab.homology import (
    _relation_rows,
    betti,
    character_graded,
    character_homology,
    class_equal,
    graded_class_equal,
    graded_dims,
    inner_graded_dims,
)
from strata_lab.psets import (
    cardinality_p1,
    cardinality_p2,
    character_pset,
    enumerate_p2,
    inner_level,
)
from strata_lab.trees import enumerate_strata, filtration_level
from strata_lab.wtilde import (
    apply_move,
    rewrite_to_standard,
    standard_tree,
    verify_forgetful_square,
    verify_relations_killed,
    w_map,
)

BETTI_TABLES = {
    4: [1, 1],
    5: [1, 5, 1],
    6: [1, 16, 16, 1],
    7: [1, 42, 127, 42, 1],
    8: [1, 99, 715, 715, 99, 1],
}


def _report(num: int, text: str):
    print(f"\n[criterion {num:2d}] PASS — {text}")


def test_c01_betti_tables_small():
    t0 = time.time()
    for n in range(4, 8):
        assert [betti(n, k) for k in range(n - 2)] == BETTI_TABLES[n]
    elapsed = time.time() - t0
    assert elapsed <= 60, f"n <= 7 Betti tables took {elapsed:.1f}s"
    _report(1, f"Betti tables n=4..7 exact ({elapsed:.1f}s)")


@pytest.mark.slow
def test_c01_betti_table_n8():
    t0 = time.time()
    assert [betti(8, k) for k in range(6)] == BETTI_TABLES[8]
    elapsed = time.time() - t0
    assert elapsed <= 30 * 60
    _report(1, f"Betti table n=8 exact: {BETTI_TABLES[8]} ({elapsed:.1f}s)")


def test_c02_level1_characters():
    for n in (5, 6, 7):
        for k in range(1, n - 2):
            assert character_graded(n, k, 1) == character_pset(n, k, "p1"), (n, k)
    _report(2, "char(level-1 piece) = subset-label character, n=5..7, all k")


def test_c03_level2_characters():
    for n in (6, 7):
        for k in range(2, n - 3):
            assert character_graded(n, k, 2) == character_pset(n, k, "p2"), (n, k)
    _report(3, "char(level-2 piece) = pair-label character, n=6,7, all k")


@pytest.mark.slow
def test_c03_level2_character_n8_extended():
    assert character_graded(8, 2, 2) == character_pset(8, 2, "p2")
    _report(3, "char(level-2 piece) = pair-label character at (8,2), extended")


def test_c04_h4_permutation_character():
    for n in (5, 6, 7):
        hom = character_homology(n, 2)
        want = character_pset(n, 2, "p1") + character_pset(n, 2, "p2")
        assert hom == want, n
    _report(4, "char(H_4) = subset + pair fixed-point characters, n=5..7")


def test_c05_inner_graded_dims():
    for n in (6, 7):
        for k in range(2, n - 3):
            dims = inner_graded_dims(n, k)
            pairs = enumerate_p2(n, k)
            want = [
                sum(1 for p in pairs if inner_level(p, n) == b)
                for b in range(n - k - 4 + 1)
            ]
            assert dims == want, (n, k)
    assert inner_graded_dims(7, 2) == [35, 70]
    _report(5, "inner graded dims = pair counts per level, n<=7 (e.g. (7,2)=[35,70])")


def test_c06_wtilde_kills_relations():
    t0 = time.time()
    for n, k in [(6, 2), (7, 2), (7, 3)]:
        rep = verify_relations_killed(n, k)
        assert rep.passed and rep.max_residual == 0, (n, k, rep.failures[:1])
    elapsed = time.time() - t0
    assert elapsed <= 300
    _report(6, f"wtilde kills every relation exactly, (6,2)/(7,2)/(7,3) ({elapsed:.1f}s)")


def test_c07_rewriting():
    # exhaustive for n <= 6; at n = 7 the 1000-tree seeded sample covers
    # every level-2 tree (there are only 315).  Each rearrange must
    # preserve the homology class; each two-term swap preserves the class
    # in its inner graded piece, which is the level the relation holds at.
    checked_moves = 0
    for n in (6, 7):
        pool = []
        for k in range(2, n - 3):
            fibers = {}
            for t in enumerate_strata(n, k):
                if filtration_level(t) != 2:
                    continue
                pool.append(t)
                s0, _ = rewrite_to_standard(t)
                fibers.setdefault(w_map(t), set()).add(s0)
            assert all(len(v) == 1 for v in fibers.values()), (n, k)
            assert {standard_tree(n, p) for p in fibers} == {
                next(iter(v)) for v in fibers.values()
            }
        sample = pool
        if n == 7 and len(pool) > 1000:
            sample = random.Random(0).sample(pool, 1000)
        for t in sample:
            cur = t
            for mv in rewrite_to_standard(t)[1]:
                nxt = apply_move(cur, mv)
                if mv.kind == "rearrange":
                    assert class_equal(cur, nxt)
                else:
                    assert graded_class_equal(cur, nxt)
                checked_moves += 1
                cur = nxt
    _report(7, f"rewriting well-defined; {checked_moves} moves class-checked "
               "(rearranges in homology, swaps in their graded piece)")


def test_c08_forgetful_square():
    total = 0
    for n in range(4, 7):
        for k in range(2, n - 3):
            for b in range(0, n - k - 4 + 1):
                rep = verify_forgetful_square(n, k, b)
                assert rep.passed, (n, k, b, rep.mismatches[:1])
                total += rep.checked
    assert total > 0
    _report(8, f"forgetful square commutes on all {total} admissible trees, n<=6")


def test_c09_conjecture_small():
    for n in range(4, 8):
        for k in range(0, n - 2):
            assert betti_formula(n, k) == betti(n, k), (n, k)
            if k >= 1:
                dims = graded_dims(n, k)
                for r, d in enumerate(dims, start=1):
                    assert q_dim_formula(n, k, r) == d, (n, k, r)
    for n in range(4, 13):
        vals = [betti_formula(n, k) for k in range(n - 2)]
        assert vals == vals[::-1], n
        for k in range(1, n - 2):
            if min(k, n - 2 - k) >= 1:
                assert q_dim_formula(n, k, 1) == cardinality_p1(n, k)
            if k >= 2 and min(k, n - 2 - k) >= 2:
                assert q_dim_formula(n, k, 2) == cardinality_p2(n, k)
    _report(9, "formula = computed dims for n<=7; label counts and palindromy to n=12")


@pytest.mark.slow
def test_c09_conjecture_n8_extended():
    for k in range(0, 6):
        assert betti_formula(8, k) == betti(8, k)
        if k >= 1:
            dims = graded_dims(8, k)
            for r, d in enumerate(dims, start=1):
                assert q_dim_formula(8, k, r) == d, (k, r)
    _report(9, "formula = computed graded dims at n=8, all k and r (extended)")


def test_c10_infrastructure_small():
    # explicit two-prime rank agreement on every small matrix in the suite
    ps = [p for _, p in zip(range(2), prime_stream(2024))]
    for n in range(4, 8):
        for k in range(0, n - 3):
            ranks = []
            for p in ps:
                ech = ModEchelon(p)
                ech.add_rows(_relation_rows(n, k))
                ranks.append(ech.rank)
            assert ranks[0] == ranks[1], (n, k)
    for n, total in [(4, 2), (5, 7), (6, 34), (7, 213)]:
        assert sum(betti(n, k) for k in range(n - 2)) == total
    for n in range(4, 9):
        assert len(enumerate_strata(n, 0)) == math.prod(range(2 * n - 5, 0, -2))
    _report(10, "two-prime agreement, Euler totals 2/7/34/213, trivalent counts n<=8")


@pytest.mark.slow
def test_c10_infrastructure_n8():
    assert sum(betti(8, k) for k in range(6)) == 1630
    _report(10, "Euler total 1630 at n=8")
