import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import in_row_space, rank_fraction

import strata_lab
from strata_lab.exact_linalg import RankCertificationError
from strata_lab.characters import partitions_of, representative
from strata_lab.homology import (
    betti,
    character_graded,
    character_homology,
    class_equal,
    graded_class_equal,
    graded_dims,
    inner_graded_dims,
    relation_matrix,
)
from strata_lab.psets import cardinality_p1, cardinality_p2
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    apply_permutation,
    enumerate_strata,
    filtration_level,
)

BETTI_TABLES = {
    4: [1, 1],
    5: [1, 5, 1],
    6: [1, 16, 16, 1],
    7: [1, 42, 127, 42, 1],
}


def test_betti_tables_small():
    for n, want in BETTI_TABLES.items():
        assert [betti(n, k) for k in range(n - 2)] == want


def test_betti_examples():
    assert betti(4, 0) == 1 and betti(4, 1) == 1
    assert betti(3, 0) == 1


def test_betti_matches_fraction_oracle():
    for n, k in [(4, 0), (5, 0), (5, 1), (6, 1), (6, 2)]:
        M = relation_matrix(n, k)
        assert betti(n, k) == M.n_cols - rank_fraction(M.rows, M.n_cols)


def test_betti_poincare_palindrome():
    for n in range(4, 8):
        vals = [betti(n, k) for k in range(n - 2)]
        assert vals == vals[::-1]


def test_betti_euler_totals():
    for n, total in [(4, 2), (5, 7), (6, 34), (7, 213)]:
        assert sum(betti(n, k) for k in range(n - 2)) == total


def test_betti_domain_error():
    with pytest.raises(DomainError):
        betti(5, 3)


def test_graded_dims_examples():
    assert graded_dims(6, 2) == [6, 10]
    assert graded_dims(7, 2) == [22, 105]
    assert graded_dims(7, 3) == [7, 35]
    assert graded_dims(5, 1) == [5]
    assert graded_dims(6, 0) == []
    assert graded_dims(6, 3) == [1]


def test_graded_dims_sum_to_betti():
    for n in range(4, 8):
        for k in range(1, n - 2):
            assert sum(graded_dims(n, k)) == betti(n, k)


def test_graded_dims_match_label_counts():
    # level 1 and 2 dims equal the label-set cardinalities
    for n in range(5, 8):
        for k in range(1, n - 2):
            dims = graded_dims(n, k)
            assert dims[0] == cardinality_p1(n, k)
            if len(dims) >= 2:
                assert dims[1] == cardinality_p2(n, k)


def test_inner_graded_dims_examples():
    assert inner_graded_dims(6, 2) == [10]
    assert inner_graded_dims(7, 2) == [35, 70]
    assert inner_graded_dims(7, 3) == [35]


def test_inner_dims_match_pair_counts_by_level():
    from strata_lab.psets import enumerate_p2, inner_level

    for n in range(6, 8):
        for k in range(2, n - 3):
            dims = inner_graded_dims(n, k)
            pairs = enumerate_p2(n, k)
            for b, d in enumerate(dims):
                assert d == sum(1 for p in pairs if inner_level(p, n) == b)
            assert sum(dims) == graded_dims(n, k)[1]


def test_inner_dims_domain_error():
    with pytest.raises(DomainError):
        inner_graded_dims(5, 1)


def test_class_equal_examples():
    t = MarkedTree.from_sides(4, [(3, 4)])
    assert class_equal(t, t)
    t2 = MarkedTree.from_sides(4, [(2, 4)])
    assert class_equal(t, t2, exact=True)


AUDIT_UNDER_O = """
import sys
import strata_lab.homology as h
from strata_lab.exact_linalg import RankCertificationError
from strata_lab.trees import MarkedTree

if not sys.flags.optimize:
    sys.exit("not running under -O")
t = MarkedTree.from_sides(4, [(3, 4)])
t2 = MarkedTree.from_sides(4, [(2, 4)])
h.rank_bareiss = lambda M: M.n_rows  # an exact rank that disagrees
try:
    h.class_equal(t, t2, exact=True)
except RankCertificationError:
    sys.exit(0)
sys.exit("the audit let a disagreement through")
"""


def test_exact_audit_survives_python_O():
    src = str(Path(strata_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-O", "-c", AUDIT_UNDER_O],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sum_checks_raise(monkeypatch):
    import strata_lab.homology as h

    monkeypatch.setattr(h, "betti", lambda n, k, seed=0: -1)
    with pytest.raises(RankCertificationError):
        h.graded_dims(6, 2)
    monkeypatch.setattr(h, "graded_dims", lambda n, k, seed=0: [0, -1])
    with pytest.raises(RankCertificationError):
        h.inner_graded_dims(7, 2)


def test_two_term_swap_pair_is_graded_equal_only():
    # cherry(1,2)-v1(3,4)-v2(5,6,7,8) against cherry(1,3)-v1(2,4)-v2(5,6,7,8):
    # one two-term swap apart.  The swap relation discards terms of higher
    # inner level, so the pair is equal in its inner graded piece but NOT
    # in homology; non-membership certified at two primes is a proof.
    tau = MarkedTree.from_sides(8, [(3, 4, 5, 6, 7, 8), (5, 6, 7, 8)])
    tau2 = MarkedTree.from_sides(8, [(2, 4, 5, 6, 7, 8), (5, 6, 7, 8)])
    assert not class_equal(tau, tau2)
    assert graded_class_equal(tau, tau2)


def test_rearranged_trivalent_subtrees_are_class_equal():
    # same fat-vertex data, hanging trivalent subtree recombed: honest equality
    a = MarkedTree.from_sides(8, [(5, 6), (5, 6, 7), (2, 3, 4)])
    b = MarkedTree.from_sides(8, [(6, 7), (5, 6, 7), (2, 3, 4)])
    assert class_equal(a, b)


def test_class_equal_matches_fraction_membership():
    rng = random.Random(2)
    for n, k in [(5, 1), (6, 1), (6, 2)]:
        trees = enumerate_strata(n, k)
        idx = {t: i for i, t in enumerate(trees)}
        M = relation_matrix(n, k)
        for _ in range(10):
            t1, t2 = rng.sample(list(trees), 2)
            want = in_row_space(M.rows, {idx[t1]: 1, idx[t2]: -1}, M.n_cols)
            assert class_equal(t1, t2, exact=(n <= 6)) == want


def test_class_equal_is_equivalence_on_samples():
    rng = random.Random(4)
    for n, k in [(6, 2), (7, 2)]:
        trees = list(enumerate_strata(n, k))
        for _ in range(15):
            a, b, c = (rng.choice(trees) for _ in range(3))
            if class_equal(a, b) and class_equal(b, c):
                assert class_equal(a, c)


def test_class_equal_domain_error():
    with pytest.raises(DomainError):
        class_equal(MarkedTree.star(5), MarkedTree.star(6))


def test_character_homology_examples():
    ch = character_homology(6, 2)
    assert ch.dim() == 16
    assert ch.values[(2, 1, 1, 1, 1)] == 8
    ch51 = character_homology(5, 1)
    assert ch51.dim() == 5
    assert ch51.values[(2, 1, 1, 1)] == 3
    ch30 = character_homology(3, 0)
    assert all(v == 1 for v in ch30.values.values())


def test_character_homology_k0_trivial():
    for n in (4, 5, 6):
        ch = character_homology(n, 0)
        assert all(v == 1 for v in ch.values.values())


def test_character_graded_examples():
    cg = character_graded(6, 2, 2)
    assert cg.dim() == 10
    assert cg.values[(2, 1, 1, 1, 1)] == 4


def test_character_graded_telescopes():
    for n in (5, 6, 7):
        for k in range(1, n - 2):
            rmax = min(k, n - 2 - k)
            total = character_graded(n, k, 1)
            for r in range(2, rmax + 1):
                total = total + character_graded(n, k, r)
            assert total == character_homology(n, k)


def test_character_graded_domain_error():
    with pytest.raises(DomainError):
        character_graded(6, 2, 3)


def test_character_averages_are_orbit_counts():
    # the group average (trivial-character multiplicity) must be a
    # non-negative integer for every homology character, and for k = 2 it
    # must equal the orbit count of the combined label set
    from strata_lab.psets import character_pset, enumerate_p1, enumerate_p2

    for n in (5, 6, 7):
        for k in range(n - 2):
            avg = character_homology(n, k).average()
            assert avg.denominator == 1 and avg >= 0, (n, k)
        sizes = {len(a) for a in enumerate_p1(n, 2)}
        shapes = {
            frozenset(((len(p.p1), p.a1), (len(p.p2), p.a2)))
            for p in enumerate_p2(n, 2)
        }
        assert character_homology(n, 2).average() == len(sizes) + len(shapes)


def test_character_values_independent_of_seed():
    a = character_homology(6, 2, seed=0)
    b = character_homology(6, 2, seed=99)
    assert a == b


def test_character_matches_fraction_restriction_oracle():
    """Direct invariant-subspace restriction over Q, cross-checked at (6, 2)."""
    n, k, r = 6, 2, 2
    trees = enumerate_strata(n, k)
    idx = {t: i for i, t in enumerate(trees)}
    M = relation_matrix(n, k)
    # fraction RREF of the relation space
    rows = [[Fraction(r_.get(c, 0)) for c in range(M.n_cols)] for r_ in M.rows]
    rank = 0
    pivots = []
    for col in range(M.n_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(M.n_cols) if c not in pivots]
    fpos = {c: i for i, c in enumerate(free)}

    def reduce_unit(tid):
        if tid in fpos:
            vec = [Fraction(0)] * len(free)
            vec[fpos[tid]] = Fraction(1)
            return vec
        row = rows[pivots.index(tid)]
        return [-row[c] for c in free]

    level2 = [i for i, t in enumerate(trees) if filtration_level(t) >= 2]
    images = [reduce_unit(i) for i in level2]
    # subset basis by fraction elimination, with coordinates tracked
    basis: list[tuple[int, list[Fraction]]] = []
    echelon: list[tuple[int, list[Fraction], list[Fraction]]] = []

    def reduce_against(vec):
        coords = [Fraction(0)] * len(level2)
        v = list(vec)
        for lead, evec, ecoords in echelon:
            if v[lead]:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, evec)]
                coords = [a - f * b for a, b in zip(coords, ecoords)]
        return v, coords

    for j, vec in enumerate(images):
        v, coords = reduce_against(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        basis.append((j, vec))
        unit = [Fraction(0)] * len(level2)
        unit[j] = Fraction(1)
        # invariant: echelon vector = sum of ecoords[i] * images[i]
        newc = [(u + c) / v[lead] for u, c in zip(unit, coords)]
        echelon.append((lead, [x / v[lead] for x in v], newc))

    want = {}
    for parts in partitions_of(n):
        g = representative(parts)
        tr = Fraction(0)
        for pos, (j, _) in enumerate(basis):
            gt = apply_permutation(trees[level2[j]], g)
            v, coords = reduce_against(reduce_unit(idx[gt]))
            assert all(x == 0 for x in v)
            full_coords = [-c for c in coords]
            # coefficient on basis vector `pos`
            tr += full_coords[basis[pos][0]]
        assert tr.denominator == 1
        want[parts] = int(tr)
    assert character_graded(n, k, r).values == want
