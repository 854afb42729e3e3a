import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from oracles import in_row_space, keel_betti, rank_fraction, rref_fraction

import strata_lab
import strata_lab.exact_linalg as el
from strata_lab.exact_linalg import (
    ModEchelon,
    RankCertificationError,
    SparseIntMatrix,
    prime_stream,
    rank_mod_p,
)
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
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
)
from strata_lab.wtilde import apply_move, rewrite_to_standard

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


def test_betti_matches_keel_recursion():
    for n in range(3, 8):
        assert tuple(betti(n, k) for k in range(n - 2)) == keel_betti(n)


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


def _level_set(trees, r):
    return [i for i, t in enumerate(trees) if filtration_level(t) >= r]


def _inner_set(trees, b):
    return [
        i for i, t in enumerate(trees)
        if filtration_level(t) >= 3
        or (filtration_level(t) == 2 and len(decompose_two_vertex(t)[4]) >= b)
    ]


def _stacked_span_dim(M, ids, p):
    """rank(M stacked with the unit rows of ids) - rank(M), at the prime p."""
    stacked = SparseIntMatrix.from_rows(M.n_cols, M.rows + [{i: 1} for i in ids])
    return rank_mod_p(stacked, p) - rank_mod_p(M, p)


def test_graded_dims_match_stacked_rank_oracle():
    p = next(iter(prime_stream(0)))
    for n in range(4, 8):
        for k in range(1, n - 2):
            trees = enumerate_strata(n, k)
            M = relation_matrix(n, k)
            rmax = min(k, n - 2 - k)
            span = [_stacked_span_dim(M, _level_set(trees, r), p) for r in range(1, rmax + 2)]
            assert graded_dims(n, k) == [span[r] - span[r + 1] for r in range(rmax)], (n, k)
            if 2 <= k <= n - 4:
                bmax = n - k - 4
                span = [_stacked_span_dim(M, _inner_set(trees, b), p) for b in range(bmax + 2)]
                want = [span[b] - span[b + 1] for b in range(bmax + 1)]
                assert inner_graded_dims(n, k) == want, (n, k)


def test_graded_class_equal_matches_stacked_membership():
    p = next(iter(prime_stream(0)))
    rng = random.Random(3)
    verdicts = Counter()
    for n, k in [(6, 2), (7, 2), (7, 3)]:
        trees = enumerate_strata(n, k)
        idx = {t: i for i, t in enumerate(trees)}
        M = relation_matrix(n, k)
        by_level: dict[int, list[MarkedTree]] = {}
        for t in trees:
            if filtration_level(t) == 2:
                by_level.setdefault(len(decompose_two_vertex(t)[4]), []).append(t)
        pairs = []
        for _ in range(15):
            same = by_level[rng.choice(sorted(by_level))]
            if len(same) >= 2:
                pairs.append(tuple(rng.sample(same, 2)))
        # the two-term swaps of the rewriting engine are graded equalities
        level2 = [t for same in by_level.values() for t in same]
        for t in rng.sample(level2, min(12, len(level2))):
            cur = t
            for mv in rewrite_to_standard(t)[1]:
                nxt = apply_move(cur, mv)
                if mv.kind == "km_swap":
                    pairs.append((cur, nxt))
                cur = nxt
        stacked = {}
        for a, b in pairs:
            level = len(decompose_two_vertex(a)[4])
            if level not in stacked:
                ech = ModEchelon(p)
                units = [{i: 1} for i in _inner_set(trees, level + 1)]
                ech.add_rows(M.rows + units)
                stacked[level] = ech
            want = not stacked[level].reduce({idx[a]: 1, idx[b]: -1})
            assert graded_class_equal(a, b) == want, (a, b)
            verdicts[want] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_graded_class_equal_refuses_other_levels_and_mixed_inner_levels():
    trees = enumerate_strata(7, 2)
    level1 = next(t for t in trees if filtration_level(t) == 1)
    by_inner = {}
    for t in trees:
        if filtration_level(t) == 2:
            by_inner.setdefault(len(decompose_two_vertex(t)[4]), t)
    for a, b in [(by_inner[0], level1), (level1, by_inner[1])]:
        with pytest.raises(DomainError, match="expected filtration level 2, got level 1"):
            graded_class_equal(a, b)
    with pytest.raises(DomainError, match="inner levels differ: 0 vs 1"):
        graded_class_equal(by_inner[0], by_inner[1])


def test_graded_work_feeds_relation_rows_once_per_prime(monkeypatch):
    """The graded quantities reuse the one relation echelon per prime."""
    import strata_lab.homology as h

    n, k, seed = 7, 2, 4242
    relation = Counter(frozenset(r.items()) for r in h._relation_rows(n, k))
    # every relation row has a negative entry, so no reduced row mod p
    # (entries in 1..p-1) and no unit row can be mistaken for one
    assert all(min(v for _, v in r) < 0 for r in relation)
    fed, drawn = Counter(), set()
    add_rows, stream = ModEchelon.add_rows, el.prime_stream

    def counting_add_rows(self, rows, presorted=False):
        rows = list(rows)
        fed[self.p] += sum(frozenset(r.items()) in relation for r in rows)
        return add_rows(self, rows, presorted)

    def recording_stream(*args, **kwargs):
        for p in stream(*args, **kwargs):
            drawn.add(p)
            yield p

    monkeypatch.setattr(ModEchelon, "add_rows", counting_add_rows)
    monkeypatch.setattr(el, "prime_stream", recording_stream)
    graded_dims(n, k, seed)
    inner_graded_dims(n, k, seed)
    character_graded(n, k, 2, seed)
    a, *rest = [t for t in enumerate_strata(n, k) if filtration_level(t) == 2]
    level = len(decompose_two_vertex(a)[4])
    graded_class_equal(a, next(t for t in rest if len(decompose_two_vertex(t)[4]) == level),
                       seed)
    assert drawn and set(fed) == drawn
    assert all(fed[p] == sum(relation.values()) for p in drawn), fed


def test_keel_row_matches_the_test_oracle():
    import strata_lab.homology as h

    for n in range(3, 17):
        assert h._keel_row(n) == keel_betti(n)


@pytest.fixture
def fresh_betti(monkeypatch):
    """The homology module with betti and _echelon on caches of their own,
    so patched relation rows leave nothing behind in the shared ones."""
    import strata_lab.homology as h

    for name in ("_echelon", "betti"):
        monkeypatch.setattr(h, name, lru_cache(maxsize=None)(getattr(h, name).__wrapped__))
    return h


def test_one_prime_certificate_masks_no_fault(fresh_betti, monkeypatch):
    h = fresh_betti
    n, k = 6, 2
    b, width = h.betti(n, k), len(h._index(n, k))
    # every relation row lies in the span of the others, so take an
    # independent subfamily with the same span, row by row over Q
    basis = []
    for r in h._relation_rows(n, k):
        if rank_fraction(basis + [dict(r)], width) > len(basis):
            basis.append(dict(r))
    assert len(basis) == width - b == width - h._keel_row(n)[k]
    unit = next({c: 1} for c in range(width) if rank_fraction(basis + [{c: 1}], width) > len(basis))
    # dropping an independent row lowers the rank over Q, so the bound is
    # missed at every prime and the two-prime certificate reports b + 1;
    # an extra unit row outside the row space raises it: b - 1
    for rows, want, primes in [(basis, b, 1), (basis[1:], b + 1, 2), (basis + [unit], b - 1, 2)]:
        h.betti.cache_clear()
        h._echelon.cache_clear()
        monkeypatch.setattr(h, "_relation_rows", lambda n, k, rows=rows: tuple(rows))
        assert h.betti(n, k) == want
        assert h._echelon.cache_info().currsize == primes


def test_betti_eliminates_at_one_prime(fresh_betti, monkeypatch):
    h = fresh_betti
    n, k, seed = 8, 3, 0
    relation = {frozenset(r.items()) for r in h._relation_rows(n, k)}
    fed = Counter()
    add_rows = ModEchelon.add_rows

    def counting_add_rows(self, rows, presorted=False):
        rows = list(rows)
        if any(frozenset(r.items()) in relation for r in rows):
            fed[self.p] += 1
        return add_rows(self, rows, presorted)

    monkeypatch.setattr(ModEchelon, "add_rows", counting_add_rows)
    assert h.betti(n, k, seed) == keel_betti(n)[k]
    assert list(fed.values()) == [1]
    assert list(fed) == [next(prime_stream(seed))]


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


REWRITE_UNDER_O = """
import importlib
import sys
from strata_lab.trees import MarkedTree, enumerate_strata, filtration_level

if not sys.flags.optimize:
    sys.exit("not running under -O")
w = importlib.import_module("strata_lab.wtilde")  # the package exports a function wtilde
t = next(t for t in enumerate_strata(6, 2) if filtration_level(t) == 2)
w.standard_tree = lambda n, pair: MarkedTree.star(n)  # a form no rewrite reaches
try:
    w.rewrite_to_standard(t)
except w.RewriteError:
    sys.exit(0)
sys.exit("the rewrite end check let a wrong form through")
"""

FORMULA_UNDER_O = """
import sys
import strata_lab.conjecture as c

if not sys.flags.optimize:
    sys.exit("not running under -O")
c._size_vectors = lambda minima, budget: [(4, 2)]  # one term, 15/2
try:
    c.q_dim_formula(6, 2, 2)
except c.FormulaError:
    sys.exit(0)
sys.exit("the integrality check let 15/2 through")
"""


KEYED_ECHELON_UNDER_O = """
import sys
from strata_lab.exact_linalg import ModEchelon, quotient_basis

if not sys.flags.optimize:
    sys.exit("not running under -O")
ech = ModEchelon(101, key=lambda c: -c)
ech.add_rows([{0: 1, 1: 1}])  # pivot at column 1, not the natural column 0
try:
    quotient_basis(ech, 2)
except ValueError:
    sys.exit(0)
sys.exit("the column-order check let a keyed echelon through")
"""


def _succeeds_under_O(script):
    src = str(Path(strata_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exact_audit_survives_python_O():
    _succeeds_under_O(AUDIT_UNDER_O)


@pytest.mark.parametrize("script", [REWRITE_UNDER_O, FORMULA_UNDER_O, KEYED_ECHELON_UNDER_O],
                         ids=["rewrite-end", "integrality", "keyed-echelon"])
def test_named_checks_survive_python_O(script):
    _succeeds_under_O(script)


def test_exact_audit_refuses_large_n_before_any_work(monkeypatch):
    import strata_lab.homology as h

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size guard")

    monkeypatch.setattr(h, "certified_value", no_work)
    monkeypatch.setattr(h, "relation_matrix", no_work)
    monkeypatch.setattr(h, "rank_bareiss", no_work)
    a = MarkedTree.from_sides(7, [(2, 3, 4, 5), (4, 5)])
    b = MarkedTree.from_sides(7, [(2, 3, 4, 5), (2, 3)])
    with pytest.raises(DomainError):
        class_equal(a, b, exact=True)
    with pytest.raises(DomainError):
        class_equal(a, a, exact=True)


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
        rref = rref_fraction(M.rows, M.n_cols)
        for _ in range(10):
            t1, t2 = rng.sample(list(trees), 2)
            want = in_row_space(rref, {idx[t1]: 1, idx[t2]: -1}, M.n_cols)
            assert class_equal(t1, t2, exact=(n <= 6)) == want


def test_exact_audit_computes_the_base_rank_once(monkeypatch):
    import strata_lab.homology as h

    n, k = 6, 2
    base = len(h._relation_rows(n, k))
    sizes = []
    rank = h.rank_bareiss

    def counting_rank(M):
        sizes.append(M.n_rows)
        return rank(M)

    monkeypatch.setattr(h, "rank_bareiss", counting_rank)
    h._exact_rank.cache_clear()
    trees = enumerate_strata(n, k)
    try:
        for t1, t2 in [(trees[0], trees[1]), (trees[2], trees[5])]:
            class_equal(t1, t2, exact=True)
    finally:
        h._exact_rank.cache_clear()
    assert sorted(sizes) == [base, base + 1, base + 1]


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


def test_character_relabels_each_stratum_once_per_permutation(monkeypatch):
    """Every prime and presentation reads a stratum's image under g from
    one cache, so the characters relabel each (stratum, g) once."""
    import strata_lab.homology as h

    calls = Counter()
    apply = h.apply_permutation

    def counting_apply(t, g):
        calls[t, tuple(g)] += 1
        return apply(t, g)

    monkeypatch.setattr(h, "apply_permutation", counting_apply)
    monkeypatch.setattr(h, "_image_id", lru_cache(maxsize=None)(h._image_id.__wrapped__))
    character_homology(7, 2)
    assert calls and set(calls.values()) == {1}
    assert len(calls) == h._image_id.cache_info().currsize


def test_character_values_independent_of_seed():
    a = character_homology(6, 2, seed=0)
    b = character_homology(6, 2, seed=99)
    assert a == b


@lru_cache(maxsize=None)
def _fraction_rref(n, k):
    """Pivot rows of the RREF of the relation matrix over Q, by pivot column."""
    M = relation_matrix(n, k)
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
    return dict(zip(pivots, rows))


def _fraction_level_traces(n, k, r):
    """Traces over Q of every cycle type on the span of the level >= r
    classes, by direct invariant-subspace restriction."""
    trees = enumerate_strata(n, k)
    idx = {t: i for i, t in enumerate(trees)}
    pivot_rows = _fraction_rref(n, k)
    free = [c for c in range(len(trees)) if c not in pivot_rows]
    fpos = {c: i for i, c in enumerate(free)}

    def reduce_unit(tid):
        if tid in fpos:
            vec = [Fraction(0)] * len(free)
            vec[fpos[tid]] = Fraction(1)
            return vec
        row = pivot_rows[tid]
        return [-row[c] for c in free]

    level = [i for i, t in enumerate(trees) if filtration_level(t) >= r]
    images = [reduce_unit(i) for i in level]
    # subset basis by fraction elimination, with coordinates tracked
    basis: list[tuple[int, list[Fraction]]] = []
    echelon: list[tuple[int, list[Fraction], list[Fraction]]] = []

    def reduce_against(vec):
        coords = [Fraction(0)] * len(level)
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
        unit = [Fraction(0)] * len(level)
        unit[j] = Fraction(1)
        # invariant: echelon vector = sum of ecoords[i] * images[i]
        newc = [(u + c) / v[lead] for u, c in zip(unit, coords)]
        echelon.append((lead, [x / v[lead] for x in v], newc))

    traces = {}
    for parts in partitions_of(n):
        g = representative(parts)
        tr = Fraction(0)
        for pos, (j, _) in enumerate(basis):
            gt = apply_permutation(trees[level[j]], g)
            v, coords = reduce_against(reduce_unit(idx[gt]))
            assert all(x == 0 for x in v)
            full_coords = [-c for c in coords]
            # coefficient on basis vector `pos`
            tr += full_coords[basis[pos][0]]
        assert tr.denominator == 1
        traces[parts] = int(tr)
    return traces


def test_character_matches_fraction_restriction_oracle():
    """Direct invariant-subspace restriction over Q, for every graded piece
    at (5, 1), (6, 2) and (6, 3)."""
    for n, k in [(5, 1), (6, 2), (6, 3)]:
        rmax = min(k, n - 2 - k)
        traces = [_fraction_level_traces(n, k, r) for r in range(1, rmax + 2)]
        for r in range(1, rmax + 1):
            want = {g: traces[r - 1][g] - traces[r][g] for g in traces[r - 1]}
            assert character_graded(n, k, r).values == want, (n, k, r)
