import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from oracles import (
    certify_prime_by_prime,
    in_row_space,
    independent_rows,
    keel_betti,
    pivot_normal_forms,
    rank_fraction,
    rref_fraction,
)

import strata_lab
import strata_lab.exact_linalg as el
from strata_lab.exact_linalg import ModEchelon, RankCertificationError, prime_stream
from strata_lab.characters import partitions_of, representative
from strata_lab.homology import (
    _columns,
    _index,
    _relation_rows,
    betti,
    character_graded,
    character_homology,
    class_equal,
    graded_class_equal,
    graded_dims,
    inner_graded_dims,
)
from strata_lab.psets import cardinality_p1, cardinality_p2
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    TreeStructureError,
    _filtration_key,
    _vertex_flag_bits,
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
        n_cols = len(_index(n, k))
        assert betti(n, k) == n_cols - rank_fraction(_relation_rows(n, k), n_cols)


def test_betti_matches_keel_recursion():
    for n in range(3, 8):
        assert tuple(betti(n, k) for k in range(n - 2)) == keel_betti(n)


def test_betti_poincare_palindrome():
    for n in range(4, 8):
        vals = [betti(n, k) for k in range(n - 2)]
        assert vals == vals[::-1]


@pytest.mark.parametrize("n", [5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_character_poincare_duality(n):
    """Poincare duality pairs H_{2k} with H_{2(n-3-k)} S_n-equivariantly,
    so the two carry the same character."""
    for k in range((n - 3) // 2 + 1):
        assert character_homology(n, k) == character_homology(n, n - 3 - k), (n, k)


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
    """Columns of the trees of level >= r."""
    idx = _index(trees[0].n, trees[0].k)
    return [idx[t.splits] for t in trees if filtration_level(t) >= r]


def _inner_set(trees, b):
    """Columns of the trees of level >= 3 or of level 2 and inner level >= b."""
    idx = _index(trees[0].n, trees[0].k)
    return [
        idx[t.splits] for t in trees
        if filtration_level(t) >= 3
        or (filtration_level(t) == 2 and len(decompose_two_vertex(t)[4]) >= b)
    ]


def _stacked_span_dim(rows, ids, p):
    """rank(rows stacked with the unit rows of ids) - rank(rows), at the prime p."""
    alone, stacked = ModEchelon(p), ModEchelon(p)
    alone.add_rows(rows)
    stacked.add_rows([*rows, *({i: 1} for i in ids)])
    return stacked.rank - alone.rank


def test_graded_dims_match_stacked_rank_oracle():
    p = next(iter(prime_stream(0)))
    for n in range(4, 8):
        for k in range(1, n - 2):
            trees = enumerate_strata(n, k)
            M = tuple(_relation_rows(n, k))
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
        idx = {t: _index(n, k)[t.splits] for t in trees}
        M = tuple(_relation_rows(n, k))
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
                ech.add_rows([*M, *units])
                stacked[level] = ech
            want = not stacked[level].reduce({idx[a]: 1, idx[b]: -1})
            assert graded_class_equal(a, b) == want, (a, b)
            verdicts[want] += 1
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("n, k", [(5, 0), (6, 1), (6, 2), (7, 3)])
def test_membership_at_any_cut_matches_the_fraction_oracle(n, k):
    """_member at every kind of cut, filtration cut or not, 0 and the width
    included: diff lies in the span of the relations and the columns
    >= cut iff its projection to the columns < cut lies in the row space
    of the relation rows projected there.  The unit vector of a free
    column c, at cut c, reduces to a row leading at the cut itself."""
    import strata_lab.homology as h

    width, rows = len(_index(n, k)), tuple(_relation_rows(n, k))
    free = sorted(set(range(width)) - {c for c, _ in rref_fraction(list(rows), width)})
    rng = random.Random(n * 10 + k)
    cuts = {0, width, *rng.sample(free, min(4, len(free))),
            *rng.sample(range(1, width), min(4, width - 1))}
    verdicts = Counter()
    for cut in sorted(cuts):
        rref = rref_fraction([{c: v for c, v in r.items() if c < cut} for r in rows], cut)
        diffs = [{i: 1, j: -1} for i, j in (rng.sample(range(width), 2) for _ in range(12))]
        diffs += [{c: 1} for c in (cut - 1, cut) if 0 <= c < width]
        for diff in diffs:
            want = in_row_space(rref, {c: v for c, v in diff.items() if c < cut}, cut)
            assert h._member(n, k, diff, cut, 0, "membership") == want, (cut, diff)
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
    """The graded quantities reuse the one relation echelon per modulus and
    run no other elimination, and each modulus is the product of two
    consecutive primes of a stream."""
    import strata_lab.homology as h

    n, k, seed = 7, 2, 4242
    relation = Counter(frozenset(r.items()) for r in h._relation_rows(n, k))
    # every relation row has a negative entry, so no reduced row mod p
    # (entries in 1..p-1) and no unit row can be mistaken for one
    assert all(min(v for _, v in r) < 0 for r in relation)
    fed, calls, streams = Counter(), Counter(), []
    add_rows, stream = ModEchelon.add_rows, el.prime_stream

    def counting_add_rows(self, rows, presorted=False):
        rows = list(rows)
        calls[self.p] += 1
        fed[self.p] += sum(frozenset(r.items()) in relation for r in rows)
        return add_rows(self, rows, presorted)

    def recording_stream(*args, **kwargs):
        drawn = []
        streams.append(drawn)
        for p in stream(*args, **kwargs):
            drawn.append(p)
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
    moduli = {p * q for drawn in streams for p, q in zip(drawn[::2], drawn[1::2])}
    assert streams and all(len(drawn) % 2 == 0 for drawn in streams)
    assert moduli and set(fed) == moduli
    assert all(fed[m] == sum(relation.values()) for m in moduli), fed
    assert calls == Counter(dict.fromkeys(moduli, 1)), calls


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n, k", [(7, 2), (7, 3), (8, 3)])
def test_pair_certificates_match_prime_by_prime(monkeypatch, n, k, seed):
    """Every value certified from eliminations mod p*q is the one the loop
    over single primes certifies from the same closure."""
    import strata_lab.homology as h

    checked = Counter()

    def both(compute, seed=0, what="value", **read):
        got = el.certified_value(compute, seed, what, **read)
        assert got == certify_prime_by_prime(compute, seed, what, **read), what
        checked[what.split(" (")[0]] += 1
        return got

    monkeypatch.setattr(h, "certified_value", both)
    graded_dims(n, k, seed)
    if k <= n - 4:
        inner_graded_dims(n, k, seed)
    character_homology(n, k, seed)
    for r in range(1, min(k, n - 2 - k) + 1):
        character_graded(n, k, r, seed)
    trees = enumerate_strata(n, k)
    rng = random.Random(seed)
    for _ in range(4):
        class_equal(*rng.sample(trees, 2), seed)
    assert checked["graded character"] == min(k, n - 2 - k)
    assert checked["class membership"] == 4 and checked["character"] == 1


def test_keel_row_matches_the_test_oracle():
    import strata_lab.homology as h

    for n in range(3, 17):
        assert h._keel_row(n) == keel_betti(n)


@pytest.fixture
def fresh_homology(monkeypatch):
    """The homology module with its echelons on a cache of their own, so
    patched relation rows leave nothing behind in the shared one (betti
    keeps nothing)."""
    import strata_lab.homology as h

    monkeypatch.setattr(h, "_echelon", lru_cache(maxsize=None)(h._echelon.__wrapped__))
    return h


@lru_cache(maxsize=None)
def _independent_relation_rows(n, k):
    """A subfamily of _relation_rows(n, k), independent over Q, with the same
    span: every relation row lies in the span of the others, so no single
    row of the whole family can be dropped to lower the rank."""
    return independent_rows(_relation_rows(n, k), len(_index(n, k)))


def _counting_eliminations(monkeypatch):
    """Patch ModEchelon.add_rows to count the eliminations (calls on an
    empty echelon) by modulus; returns the Counter."""
    eliminations, add_rows = Counter(), ModEchelon.add_rows

    def counting_add_rows(self, rows, presorted=False):
        if not self.pivots:
            eliminations[self.p] += 1
        return add_rows(self, rows, presorted)

    monkeypatch.setattr(ModEchelon, "add_rows", counting_add_rows)
    return eliminations


def test_betti_refuses_a_faulty_relation_matrix(fresh_homology, monkeypatch):
    h = fresh_homology
    n, k = 6, 2
    b, width = h.betti(n, k), len(h._index(n, k))
    basis = list(_independent_relation_rows(n, k))
    assert len(basis) == width - b == width - h._keel_row(n)[k]
    unit = next({c: 1} for c in range(width) if rank_fraction(basis + [{c: 1}], width) > len(basis))
    primes = prime_stream(0)
    pq = next(primes) * next(primes)
    eliminations = _counting_eliminations(monkeypatch)
    # dropping an independent row lowers the rank over Q, so the certified
    # Betti number is b + 1; an extra unit row outside the row space raises
    # it: b - 1.  Either way Keel's b_k is missed after one elimination,
    # mod p*q, and betti raises
    for rows, want in [(basis, b), (basis[1:], b + 1), (basis + [unit], b - 1)]:
        eliminations.clear()
        monkeypatch.setattr(h, "_relation_rows", lambda n, k, rows=rows: tuple(rows))
        if want == b:
            assert h.betti(n, k) == b
        else:
            with pytest.raises(RankCertificationError,
                               match=rf"^Betti number {want} of \(6,2\) is not b_2 = {b}$"):
                h.betti(n, k)
        assert eliminations == Counter([pq])


def _level_two_pair(n, k):
    return [t for t in enumerate_strata(n, k) if filtration_level(t) == 2][:2]


# every reader of a relation echelon at (6,2), level 2 there being of
# inner level 0 only
ECHELON_READERS = {
    "betti": lambda h: h.betti(6, 2),
    "graded_dims": lambda h: h.graded_dims(6, 2),
    "inner_graded_dims": lambda h: h.inner_graded_dims(6, 2),
    "class_equal": lambda h: h.class_equal(*enumerate_strata(6, 2)[:2]),
    "graded_class_equal": lambda h: h.graded_class_equal(*_level_two_pair(6, 2)),
    "character_homology": lambda h: h.character_homology(6, 2),
    "character_graded": lambda h: h.character_graded(6, 2, 1),
}


@pytest.mark.parametrize("reader, fault", [
    *((reader, "dropped-row") for reader in ECHELON_READERS),
    ("graded_dims", "keel-row"),
])
def test_every_echelon_reader_refuses_a_faulty_relation_matrix(
        fresh_homology, monkeypatch, reader, fault):
    """Without one independent row the relation rank falls by one at every
    prime, so every value read off the echelon would rest on it; the Keel
    check where the echelon is built raises first, for every reader.  So
    it does when Keel's b_k is what differs."""
    h = fresh_homology
    if fault == "dropped-row":
        rows = _independent_relation_rows(6, 2)[1:]
        monkeypatch.setattr(h, "_relation_rows", lambda n, k: rows)
        message = r"^Betti number 17 of \(6,2\) is not b_2 = 16$"
    else:
        monkeypatch.setattr(h, "_keel_row", lambda n: (-1,) * (n - 2))
        message = r"^Betti number 16 of \(6,2\) is not b_2 = -1$"
    with pytest.raises(RankCertificationError, match=message):
        ECHELON_READERS[reader](h)


def test_betti_eliminates_once_at_a_pair_modulus(fresh_homology, monkeypatch):
    """betti eliminates once, modulo p*q of the first pair of its stream,
    and leaves the shared echelon cache as it found it."""
    h = fresh_homology
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
    cached = h._echelon.cache_info()
    primes = prime_stream(seed)
    assert h.betti(n, k, seed) == keel_betti(n)[k]
    assert fed == Counter([next(primes) * next(primes)])
    # the echelon is kept by nothing: no other call reads it again
    assert h._echelon.cache_info() == cached


@pytest.mark.parametrize("seed", [0, 7])
def test_every_elimination_is_at_a_pair_modulus(fresh_homology, monkeypatch, seed):
    """At 62-bit primes no lead is a non-unit mod p*q, so no certified
    quantity eliminates modulo a single prime."""
    h = fresh_homology
    n, k = 7, 2
    moduli, add_rows = Counter(), ModEchelon.add_rows

    def recording_add_rows(self, rows, presorted=False):
        moduli[self.p] += 1
        return add_rows(self, rows, presorted)

    monkeypatch.setattr(ModEchelon, "add_rows", recording_add_rows)
    h.betti(n, k, seed)
    h.graded_dims(n, k, seed)
    h.inner_graded_dims(n, k, seed)
    h.character_homology(n, k, seed)
    h.character_graded(n, k, 2, seed)
    trees = enumerate_strata(n, k)
    rng = random.Random(seed)
    for _ in range(5):
        h.class_equal(*rng.sample(trees, 2), seed)
    assert moduli and not any(el.is_probable_prime(m) for m in moduli), moduli


def test_verify_conjecture_eliminates_once_per_k(fresh_homology, monkeypatch, capsys):
    """The certified graded dims give the Betti number too, so each
    relation matrix of k = 1 .. n-3 is generated and eliminated once, and
    k = 0, with no graded piece, is not swept."""
    from strata_lab.cli import main

    h, n = fresh_homology, 7
    streamed, relation_rows = Counter(), h._relation_rows

    def counting_rows(n, k):
        streamed[n, k] += 1
        return relation_rows(n, k)

    monkeypatch.setattr(h, "_relation_rows", counting_rows)
    eliminations = _counting_eliminations(monkeypatch)
    assert main(["verify", "conjecture", "--n", str(n)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert streamed == Counter({(n, k): 1 for k in range(1, n - 2)})
    assert sum(eliminations.values()) == n - 3


def test_class_equal_examples():
    t = MarkedTree.from_sides(4, [(3, 4)])
    assert class_equal(t, t)
    t2 = MarkedTree.from_sides(4, [(2, 4)])
    assert class_equal(t, t2)


KEEL_UNDER_O = """
import sys
import strata_lab.homology as h
from strata_lab.exact_linalg import RankCertificationError

if not sys.flags.optimize:
    sys.exit("not running under -O")
h._relation_rows = lambda n, k: iter(())  # rank 0, so Keel's b_k is missed
for read in (h.betti, h.character_homology):
    try:
        read(6, 2)
    except RankCertificationError:
        continue
    sys.exit(f"the Keel check let a wrong value of {read.__name__} through")
"""


REWRITE_UNDER_O = """
import sys
import strata_lab.wtilde as w
from strata_lab.trees import MarkedTree, enumerate_strata, filtration_level

if not sys.flags.optimize:
    sys.exit("not running under -O")
t = next(t for t in enumerate_strata(6, 2) if filtration_level(t) == 2)
w._standard_tree = lambda n, key: MarkedTree.star(n)  # a form no rewrite reaches
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


def _script_stdout(script, *options):
    """Stdout of script run in a fresh interpreter with options, on this
    checkout's package, after checking that it exited 0."""
    src = str(Path(strata_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, *options, "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _succeeds_under_O(script):
    return _script_stdout(script, "-O")


def test_keel_check_survives_python_O():
    _succeeds_under_O(KEEL_UNDER_O)


@pytest.mark.parametrize("script", [REWRITE_UNDER_O, FORMULA_UNDER_O],
                         ids=["rewrite-end", "integrality"])
def test_named_checks_survive_python_O(script):
    _succeeds_under_O(script)


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
        idx = {t: _index(n, k)[t.splits] for t in trees}
        rref = rref_fraction(_relation_rows(n, k), len(trees))
        for _ in range(10):
            t1, t2 = rng.sample(list(trees), 2)
            want = in_row_space(rref, {idx[t1]: 1, idx[t2]: -1}, len(trees))
            assert class_equal(t1, t2) == want


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
    """Every k, modulus and presentation reads a side's image under g from
    one table per (n, g), so the characters relabel each side once per
    (n, g) and each column's image is looked up from the table alone."""
    import strata_lab.homology as h

    tables, relabelled = Counter(), Counter()
    build, side = h._side_images.__wrapped__, h._side

    def counting_side_images(n, g):
        tables[n, g] += 1
        return build(n, g)

    def counting_side(marks, n):
        relabelled[n] += 1
        return side(marks, n)

    monkeypatch.setattr(h, "_side_images", lru_cache(maxsize=None)(counting_side_images))
    monkeypatch.setattr(h, "_side", counting_side)
    character_homology(7, 2)
    character_graded(7, 2, 1)
    character_homology(7, 3)
    assert set(tables) == {(7, representative(t)) for t in partitions_of(7)}
    assert set(tables.values()) == {1}
    assert len(tables) == h._side_images.cache_info().currsize
    sides = 2 ** (7 - 1) - 7 - 1
    assert all(len(h._side_images(*key)) == sides for key in tables)
    assert sum(relabelled.values()) == sides * len(tables)


@pytest.mark.parametrize("n, k", [(7, 2), (8, 3)])
def test_image_id_relabels_like_apply_permutation(n, k):
    import strata_lab.homology as h

    trees, idx = enumerate_strata(n, k), h._index(n, k)
    for t in partitions_of(n):
        g = representative(t)
        images = h._side_images(n, g)
        for side, image in images.items():
            assert (image,) == apply_permutation(MarkedTree(n, (side,)), g).splits
        for tree in trees:
            got = h._image_column(n, k, idx[tree.splits], images)
            assert got == idx[apply_permutation(tree, g).splits]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n, k", [(n, k) for n in range(4, 8) for k in range(n - 2)] + [(8, 3)])
def test_filtration_cuts_are_free_column_tails(n, k, seed):
    """The columns are in filtration order, ties by depth (the sum of the
    split sizes) and then enumeration order, so every span of the strata of
    key >= m is the tail of columns from _cut(n, k, m) on, and every reduced
    row with its pivot past a cut has its free columns past it too: the
    graded dimensions and traces rely on this."""
    import strata_lab.homology as h

    cols, strata = h._columns(n, k), enumerate_strata(n, k)
    position = {t: i for i, t in enumerate(strata)}
    assert sorted(cols, key=position.__getitem__) == list(strata)
    ordered = [(_filtration_key(t), sum(len(s) for s in t.splits), position[t]) for t in cols]
    assert ordered == sorted(ordered)
    assert h._index(n, k) == {t.splits: c for c, t in enumerate(cols)}
    keys = [key for key, _, _ in ordered]
    for t in partitions_of(n):
        images = h._side_images(n, representative(t))
        assert all(keys[h._image_column(n, k, c, images)] == keys[c] for c in range(len(cols)))
    primes = prime_stream(seed)
    reduced = pivot_normal_forms(h._echelon(n, k, next(primes) * next(primes)))
    cuts = sorted({h._cut(n, k, key) for key in keys})
    assert cuts == sorted({keys.index(key) for key in keys})
    for cut in cuts:
        for c, row in reduced.items():
            if c >= cut:
                assert all(f >= cut for f in row), (cut, c)


def test_image_id_refuses_a_family_that_is_no_stratum():
    import strata_lab.homology as h

    images = h._side_images.__wrapped__(6, (1, 2, 2, 4, 5, 6))
    with pytest.raises(TreeStructureError, match="gives no stratum"):
        h._image_column(6, 2, 0, images)


def test_relation_matrix_work_counts():
    """The relation matrix is fed m(m-3)/2 rows per site of valence m, and
    the (8,3) echelon at the first pair modulus stores fewer entries than
    the 10,884 of the full spanning family in key-then-enumeration order."""
    import strata_lab.homology as h
    from strata_lab.relations import _site_basis, _sites

    for (n, k), want in {(7, 2): 434, (8, 3): 1358}.items():
        sites = [len(fl) for _, _, fl, _, _ in _sites(n, k, _site_basis, h._index(n, k))]
        assert len(tuple(h._relation_rows(n, k))) == want == sum(m * (m - 3) // 2 for m in sites)
    primes = prime_stream(0)
    echelon = h._echelon(8, 3, next(primes) * next(primes))
    assert echelon.rank == len(enumerate_strata(8, 3)) - keel_betti(8)[3]
    assert sum(map(len, echelon.pivots.values())) < 10884


@pytest.mark.parametrize("n, k", [(7, 2), (8, 3)])
def test_relation_rows_look_each_term_up_once(monkeypatch, n, k):
    """The row stream resolves each term with one lookup in the column
    index, one per template split per site, and enumerates no strata of
    (n, k) besides the index's own."""
    import strata_lab.homology as h
    import strata_lab.relations as r

    lookups = []

    class Counted(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

        def __contains__(self, key):
            lookups.append(key)
            return super().__contains__(key)

    index, indexed, read = Counted(h._index(n, k)), [], []
    monkeypatch.setattr(h, "_index", lambda *nk: indexed.append(nk) or index)
    monkeypatch.setattr(r, "enumerate_strata",
                        lambda *nk: read.append(nk) or enumerate_strata(*nk))
    rows = list(h._relation_rows(n, k))
    assert indexed == [(n, k)] and read == [(n, k + 1)]
    sites = [len(f) for t in enumerate_strata(n, k + 1) for f in _vertex_flag_bits(t)
             if len(f) >= 4]
    assert len(lookups) == sum(2 ** (m - 1) - m - 1 for m in sites)
    assert len(rows) == sum(m * (m - 3) // 2 for m in sites)


def test_character_values_independent_of_seed():
    a = character_homology(6, 2, seed=0)
    b = character_homology(6, 2, seed=99)
    assert a == b


@lru_cache(maxsize=None)
def _fraction_rref(n, k):
    """Pivot rows of the RREF of the relation matrix over Q, by pivot column."""
    return dict(rref_fraction(list(_relation_rows(n, k)), len(_index(n, k))))


def _fraction_level_traces(n, k, r):
    """Traces over Q of every cycle type on the span of the level >= r
    classes, by direct invariant-subspace restriction."""
    trees = _columns(n, k)  # the columns of _relation_rows
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


@pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 7) for k in range(n - 2)] + [(7, 2)])
def test_reduce_gives_the_normal_form_over_q(n, k):
    """At a prime and at a pair modulus, the normal form of every unit
    vector e_c has no pivot column in its support and is, mod m, the one
    over Q: e_c for a free c, minus the RREF row of c off its pivot for a
    pivot c.  The rank over Q is |S_{k,n}| - b_k."""
    import strata_lab.homology as h

    rref = _fraction_rref(n, k)
    assert len(rref) == len(_index(n, k)) - h._keel_row(n)[k]
    primes = prime_stream(3)
    p, q = next(primes), next(primes)
    for m in (p, p * q):
        ech = h._echelon(n, k, m)
        assert ech.pivots.keys() == rref.keys()
        for c in range(len(_index(n, k))):
            want = {f: -v for f, v in enumerate(rref[c]) if v and f != c} if c in rref else {c: 1}
            want = {f: r for f, v in want.items()
                    if (r := v.numerator * pow(v.denominator, -1, m) % m)}
            form = ech.reduce({c: 1})
            assert not form.keys() & ech.pivots.keys(), (m, c)
            assert form == want, (m, c)


CHARACTER_RETENTION = """
import tracemalloc
from strata_lab.homology import character_homology, graded_dims

graded_dims(8, 3)  # caches the (8,3) echelons
tracemalloc.start()
character_homology(8, 3)
print(tracemalloc.get_traced_memory()[0])
"""


def test_character_keeps_no_copy_of_the_echelon():
    """Once graded_dims(8, 3) has cached the (8,3) echelons, the character
    of H_6 leaves under 1 MB allocated (its side tables): the normal forms
    it reads are kept for one modulus only."""
    kept = int(_script_stdout(CHARACTER_RETENTION))
    assert kept < 1_000_000, kept


def test_character_matches_fraction_restriction_oracle():
    """Direct invariant-subspace restriction over Q, for every graded piece
    at (5, 1), (6, 2) and (6, 3)."""
    for n, k in [(5, 1), (6, 2), (6, 3)]:
        rmax = min(k, n - 2 - k)
        traces = [_fraction_level_traces(n, k, r) for r in range(1, rmax + 2)]
        for r in range(1, rmax + 1):
            want = {g: traces[r - 1][g] - traces[r][g] for g in traces[r - 1]}
            assert character_graded(n, k, r).values == want, (n, k, r)
