import math
import random

import pytest
from oracles import brute_force_strata
from test_homology import _succeeds_under_O

from strata_lab.trees import (
    DomainError,
    MarkedTree,
    apply_permutation,
    canonical_form,
    contract_edge,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
    forget_mark,
    split_vertex,
    valence_partition,
    vertex_flags,
)


def test_enumerate_counts_trivalent():
    # (2n-5)!! expected trees at k=0, frozen from the double-factorial formula
    for n, want in [(4, 3), (5, 15), (6, 105), (7, 945), (8, 10395)]:
        got = len(enumerate_strata(n, 0))
        assert got == want == math.prod(range(2 * n - 5, 0, -2))


def test_enumerate_matches_brute_force_family_search():
    # independent oracle: search over all compatible split families; the
    # families must agree exactly, order included
    for n in range(3, 8):
        for k in range(n - 2):
            want = brute_force_strata(n, n - 3 - k)
            assert [t.splits for t in enumerate_strata(n, k)] == want, (n, k)


@pytest.mark.slow
def test_enumerate_n9_row_sizes():
    sizes = [len(enumerate_strata(9, k)) for k in range(7)]
    assert sizes == [135135, 270270, 190575, 56980, 6825, 246, 1]


def test_enumerate_examples():
    assert len(enumerate_strata(4, 0)) == 3
    assert enumerate_strata(5, 2) == (MarkedTree.star(5),)
    assert len(enumerate_strata(5, 1)) == 10
    assert len(enumerate_strata(6, 1)) == 105


def test_enumerate_domain_errors():
    for n, k in [(3, 1), (5, 3), (5, -1), (2, 0)]:
        with pytest.raises(DomainError):
            enumerate_strata(n, k)


def test_enumerate_is_sorted_and_deterministic():
    trees = enumerate_strata(6, 1)
    assert list(trees) == sorted(trees)
    assert trees == enumerate_strata(6, 1)


def test_tree_edge_vertex_counts():
    for n in range(4, 8):
        for k in range(n - 2):
            for t in enumerate_strata(n, k):
                flags = vertex_flags(t)
                assert len(t.splits) == n - 3 - k
                assert len(flags) == n - 2 - k
                assert sum(len(f) - 3 for f in flags) == k
                assert all(len(f) >= 3 for f in flags)


def test_canonical_form_examples():
    assert canonical_form(MarkedTree.star(5)) == "[]"
    assert canonical_form(MarkedTree.from_sides(5, [(3, 4, 5)])) == "[[3,4,5]]"
    t = MarkedTree.from_sides(5, [(3, 4, 5), (4, 5)])
    assert canonical_form(t) == "[[3,4,5],[4,5]]"


def test_canonical_form_normalizes_any_orientation():
    # the same edge handed in by its mark-1 side
    a = MarkedTree.from_sides(5, [(1, 2)])
    b = MarkedTree.from_sides(5, [(3, 4, 5)])
    assert a == b


def test_incompatible_splits_rejected():
    with pytest.raises(ValueError):
        MarkedTree.from_sides(6, [(2, 3), (3, 4)])


def test_valence_partition_examples():
    assert valence_partition(MarkedTree.star(6)) == (3,)
    t = MarkedTree.from_sides(6, [(4, 5, 6), (5, 6)])  # valences 4,3,3
    assert valence_partition(t) == (1,)
    t2 = MarkedTree.from_sides(6, [(4, 5, 6)])  # two 4-valent vertices
    assert valence_partition(t2) == (1, 1)


def test_filtration_level_examples():
    assert filtration_level(MarkedTree.star(6)) == 1
    assert filtration_level(MarkedTree.from_sides(6, [(4, 5, 6)])) == 2
    for t in enumerate_strata(6, 0):
        assert filtration_level(t) == 0
        assert valence_partition(t) == ()


def test_apply_permutation_examples():
    t = MarkedTree.from_sides(5, [(3, 4, 5)])
    n = 5
    ident = tuple(range(1, n + 1))
    assert apply_permutation(t, ident) == t
    swap34 = (1, 2, 4, 3, 5)
    assert apply_permutation(t, swap34) == t
    t2 = MarkedTree.from_sides(5, [(4, 5)])
    g = (4, 2, 3, 1, 5)  # transposition (1 4): renormalization kicks in
    image = apply_permutation(t2, g)
    assert canonical_form(image) == "[[2,3,4]]"


def test_apply_permutation_group_action():
    rng = random.Random(7)
    trees = enumerate_strata(6, 1)
    for _ in range(50):
        t = rng.choice(trees)
        g = list(range(1, 7))
        h = list(range(1, 7))
        rng.shuffle(g)
        rng.shuffle(h)
        gh = tuple(g[h[i] - 1] for i in range(6))
        lhs = apply_permutation(t, gh)
        rhs = apply_permutation(apply_permutation(t, tuple(h)), tuple(g))
        assert lhs == rhs


def test_strata_closed_under_transpositions():
    for n, k in [(5, 1), (6, 1), (6, 2)]:
        trees = set(enumerate_strata(n, k))
        for i in range(1, n):
            g = list(range(1, n + 1))
            g[i - 1], g[i] = g[i], g[i - 1]
            assert {apply_permutation(t, tuple(g)) for t in trees} == trees


def test_split_vertex_examples():
    star4 = MarkedTree.star(4)
    t = split_vertex(star4, 0, [(1,), (2,)], [(3,), (4,)])
    assert canonical_form(t) == "[[3,4]]"
    star5 = MarkedTree.star(5)
    t5 = split_vertex(star5, 0, [(1,), (2,)], [(3,), (4,), (5,)])
    assert canonical_form(t5) == "[[3,4,5]]"


def test_split_vertex_rejects_unstable():
    star4 = MarkedTree.star(4)
    with pytest.raises(DomainError):
        split_vertex(star4, 0, [(1,)], [(2,), (3,), (4,)])
    with pytest.raises(DomainError):
        split_vertex(star4, 0, [(1,), (2,)], [(3,)])


def test_split_contract_round_trip():
    rng = random.Random(3)
    for t in rng.sample(list(enumerate_strata(7, 2)), 40):
        flags = vertex_flags(t)
        for v, fl in enumerate(flags):
            if len(fl) < 4:
                continue
            a, b = fl[:2], fl[2:]
            t2 = split_vertex(t, v, a, b)
            new = set(t2.splits) - set(t.splits)
            assert len(new) == 1
            assert contract_edge(t2, new.pop()) == t
            break


def test_decompose_two_vertex_examples():
    t = MarkedTree.from_sides(6, [(4, 5, 6)])
    assert decompose_two_vertex(t) == (
        frozenset({1, 2, 3}), 1, frozenset({4, 5, 6}), 1, frozenset()
    )
    t2 = MarkedTree.from_sides(7, [(4, 5, 6), (4, 5, 6, 7)])
    assert decompose_two_vertex(t2) == (
        frozenset({1, 2, 3}), 1, frozenset({4, 5, 6}), 1, frozenset({7})
    )
    t3 = MarkedTree.from_sides(7, [(5, 6, 7)])
    assert decompose_two_vertex(t3) == (
        frozenset({1, 2, 3, 4}), 2, frozenset({5, 6, 7}), 1, frozenset()
    )


def test_decompose_invariants_over_all_level2():
    for n in range(6, 9):
        for k in range(2, n - 3):
            for t in enumerate_strata(n, k):
                if filtration_level(t) != 2:
                    continue
                p1, a1, p2, a2, mid = decompose_two_vertex(t)
                assert a1 + a2 == k
                assert len(p1) >= a1 + 2 and len(p2) >= a2 + 2
                assert min(p1) < min(p2)
                assert p1 | p2 | mid == set(range(1, n + 1))


def test_decompose_rejects_wrong_level():
    with pytest.raises(DomainError):
        decompose_two_vertex(MarkedTree.star(6))


def test_forget_mark_examples():
    t, collapsed = forget_mark(MarkedTree.from_sides(5, [(3, 4, 5)]))
    assert canonical_form(t) == "[[3,4]]" and not collapsed
    t, collapsed = forget_mark(MarkedTree.from_sides(5, [(4, 5)]))
    assert t == MarkedTree.star(4) and collapsed
    t, collapsed = forget_mark(MarkedTree.star(5))
    assert t == MarkedTree.star(4) and not collapsed


def test_forget_mark_domain_errors():
    with pytest.raises(DomainError):
        forget_mark(MarkedTree.star(3))
    with pytest.raises(DomainError):
        forget_mark(MarkedTree.star(5), 3)


def test_json_round_trip():
    for t in enumerate_strata(6, 1)[:20]:
        assert MarkedTree.from_json(t.to_json()) == t
    assert MarkedTree.from_json('{"n": 6, "splits": [[3,4],[5,6]]}') == (
        MarkedTree.from_sides(6, [(3, 4), (5, 6)])
    )


VALENCE_UNDER_O = """
import sys
import strata_lab.trees as tr

if not sys.flags.optimize:
    sys.exit("not running under -O")
real = tr._structure
tr._structure = lambda t: real(tr.MarkedTree.star(6))  # one part of 3, not k = 2
try:
    tr.valence_partition(tr.MarkedTree.star(5))
except tr.TreeStructureError:
    sys.exit(0)
sys.exit("the valence partition check let a wrong sum through")
"""

EDGE_TOWARD_UNDER_O = """
import sys
import strata_lab.trees as tr

if not sys.flags.optimize:
    sys.exit("not running under -O")
t = tr.MarkedTree.from_sides(6, [(4, 5, 6)])
try:
    tr._edge_toward(t, tr._structure(t), 0, 0)  # vertex 0 has no edge toward itself
except tr.TreeStructureError:
    sys.exit(0)
sys.exit("the edge search let vertex 0 through")
"""

DECOMPOSE_UNDER_O = """
import sys
import strata_lab.trees as tr

if not sys.flags.optimize:
    sys.exit("not running under -O")
t = tr.MarkedTree.from_sides(6, [(4, 5, 6)])
# a fat vertex with two marks cannot carry excess valence 1
tr._two_vertex_data = lambda t: (0, frozenset({1, 2}), 1, 1, frozenset({3, 4, 5, 6}), 1, frozenset())
try:
    tr.decompose_two_vertex(t)
except tr.TreeStructureError:
    sys.exit(0)
sys.exit("the decomposition check let an unstable vertex through")
"""


@pytest.mark.parametrize("script", [VALENCE_UNDER_O, EDGE_TOWARD_UNDER_O, DECOMPOSE_UNDER_O],
                         ids=["valence-partition", "edge-toward", "decompose"])
def test_tree_invariants_survive_python_O(script):
    _succeeds_under_O(script)
