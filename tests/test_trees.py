import json
import math
import random
import re

import pytest
from oracles import (
    brute_force_strata,
    brute_force_two_vertex,
    brute_force_vertex_flags,
    reference_split_fault,
)
from test_homology import _succeeds_under_O

from strata_lab import homology, trees
from strata_lab.homology import class_equal
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    _bits_side,
    _vertex_flag_bits,
    apply_permutation,
    canonical_form,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
    forget_mark,
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



def test_families_are_each_level_once():
    # E = 0 is the star alone and E > n - 3 nothing; in between every
    # family comes once, so sorting them is all _level adds to the order
    for n in range(3, 9):
        assert list(trees._families(n, 0)) == [()]
        for n_edges in range(n):
            families = list(trees._families(n, n_edges))
            assert len(set(families)) == len(families), (n, n_edges)
            assert sorted(families) == [t.splits for t in trees._level(n, n_edges)], (n, n_edges)
        assert list(trees._families(n, n - 2)) == []

@pytest.mark.slow
def test_enumerate_n9_row_sizes():
    sizes = [len(enumerate_strata(9, k)) for k in range(7)]
    assert sizes == [135135, 270270, 190575, 56980, 6825, 246, 1]


@pytest.mark.slow
def test_enumerated_sides_are_the_shared_side_tuples():
    # every side of every stratum is the one _bits_side tuple of its bitmask,
    # so the (9,3) strata hold one object per distinct side, not 101,626
    for n in range(3, 10):
        for k in range(n - 2):
            for t in enumerate_strata(n, k):
                for s in t.splits:
                    assert s is trees._bits_side(trees._side_bits(n, s)), (n, k, t)
    sides = {id(s) for t in enumerate_strata(9, 3) for s in t.splits}
    assert len(sides) == 246


def test_rebuilt_trees_behave_like_their_enumerated_twins():
    # from_json builds fresh side tuples: equality, hashing, order, the
    # column lookup and class_equal go by value, never by the sharing
    for n, k in [(6, 1), (7, 2)]:
        strata = enumerate_strata(n, k)
        twins = [MarkedTree.from_json(t.to_json()) for t in strata]
        assert all(a.splits[0] is not b.splits[0] for a, b in zip(strata, twins) if a.splits)
        assert twins == list(strata) and sorted(reversed(twins)) == twins
        assert [hash(t) for t in twins] == [hash(t) for t in strata]
        assert set(twins) == set(strata)
        index = homology._index(n, k)
        assert [index[t.splits] for t in twins] == [index[t.splits] for t in strata]
        pairs = [(0, j) for j in (12, 13, 31)] + [random.Random(n).sample(range(len(strata)), 2)]
        verdicts = [class_equal(strata[i], strata[j]) for i, j in pairs]
        assert verdicts == [class_equal(twins[i], twins[j]) for i, j in pairs]
        assert verdicts == [class_equal(strata[i], twins[j]) for i, j in pairs]
        assert True in verdicts and False in verdicts


VALIDATED_ENUMERATION = """
import strata_lab.trees as tr

seen = set()
real = tr._check_splits


def check(n, splits):
    seen.add((n, splits))
    real(n, splits)


tr._check_splits = check
families = [(8, t.splits) for k in range(6) for t in tr.enumerate_strata(8, k)]
if missed := [f for f in families if f not in seen]:
    raise SystemExit(f"{len(missed)} enumerated families not validated, e.g. {missed[0]}")
print(len(families))
"""


def test_enumeration_validates_every_tree_it_builds():
    # in a fresh interpreter, so the lru_caches of this one keep their
    # trees, and under python -O, so the check is no assert
    out = _succeeds_under_O(VALIDATED_ENUMERATION)
    assert int(out) == sum(len(enumerate_strata(8, k)) for k in range(6))


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
                flags = _vertex_flag_bits(t)
                assert len(t.splits) == n - 3 - k
                assert len(flags) == n - 2 - k
                assert sum(len(f) - 3 for f in flags) == k
                assert all(len(f) >= 3 for f in flags)


def test_vertex_flags_match_the_least_superset_definition():
    # independent oracle: parent of a split = its least strict superset
    for n in range(3, 9):
        for k in range(n - 2):
            for t in enumerate_strata(n, k):
                flags = tuple(tuple(map(_bits_side, f)) for f in _vertex_flag_bits(t))
                assert flags == brute_force_vertex_flags(n, t.splits), t
                for fl in flags:  # the behind-sets at a vertex partition {1..n}
                    assert sorted(m for f in fl for m in f) == list(range(1, n + 1)), t


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


def _crossing_partner(rng, n, s):
    """A side of the size of s that meets s without containing it."""
    out = list(s)
    out[rng.randrange(len(out))] = rng.choice([m for m in range(2, n + 1) if m not in s])
    return tuple(sorted(out))


def _random_family(rng, n):
    """A family of sides that is valid, nearly valid or not valid at all."""
    if rng.random() < 0.5:
        fam = list(rng.choice(enumerate_strata(n, rng.randrange(n - 2))).splits)
    else:
        fam = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
               for _ in range(rng.randint(0, 4))]
    if fam and rng.random() < 0.5:
        i = rng.randrange(len(fam))
        if 1 <= len(fam[i]) <= n - 2:
            fam[i] = _crossing_partner(rng, n, fam[i])
    if fam and rng.random() < 0.1:
        fam[0] = fam[0][::-1] + fam[0][:1]  # unsorted, and a duplicate mark
    if fam and rng.random() < 0.1:
        fam.append(fam[-1])  # a side twice
    if rng.random() < 0.9:
        fam.sort()
    return tuple(fam)


def _verdict(build):
    try:
        build()
    except ValueError as e:
        return type(e), str(e)
    return None


def test_fast_split_check_agrees_with_the_detailed_validator():
    """The one bitmask validator accepts or rejects, with the message of
    the first fault, as the set-based reference does, on random families,
    crossing pairs of sides of equal size among them."""
    rng = random.Random(3)
    crossing = 0
    for n in range(4, 10):
        for _ in range(400):
            fam = _random_family(rng, n)
            fault = reference_split_fault(n, fam)
            want = None if fault is None else (ValueError, fault)
            assert _verdict(lambda: trees._check_splits(n, fam)) == want
            assert _verdict(lambda: MarkedTree(n, fam)) == want
            crossing += want is not None and want[1].startswith("incompatible")
    assert crossing > 100


@pytest.mark.parametrize("n, splits, message", [
    (5, [(2, 3)], "splits must be a tuple of sides, got list"),
    (5, None, "splits must be a tuple of sides, got NoneType"),
    (5.0, (), "n must be an int, got 5.0"),
    ("5", ((2, 3),), "n must be an int, got '5'"),
    (True, (), "n must be an int, got True"),
    (5, ([2, 3],), "split [2, 3] is not a sorted duplicate-free tuple"),
    (5, (("2", "3"),), "split ('2', '3') is not a sorted duplicate-free tuple"),
])
def test_tree_refuses_splits_that_are_not_a_tuple_and_n_that_is_not_an_int(n, splits, message):
    # a list of splits would give a tree that cannot be hashed and is not
    # equal to the one with a tuple
    with pytest.raises(ValueError) as err:
        MarkedTree(n, splits)
    assert str(err.value) == message
    assert MarkedTree(5, ((2, 3),)) == MarkedTree.from_sides(5, [[3, 2]])


@pytest.mark.parametrize("order", [[(2, 3.0), (2, 3)], [(2, 3), (2, 3.0)]])
def test_float_marks_are_refused_whatever_the_cache_holds(order):
    # (2, 3.0) == (2, 3), so the cache of side bitmasks has one entry for
    # both: the verdict must not depend on which was looked up first
    trees._side_bits.cache_clear()
    for marks in order:
        want = None
        if type(marks[1]) is not int:
            want = (ValueError, f"split {marks!r} is not a sorted duplicate-free tuple")
        assert _verdict(lambda: MarkedTree(8, (marks,))) == want
        text = json.dumps({"n": 8, "splits": [marks]})
        assert _verdict(lambda: MarkedTree.from_json(text)) == want
    assert MarkedTree.from_json('{"n":8,"splits":[[2,3]]}').to_json() == '{"n":8,"splits":[[2,3]]}'


def test_from_sides_refuses_marks_outside_the_tree():
    for sides in ([(0, 3)], [(3, 6)], [(2.0, 3)], [(-1, 3)]):
        with pytest.raises(DomainError, match="is not a mark in 1..5"):
            MarkedTree.from_sides(5, sides)


def test_filtration_level_examples():
    assert filtration_level(MarkedTree.star(6)) == 1
    assert filtration_level(MarkedTree.from_sides(6, [(4, 5, 6)])) == 2
    for t in enumerate_strata(6, 0):
        assert filtration_level(t) == 0
        assert all(len(f) == 3 for f in brute_force_vertex_flags(6, t.splits))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 9) for k in range(n - 2)])
def test_filtration_keys_build_no_vertex_structure(monkeypatch, n, k):
    import strata_lab.trees as tr

    want = tr._filtration_keys(n, k)

    def no_flags(*args):
        raise AssertionError("vertex flags built for a filtration key")

    monkeypatch.setattr(tr, "_vertex_flag_bits", no_flags)
    assert tr._filtration_keys.__wrapped__(n, k) == want
    assert [filtration_level(t) for t in enumerate_strata(n, k)] == [x // n for x in want]


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


def _two_vertex_or_none(t):
    try:
        p1, a1, p2, a2 = trees._two_vertex_bits(t)
    except DomainError:
        return None
    return trees._bits_side(p1), a1, trees._bits_side(p2), a2


def test_two_vertex_bits_match_the_brute_force_flags():
    # every tree at n <= 7 and at (8, 2..4), and every tree of (9,3): the
    # level-2 ones decompose as the oracle does, the others raise
    cases = [(n, k) for n in range(3, 8) for k in range(n - 2)] + [(8, 2), (8, 3), (8, 4), (9, 3)]
    level2 = 0
    for n, k in cases:
        for t in enumerate_strata(n, k):
            want = brute_force_two_vertex(n, t.splits)
            assert _two_vertex_or_none(t) == want, t
            level2 += want is not None
    assert level2 > 0


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


def test_json_round_trip():
    for t in enumerate_strata(6, 1)[:20]:
        assert MarkedTree.from_json(t.to_json()) == t
    assert MarkedTree.from_json('{"n": 6, "splits": [[3,4],[5,6]]}') == (
        MarkedTree.from_sides(6, [(3, 4), (5, 6)])
    )


def test_to_json_is_the_json_dump_of_to_obj():
    # written from cached side strings, byte for byte what json writes
    def dumped(t):
        return json.dumps(t.to_obj(), separators=(",", ":"))

    for n in range(3, 9):
        for k in range(n - 2):
            for t in enumerate_strata(n, k):
                assert t.to_json() == dumped(t), t
    t = MarkedTree.from_json('{"n": 8, "splits": [[2, 3], [2, 3, 4, 5]]}')
    assert t.to_json() == dumped(t) == '{"n":8,"splits":[[2,3],[2,3,4,5]]}'

    class Mark(int):  # json writes an int subclass by int.__repr__
        def __repr__(self):
            return "mark"

    t = MarkedTree(8, ((Mark(2), 7),))
    assert t.to_json() == dumped(t) == '{"n":8,"splits":[[2,7]]}'


@pytest.mark.parametrize("n", ["7.9", '"7"', "7.0", "true"])
def test_from_json_refuses_an_n_that_is_not_an_int(n):
    # n reaches the validator as given: 7.9 is not truncated to a 7-marked tree
    with pytest.raises(ValueError, match="n must be an int"):
        MarkedTree.from_json(f'{{"n": {n}, "splits": [[2, 3]]}}')


@pytest.mark.parametrize("text, message", [
    ('{"n": 5}', "tree has no field splits"),  # was KeyError
    ('{"splits": [[2, 3]]}', "tree has no field n"),
    ("[1]", "tree must be a JSON object, got list"),  # was TypeError
    ("5", "tree must be a JSON object, got int"),
    ('{"n": 5, "splits": 3}', "tree splits must be a list of lists"),  # was TypeError
])
def test_from_json_names_a_missing_field_or_a_non_object(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MarkedTree.from_json(text)


def test_marked_tree_is_slotted():
    t = MarkedTree.from_sides(5, [(2, 3)])
    assert not hasattr(t, "__dict__")


DECOMPOSE_UNDER_O = """
import sys
import strata_lab.trees as tr

if not sys.flags.optimize:
    sys.exit("not running under -O")
t = tr.MarkedTree.from_sides(6, [(4, 5, 6)])
real = tr._vertex_pass


def wrong(t):
    parent, valence, owner, fat, c = real(t)
    # vertex 1, over the three marks 4, 5, 6, cannot carry excess valence 2
    return parent, [4, 5], owner, [0, 1], 1


tr._vertex_pass = wrong
try:
    tr.decompose_two_vertex(t)
except tr.TreeStructureError:
    sys.exit(0)
sys.exit("the decomposition check let an unstable vertex through")
"""


@pytest.mark.parametrize("script", [DECOMPOSE_UNDER_O], ids=["decompose"])
def test_tree_invariants_survive_python_O(script):
    _succeeds_under_O(script)
