from itertools import combinations

import pytest

from strata_lab.characters import representative
from strata_lab.psets import (
    PairLabel,
    cardinality_p1,
    cardinality_p2,
    character_pset,
    enumerate_p1,
    enumerate_p2,
    inner_level,
)
from strata_lab.trees import DomainError


def test_p1_examples():
    assert enumerate_p1(5, 2) == [frozenset({1, 2, 3, 4, 5})]
    assert cardinality_p1(6, 2) == 6
    assert cardinality_p1(7, 2) == 22
    assert cardinality_p1(8, 2) == 64


def test_p2_examples():
    assert enumerate_p2(5, 2) == []
    assert cardinality_p2(6, 2) == 10
    assert cardinality_p2(7, 2) == 105
    assert cardinality_p2(8, 2) == 651


def test_cardinalities_match_enumeration_to_n12():
    for n in range(4, 13):
        for k in range(0, n - 2):
            assert cardinality_p1(n, k) == len(enumerate_p1(n, k))
            if k >= 2:
                assert cardinality_p2(n, k) == len(enumerate_p2(n, k))


def test_p2_enumeration_unique_and_normalized():
    pairs = enumerate_p2(8, 3)
    assert len(set(pairs)) == len(pairs)
    for p in pairs:
        assert p.p1[0] < p.p2[0]
        assert not set(p.p1) & set(p.p2)
        assert len(p.p1) >= p.a1 + 2 and len(p.p2) >= p.a2 + 2
        assert p.a1 + p.a2 == 3


def test_p2_shape_breakdown_7_2():
    pairs = enumerate_p2(7, 2)
    sizes = sorted((len(p.p1), len(p.p2)) for p in pairs)
    assert sizes.count((3, 3)) + sizes.count((3, 4)) + sizes.count((4, 3)) == 105
    by_shape = {}
    for p in pairs:
        by_shape[tuple(sorted((len(p.p1), len(p.p2))))] = (
            by_shape.get(tuple(sorted((len(p.p1), len(p.p2)))), 0) + 1
        )
    assert by_shape == {(3, 3): 70, (3, 4): 35}


def test_inner_level_examples():
    p = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    assert inner_level(p, 6) == 0
    assert inner_level(p, 7) == 1
    q = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6, 7], 1)
    assert inner_level(q, 8) == 1


def test_inner_level_counts_sum():
    for n in range(6, 10):
        for k in range(2, n - 3):
            pairs = enumerate_p2(n, k)
            counts = {}
            for p in pairs:
                b = inner_level(p, n)
                counts[b] = counts.get(b, 0) + 1
            assert sorted(counts) == list(range(0, n - k - 4 + 1))
            assert sum(counts.values()) == cardinality_p2(n, k)


def test_pair_label_validation():
    with pytest.raises(ValueError):
        PairLabel((1, 2), 1, (3, 4, 5), 1)  # side too small
    with pytest.raises(ValueError):
        PairLabel((1, 2, 3), 0, (4, 5, 6), 2)  # zero weight
    with pytest.raises(ValueError):
        PairLabel((1, 2, 3), 1, (3, 4, 5), 1)  # overlap
    with pytest.raises(ValueError):
        PairLabel((4, 5, 6), 1, (1, 2, 3), 1)  # wrong order
    normalized = PairLabel.from_parts([4, 5, 6], 1, [1, 2, 3], 1)
    assert normalized.p1 == (1, 2, 3)


def test_character_identity_is_cardinality():
    for n, k in [(6, 2), (7, 2), (7, 3), (8, 2)]:
        assert character_pset(n, k, "p1").dim() == cardinality_p1(n, k)
        assert character_pset(n, k, "p2").dim() == cardinality_p2(n, k)


def test_character_transposition_examples():
    ch1 = character_pset(6, 2, "p1")
    assert ch1.values[(2, 1, 1, 1, 1)] == 4
    ch2 = character_pset(6, 2, "p2")
    assert ch2.values[(2, 1, 1, 1, 1)] == 4


def test_character_values_bounded_and_nonneg():
    for n, k in [(6, 2), (7, 3)]:
        for which in ("p1", "p2"):
            ch = character_pset(n, k, which)
            for v in ch.values.values():
                assert 0 <= v <= ch.dim()


def test_character_against_direct_count():
    # independent recount of fixed 3+3 pairs under a 3-cycle at n=6
    g = representative((3, 1, 1, 1))
    fixed = 0
    for p1 in combinations(range(1, 7), 3):
        rest = [m for m in range(1, 7) if m not in p1 and m > p1[0]]
        for p2 in combinations(rest, 3):
            pair = PairLabel(p1, 1, p2, 1)
            if pair.act(g) == pair:
                fixed += 1
    assert character_pset(6, 2, "p2").values[(3, 1, 1, 1)] == fixed


def test_character_average_counts_orbits():
    # Burnside: the group average of a fixed-point character is the number
    # of orbits.  Size classes are single orbits for subsets; weighted
    # shape classes are single orbits for pairs.
    for n, k in [(6, 2), (7, 2), (7, 3), (8, 2), (8, 3)]:
        sizes = {len(a) for a in enumerate_p1(n, k)}
        assert character_pset(n, k, "p1").average() == len(sizes)
        shapes = {
            frozenset(((len(p.p1), p.a1), (len(p.p2), p.a2)))
            for p in enumerate_p2(n, k)
        }
        assert character_pset(n, k, "p2").average() == len(shapes)


def test_odd_pair_count_raises(monkeypatch):
    import strata_lab.psets as ps

    monkeypatch.setattr(ps, "comb", lambda n, k: 1)  # one ordered pair per size split
    with pytest.raises(ArithmeticError):
        cardinality_p2(6, 2)


def test_pset_domain_errors():
    with pytest.raises(DomainError):
        enumerate_p2(6, 1)
    with pytest.raises(DomainError):
        character_pset(6, 2, "p3")
    with pytest.raises(DomainError):
        inner_level(PairLabel.from_parts([1, 2, 3], 1, [4, 5, 9], 1), 6)


def test_w_surjects_onto_each_inner_level():
    # constructive witness: the standard tree of each pair maps back to it
    from strata_lab.trees import decompose_two_vertex
    from strata_lab.wtilde import standard_tree, w_map

    for n in range(6, 9):
        for k in range(2, n - 3):
            for pair in enumerate_p2(n, k):
                t = standard_tree(n, pair)
                assert w_map(t) == pair
                assert len(decompose_two_vertex(t)[4]) == inner_level(pair, n)


def test_inner_filtration_matches_tree_image():
    # the closed description of the level >= b pair sets equals the image
    # of the level >= b tree sets under the cut map
    from strata_lab.trees import (
        decompose_two_vertex,
        enumerate_strata,
        filtration_level,
    )
    from strata_lab.wtilde import w_map

    for n, k in [(6, 2), (7, 2), (7, 3)]:
        trees2 = [
            t for t in enumerate_strata(n, k) if filtration_level(t) == 2
        ]
        for b in range(0, n - k - 4 + 1):
            image = {
                w_map(t) for t in trees2 if len(decompose_two_vertex(t)[4]) >= b
            }
            closed = {p for p in enumerate_p2(n, k) if inner_level(p, n) >= b}
            assert image == closed
