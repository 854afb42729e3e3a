import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import islice
from types import ModuleType

import pytest
from oracles import (
    brute_force_filtration_key,
    brute_force_relations,
    brute_force_vertex_flags,
    reference_wtilde,
)

from strata_lab.homology import class_equal, graded_class_equal
from strata_lab.psets import PairLabel, enumerate_p2, inner_level
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    apply_permutation,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
)
from strata_lab.wtilde import (
    RewriteError,
    RewriteMove,
    apply_move,
    rewrite_to_standard,
    standard_tree,
    verify_forgetful_square,
    verify_relations_killed,
    w_map,
    wtilde,
)


def _wtilde_relation(terms):
    """wtilde of a relation, given by its terms {tree: coeff}, by linearity
    over them, in Fractions, zeros dropped as the sum goes."""
    acc = {}
    for tree, coeff in terms.items():
        for gamma, q in wtilde(tree).items():
            val = acc.get(gamma, 0) + coeff * q
            if val:
                acc[gamma] = val
            else:
                acc.pop(gamma, None)
    return acc


def _exponent(parts, gamma):
    """e = min(s1 - a1, s2 - a2) with s_i the parts making up side i of a
    pair covering the partitioned marks; None unless each side is a union
    of parts."""
    s1 = sum(1 for q in parts if q <= set(gamma.p1))
    s2 = sum(1 for q in parts if q <= set(gamma.p2))
    if s1 + s2 != len(parts):
        return None
    return min(s1 - gamma.a1, s2 - gamma.a2)


def _fat_parts(t):
    """The flags at the one fat vertex of a level-1 tree, as mark sets."""
    (fat,) = [f for f in brute_force_vertex_flags(t.n, t.splits) if len(f) >= 4]
    return [set(f) for f in fat]


def test_w_map_examples():
    t = MarkedTree.from_sides(6, [(4, 5, 6)])
    assert w_map(t) == PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    t2 = MarkedTree.from_sides(7, [(4, 5, 6), (4, 5, 6, 7)])
    assert w_map(t2) == PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    t3 = MarkedTree.from_sides(7, [(5, 6, 7)])
    assert w_map(t3) == PairLabel.from_parts([1, 2, 3, 4], 2, [5, 6, 7], 1)


def test_w_map_rejects_wrong_level():
    with pytest.raises(DomainError):
        w_map(MarkedTree.star(6))


def test_e_pi_examples():
    # the exponent e_pi of a level-1 tree, read off the sign of its wtilde
    # coefficient (-1)^e / 2.  One side is (A u B) plus a1 singleton blocks:
    # s1 - a1 = 1 and s2 - a2 = 2 forced, so the exponent is min(1, 2) = 1
    t = MarkedTree.from_sides(7, [(1, 2)])
    assert _fat_parts(t) == [{1, 2}, {3}, {4}, {5}, {6}, {7}]
    gamma = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6, 7], 2)
    assert _exponent(_fat_parts(t), gamma) == 1
    assert wtilde(t)[gamma] == Fraction(-1, 2)
    t2 = MarkedTree.from_sides(6, [(5, 6)])
    assert _fat_parts(t2) == [{1}, {2}, {3}, {4}, {5, 6}]
    gamma2 = PairLabel.from_parts([1, 5, 6], 1, [2, 3, 4], 1)
    assert _exponent(_fat_parts(t2), gamma2) == 1
    assert wtilde(t2)[gamma2] == Fraction(-1, 2)
    # side 1 is the union of s1 = 2 parts, {1} and {5, 6}
    assert sum(1 for q in _fat_parts(t2) if q <= set(gamma2.p1)) == 2
    # a pair whose side cuts a part is not in the image
    cut = PairLabel.from_parts([1, 3, 4], 1, [2, 5, 6], 1)
    assert _exponent([{1, 2}, {3}, {4}, {5}, {6}], cut) is None
    assert cut not in wtilde(MarkedTree.from_sides(6, [(1, 2)]))


def test_wtilde_level1_example():
    # 5-valent vertex with marks 1..4 plus a cherry {5,6}: four pairs, each -1/2
    t = MarkedTree.from_sides(6, [(5, 6)])
    img = wtilde(t)
    want = {}
    for x in (1, 2, 3, 4):
        rest = [m for m in (1, 2, 3, 4) if m != x]
        want[PairLabel.from_parts([x, 5, 6], 1, rest, 1)] = Fraction(-1, 2)
    assert img == want


def test_wtilde_matches_the_fraction_reference_in_order():
    # the half-unit core read as Fractions is the old Fraction map, pair by
    # pair and in the same iteration order, on every tree with k >= 2
    for n in range(5, 9):
        for k in range(2, n - 2):
            for t in enumerate_strata(n, k):
                assert list(wtilde(t).items()) == list(reference_wtilde(n, t.splits).items()), t


def test_wtilde_level1_coefficients_from_e_pi():
    t = MarkedTree.from_sides(7, [(6, 7)])  # 6-valent vertex, k = 3
    pi = _fat_parts(t)
    img = wtilde(t)
    assert img  # nonempty
    for gamma, coeff in img.items():
        e = _exponent(pi, gamma)
        assert coeff == Fraction((-1) ** e, 2)
        assert inner_level(gamma, 7) == 0


def test_wtilde_denominators_are_powers_of_two():
    for n, k in [(6, 2), (7, 3)]:
        for *_, terms in islice(brute_force_relations(n, k), 20):
            for q in _wtilde_relation(terms).values():
                assert q.denominator & (q.denominator - 1) == 0


def test_wtilde_level2_and_higher():
    t2 = MarkedTree.from_sides(6, [(4, 5, 6)])
    assert wtilde(t2) == {w_map(t2): Fraction(1)}
    # level >= 3 vanishes
    t3 = MarkedTree.from_sides(9, [(4, 5, 6), (7, 8, 9)])
    assert filtration_level(t3) == 3
    assert wtilde(t3) == {}
    # k = 0 trees vanish too
    for t in enumerate_strata(5, 0):
        assert wtilde(t) == {}


def test_wtilde_respects_inner_level():
    # a level-2 tree with marks on the middle lands in inner level >= 1
    t = MarkedTree.from_sides(7, [(4, 5, 6), (4, 5, 6, 7)])
    (gamma, coeff), = wtilde(t).items()
    assert coeff == 1
    assert inner_level(gamma, 7) == 1


def test_relations_killed_examples():
    for n, k in [(6, 2), (7, 2), (7, 3)]:
        rep = verify_relations_killed(n, k)
        assert rep.passed
        assert rep.max_residual == 0
        assert rep.relations == sum(1 for _ in brute_force_relations(n, k))


def test_relations_killed_rejects_bad_range():
    with pytest.raises(DomainError):
        verify_relations_killed(5, 1)


def test_killing_check_reports_a_flipped_image(monkeypatch):
    import strata_lab.wtilde as module

    n, k = 7, 2
    bad = next(t for t in enumerate_strata(n, k) if filtration_level(t) == 1 and wtilde(t))
    real = module._half_units

    def flipped(t):
        img = real(t)
        return {g: -h for g, h in img.items()} if t == bad else img

    # wtilde is the view of the half-unit core, so it sees the flip too
    monkeypatch.setattr(module, "_half_units", flipped)
    rep = verify_relations_killed(n, k)
    # the image of a level-1 tree lies in inner level 0, so every relation
    # through it, and no other, is left with a residual: the covering part
    # of its image summed in Fractions
    failing = [terms for *_, terms in brute_force_relations(n, k) if bad in terms]
    assert len(rep.failures) == len(failing) > 0
    for f, terms in zip(rep.failures, failing):
        want = {g: q for g, q in _wtilde_relation(terms).items() if inner_level(g, n) == 0}
        assert f["residual"] == {str(g.to_obj()): str(q) for g, q in want.items()}
    residuals = [Fraction(q) for f in rep.failures for q in f["residual"].values()]
    assert all(q != 0 and (2 * q).denominator == 1 for q in residuals)
    assert rep.max_residual == max(abs(q) for q in residuals) > 0


def _killed_reference(n, k):
    """verify_relations_killed(n, k).to_obj(), relation by relation from
    the brute-force relations and wtilde by linearity in Fractions."""
    count, failures, top = 0, [], Fraction(0)
    for sigma, v, flags, pairing, terms in brute_force_relations(n, k):
        count += 1
        residual = {g: q for g, q in _wtilde_relation(terms).items() if inner_level(g, n) == 0}
        if residual:
            top = max(top, *(abs(q) for q in residual.values()))
            failures.append({
                "sigma": sigma.to_obj(),
                "vertex": v,
                "flags": [list(f) for f in flags],
                "pairing": pairing,
                "residual": {str(g.to_obj()): str(q) for g, q in residual.items()},
            })
    return {"n": n, "k": k, "relations": count, "failures": failures,
            "max_residual": str(top)}


def _flip_some_level1_images(monkeypatch, n, k):
    """Negate the image of every 7th level-1 tree of (n, k) with a nonzero
    image, in enumeration order, so the killing check fails on some of its
    relations."""
    import strata_lab.wtilde as module

    real = module._half_units
    bad = {t for t in enumerate_strata(n, k) if filtration_level(t) == 1 and real(t)}
    bad = set(sorted(bad)[::7])
    monkeypatch.setattr(
        module, "_half_units",
        lambda t: {g: -h for g, h in real(t).items()} if t in bad else real(t))


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (7, 3)])
def test_killing_report_matches_the_relation_by_relation_reference(monkeypatch, n, k, flip):
    if flip:
        _flip_some_level1_images(monkeypatch, n, k)
    have = verify_relations_killed(n, k).to_obj()
    assert bool(have["failures"]) == flip
    # json.dumps keeps dict order: failures and residuals in the same order
    assert json.dumps(have) == json.dumps(_killed_reference(n, k))


# sha256 of json.dumps(verify_relations_killed(n, k).to_obj()) per (n, k),
# as (plain, flipped): flipped under _flip_some_level1_images, so the
# order of the failures and of each residual's pairs is pinned too
KILLED_DIGESTS = {
    (6, 2): ("2b1ce037e8f6a4898c3cd3df6af3a9605530087d284c43228cf8bcaa326a7dac",
             "d28dda00608a713c8e80c05813bcfb527ceec13a488b09984c066b83eac6b74d"),
    (7, 2): ("42876b074dcacb54ac2591cbe405cd5ae38f45f11321fe409ecb0c8a937c26c3",
             "6d60331974f718e562d076e0eafb17ea7ebbd2d62bf75209d2d3b0d6ba602b46"),
    (7, 3): ("4abec16e093644d77d5c116d45fff932700b547d3ba10f3745e5421b26b2d2ad",
             "a3c184a4e47048da868cfac7007923e5c5be08dd2cded94420189b705809df9a"),
    (8, 2): ("0267734cc6604a16802373837029f31221ea452ed89ce639e05e5e90c98152b0",
             "b00859326a220fc4cf97f73987f47445e8ec599c43f4e3c3a22adc44a9867e7b"),
    (8, 3): ("fe411b7097fde83c1e94d0995e7af67276f4077cb96aba6f79911b8170ef7ab5",
             "c0a08c7db7a0adc7658039fecaed38b29c7f3855faddfc65d780f1a9a2b4eade"),
    (8, 4): ("1f3e02c420364492af0135bdb0a2c8193ca9e4d525a31337bddf764e955554dd",
             "8bdeb72a19a193eab66dd8af8238bfc695930df762d8be4ad3f7aa9f7ea128cb"),
}


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("n, k", sorted(KILLED_DIGESTS))
def test_killing_report_is_pinned(monkeypatch, n, k, flip):
    if flip:
        _flip_some_level1_images(monkeypatch, n, k)
    have = json.dumps(verify_relations_killed(n, k).to_obj())
    assert hashlib.sha256(have.encode()).hexdigest() == KILLED_DIGESTS[n, k][flip]


@pytest.mark.parametrize("value, half_units", [(3, 6), (-2, -4)])
def test_covering_half_units_edge_cases(monkeypatch, value, half_units):
    # value is a value of wtilde; the core holds it as the int 2 * value,
    # which the killing check keys by the pair's number
    import strata_lab.wtilde as module

    n = 6
    full = (1 << n + 1) - 2
    t = MarkedTree.from_sides(n, [(4, 5, 6)])
    gamma = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    assert inner_level(gamma, n) == 0
    key = next(iter(module._half_units(t)))
    assert module._pair_label(key) == gamma
    monkeypatch.setattr(module, "_half_units", lambda tree: {key: 2 * value})
    number = {}
    img = module._covering_image(t, full, number)
    assert img == {0: half_units} and type(img[0]) is int
    assert number == {key: 0}


def test_wtilde_relation_linearity():
    # wtilde of a relation by linearity is the same combination of the
    # reference images, pair by pair
    for *_, terms in islice(brute_force_relations(6, 2), 40):
        direct = {}
        for t, c in terms.items():
            for g, q in reference_wtilde(t.n, t.splits).items():
                direct[g] = direct.get(g, Fraction(0)) + c * q
        direct = {g: q for g, q in direct.items() if q}
        assert _wtilde_relation(terms) == direct


def test_forgetful_square_example():
    rep = verify_forgetful_square(6, 2, 0)
    assert rep.passed
    assert rep.checked == 70


def test_forgetful_square_more_cases():
    for n, k, b in [(7, 2, 0), (7, 2, 1), (7, 3, 0)]:
        rep = verify_forgetful_square(n, k, b)
        assert rep.passed and rep.checked > 0


def test_forgetful_square_decomposes_only_its_inner_level(monkeypatch):
    from strata_lab.trees import _filtration_keys

    import strata_lab.wtilde as w

    # the keys against an independent oracle built on least-superset flags
    for m in range(3, 9):
        for j in range(m - 2):
            assert _filtration_keys(m, j) == tuple(
                brute_force_filtration_key(m, t.splits) for t in enumerate_strata(m, j)), (m, j)
    n, k = 7, 2
    keys = _filtration_keys(n + 1, k)
    calls = []
    real = w._two_vertex_bits

    def counting(t, *args):
        calls.append(t)
        return real(t, *args)

    groups = w._square_trees(n, k)
    monkeypatch.setattr(w, "_two_vertex_bits", counting)
    for b in range(n - k - 3):
        calls.clear()
        rep = verify_forgetful_square(n, k, b)
        # the n-marked images are decomposed too; count the (n+1)-marked trees,
        # one per built tree: the counted places are decomposed nowhere
        selected = [t for t in calls if t.n == n + 1]
        built = groups[b][1]
        assert rep.passed and selected == list(built) and len(built) > 0
        assert rep.checked == keys.count(2 * (n + 1) + b + 1)



@pytest.mark.parametrize("n, k", [
    (n, k) if n < 8 else pytest.param(n, k, marks=pytest.mark.slow)
    for n in range(5, 9) for k in range(2, n - 3)])
def test_square_trees_are_the_checked_strata_in_order(monkeypatch, n, k):
    # every valid (n, k, b) with n <= 8
    import strata_lab.trees as tr
    from strata_lab.trees import _filtration_keys

    import strata_lab.wtilde as w

    # the check derives its trees from their parents on n marks and asks
    # for no level on n+1 marks
    asked = []
    real_level = tr._level

    def spy(m, n_edges):
        asked.append(m)
        return real_level(m, n_edges)

    monkeypatch.setattr(tr, "_level", spy)
    w._square_trees.cache_clear()
    reports = [verify_forgetful_square(n, k, b) for b in range(n - k - 3)]
    assert asked and n + 1 not in asked
    monkeypatch.undo()
    groups = w._square_trees(n, k)
    strata, keys = enumerate_strata(n + 1, k), _filtration_keys(n + 1, k)
    assert len(groups) == len(reports) == n - k - 3
    for b, ((counted, built), rep) in enumerate(zip(groups, reports)):
        # counted: mark n+1 at a fat vertex or inside a fat vertex's component
        level = [t for t, key in zip(strata, keys) if key == 2 * (n + 1) + b + 1]
        outer = [n + 1 in p1 | p2 for p1, _, p2, _, _ in map(decompose_two_vertex, level)]
        assert counted == sum(outer) > 0
        assert list(built) == [t for t, out in zip(level, outer) if not out]
        assert rep.passed and rep.checked == len(level)
    # under a forget_mark that moves pairs, the mismatches come in enumeration order
    real_forget = w.forget_mark
    swap = (2, 1, *range(3, n + 1))

    def swapped(t):
        return apply_permutation(real_forget(t)[0], swap), False

    monkeypatch.setattr(w, "forget_mark", swapped)
    for b, (_, built) in enumerate(groups):
        want = [t.to_obj() for t in built if w_map(t) != w_map(swapped(t)[0])]
        rep = verify_forgetful_square(n, k, b)
        assert want and [m["sigma"] for m in rep.mismatches] == want, b


def test_square_trees_build_and_key_only_the_trees_they_keep(monkeypatch):
    import strata_lab.trees as tr

    import strata_lab.wtilde as w

    built, keyed = [], []
    real_init, real_key = MarkedTree.__post_init__, tr._filtration_key

    def counting_init(self):
        built.append(self.n)
        real_init(self)

    def counting_key(t):
        keyed.append(t.n)
        return real_key(t)

    n = 7
    for k in range(2, n - 3):
        for j in (k - 1, k):
            enumerate_strata(n, j)  # the parents, cached
        w._square_trees.cache_clear()
        built.clear()
        keyed.clear()
        monkeypatch.setattr(MarkedTree, "__post_init__", counting_init)
        monkeypatch.setattr(tr, "_filtration_key", counting_key)
        groups = w._square_trees(n, k)
        monkeypatch.undo()
        # a MarkedTree for each built tree, none for the counted places, and
        # no (n+1)-marked tree keyed
        assert built == [n + 1] * sum(len(g[1]) for g in groups) and n + 1 not in keyed, k
        assert all(g[0] > 0 for g in groups), k


def test_forgetful_square_bad_range():
    with pytest.raises(DomainError):
        verify_forgetful_square(6, 2, 1)


def test_forgetful_square_records_each_mismatch(monkeypatch):
    # forgetting the last mark, then swapping marks 1 and 2, moves the pair
    # of every image whose marks 1 and 2 do not sit on the same side
    import strata_lab.wtilde as w

    real = w.forget_mark
    swap = (2, 1, *range(3, 7))
    monkeypatch.setattr(w, "forget_mark", lambda t: (apply_permutation(real(t)[0], swap), False))
    rep = verify_forgetful_square(6, 2, 0)
    assert rep.checked == 70 and not rep.passed
    for m in rep.mismatches:
        assert set(m) == {"sigma", "pair_route", "tree_route"}
        sigma = MarkedTree.from_obj(m["sigma"])
        image = apply_permutation(real(sigma)[0], swap)
        assert m["pair_route"] == w_map(sigma).to_obj() != m["tree_route"]
        assert m["tree_route"] == w_map(image).to_obj()


def test_standard_tree_example():
    pair = PairLabel.from_parts([1, 2, 3, 4], 1, [5, 6, 7, 8], 2)
    s0 = standard_tree(8, pair)
    assert s0 == MarkedTree.from_sides(8, [(3, 4), (5, 6, 7, 8)])


def test_rewrite_example_n8():
    t = MarkedTree.from_sides(8, [(3, 4, 5, 6, 7, 8), (5, 6, 7, 8)])
    s0, moves = rewrite_to_standard(t)
    assert s0 == MarkedTree.from_sides(8, [(3, 4), (5, 6, 7, 8)])
    assert moves
    cur = t
    for mv in moves:
        cur = apply_move(cur, mv)
    assert cur == s0


def test_rewrite_idempotent():
    for pair in enumerate_p2(7, 2)[:25]:
        s0 = standard_tree(7, pair)
        again, moves = rewrite_to_standard(s0)
        assert again == s0 and moves == []


def test_rewrite_well_defined_exhaustive_small():
    for n in range(6, 9):
        for k in range(2, n - 3):
            fibers = {}
            for t in enumerate_strata(n, k):
                if filtration_level(t) != 2:
                    continue
                s0, moves = rewrite_to_standard(t)
                pair = w_map(t)
                assert s0 == standard_tree(n, pair)
                fibers.setdefault(pair, set()).add(s0)
                cur = t
                for mv in moves:
                    cur = apply_move(cur, mv)
                assert cur == s0
            assert all(len(v) == 1 for v in fibers.values())
            assert set(fibers) == set(enumerate_p2(n, k))


def test_rewrite_moves_preserve_the_right_classes():
    # rearranges preserve the homology class; swaps preserve the class in
    # the inner graded piece (their relation drops higher-level terms)
    rng = random.Random(0)
    pool = [
        t
        for k in (2, 3)
        for t in enumerate_strata(7, k)
        if filtration_level(t) == 2
    ]
    for t in rng.sample(pool, 60):
        b = len(decompose_two_vertex(t)[4])
        cur = t
        for mv in rewrite_to_standard(t)[1]:
            nxt = apply_move(cur, mv)
            if mv.kind == "rearrange":
                assert class_equal(cur, nxt)
            else:
                assert graded_class_equal(cur, nxt)
            cur = nxt
        assert graded_class_equal(t, cur)
        assert len(decompose_two_vertex(cur)[4]) == b


def test_rewrite_moves_preserve_invariants():
    rng = random.Random(5)
    pool = [t for t in enumerate_strata(7, 2) if filtration_level(t) == 2]
    for t in rng.sample(pool, 40):
        pair = w_map(t)
        b = len(decompose_two_vertex(t)[4])
        cur = t
        for mv in rewrite_to_standard(t)[1]:
            cur = apply_move(cur, mv)
            assert filtration_level(cur) == 2
            assert w_map(cur) == pair
            assert len(decompose_two_vertex(cur)[4]) == b


# sha256 over the move lists of every level-2 tree at n, k = 2..n-4 in
# enumeration order, each list as compact JSON of [m.to_obj() for m in moves];
# recorded before the rewrite worked on split bitmasks
MOVE_DIGESTS = {
    7: "607ebf49ff685d9c41c8c604573572606c7c17e2cb354c9782bedfabf44f184b",
    8: "0ed9cd87b57cafff790c36a2aa4f89333296f98f99e329d391a904b975d5a5c3",
}


@pytest.mark.parametrize("n", sorted(MOVE_DIGESTS))
def test_rewrite_move_lists_are_unchanged(n):
    h = hashlib.sha256()
    for k in range(2, n - 3):
        for t in enumerate_strata(n, k):
            if filtration_level(t) == 2:
                moves = rewrite_to_standard(t)[1]
                h.update(json.dumps([m.to_obj() for m in moves], separators=(",", ":")).encode())
    assert h.hexdigest() == MOVE_DIGESTS[n]


def test_rewrite_builds_no_tree(monkeypatch):
    n = 7
    pool = [t for k in range(2, n - 3) for t in enumerate_strata(n, k) if filtration_level(t) == 2]
    for t in pool:
        standard_tree(n, w_map(t))  # cached: the end check builds nothing below
    built = []
    real = MarkedTree.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(MarkedTree, "__post_init__", counting)
    recorded = 0
    for t in pool:
        built.clear()
        sigma0, moves = rewrite_to_standard(t)
        # the rewrite works on bitmasks and returns the cached standard tree
        assert built == [], t
        assert sigma0 is standard_tree(n, w_map(t))
        recorded += len(moves)
    assert recorded > 0


def test_unknown_move_kinds_and_marks_are_refused():
    with pytest.raises(DomainError, match="unknown move kind 'swap'"):
        RewriteMove.from_obj({"kind": "swap", "e": [2, 3], "a": [2], "b": 3, "c": [4]})
    t = MarkedTree.from_sides(8, [(2, 6), (2, 6, 7, 8)])
    with pytest.raises(DomainError, match="unknown move kind"):
        apply_move(t, RewriteMove("swap", (frozenset({2, 6}), frozenset({2}), 6, frozenset({7}))))
    with pytest.raises(DomainError, match="move mark 9"):
        apply_move(t, RewriteMove("km_swap", (frozenset({2, 6}), frozenset({2}), 6,
                                              frozenset({9}))))


SWAP_TREE = MarkedTree.from_sides(7, [(2, 3), (2, 3, 4, 5)])
SWAP = {"kind": "km_swap", "e": [2, 3], "a": [3], "b": 2, "c": [5]}  # recorded at (7,2)


def test_recorded_swap_replays():
    moved = apply_move(SWAP_TREE, RewriteMove.from_obj(SWAP))
    assert moved == MarkedTree.from_sides(7, [(2, 3, 4, 5), (3, 5)])


@pytest.mark.parametrize("fields, message", [
    ({"b": 99}, "move mark 99 is not a mark in 1..7"),  # was ignored
    ({"b": 4}, r"swap mark 4 is not in its edge \[2, 3\]"),
    ({"a": [2, 3]}, r"swap side \[2, 3\] is not its edge \[2, 3\] less mark 2"),  # a == e
    ({"c": [3, 5]}, r"swap flag \[3, 5\] meets its edge \[2, 3\]"),
    ({"c": [4, 5, 6]}, r"km_swap does not fit the tree .*: incompatible splits"),  # was ValueError
])
def test_swap_that_is_not_one_is_refused(fields, message):
    with pytest.raises(DomainError, match=message):
        apply_move(SWAP_TREE, RewriteMove.from_obj({**SWAP, **fields}))


@pytest.mark.parametrize("obj, field", [
    (SWAP, "c"), (SWAP, "e"), (SWAP, "b"),  # was KeyError
    ({"kind": "rearrange", "region": ["hanging", [2, 3]], "sides": []}, "sides"),
])
def test_move_object_with_a_field_missing_names_it(obj, field):
    with pytest.raises(DomainError, match=f"{obj['kind']} move has no field {field}$"):
        RewriteMove.from_obj({k: v for k, v in obj.items() if k != field})


@pytest.mark.parametrize("obj, message", [
    ({"e": [2, 3]}, "move has no field kind"),  # was "unknown move kind None"
    ([SWAP], "move must be a JSON object, got list"),  # was AttributeError
    ({**SWAP, "e": 3}, "km_swap move e must be a list of numbers"),  # was TypeError
    ({"kind": "rearrange", "region": 3, "sides": []},  # was TypeError
     "rearrange move region must be a list"),
    ({"kind": "rearrange", "region": ["hanging", 3], "sides": []},
     "rearrange move region set must be a list of numbers"),
])
def test_move_object_without_a_kind_or_not_an_object_is_refused(obj, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        RewriteMove.from_obj(obj)


@pytest.mark.parametrize("region", [
    ("bogus", frozenset({2, 6}), frozenset({7})),  # was replayed as "middle"
    ("bogus", frozenset({2, 6})),  # raised IndexError
    ("hanging", frozenset({2, 6}), frozenset({7})),
    ("middle", frozenset({2, 6})),
    (),
])
def test_unknown_rearrange_regions_are_refused(region):
    t = MarkedTree.from_sides(8, [(2, 6), (2, 6, 7, 8)])
    move = RewriteMove("rearrange", (region, (frozenset({6, 7}),)))
    with pytest.raises(DomainError, match="unknown rearrange region"):
        apply_move(t, move)
    obj = {"kind": "rearrange", "region": [region[0], *map(sorted, region[1:])] if region else [],
           "sides": [[6, 7]]}
    with pytest.raises(DomainError, match="unknown rearrange region"):
        RewriteMove.from_obj(obj)


def test_move_serialization_round_trip():
    # both required marks of the second side start inside a hanging cherry
    t = MarkedTree.from_sides(8, [(2, 6), (2, 6, 7, 8)])
    s0, moves = rewrite_to_standard(t)
    assert moves
    replayed = t
    for mv in moves:
        mv2 = RewriteMove.from_obj(mv.to_obj())
        replayed = apply_move(replayed, mv2)
    assert replayed == s0


# the moves recorded over every level-2 tree: n = 7 records no rearrange
@pytest.mark.parametrize("n, kinds", [(7, {"km_swap"}), (8, {"km_swap", "rearrange"})])
def test_every_move_round_trips_through_json(n, kinds):
    seen = set()
    for k in range(2, n - 3):
        for t in enumerate_strata(n, k):
            if filtration_level(t) != 2:
                continue
            s0, moves = rewrite_to_standard(t)
            decoded = [RewriteMove.from_obj(json.loads(json.dumps(m.to_obj()))) for m in moves]
            assert decoded == moves
            replayed = t
            for mv in decoded:
                replayed = apply_move(replayed, mv)
            assert replayed == s0 == standard_tree(n, w_map(t))
            seen.update(m.kind for m in moves)
    assert seen == kinds


def test_rewrite_refuses_to_end_off_the_standard_tree(monkeypatch):
    import strata_lab.wtilde as w

    t = MarkedTree.from_sides(8, [(2, 6), (2, 6, 7, 8)])
    monkeypatch.setattr(w, "_standard_tree", lambda n, key: MarkedTree.star(n))
    with pytest.raises(RewriteError, match="rewrite ended at splits"):
        rewrite_to_standard(t)


def test_the_package_attribute_wtilde_is_the_module():
    import strata_lab.wtilde as w

    assert isinstance(w, ModuleType)
    assert w.wtilde is wtilde


def test_wtilde_conditions_on_samples():
    # restriction to level-2 covering trees agrees with the plain cut map,
    # level >= 3 vanishes, and middle-marked level-2 trees land in inner
    # level >= 1 (sampled)
    rng = random.Random(3)
    for n, k in [(7, 2), (7, 3), (8, 2)]:
        trees = [t for t in enumerate_strata(n, k) if filtration_level(t) >= 2]
        for t in rng.sample(trees, min(60, len(trees))):
            img = wtilde(t)
            if filtration_level(t) >= 3:
                assert img == {}
                continue
            (gamma, coeff), = img.items()
            assert gamma == w_map(t) and coeff == 1
            b = len(decompose_two_vertex(t)[4])
            assert inner_level(gamma, n) == b
