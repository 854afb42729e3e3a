import importlib
import json
import random
import sys
from fractions import Fraction

import pytest
from oracles import brute_force_filtration_key
from test_homology import _succeeds_under_O

from strata_lab.homology import class_equal, graded_class_equal
from strata_lab.psets import PairLabel, enumerate_p2, inner_level
from strata_lab.relations import generate_relations
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
)
from strata_lab.wtilde import (
    RewriteMove,
    apply_move,
    e_pi,
    level1_partition,
    rewrite_to_standard,
    standard_tree,
    verify_forgetful_square,
    verify_relations_killed,
    w_map,
    wtilde,
    wtilde_relation,
)


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
    # one side is (A u B) plus a1 singleton blocks: s1 - a1 = 1 and
    # s2 - a2 = 2 forced, so the exponent is min(1, 2) = 1
    pi = [{1, 2}, {3}, {4}, {5}, {6}, {7}]
    gamma = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6, 7], 2)
    assert e_pi(pi, gamma) == 1
    pi2 = [{1}, {2}, {3}, {4}, {5, 6}]
    gamma2 = PairLabel.from_parts([1, 5, 6], 1, [2, 3, 4], 1)
    assert e_pi(pi2, gamma2) == 1
    assert e_pi(pi2, gamma2, s1=2) == 1


def test_e_pi_errors():
    pi = [{1, 2}, {3}, {4}, {5}, {6}]
    gamma = PairLabel.from_parts([1, 3, 4], 1, [2, 5, 6], 1)  # splits {1,2}
    with pytest.raises(DomainError):
        e_pi(pi, gamma)
    good = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    with pytest.raises(DomainError):
        e_pi(pi, good, s1=3)
    not_covering = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    with pytest.raises(DomainError):
        e_pi([{1, 2}, {3}, {4}, {5}, {6}, {7}], not_covering)


def test_wtilde_level1_example():
    # 5-valent vertex with marks 1..4 plus a cherry {5,6}: four pairs, each -1/2
    t = MarkedTree.from_sides(6, [(5, 6)])
    img = wtilde(t)
    want = {}
    for x in (1, 2, 3, 4):
        rest = [m for m in (1, 2, 3, 4) if m != x]
        want[PairLabel.from_parts([x, 5, 6], 1, rest, 1)] = Fraction(-1, 2)
    assert img == want


def test_wtilde_level1_coefficients_from_e_pi():
    t = MarkedTree.from_sides(7, [(6, 7)])  # 6-valent vertex, k = 3
    pi = level1_partition(t)
    img = wtilde(t)
    assert img  # nonempty
    for gamma, coeff in img.items():
        e = e_pi(pi, gamma)
        assert coeff == Fraction((-1) ** e, 2)
        assert inner_level(gamma, 7) == 0


def test_wtilde_denominators_are_powers_of_two():
    for n, k in [(6, 2), (7, 3)]:
        for rel in generate_relations(n, k)[:20]:
            for q in wtilde_relation(rel).values():
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
        assert rep.relations == len(generate_relations(n, k))


def test_relations_killed_rejects_bad_range():
    with pytest.raises(DomainError):
        verify_relations_killed(5, 1)


def test_killing_check_reports_a_flipped_image(monkeypatch):
    # the package attribute strata_lab.wtilde is the function, not the module
    module = sys.modules["strata_lab.wtilde"]
    n, k = 7, 2
    bad = next(t for t in enumerate_strata(n, k) if filtration_level(t) == 1 and wtilde(t))

    def flipped(t):
        img = wtilde(t)
        return {g: -q for g, q in img.items()} if t == bad else img

    monkeypatch.setattr(module, "wtilde", flipped)
    rep = verify_relations_killed(n, k)
    # the image of a level-1 tree lies in inner level 0, so every relation
    # through it, and no other, is left with a residual: the covering part
    # of its image summed in Fractions
    failing = [r for r in generate_relations(n, k) if bad in r.terms]
    assert len(rep.failures) == len(failing) > 0
    for f, rel in zip(rep.failures, failing):
        want = {g: q for g, q in wtilde_relation(rel).items() if inner_level(g, n) == 0}
        assert f["residual"] == {str(g.to_obj()): str(q) for g, q in want.items()}
    residuals = [Fraction(q) for f in rep.failures for q in f["residual"].values()]
    assert all(q != 0 and (2 * q).denominator == 1 for q in residuals)
    assert rep.max_residual == max(abs(q) for q in residuals) > 0


def _killed_reference(n, k):
    """verify_relations_killed(n, k).to_obj(), relation by relation from
    generate_relations and wtilde_relation in Fractions."""
    rels = generate_relations(n, k)
    failures, top = [], Fraction(0)
    for rel in rels:
        residual = {g: q for g, q in wtilde_relation(rel).items() if inner_level(g, n) == 0}
        if residual:
            top = max(top, *(abs(q) for q in residual.values()))
            failures.append({
                "sigma": rel.sigma.to_obj(),
                "vertex": rel.vertex,
                "flags": [list(f) for f in rel.flags],
                "pairing": rel.pairing,
                "residual": {str(g.to_obj()): str(q) for g, q in residual.items()},
            })
    return {"n": n, "k": k, "relations": len(rels), "failures": failures,
            "max_residual": str(top)}


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (7, 3)])
def test_killing_report_matches_the_relation_by_relation_reference(monkeypatch, n, k, flip):
    module = sys.modules["strata_lab.wtilde"]
    if flip:
        real = wtilde
        bad = {t for t in enumerate_strata(n, k) if filtration_level(t) == 1 and real(t)}
        bad = set(sorted(bad)[::7])
        monkeypatch.setattr(
            module, "wtilde",
            lambda t: {g: -q for g, q in real(t).items()} if t in bad else real(t))
    have = verify_relations_killed(n, k).to_obj()
    assert bool(have["failures"]) == flip
    # json.dumps keeps dict order: failures and residuals in the same order
    assert json.dumps(have) == json.dumps(_killed_reference(n, k))


def test_killing_check_builds_no_relation_objects(monkeypatch):
    import strata_lab.relations as rel_mod

    def no_relation(*args, **kwargs):
        raise AssertionError("KMRelation built by the killing check")

    monkeypatch.setattr(rel_mod, "KMRelation", no_relation)
    rep = verify_relations_killed(7, 2)
    assert rep.passed and rep.relations > 0


THIRD_UNDER_O = """
import sys
from fractions import Fraction
import strata_lab
from strata_lab.trees import enumerate_strata, filtration_level

module = sys.modules["strata_lab.wtilde"]
if not sys.flags.optimize:
    sys.exit("not running under -O")
wtilde = module.wtilde
bad = next(t for t in enumerate_strata(6, 2) if filtration_level(t) == 1 and wtilde(t))
module.wtilde = lambda t: {g: Fraction(1, 3) for g in wtilde(t)} if t == bad else wtilde(t)
try:
    module.verify_relations_killed(6, 2)
except module.HalfIntegerError:
    sys.exit(0)
sys.exit("the half-unit check let 1/3 through")
"""


def test_killing_check_refuses_a_third_under_python_O():
    _succeeds_under_O(THIRD_UNDER_O)


@pytest.mark.parametrize("value, half_units", [
    (Fraction(1), 2), (Fraction(-1, 2), -1), (3, 6), (-2, -4), (Fraction(1, 4), None)])
def test_covering_half_units_edge_cases(monkeypatch, value, half_units):
    module = sys.modules["strata_lab.wtilde"]
    n = 6
    t = MarkedTree.from_sides(n, [(4, 5, 6)])
    gamma = PairLabel.from_parts([1, 2, 3], 1, [4, 5, 6], 1)
    assert inner_level(gamma, n) == 0
    monkeypatch.setattr(module, "wtilde", lambda tree: {gamma: value})
    if half_units is None:
        with pytest.raises(module.HalfIntegerError):
            module._covering_half_units(t, n)
    else:
        assert module._covering_half_units(t, n) == {gamma: half_units}


def test_wtilde_relation_linearity():
    rels = generate_relations(6, 2)
    rel = rels[0]
    direct = {}
    for t, c in rel.terms.items():
        for g, q in wtilde(t).items():
            direct[g] = direct.get(g, Fraction(0)) + c * q
    direct = {g: q for g, q in direct.items() if q}
    assert wtilde_relation(rel) == direct


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

    w = importlib.import_module("strata_lab.wtilde")  # the package exports a function wtilde
    # the keys against an independent oracle built on least-superset flags
    for m in range(3, 9):
        for j in range(m - 2):
            assert _filtration_keys(m, j) == tuple(
                brute_force_filtration_key(m, t.splits) for t in enumerate_strata(m, j)), (m, j)
    n, k = 7, 2
    keys = _filtration_keys(n + 1, k)
    calls = []

    def counting(t):
        calls.append(t)
        return decompose_two_vertex(t)

    monkeypatch.setattr(w, "decompose_two_vertex", counting)
    for b in range(n - k - 3):
        calls.clear()
        rep = verify_forgetful_square(n, k, b)
        # w_map decomposes the n-marked images too; count the (n+1)-marked trees
        selected = [t for t in calls if t.n == n + 1]
        assert rep.passed and len(selected) == rep.checked == keys.count(2 * (n + 1) + b + 1) > 0


def test_forgetful_square_bad_range():
    with pytest.raises(DomainError):
        verify_forgetful_square(6, 2, 1)


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
