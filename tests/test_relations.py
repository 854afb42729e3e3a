import json
import random
from math import comb

import pytest
from oracles import rank_fraction
from test_homology import _succeeds_under_O

import strata_lab.homology as h
import strata_lab.relations as rel_mod
from strata_lab.exact_linalg import ModEchelon, prime_stream, quotient_basis
from strata_lab.relations import (
    expand_relation,
    generate_relations,
    relations_jsonl,
    spanning_relations,
)
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    apply_permutation,
    enumerate_strata,
    split_vertex,
    vertex_flags,
)


def _index(n, k):
    return {t: i for i, t in enumerate(enumerate_strata(n, k))}


def test_4_0_relations_exact():
    rels = generate_relations(4, 0)
    assert len(rels) == 2
    t_1234 = MarkedTree.from_sides(4, [(3, 4)])
    t_1324 = MarkedTree.from_sides(4, [(2, 4)])
    t_1423 = MarkedTree.from_sides(4, [(2, 3)])
    assert rels[0].terms == {t_1234: 1, t_1324: -1}
    assert rels[1].terms == {t_1234: 1, t_1423: -1}


def test_5_0_count_and_rank():
    rels = generate_relations(5, 0)
    assert len(rels) == 20
    idx = _index(5, 0)
    rows = [r.row(idx) for r in rels]
    # oracle rank over Q, frozen: 14
    assert rank_fraction(rows, 15) == 14


def test_star5_expansion_example():
    star = MarkedTree.star(5)
    rel = expand_relation(star, 0, (1,), (2,), (3,), (4,), 1)
    # (12|345) + (125|34) - (13|245) - (135|24)
    want = {
        MarkedTree.from_sides(5, [(3, 4, 5)]): 1,
        MarkedTree.from_sides(5, [(3, 4)]): 1,
        MarkedTree.from_sides(5, [(2, 4, 5)]): -1,
        MarkedTree.from_sides(5, [(2, 4)]): -1,
    }
    assert rel.terms == want


def test_term_counts():
    star = MarkedTree.star(4)
    assert len(expand_relation(star, 0, (1,), (2,), (3,), (4,), 1).terms) == 2
    star6 = MarkedTree.star(6)
    rel = expand_relation(star6, 0, (1,), (2,), (3,), (4,), 2)
    assert len(rel.terms) == 8
    for n in (5, 6, 7):
        for sigma in random.Random(n).sample(list(enumerate_strata(n, 1)), 5):
            for v, fl in enumerate(vertex_flags(sigma)):
                if len(fl) < 4:
                    continue
                quad = fl[:4]
                rest = len(fl) - 4
                rel = expand_relation(sigma, v, *quad, 1)
                assert len(rel.terms) == 2 * 2**rest
                assert sorted(rel.terms.values()).count(-1) == 2**rest


def test_repeated_flags_rejected():
    star = MarkedTree.star(5)
    with pytest.raises(DomainError):
        expand_relation(star, 0, (1,), (1,), (3,), (4,), 1)


def test_domain_errors():
    with pytest.raises(DomainError):
        generate_relations(5, 2)  # k = n-3: no relations
    with pytest.raises(DomainError):
        generate_relations(5, -1)


def test_third_pairing_in_row_span():
    # (AC|BD) - (AD|BC) equals rel2 - rel1 exactly, term by term
    rng = random.Random(1)
    for n, k in [(5, 0), (6, 1), (6, 0), (7, 1)]:
        sigmas = enumerate_strata(n, k + 1)
        for sigma in rng.sample(list(sigmas), min(5, len(sigmas))):
            for v, fl in enumerate(vertex_flags(sigma)):
                if len(fl) < 4:
                    continue
                a, b, c, d = fl[:4]
                r1 = expand_relation(sigma, v, a, b, c, d, 1)
                r2 = expand_relation(sigma, v, a, b, c, d, 2)
                third = {}
                for t, coeff in r2.terms.items():
                    third[t] = third.get(t, 0) + coeff
                for t, coeff in r1.terms.items():
                    third[t] = third.get(t, 0) - coeff
                third = {t: v2 for t, v2 in third.items() if v2}
                # expand (AC|BD) - (AD|BC) directly
                direct = {}
                for t, coeff in expand_relation(sigma, v, a, c, b, d, 2).terms.items():
                    direct[t] = direct.get(t, 0) + coeff
                direct = {t: v2 for t, v2 in direct.items() if v2}
                assert third == direct


def test_relations_are_equivariant():
    # permuting the provenance and regenerating = permuting the terms
    rng = random.Random(9)
    for n, k in [(5, 0), (6, 1)]:
        rels = generate_relations(n, k)
        for rel in rng.sample(rels, 10):
            g = list(range(1, n + 1))
            rng.shuffle(g)
            g = tuple(g)
            sigma_g = apply_permutation(rel.sigma, g)
            flags_g = [tuple(sorted(g[m - 1] for m in f)) for f in rel.flags]
            moved = {f: tuple(sorted(fs)) for f, fs in zip(rel.flags, flags_g)}
            fl_new = vertex_flags(sigma_g)
            v_new = next(
                v for v, fl in enumerate(fl_new)
                if all(moved[f] in fl for f in rel.flags)
            )
            rel_g = expand_relation(sigma_g, v_new, *flags_g, rel.pairing)
            want = {apply_permutation(t, g): c for t, c in rel.terms.items()}
            assert rel_g.terms == want


def test_jsonl_round_trip():
    lines = list(relations_jsonl(5, 0))
    assert len(lines) == 20
    idx = _index(5, 0)
    rels = generate_relations(5, 0)
    for line, rel in zip(lines, rels):
        obj = json.loads(line)
        assert obj["terms"] == sorted([idx[t], c] for t, c in rel.terms.items())
        assert MarkedTree.from_obj(obj["sigma"]) == rel.sigma


def _full_rows(n, k):
    idx = _index(n, k)
    return [r.row(idx) for r in generate_relations(n, k)]


@pytest.mark.parametrize("n, rows, rank", [(5, 6, 5), (6, 12, 9), (7, 20, 14)])
def test_spanning_family_on_stars(n, rows, rank):
    # the base cases (5 and 6 marks) of the spanning argument, and 7 marks
    # as a check of its induction: at k = n-4 the only site is the star
    idx = _index(n, n - 4)
    sub = [r.row(idx) for r in spanning_relations(n, n - 4)]
    assert len(sub) == rows
    assert rank_fraction(sub, len(idx)) == rank
    assert rank_fraction(_full_rows(n, n - 4), len(idx)) == rank


def test_spanning_family_is_the_subfamily_through_the_two_least_flags():
    def key(rel):
        return rel.sigma, rel.vertex, rel.flags, rel.pairing, rel.terms

    for n in (4, 5, 6, 7):
        for k in range(n - 3):
            want = [
                key(r) for r in generate_relations(n, k)
                if set(vertex_flags(r.sigma)[r.vertex][:2]) <= set(r.flags)
            ]
            assert [key(r) for r in spanning_relations(n, k)] == want


@pytest.mark.parametrize("n, k", [(n, k) for n in (4, 5, 6, 7) for k in range(n - 3)]
                         + [(8, 3), (8, 4)])
def test_spanning_family_has_the_full_rank(n, k):
    # the streamed rows are those of the spanning KMRelations, in order and
    # with their terms in order; no row is empty and no two rows are equal
    # up to sign, so the rows need no deduplication before elimination
    rows = h._relation_rows(n, k)
    idx = _index(n, k)
    assert [list(r.items()) for r in rows] == [
        list(rel.row(idx).items()) for rel in spanning_relations(n, k)]
    signed = {frozenset((c, s * v) for c, v in r.items()) for r in rows for s in (1, -1)}
    assert all(rows) and len(signed) == 2 * len(rows)
    for p in [p for _, p in zip(range(2), prime_stream(31))]:
        full = ModEchelon(p)
        full.add_rows(_full_rows(n, k))
        assert h._echelon(n, k, p).rank == full.rank


def test_spanning_family_gives_the_same_quotient_basis():
    n, k = 7, 2
    p = next(iter(prime_stream(5)))
    full = ModEchelon(p)
    full.add_rows(_full_rows(n, k))
    want = quotient_basis(full, len(_index(n, k)))
    have = h._quotient_basis(n, k, p)
    assert (have.pivot_cols, have.free_cols) == (want.pivot_cols, want.free_cols)
    assert have._rows == want._rows


@pytest.mark.parametrize("quads", [rel_mod._every_quad, rel_mod._spanning_quads],
                         ids=["every", "spanning"])
def test_site_trees_are_the_strata_split_along_the_template(quads):
    """Every site tree is the enumerated stratum that splits the site along
    its template split; a template of valence m has every split of the
    m-pointed star once and the rows of its quad family."""
    for n in (4, 5, 6, 7):
        for k in range(n - 3):
            enumerated = {id(t) for t in enumerate_strata(n, k)}
            for sigma, v, fl, trees, rows in rel_mod._sites(n, k, quads):
                m = len(fl)
                keys, template_rows = rel_mod._template(m, quads)
                assert rows is template_rows
                assert len(keys) == len(set(keys)) == len(trees) == 2 ** (m - 1) - m - 1
                want = 2 * comb(m, 4) if quads is rel_mod._every_quad else (m - 2) * (m - 3)
                assert len(rows) == want
                for key, t in zip(keys, trees):
                    assert id(t) in enumerated
                    side = [f for i, f in enumerate(fl) if key >> i & 1]
                    rest = [f for i, f in enumerate(fl) if not key >> i & 1]
                    assert t == split_vertex(sigma, v, side, rest)


MISSING_STRATUM_UNDER_O = """
import sys
import strata_lab.relations as r
from strata_lab.trees import TreeStructureError, enumerate_strata

if not sys.flags.optimize:
    sys.exit("not running under -O")
r.enumerate_strata = lambda n, k: enumerate_strata(n, k)[1:] if k == 2 else enumerate_strata(n, k)
try:
    list(r._sites(7, 2, r._spanning_quads))
except TreeStructureError:
    sys.exit(0)
sys.exit("a split with no stratum got through")
"""


def test_site_split_outside_the_strata_raises():
    # one stratum dropped from the lookup: the site that splits to it raises
    _succeeds_under_O(MISSING_STRATUM_UNDER_O)
