import hashlib
import json
import random
from functools import lru_cache
from math import comb

import pytest
from oracles import in_lattice, rank_fraction, solve_fraction
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
    _bits_side,
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


VERTEX_OUTSIDE_UNDER_O = """
import sys
from strata_lab.relations import expand_relation
from strata_lab.trees import DomainError, MarkedTree, split_vertex, vertex_flags

if not sys.flags.optimize:
    sys.exit("not running under -O")
t = MarkedTree.from_sides(6, [(5, 6)])
here = vertex_flags(t)[0]
for v in (-2, 2):
    for call in (lambda: split_vertex(t, v, here[:2], here[2:]),
                 lambda: expand_relation(t, v, *here[:4], 1)):
        try:
            call()
        except DomainError:
            continue
        sys.exit(f"vertex {v} got through")
"""


@pytest.mark.parametrize("v", [-2, -1, 2, 9])
def test_vertex_outside_the_tree_is_refused(v):
    # with two vertices, -2 used to split vertex 0 and 2 to raise IndexError
    t = MarkedTree.from_sides(6, [(5, 6)])
    here = vertex_flags(t)[0]
    assert len(vertex_flags(t)) == 2 and len(here) == 5
    with pytest.raises(DomainError, match=f"no vertex {v} in a tree with 2"):
        split_vertex(t, v, here[:2], here[2:])
    with pytest.raises(DomainError, match=f"no vertex {v} in a tree with 2"):
        expand_relation(t, v, *here[:4], 1)


def test_vertex_outside_the_tree_is_refused_under_python_O():
    _succeeds_under_O(VERTEX_OUTSIDE_UNDER_O)


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


# sha256 of the relation rows that `homology` eliminates, each row's items
# in order, and of the relation JSON lines, as (rows, lines) per (n, k)
RELATION_DIGESTS = {
    (4, 0): ("99396c2892fced29086b7394de749fb4af9f377fc5da1bad5016ea73980336ab",
             "cee7978af8456afa0bc33a36780ca53313e6fbb78e91d045fed10550d3628caa"),
    (5, 0): ("bf1a8abcc21bd24856a30c239dfb417c8e5fca3c5e62eb6635343e00acb8bbfb",
             "f74c6255f579288b708597fecb8d982637037306908c8698a3c3c4df42eb0cc7"),
    (5, 1): ("2e2bfacad7f800cf8a5cd081e824f431b928e818dd22744066f426c71f0b7b93",
             "d4ebe4047fad49e2bba9da71cfc1f907747281c485f8f1ccfc1bdd9bcebf41df"),
    (6, 0): ("37308bd075261b4f4b0740cd987851985a0d810c95ff1b269a5bcdacf8a40039",
             "239f5100b9fd5f3226553d08734c5c6dc6d0518fecbb354291939334e64151cd"),
    (6, 1): ("51894348f05390f0c80cde920f356834f5923e1f8d400d2199d3985c60f8c04e",
             "7dca660e2151c85fe5fba6b8807a70cb55cea6512d500f6cc15bb249a8946b98"),
    (6, 2): ("466b55bc27ec81ec40337622d928f7d3c00bf7dd8b0c416236578865f8d88841",
             "758fe1b2a4fe37934e9000aad4b2ced18fdc636be9b5cb11420b8704deb8568c"),
    (7, 0): ("d89b3fb3235beb8978dd03e27b8bbb7e626ec20c33aa4d1f96f7f72c624aff6c",
             "ac8e29c86db4f37b60e893589d74919e3934b4dc0a7afc9a01deffaf35903e05"),
    (7, 1): ("aa12b8ed45eabaad92289856b12f9f40006b178cf145c1cfa33ce2bd2f59a129",
             "667af2c53e0df35794e8355f04d567a722d326af5615d85afcd17e152bf4fef8"),
    (7, 2): ("9c448e526d6436b27383bbc05d1fb21ef5c9796f857800dde7080edf0738580b",
             "76f5d601330a31d9e0783be90b6eb36bac0772e7e32bbe41480d0964e3af9029"),
    (7, 3): ("a409708e7a9dcd98bb3bfc55e9131c459c64169ed3166902348ebe1621500225",
             "8a05b27a5eb9b7918e2977edf493d65ae2e72ee97e12b51f8bd2cdc0fd2d5696"),
}


@pytest.mark.parametrize("n, k", sorted(RELATION_DIGESTS))
def test_relation_rows_and_lines_are_unchanged(n, k):
    rows = hashlib.sha256()
    for row in h._relation_rows(n, k):
        rows.update(json.dumps(list(row.items()), separators=(",", ":")).encode())
    lines = hashlib.sha256()
    for line in relations_jsonl(n, k):
        lines.update(line.encode() + b"\n")
    assert (rows.hexdigest(), lines.hexdigest()) == RELATION_DIGESTS[n, k]


@lru_cache(maxsize=None)
def _through_two_least_flags(m):
    """The splits of the template of valence m and its rows whose 4-subset
    holds the two least flags, before the site basis drops any; cached, so
    every site of valence m shares the rows, as with the real templates."""
    keys, rows = rel_mod._every_template(m)
    return keys, tuple(r for r in rows if r[0][:2] == (0, 1))


def _columns(n, k):
    """Tree -> its column in the relation matrix of `homology`."""
    return {t: h._index(n, k)[t.splits] for t in enumerate_strata(n, k)}


def _full_rows(n, k):
    idx = _columns(n, k)
    return [r.row(idx) for r in generate_relations(n, k)]


@pytest.mark.parametrize("n, rows, rank", [(5, 6, 5), (6, 12, 9), (7, 20, 14)])
def test_spanning_family_on_stars(n, rows, rank):
    # at k = n-4 the only site is the star: the subfamily through the two
    # least flags, the site basis (rank = n(n-3)/2 of its rows) and all
    # the relations have the same rank over Q
    idx = _index(n, n - 4)
    through = [r.row(idx) for r in rel_mod._relations(n, n - 4, _through_two_least_flags)]
    assert len(through) == rows
    assert rank_fraction(through, len(idx)) == rank
    sub = [r.row(idx) for r in spanning_relations(n, n - 4)]
    assert len(sub) == rank == n * (n - 3) // 2
    assert rank_fraction(sub, len(idx)) == rank
    assert rank_fraction(_full_rows(n, n - 4), len(idx)) == rank


def test_spanning_family_is_the_subfamily_through_the_two_least_flags():
    # the template rows through the two least flags are the relations of
    # generate_relations through them, and spanning_relations is the
    # subsequence of those that the site basis of each valence keeps
    def key(rel):
        return rel.sigma, rel.vertex, rel.flags, rel.pairing, rel.terms

    def kept(rel):
        fl = vertex_flags(rel.sigma)[rel.vertex]
        quad = tuple(fl.index(f) for f in rel.flags)
        return any((quad, rel.pairing) == (q, pairing)
                   for q, pairing, _ in rel_mod._site_basis(len(fl))[1])

    for n in (4, 5, 6, 7):
        for k in range(n - 3):
            want = [
                r for r in generate_relations(n, k)
                if set(vertex_flags(r.sigma)[r.vertex][:2]) <= set(r.flags)
            ]
            through = rel_mod._relations(n, k, _through_two_least_flags)
            assert [key(r) for r in through] == [key(r) for r in want]
            assert [key(r) for r in spanning_relations(n, k)] == [
                key(r) for r in want if kept(r)]


@pytest.mark.parametrize("n, k", [(n, k) for n in (4, 5, 6, 7) for k in range(n - 3)]
                         + [(8, 3), (8, 4)])
def test_spanning_family_has_the_full_rank(n, k):
    # the streamed rows are those of the spanning KMRelations, in order and
    # with their terms in order; no row is empty and no two rows are equal
    # up to sign, so the rows need no deduplication before elimination
    rows = tuple(h._relation_rows(n, k))
    idx = _columns(n, k)
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
    assert h._quotient_basis(n, k, p) == quotient_basis(full)


@pytest.mark.parametrize("m", range(4, 10))
def test_site_basis_is_an_integer_basis(m):
    """The site basis keeps m(m-3)/2 rows of the template through the two
    least flags, and every row it drops is an integer combination of the
    rows it keeps before it, solved here over Q and checked term by term:
    the kept rows generate the same Z-lattice as the template.  So does
    every relation of the star, through the two least flags or not: at
    m = 4..7 this is the base case of the proof in spanning_relations."""
    keys, rows = _through_two_least_flags(m)
    basis_keys, basis = rel_mod._site_basis(m)
    assert basis_keys is keys is rel_mod._every_template(m)[0]
    assert len(basis) == m * (m - 3) // 2
    positions = [rows.index(b) for b in basis]
    assert positions == sorted(positions)
    kept = [row for _, _, row in basis]
    assert rank_fraction(kept, len(keys)) == len(kept)
    dropped = [i for i in range(len(rows)) if i not in positions]
    solved = solve_fraction(kept, [rows[i][2] for i in dropped], len(keys))
    for i, x in zip(dropped, solved):
        row = rows[i][2]
        assert x is not None and all(c.denominator == 1 for c in x), (m, i, x)
        assert not any(c for p, c in zip(positions, x) if p > i), (m, i, x)
        combo = {}
        for c, r in zip(x, kept):
            for col, v in r.items():
                combo[col] = combo.get(col, 0) + int(c) * v
        assert {col: v for col, v in combo.items() if v} == row
    every_keys, every = rel_mod._every_template(m)
    local = {key: i for i, key in enumerate(keys)}
    assert sorted(every_keys) == sorted(keys)
    for _, _, row in every:
        assert in_lattice(kept, {local[every_keys[i]]: c for i, c in row.items()}, len(keys))


@pytest.mark.parametrize("n, k", [(7, 2), (8, 3)])
def test_site_basis_gives_the_same_quotient_basis_mod_a_pair(n, k):
    # the reduced quotient basis mod p*q from the relation rows, row for
    # row, is the one from every row through the two least flags
    idx = _columns(n, k)
    primes = prime_stream(5)
    m = next(primes) * next(primes)
    full = ModEchelon(m)
    full.add_rows([r.row(idx) for r in rel_mod._relations(n, k, _through_two_least_flags)])
    assert h._quotient_basis(n, k, m) == quotient_basis(full)


@pytest.mark.parametrize("m", [10, 11])
def test_site_basis_has_the_full_rank_past_the_lattice_check(m):
    # past the valences whose lattice is checked above: the rule rows and
    # all the relations of the star of m marks have rank m(m-3)/2 mod p
    keys, every = rel_mod._every_template(m)
    basis = rel_mod._site_basis(m)[1]
    assert len(basis) == m * (m - 3) // 2
    p = next(iter(prime_stream(3)))
    for rows in (basis, every):
        ech = ModEchelon(p)
        ech.add_rows([row for _, _, row in rows])
        assert ech.rank == m * (m - 3) // 2


TEMPLATES = {
    "every": (rel_mod._every_template, lambda m: 2 * comb(m, 4)),
    "spanning": (_through_two_least_flags, lambda m: (m - 2) * (m - 3)),
    "basis": (rel_mod._site_basis, lambda m: m * (m - 3) // 2),
}


@pytest.mark.parametrize("family", list(TEMPLATES))
def test_site_trees_are_the_strata_split_along_the_template(family):
    """Every site tree is the enumerated stratum that splits the site along
    its template split; a template of valence m has every split of the
    m-pointed star once and the rows of its family."""
    template, count = TEMPLATES[family]
    for n in (4, 5, 6, 7):
        for k in range(n - 3):
            enumerated = {id(t) for t in enumerate_strata(n, k)}
            strata = {t.splits: t for t in enumerate_strata(n, k)}
            for sigma, v, marks, trees, rows in rel_mod._sites(n, k, template, strata):
                fl = tuple(map(_bits_side, marks))
                m = len(fl)
                keys, template_rows = template(m)
                assert rows is template_rows
                assert len(keys) == len(set(keys)) == len(trees) == 2 ** (m - 1) - m - 1
                assert len(rows) == count(m)
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
index = {t.splits: t for t in enumerate_strata(7, 2)[1:]}
try:
    list(r._sites(7, 2, r._site_basis, index))
except TreeStructureError:
    sys.exit(0)
sys.exit("a split with no stratum got through")
"""


def test_site_split_outside_the_strata_raises():
    # one stratum dropped from the lookup: the site that splits to it raises
    _succeeds_under_O(MISSING_STRATUM_UNDER_O)
