import hashlib
import json
import random
from functools import lru_cache
from math import comb

import pytest
from oracles import (
    brute_force_expansion,
    brute_force_relations,
    brute_force_vertex_flags,
    in_lattice,
    pivot_normal_forms,
    rank_fraction,
    solve_fraction,
)
from test_homology import _succeeds_under_O

import strata_lab.homology as h
import strata_lab.relations as rel_mod
from strata_lab.exact_linalg import ModEchelon, prime_stream
from strata_lab.relations import relations_jsonl
from strata_lab.trees import (
    DomainError,
    MarkedTree,
    _bits_side,
    apply_permutation,
    enumerate_strata,
)


def _site_relations(n, k, template=rel_mod._every_template):
    """The relations of the library's one stream, `_sites(n, k, template)`,
    as the oracle gives them: (sigma, v, flags, pairing, {tree: coeff}),
    the terms in the order of their row."""
    strata = enumerate_strata(n, k)
    ids = {t.splits: i for i, t in enumerate(strata)}
    for sigma, v, marks, terms, rows in rel_mod._sites(n, k, template, ids):
        for quad, pairing, row in rows:
            yield (sigma, v, tuple(_bits_side(marks[i]) for i in quad), pairing,
                   {strata[terms[i]]: c for i, c in row.items()})


def _listed(rels):
    """Relations with their terms as lists, so comparing them compares the
    order of the terms too."""
    return [(*rel[:4], list(rel[4].items())) for rel in rels]


def _same_as_the_oracle(n, k):
    """The library's relations of (n, k), checked against the brute-force
    expansion: same provenance, terms and order."""
    rels = list(_site_relations(n, k))
    assert _listed(rels) == _listed(brute_force_relations(n, k))
    return rels


@lru_cache(maxsize=None)
def _by_provenance(n, k):
    """(sigma, v, flags, pairing) -> terms of every relation of (n, k) that
    the library streams."""
    return {rel[:4]: rel[4] for rel in _site_relations(n, k)}


def _index(n, k):
    return {t: i for i, t in enumerate(enumerate_strata(n, k))}


def test_4_0_relations_exact():
    rels = _same_as_the_oracle(4, 0)
    assert len(rels) == 2
    t_1234 = MarkedTree.from_sides(4, [(3, 4)])
    t_1324 = MarkedTree.from_sides(4, [(2, 4)])
    t_1423 = MarkedTree.from_sides(4, [(2, 3)])
    assert rels[0][4] == {t_1234: 1, t_1324: -1}
    assert rels[1][4] == {t_1234: 1, t_1423: -1}


def test_5_0_count_and_rank():
    rels = _same_as_the_oracle(5, 0)
    assert len(rels) == 20
    idx = _index(5, 0)
    rows = [{idx[t]: c for t, c in terms.items()} for *_, terms in rels]
    # oracle rank over Q, frozen: 14
    assert rank_fraction(rows, 15) == 14


def test_star5_expansion_example():
    star = MarkedTree.star(5)
    flags = ((1,), (2,), (3,), (4,))
    # (12|345) + (125|34) - (13|245) - (135|24)
    want = {
        MarkedTree.from_sides(5, [(3, 4, 5)]): 1,
        MarkedTree.from_sides(5, [(3, 4)]): 1,
        MarkedTree.from_sides(5, [(2, 4, 5)]): -1,
        MarkedTree.from_sides(5, [(2, 4)]): -1,
    }
    assert _by_provenance(5, 1)[star, 0, flags, 1] == want
    assert brute_force_expansion(5, (), (*flags, (5,)), flags, 1) == want


def test_term_counts():
    quad = ((1,), (2,), (3,), (4,))
    star4 = MarkedTree.star(4)
    assert len(_by_provenance(4, 0)[star4, 0, quad, 1]) == 2
    star6 = MarkedTree.star(6)
    terms = _by_provenance(6, 2)[star6, 0, quad, 2]
    assert terms == brute_force_expansion(6, (), tuple((m,) for m in range(1, 7)), quad, 2)
    assert len(terms) == 8
    for n in (5, 6, 7):
        for sigma in random.Random(n).sample(list(enumerate_strata(n, 1)), 5):
            for v, fl in enumerate(brute_force_vertex_flags(n, sigma.splits)):
                if len(fl) < 4:
                    continue
                quad = fl[:4]
                rest = len(fl) - 4
                terms = _by_provenance(n, 0)[sigma, v, quad, 1]
                assert terms == brute_force_expansion(n, sigma.splits, fl, quad, 1)
                assert len(terms) == 2 * 2**rest
                assert sorted(terms.values()).count(-1) == 2**rest


def test_domain_errors():
    for k in (2, -1):  # k = n-3 has no relations, nor has k < 0
        with pytest.raises(DomainError):
            list(relations_jsonl(5, k))
        with pytest.raises(DomainError):
            list(rel_mod._sites(5, k, rel_mod._every_template, {}))


def test_third_pairing_in_row_span():
    # (AC|BD) - (AD|BC) equals rel2 - rel1 exactly, term by term
    rng = random.Random(1)
    for n, k in [(5, 0), (6, 1), (6, 0), (7, 1)]:
        sigmas = enumerate_strata(n, k + 1)
        for sigma in rng.sample(list(sigmas), min(5, len(sigmas))):
            for v, fl in enumerate(brute_force_vertex_flags(n, sigma.splits)):
                if len(fl) < 4:
                    continue
                a, b, c, d = fl[:4]
                r1 = _by_provenance(n, k)[sigma, v, (a, b, c, d), 1]
                r2 = _by_provenance(n, k)[sigma, v, (a, b, c, d), 2]
                third = {}
                for t, coeff in r2.items():
                    third[t] = third.get(t, 0) + coeff
                for t, coeff in r1.items():
                    third[t] = third.get(t, 0) - coeff
                third = {t: v2 for t, v2 in third.items() if v2}
                # expand (AC|BD) - (AD|BC) directly
                direct = brute_force_expansion(n, sigma.splits, fl, (a, c, b, d), 2)
                assert third == direct


def test_relations_are_equivariant():
    # permuting the provenance and expanding = permuting the terms
    rng = random.Random(9)
    for n, k in [(5, 0), (6, 1)]:
        rels = _same_as_the_oracle(n, k)
        for sigma, v, flags, pairing, terms in rng.sample(rels, 10):
            g = list(range(1, n + 1))
            rng.shuffle(g)
            g = tuple(g)
            sigma_g = apply_permutation(sigma, g)
            flags_g = [tuple(sorted(g[m - 1] for m in f)) for f in flags]
            moved = {f: tuple(sorted(fs)) for f, fs in zip(flags, flags_g)}
            fl_new = brute_force_vertex_flags(n, sigma_g.splits)
            v_new = next(
                v for v, fl in enumerate(fl_new)
                if all(moved[f] in fl for f in flags)
            )
            terms_g = brute_force_expansion(n, sigma_g.splits, fl_new[v_new], flags_g, pairing)
            want = {apply_permutation(t, g): c for t, c in terms.items()}
            assert terms_g == want


def test_jsonl_round_trip():
    lines = list(relations_jsonl(5, 0))
    assert len(lines) == 20
    idx = _index(5, 0)
    rels = list(brute_force_relations(5, 0))
    assert len(rels) == len(lines)
    for line, (sigma, v, flags, pairing, terms) in zip(lines, rels):
        obj = json.loads(line)
        assert obj["terms"] == sorted([idx[t], c] for t, c in terms.items())
        assert MarkedTree.from_obj(obj["sigma"]) == sigma
        assert (obj["vertex"], obj["flags"], obj["pairing"]) == (v, list(map(list, flags)), pairing)


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


def _through(rel):
    """Whether a relation's four flags hold the two least flags of its site."""
    sigma, v, flags = rel[:3]
    return set(brute_force_vertex_flags(sigma.n, sigma.splits)[v][:2]) <= set(flags)


def _kept(rel):
    """Whether the site basis of the relation's valence keeps it."""
    sigma, v, flags, pairing = rel[:4]
    fl = brute_force_vertex_flags(sigma.n, sigma.splits)[v]
    quad = tuple(fl.index(f) for f in flags)
    return any((quad, pairing) == (q, p) for q, p, _ in rel_mod._site_basis(len(fl))[1])


def _oracle_rows(n, k, keep=lambda rel: True):
    """The rows, over the columns of `homology`, of the brute-force
    relations of (n, k) that keep(rel) holds for, terms in order."""
    idx = _columns(n, k)
    return [{idx[t]: c for t, c in rel[4].items()} for rel in brute_force_relations(n, k)
            if keep(rel)]


def _stream_rows(n, k, template):
    idx = _columns(n, k)
    return [{idx[t]: c for t, c in rel[4].items()} for rel in _site_relations(n, k, template)]


@pytest.mark.parametrize("n, rows, rank", [(5, 6, 5), (6, 12, 9), (7, 20, 14)])
def test_spanning_family_on_stars(n, rows, rank):
    # at k = n-4 the only site is the star: the subfamily through the two
    # least flags, the site basis (rank = n(n-3)/2 of its rows) and all
    # the relations have the same rank over Q
    width = len(enumerate_strata(n, n - 4))
    through = _stream_rows(n, n - 4, _through_two_least_flags)
    assert through == _oracle_rows(n, n - 4, _through)
    assert len(through) == rows
    assert rank_fraction(through, width) == rank
    sub = _stream_rows(n, n - 4, rel_mod._site_basis)
    assert len(sub) == rank == n * (n - 3) // 2
    assert rank_fraction(sub, width) == rank
    assert rank_fraction(_oracle_rows(n, n - 4), width) == rank


def test_spanning_family_is_the_subfamily_through_the_two_least_flags():
    # the template rows through the two least flags are the brute-force
    # relations through them, and the site basis streams the subsequence
    # of those that it keeps at each valence
    for n in (4, 5, 6, 7):
        for k in range(n - 3):
            want = [r for r in brute_force_relations(n, k) if _through(r)]
            through = _site_relations(n, k, _through_two_least_flags)
            assert _listed(through) == _listed(want)
            assert _listed(_site_relations(n, k, rel_mod._site_basis)) == _listed(
                r for r in want if _kept(r))


@pytest.mark.parametrize("n, k", [(n, k) for n in (4, 5, 6, 7) for k in range(n - 3)]
                         + [(8, 3), (8, 4)])
def test_spanning_family_has_the_full_rank(n, k):
    # the streamed rows are those of the brute-force relations the site
    # basis keeps, in order and with their terms in order; no row is empty
    # and no two rows are equal up to sign, so the rows need no
    # deduplication before elimination
    rows = tuple(h._relation_rows(n, k))
    assert [list(r.items()) for r in rows] == [
        list(r.items()) for r in _oracle_rows(n, k, _kept)]
    signed = {frozenset((c, s * v) for c, v in r.items()) for r in rows for s in (1, -1)}
    assert all(rows) and len(signed) == 2 * len(rows)
    every = _oracle_rows(n, k)
    for p in [p for _, p in zip(range(2), prime_stream(31))]:
        full = ModEchelon(p)
        full.add_rows(every)
        assert h._echelon(n, k, p).rank == full.rank


def test_spanning_family_gives_the_same_quotient_basis():
    n, k = 7, 2
    p = next(iter(prime_stream(5)))
    full = ModEchelon(p)
    full.add_rows(_oracle_rows(n, k))
    assert pivot_normal_forms(h._echelon(n, k, p)) == pivot_normal_forms(full)


@pytest.mark.parametrize("m", range(4, 10))
def test_site_basis_is_an_integer_basis(m):
    """The site basis keeps m(m-3)/2 rows of the template through the two
    least flags, and every row it drops is an integer combination of the
    rows it keeps before it, solved here over Q and checked term by term:
    the kept rows generate the same Z-lattice as the template.  So does
    every relation of the star, through the two least flags or not: at
    m = 4..7 this is the base case of the proof in `_site_basis`."""
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
    # the normal forms of the pivot columns mod p*q from the relation rows,
    # row for row, are those from every row through the two least flags
    primes = prime_stream(5)
    m = next(primes) * next(primes)
    full = ModEchelon(m)
    full.add_rows(_oracle_rows(n, k, _through))
    assert pivot_normal_forms(h._echelon(n, k, m)) == pivot_normal_forms(full)


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
    """Every site term is the id of the enumerated stratum that splits the
    site along its template split: sigma with the side of the split's
    flags added; a template of valence m has every split of the m-pointed
    star once and the rows of its family."""
    template, count = TEMPLATES[family]
    for n in (4, 5, 6, 7):
        for k in range(n - 3):
            strata = enumerate_strata(n, k)
            ids = {t.splits: i for i, t in enumerate(strata)}
            for sigma, v, marks, terms, rows in rel_mod._sites(n, k, template, ids):
                fl = brute_force_vertex_flags(n, sigma.splits)[v]
                assert tuple(map(_bits_side, marks)) == fl
                m = len(fl)
                keys, template_rows = template(m)
                assert rows is template_rows
                assert len(keys) == len(set(keys)) == len(terms) == 2 ** (m - 1) - m - 1
                assert len(rows) == count(m)
                for key, i in zip(keys, terms):
                    side = [mark for j, f in enumerate(fl) if key >> j & 1 for mark in f]
                    assert len(side) > 1 and 1 not in side
                    assert strata[i] == MarkedTree.from_sides(n, sigma.splits + (side,))


MISSING_STRATUM_UNDER_O = """
import sys
import strata_lab.relations as r
from strata_lab.trees import TreeStructureError, enumerate_strata

if not sys.flags.optimize:
    sys.exit("not running under -O")
index = {t.splits: i for i, t in enumerate(enumerate_strata(7, 2)) if i}
try:
    list(r._sites(7, 2, r._site_basis, index))
except TreeStructureError:
    sys.exit(0)
sys.exit("a split with no stratum got through")
"""


def test_site_split_outside_the_strata_raises():
    # one stratum dropped from the lookup: the site that splits to it raises
    _succeeds_under_O(MISSING_STRATUM_UNDER_O)
