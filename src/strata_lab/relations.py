"""Kontsevich-Manin relations spanning the kernel of QS_{k,n} -> H_{2k}.

Each relation comes from a stratum sigma of dimension k+1, a vertex v of
valence >= 4, four flags A,B,C,D at v and a pairing choice.  Writing T
for the remaining flags at v, the relation is

    sum_{U1 + U2 = T} (AB U1 | CD U2)  -  sum_{U1 + U2 = T} (AX U1 | BY U2)

with (X, Y) = (C, D) for pairing 1 and (D, C) for pairing 2; each term
is the stratum that splits v into a new edge with the two groups of
flags at its ends.  Only two of the three flag pairings are emitted per
4-subset since the third is their difference.

Every relation comes from one stream, `_sites`, site by site in
enumeration order.  A site of valence m is a copy of the m-pointed star
M_{0,m}: the relations at a site (sigma, v) with flags fl are the image
of one relation system on M_{0,m} under D_S -> the stratum splitting v
into S | fl - S (see `_site_basis`).  So that system is computed once per
valence (`_every_template`): its 2^(m-1) - m - 1 splits, numbered in
order of first use and keyed by the flag positions on the side away from
fl[0], and its relations, both pairings of every 4-subset, as rows
{local id: coeff} over those numbers.  `_site_basis` keeps a basis of
them, m(m-3)/2 rows per site, which `homology` eliminates; every row is
checked by `wtilde.verify_relations_killed` (through the basis rows at a
site where none of those fails) and serialized by `relations_jsonl`.

`_sites` maps each split of the template onto a site's flags, as mark
bitmasks, and looks the split family up once in its caller's index,
which maps split families to ints: `homology`'s column index, so each
term is a column id, or the enumeration-order ids of the strata
(`relations_jsonl` and the killing check).  No tree is built or
validated per site.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

from .trees import (
    DomainError,
    MarkedTree,
    TreeStructureError,
    _bits_side,
    _vertex_flag_bits,
    enumerate_strata,
)


def _subsets(items: Sequence) -> Iterable[tuple]:
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )


def _sites(n: int, k: int, template: Callable[[int], tuple], index: dict[tuple, int]
           ) -> Iterator[tuple[MarkedTree, int, list[int], list[int], tuple]]:
    """(sigma, v, marks, terms, rows) for every site of the relations of
    S_{k,n}: a vertex v with flags of valence m >= 4 of a stratum sigma of
    dimension k+1, in enumeration order.

    (keys, rows) = template(m), shared, the rows' quads given as positions
    among the flags; terms[i] = index[family], the int the caller gives
    the split family of the stratum of S_{k,n} that splits v along the
    template's split keys[i], and TreeStructureError is raised when index
    lacks it.  marks are the flags as mark bitmasks
    (`trees._vertex_flag_bits`): they partition the marks and are listed
    by least mark, the order of their tuples, so marks[0] holds mark 1 and
    the side of a split away from it is its new edge's side as MarkedTree
    records it.
    """
    if not 0 <= k <= n - 4:
        raise DomainError(f"relations require 0 <= k <= n-4, got n={n}, k={k}")
    for sigma in enumerate_strata(n, k + 1):
        splits = sigma.splits
        for v, marks in enumerate(_vertex_flag_bits(sigma)):
            m = len(marks)
            if m < 4:
                continue
            keys, rows = template(m)
            terms = []
            for key in keys:
                bits = 0
                for i in range(1, m):
                    if key >> i & 1:
                        bits |= marks[i]
                side = _bits_side(bits)
                at = bisect_left(splits, side)
                term = index.get(splits[:at] + (side,) + splits[at:])
                if term is None:
                    raise TreeStructureError(
                        f"splitting vertex {v} of {sigma} along {side} gives no stratum of "
                        f"dimension {k}")
                terms.append(term)
            yield sigma, v, marks, terms, rows


@lru_cache(maxsize=None)
def _every_template(m: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """(keys, rows): both pairings of every 4-subset of the flag positions
    0..m-1 of a site of valence m, the relations on the star M_{0,m} over
    its splits, computed once per valence.

    keys numbers the splits in first-use order: the local id of a split is
    its position, and a split is the bitmask (bit i for position i) of its
    side away from position 0.  Each row is (quad, pairing, {local id:
    coeff}), terms in the order the expansion first meets them, zeros
    dropped.  Shared by every site of valence m: never mutate a row.
    """
    full = (1 << m) - 1
    ids: dict[int, int] = {}
    rows: list[tuple] = []

    def expand(x1, x2, masks: list[int]) -> list[int]:
        """Local ids of the splits (x1 x2 U1 | rest), U1 in masks."""
        base = 1 << x1 | 1 << x2
        out = []
        for mask in masks:
            side = base | mask
            key = full ^ side if side & 1 else side
            out.append(ids.setdefault(key, len(ids)))
        return out

    for quad in combinations(range(m), 4):
        a, b, c, d = quad
        rest = [1 << i for i in range(m) if i not in quad]
        masks = [sum(u) for u in _subsets(rest)]
        plus = expand(a, b, masks)
        for pairing, minus in ((1, expand(a, c, masks)), (2, expand(a, d, masks))):
            row: dict[int, int] = {}
            for terms, sign in ((plus, 1), (minus, -1)):
                for i in terms:
                    row[i] = row.get(i, 0) + sign
            rows.append((quad, pairing, {i: v for i, v in row.items() if v}))
    return tuple(ids), tuple(rows)


@lru_cache(maxsize=None)
def _site_basis(m: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The splits of _every_template(m) and the rows of it that the rule
    keeps, in template order: pairing 1 of each 4-subset through positions
    0 and 1, pairing 2 of those that also hold position 2.  Shared by
    every site of valence m: never mutate a row.

    A site of valence m keeps C(m-2, 2) + (m-3) = m(m-3)/2 of its
    2*C(m,4) relations, the rank of the relations among the boundary
    divisors of M_{0,m} (Keel, Trans. AMS 330, 1992).  At every valence
    every relation of the site is an integer combination of the rule
    rows, so modulo every modulus the two families span the same rows:
    every rank, reduced form and certified value computed from the rule
    rows mod p or mod p*q is the one all the relations give.

    * Per-site linearity.  The relations at (sigma, v) with flag set F
      are the image of the 4-point relations of the F-pointed space
      M_{0,F} (sum of D_S over S containing A, B and missing C, D, minus
      the same with B and X exchanged) under the linear map sending D_S
      to the stratum that splits v with S at one end of the new edge and
      F - S at the other, and so is every integer combination of them.
      So it is enough to prove the claim on M_{0,F}, as formal
      combinations of the D_S.
    * Pullback.  Take a 4-subset Q of F and let G be Q together with the
      three least flags of F, so 4 <= |G| <= 7.  Forgetting the flags of
      F outside G, D_S -> sum of D_{S+T} over the subsets T of F - G,
      sends the Q-relation on G to the Q-relation on F, term by term,
      for either pairing (the flags keep their order, so A, B, C, D do).
      The three least flags of G are those of F, so it sends each rule
      row on G to a rule row on F, and an integer combination of rule
      rows on G to the same combination on F.
    * Base case.  On 4 to 7 flags every relation is an integer
      combination of the rule rows, a finite check on the stars of 4 to
      7 marks (tests/test_relations.py checks it up to 9 marks, and the
      rank m(m-3)/2 of the rule rows and of all the relations mod a prime
      at 10 and 11).  So the Q-relation on F is one, for every Q.

    The rule rows number the rank, so they are also independent over Q.
    """
    keys, rows = _every_template(m)
    # a quad lists its positions in order, so it holds 0 and 1 when quad[1] == 1
    return keys, tuple((quad, pairing, row) for quad, pairing, row in rows
                       if quad[1] == 1 and (pairing == 1 or quad[2] == 2))


def relations_jsonl(n: int, k: int) -> Iterable[str]:
    """One relation of _sites(n, k, _every_template) per line, in its
    order: sigma, vertex, flags, pairing and terms, each term [id, coeff]
    with id the tree's position in enumerate_strata(n, k), sorted.  Each
    term is looked up once, as its id, by `_sites`."""
    ids = {t.splits: i for i, t in enumerate(enumerate_strata(n, k))}
    for sigma, v, marks, terms, rows in _sites(n, k, _every_template, ids):
        sigma_obj = sigma.to_obj()
        for quad, pairing, row in rows:
            yield json.dumps({"sigma": sigma_obj, "vertex": v,
                              "flags": [list(_bits_side(marks[i])) for i in quad],
                              "pairing": pairing,
                              "terms": sorted([terms[i], c] for i, c in row.items())},
                             separators=(",", ":"), sort_keys=True)
