"""Kontsevich-Manin relations spanning the kernel of QS_{k,n} -> H_{2k}.

Each relation comes from a stratum sigma of dimension k+1, a vertex v of
valence >= 4, four flags A,B,C,D at v and a pairing choice.  Writing T
for the remaining flags at v, the relation is

    sum_{U1 + U2 = T} (AB U1 | CD U2)  -  sum_{U1 + U2 = T} (AX U1 | BY U2)

with (X, Y) = (C, D) for pairing 1 and (D, C) for pairing 2; every term
is produced by splitting v.  Only two of the three flag pairings are
emitted per 4-subset since the third is their difference.

Two families are generated, both site by site in the same order:

* `generate_relations`: every 4-subset of the flags at every site.  It is
  the family that is serialized and that `wtilde.verify_relations_killed`
  checks relation by relation.
* `spanning_relations`: only the 4-subsets through the two least flags
  at each site, a subfamily with the same row space (see its docstring).
  It is the family that `homology` eliminates.

A site of valence m has only 2^(m-1) - m - 1 distinct splits, shared by
all its relations, so each site keeps one split table: it numbers the
trees `split_vertex` returns in order of first use, keyed by the flags
on the side of a split away from the site's least flag, and each
relation at the site is a row {local id: coeff} over those numbers.
Each tree is built and validated once per site.  `_sites` yields the
table and rows of every site; `KMRelation`s are built from them only
where a caller asks for relation objects, while `homology` maps local
ids to column ids and the killing check sums images over them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

from .trees import DomainError, MarkedTree, enumerate_strata, split_vertex, vertex_flags

Side = tuple


def _subsets(items: Sequence) -> Iterable[tuple]:
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )


@dataclass(eq=False)
class KMRelation:
    """One relation, kept with its provenance for reporting and replay."""

    sigma: MarkedTree
    vertex: int
    flags: tuple[Side, Side, Side, Side]
    pairing: int
    terms: dict[MarkedTree, int]

    def row(self, index: dict[MarkedTree, int]) -> dict[int, int]:
        return {index[t]: c for t, c in self.terms.items()}

    def to_obj(self, index: dict[MarkedTree, int]) -> dict:
        return {
            "sigma": self.sigma.to_obj(),
            "vertex": self.vertex,
            "flags": [list(f) for f in self.flags],
            "pairing": self.pairing,
            "terms": sorted([index[t], c] for t, c in self.terms.items()),
        }


def expand_relation(
    sigma: MarkedTree, vertex: int, a, b, c, d, pairing: int
) -> KMRelation:
    """Expand one relation over all bipartitions of the leftover flags."""
    a, b, c, d = (tuple(sorted(f)) for f in (a, b, c, d))
    here = vertex_flags(sigma)[vertex]
    quad = (a, b, c, d)
    if len(set(quad)) != 4:
        raise DomainError("flags A, B, C, D must be distinct")
    if any(f not in here for f in quad):
        raise DomainError(f"flags must all be incident to vertex {vertex}")
    if pairing not in (1, 2):
        raise DomainError(f"pairing must be 1 or 2, got {pairing}")
    trees, rows = _site(sigma, vertex, here, [quad])
    _, _, row = rows[pairing - 1]
    return KMRelation(sigma, vertex, quad, pairing, {trees[i]: c for i, c in row.items()})


def _site(sigma: MarkedTree, vertex: int, here: tuple,
          quads: Iterable[tuple]) -> tuple[list[MarkedTree], list[tuple]]:
    """(trees, rows) of both pairings of each 4-subset in quads at the site
    (sigma, vertex) whose flags are `here`.

    trees is the site's split table, in first-use order: the local id of a
    tree is its position.  Each row is (quad, pairing, {local id: coeff}),
    terms in the order the expansion first meets them, zeros dropped.  A
    split is keyed by the bitmask (bit i for here[i]) of its side away from
    here[0] and built by split_vertex on its first use.
    """
    bit = {f: 1 << i for i, f in enumerate(here)}
    full = (1 << len(here)) - 1
    ids: dict[int, int] = {}
    trees: list[MarkedTree] = []
    rows: list[tuple] = []

    def expand(x1, x2, y1, y2, rest: tuple, subsets: list) -> list[int]:
        """Local ids of the splits (x1 x2 U1 | y1 y2 U2), U1 in subsets."""
        out = []
        base = bit[x1] | bit[x2]
        for u1, mask in subsets:
            side = base | mask
            key = full ^ side if side & 1 else side
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(trees)
                u2 = tuple(f for f in rest if f not in u1)
                trees.append(split_vertex(sigma, vertex, (x1, x2) + u1, (y1, y2) + u2))
            out.append(i)
        return out

    for quad in quads:
        a, b, c, d = quad
        rest = tuple(f for f in here if f not in quad)
        subsets = [(u1, sum(bit[f] for f in u1)) for u1 in _subsets(rest)]
        plus = expand(a, b, c, d, rest, subsets)
        for pairing, minus in ((1, expand(a, c, b, d, rest, subsets)),
                               (2, expand(a, d, b, c, rest, subsets))):
            row: dict[int, int] = {}
            for terms, sign in ((plus, 1), (minus, -1)):
                for i in terms:
                    row[i] = row.get(i, 0) + sign
            rows.append((quad, pairing, {i: v for i, v in row.items() if v}))
    return trees, rows


def _sites(n: int, k: int, quads: Callable[[tuple], Iterable[tuple]]
           ) -> Iterator[tuple[MarkedTree, int, list[MarkedTree], list[tuple]]]:
    """(sigma, v, trees, rows) for every site of the relations of S_{k,n}:
    a vertex v of valence >= 4 of a stratum sigma of dimension k+1, in
    enumeration order, with _site's split table and rows of the 4-subsets
    quads(fl) of its flags fl."""
    if not 0 <= k <= n - 4:
        raise DomainError(f"relations require 0 <= k <= n-4, got n={n}, k={k}")
    for sigma in enumerate_strata(n, k + 1):
        for v, fl in enumerate(vertex_flags(sigma)):
            if len(fl) >= 4:
                yield (sigma, v, *_site(sigma, v, fl, quads(fl)))


def _relations(n: int, k: int,
               quads: Callable[[tuple], Iterable[tuple]]) -> list[KMRelation]:
    """The KMRelations of the rows of _sites(n, k, quads), in order."""
    return [KMRelation(sigma, v, quad, pairing, {trees[i]: c for i, c in row.items()})
            for sigma, v, trees, rows in _sites(n, k, quads)
            for quad, pairing, row in rows]


def _every_quad(fl: tuple) -> Iterable[tuple]:
    return combinations(fl, 4)


def _spanning_quads(fl: tuple) -> Iterable[tuple]:
    return (fl[:2] + rest for rest in combinations(fl[2:], 2))


def generate_relations(n: int, k: int) -> list[KMRelation]:
    """All emitted relations for S_{k,n}, in deterministic order."""
    return _relations(n, k, _every_quad)


def spanning_relations(n: int, k: int) -> list[KMRelation]:
    """The relations of generate_relations(n, k) whose 4-subset contains
    the two least flags fl[0], fl[1] of its site, in the same order.

    A site of valence m emits (m-2)(m-3) of its 2*C(m,4) relations, and
    they span the same row space:

    * Per-site linearity.  The relations at (sigma, v) with flag set F are
      the image of the 4-point relations of the F-pointed space
      M_{0,F} (sum of D_S over S containing A, B and missing C, D, minus
      the same with B and X exchanged) under the linear map
      D_S -> split_vertex(sigma, v, S, F - S).  So it is enough that the
      subfamily spans the full family on M_{0,F}, as formal combinations
      of the D_S.
    * Pullback.  For a flag t outside a 4-subset Q, the map
      D_S -> D_S + D_{S+t} (forgetting t) sends the Q-relation on F - t
      to the Q-relation on F, term by term.  If t is not fl[0] or fl[1],
      the two least flags of F - t are those of F, so it sends subfamily
      relations to subfamily relations.
    * Induction on m = |F|.  Given Q, forget the flags outside
      Q + {fl[0], fl[1]} one at a time: the Q-relation on F is the image
      of the Q-relation on Q + {fl[0], fl[1]}, and the images of
      subfamily relations there are subfamily relations on F.  So it is
      enough that the claim holds on Q + {fl[0], fl[1]}, which has 4, 5
      or 6 flags.  With 4 the Q-relation is in the subfamily.  With 5 and
      6 the claim is a finite rank check, and since S_m permutes the pairs
      of flags transitively one labelling suffices: on the star of 5
      marks the subfamily has 6 rows of rank 5, on the star of 6 marks 12
      rows of rank 9, the ranks of the full families
      (tests/test_relations.py checks these over Q).
    """
    return _relations(n, k, _spanning_quads)


def relations_jsonl(n: int, k: int) -> Iterable[str]:
    """One relation per line, terms referring to enumeration-order tree ids."""
    index = {t: i for i, t in enumerate(enumerate_strata(n, k))}
    for rel in generate_relations(n, k):
        yield json.dumps(rel.to_obj(index), separators=(",", ":"), sort_keys=True)
