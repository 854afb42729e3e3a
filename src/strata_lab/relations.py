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

A site of valence m is a copy of the m-pointed star M_{0,m}: the
relations at a site (sigma, v) with flags fl are the image of one
relation system on M_{0,m} under D_S -> split_vertex(sigma, v, S, fl - S)
(see spanning_relations).  So that system is computed once per valence
and quad family (`_template`): its 2^(m-1) - m - 1 splits, numbered in
order of first use and keyed by the flag positions on the side away from
fl[0], and its relations as rows {local id: coeff} over those numbers.
`_sites` maps each split of the template onto a site's flags and looks
the resulting split family up among enumerate_strata(n, k), so every
term is an enumerated stratum and no tree is built or validated per
site.  `KMRelation`s are built from the rows only where a caller asks for
relation objects, while `homology` maps local ids to column ids and the
killing check sums images over them directly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

from .trees import (
    DomainError,
    MarkedTree,
    TreeStructureError,
    enumerate_strata,
    split_vertex,
    vertex_flags,
)

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
    keys, rows = _site(len(here), [tuple(here.index(f) for f in quad)])
    trees = [split_vertex(sigma, vertex, *_bipartition(here, key)) for key in keys]
    _, _, row = rows[pairing - 1]
    return KMRelation(sigma, vertex, quad, pairing, {trees[i]: c for i, c in row.items()})


def _bipartition(here: tuple, key: int) -> tuple[list, list]:
    """(flags of here outside key, flags in key): the two sides of a split."""
    return ([f for i, f in enumerate(here) if not key >> i & 1],
            [f for i, f in enumerate(here) if key >> i & 1])


def _site(m: int, quads: Iterable[tuple]) -> tuple[list[int], list[tuple]]:
    """(keys, rows) of both pairings of each 4-subset in quads of the flag
    positions 0..m-1 of a site of valence m: the relations on the star
    M_{0,m}, over its splits.

    keys numbers the splits in first-use order: the local id of a split is
    its position, and a split is the bitmask (bit i for position i) of its
    side away from position 0.  Each row is (quad, pairing, {local id:
    coeff}), terms in the order the expansion first meets them, zeros
    dropped.
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

    for quad in quads:
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
    return list(ids), rows


@lru_cache(maxsize=None)
def _template(m: int, quads: Callable[[tuple], Iterable[tuple]]
              ) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """_site(m, quads(0..m-1)), computed once per valence and quad family.
    Shared by every site of valence m: never mutate a row."""
    keys, rows = _site(m, quads(tuple(range(m))))
    return tuple(keys), tuple(rows)


def _sites(n: int, k: int, quads: Callable[[tuple], Iterable[tuple]]
           ) -> Iterator[tuple[MarkedTree, int, tuple, list[MarkedTree], tuple]]:
    """(sigma, v, fl, trees, rows) for every site of the relations of
    S_{k,n}: a vertex v with flags fl of valence m >= 4 of a stratum sigma
    of dimension k+1, in enumeration order.

    rows are _template(m, quads)'s, shared, their quads given as positions
    in fl; trees[i] is the stratum of S_{k,n} that splits v along the
    template's split i, the object enumerate_strata(n, k) holds.  The
    flags partition the marks and sort as tuples, so fl[0] holds mark 1 and
    the side of a split away from fl[0] is its new edge's side as
    MarkedTree records it.
    """
    if not 0 <= k <= n - 4:
        raise DomainError(f"relations require 0 <= k <= n-4, got n={n}, k={k}")
    strata = {t.splits: t for t in enumerate_strata(n, k)}
    for sigma in enumerate_strata(n, k + 1):
        splits = sigma.splits
        for v, fl in enumerate(vertex_flags(sigma)):
            m = len(fl)
            if m < 4:
                continue
            keys, rows = _template(m, quads)
            marks = [sum(1 << x for x in f) for f in fl]
            trees = []
            for key in keys:
                bits = 0
                for i in range(1, m):
                    if key >> i & 1:
                        bits |= marks[i]
                side = _bits_side(bits)
                at = bisect_left(splits, side)
                t = strata.get(splits[:at] + (side,) + splits[at:])
                if t is None:
                    raise TreeStructureError(
                        f"splitting vertex {v} of {sigma} along {side} gives no stratum of "
                        f"dimension {k}")
                trees.append(t)
            yield sigma, v, fl, trees, rows


@lru_cache(maxsize=None)
def _bits_side(bits: int) -> tuple[int, ...]:
    """The sorted marks m with bit m set in bits."""
    return tuple(m for m in range(bits.bit_length()) if bits >> m & 1)


def _relations(n: int, k: int,
               quads: Callable[[tuple], Iterable[tuple]]) -> list[KMRelation]:
    """The KMRelations of the rows of _sites(n, k, quads), in order."""
    return [KMRelation(sigma, v, tuple(fl[i] for i in quad), pairing,
                       {trees[i]: c for i, c in row.items()})
            for sigma, v, fl, trees, rows in _sites(n, k, quads)
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
