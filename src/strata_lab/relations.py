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
all its relations, so both families keep one split table per site: it
maps the flags on the side of a split away from the site's least flag to
the tree `split_vertex` returns for it, and every term at the site reads
its tree from there.  Each tree is built and validated once per site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Sequence

from .trees import DomainError, MarkedTree, _structure, enumerate_strata, split_vertex

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
    here = _structure(sigma).flags[vertex]
    quad = (a, b, c, d)
    if len(set(quad)) != 4:
        raise DomainError("flags A, B, C, D must be distinct")
    if any(f not in here for f in quad):
        raise DomainError(f"flags must all be incident to vertex {vertex}")
    if pairing not in (1, 2):
        raise DomainError(f"pairing must be 1 or 2, got {pairing}")
    return _expand(sigma, vertex, here, quad, pairing, {})


def _expand(sigma: MarkedTree, vertex: int, here: tuple, quad: tuple,
            pairing: int, table: dict) -> KMRelation:
    """The relation (quad, pairing) at the site (sigma, vertex) whose flags
    are `here`, with every term's tree read from the site's split table.

    `table` maps the flags on the side of a split away from here[0] to the
    tree split_vertex returns for it; a missing entry is split and stored.
    """
    a, b, c, d = quad
    rest = tuple(f for f in here if f not in quad)
    minus = (a, c, b, d) if pairing == 1 else (a, d, b, c)
    terms: dict[MarkedTree, int] = {}
    for (x1, x2, y1, y2), sign in (((a, b, c, d), 1), (minus, -1)):
        for u1 in _subsets(rest):
            u2 = tuple(f for f in rest if f not in u1)
            side_a, side_b = (x1, x2) + u1, (y1, y2) + u2
            key = frozenset(side_b if here[0] in side_a else side_a)
            t = table.get(key)
            if t is None:
                t = table[key] = split_vertex(sigma, vertex, side_a, side_b)
            terms[t] = terms.get(t, 0) + sign
    terms = {t: v for t, v in terms.items() if v}
    return KMRelation(sigma, vertex, quad, pairing, terms)


def _relations(n: int, k: int,
               quads: Callable[[tuple], Iterable[tuple]]) -> list[KMRelation]:
    """Both pairings of the 4-subsets quads(fl) at every site (sigma, v),
    all reading their trees from one split table per site."""
    if not 0 <= k <= n - 4:
        raise DomainError(f"relations require 0 <= k <= n-4, got n={n}, k={k}")
    out = []
    for sigma in enumerate_strata(n, k + 1):
        for v, fl in enumerate(_structure(sigma).flags):
            if len(fl) < 4:
                continue
            table: dict = {}
            for quad in quads(fl):
                for pairing in (1, 2):
                    out.append(_expand(sigma, v, fl, quad, pairing, table))
    return out


def generate_relations(n: int, k: int) -> list[KMRelation]:
    """All emitted relations for S_{k,n}, in deterministic order."""
    return _relations(n, k, lambda fl: combinations(fl, 4))


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
    return _relations(n, k, lambda fl: (fl[:2] + rest for rest in combinations(fl[2:], 2)))


def relations_jsonl(n: int, k: int) -> Iterable[str]:
    """One relation per line, terms referring to enumeration-order tree ids."""
    index = {t: i for i, t in enumerate(enumerate_strata(n, k))}
    for rel in generate_relations(n, k):
        yield json.dumps(rel.to_obj(index), separators=(",", ":"), sort_keys=True)
