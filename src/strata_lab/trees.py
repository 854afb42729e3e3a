"""Stable n-marked trees and the boundary-strata sets they index.

A tree is stored as the family of splits cut out by its internal edges.
Each internal edge separates the mark set {1..n} into two sides; we
record the side *not* containing mark 1, as a sorted tuple.  A family of
pairwise compatible sides (any two nested or disjoint) determines the
tree uniquely, so isomorphism testing, hashing and a total order come
for free from tuple comparison.

Vertex numbering convention used by all surgery operations: vertex 0 is
the internal vertex incident to mark 1, and vertex i >= 1 is the far
endpoint of the edge recorded by ``t.splits[i-1]``.

Strata are enumerated by the forget-map recursion: forgetting mark n
sends a tree to an (n-1)-marked tree and the vertex or edge mark n sat
on, so re-attaching mark n at every place of every (n-1)-marked tree
yields each n-marked tree exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

Side = tuple  # sorted marks on the side of an edge away from mark 1


class DomainError(ValueError):
    """Raised for (n, k) or surgery arguments outside the valid range."""


class TreeStructureError(RuntimeError):
    """An internal invariant of a tree's vertex structure does not hold."""


def _norm_side(side: Iterable[int], n: int) -> Side:
    s = frozenset(side)
    if 1 in s:
        s = frozenset(range(1, n + 1)) - s
    return tuple(sorted(s))


@dataclass(frozen=True, order=True)
class MarkedTree:
    """A stable tree with marks {1..n}, in canonical split-family form."""

    n: int
    splits: tuple[Side, ...]

    def __post_init__(self):
        n = self.n
        if n < 3:
            raise DomainError(f"need at least 3 marks, got n={n}")
        prev = None
        sets = []
        for s in self.splits:
            if not isinstance(s, tuple) or list(s) != sorted(set(s)):
                raise ValueError(f"split {s!r} is not a sorted duplicate-free tuple")
            if not 2 <= len(s) <= n - 2:
                raise ValueError(f"split {s!r} has invalid size for n={n}")
            if s[0] < 2 or s[-1] > n:
                raise ValueError(f"split {s!r} must use marks in 2..{n}")
            if prev is not None and s <= prev:
                raise ValueError("split family must be strictly sorted")
            prev = s
            sets.append(frozenset(s))
        for a, b in combinations(sets, 2):
            if not (a <= b or b <= a or not (a & b)):
                raise ValueError(
                    f"incompatible splits {tuple(sorted(a))} / {tuple(sorted(b))}"
                )

    @property
    def k(self) -> int:
        """Dimension of the boundary stratum this tree indexes."""
        return self.n - 3 - len(self.splits)

    @staticmethod
    def star(n: int) -> "MarkedTree":
        return MarkedTree(n, ())

    @staticmethod
    def from_sides(n: int, sides: Iterable[Iterable[int]]) -> "MarkedTree":
        """Build a tree from edge sides given in any orientation."""
        return MarkedTree(n, tuple(sorted(_norm_side(s, n) for s in sides)))

    def to_obj(self) -> dict:
        return {"n": self.n, "splits": [list(s) for s in self.splits]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    @staticmethod
    def from_obj(obj: dict) -> "MarkedTree":
        return MarkedTree(int(obj["n"]), tuple(tuple(s) for s in obj["splits"]))

    @staticmethod
    def from_json(text: str) -> "MarkedTree":
        return MarkedTree.from_obj(json.loads(text))


class _Structure(NamedTuple):
    # flags[v] = sorted behind-sets of the flags at vertex v (marks and edges)
    flags: tuple[tuple[Side, ...], ...]
    # parent_vertex[i] = vertex on the mark-1 side of the edge for splits[i]
    parent_vertex: tuple[int, ...]


@lru_cache(maxsize=1 << 18)
def _structure(t: MarkedTree) -> _Structure:
    n = t.n
    sets = [frozenset(s) for s in t.splits]
    m = len(sets)

    def smallest_superset(target, skip=-1):
        best = -1
        for j, u in enumerate(sets):
            if j != skip and target < u and (best < 0 or u < sets[best]):
                best = j
        return best

    parent = [0] * m
    flags: list[list[Side]] = [[] for _ in range(m + 1)]
    full = frozenset(range(1, n + 1))
    for i, s in enumerate(sets):
        p = smallest_superset(s, skip=i)
        parent[i] = p + 1
        flags[p + 1].append(t.splits[i])
        flags[i + 1].append(tuple(sorted(full - s)))
    for mark in range(1, n + 1):
        best = -1
        for j, u in enumerate(sets):
            if mark in u and (best < 0 or u < sets[best]):
                best = j
        flags[best + 1].append((mark,))
    return _Structure(tuple(tuple(sorted(f)) for f in flags), tuple(parent))


def vertex_flags(t: MarkedTree) -> tuple[tuple[Side, ...], ...]:
    """Flags at each internal vertex, identified by the mark set behind them.

    The behind-sets of the flags at any one vertex partition {1..n}.
    """
    return _structure(t).flags


def canonical_form(t: MarkedTree) -> str:
    """Canonical string form; equal iff the marked trees are isomorphic."""
    return json.dumps([list(s) for s in t.splits], separators=(",", ":"))


def valence_partition(t: MarkedTree) -> tuple[int, ...]:
    """Weakly decreasing partition of k built from val(v) - 3 over vertices."""
    parts = sorted(
        (len(f) - 3 for f in _structure(t).flags if len(f) > 3), reverse=True
    )
    if sum(parts) != t.k:
        raise TreeStructureError(f"valence partition {parts} does not sum to k={t.k}")
    return tuple(parts)


def filtration_level(t: MarkedTree) -> int:
    """Number of parts of the valence partition (0 for trivalent trees)."""
    return sum(1 for f in _structure(t).flags if len(f) > 3)


def apply_permutation(t: MarkedTree, g: Sequence[int]) -> MarkedTree:
    """Relabel marks by the permutation g (g[i-1] is the image of i)."""
    if sorted(g) != list(range(1, t.n + 1)):
        raise DomainError(f"not a permutation of 1..{t.n}: {g!r}")
    return MarkedTree.from_sides(t.n, ((g[m - 1] for m in s) for s in t.splits))


def split_vertex(
    t: MarkedTree,
    v: int,
    flags_a: Iterable[Iterable[int]],
    flags_b: Iterable[Iterable[int]],
) -> MarkedTree:
    """Replace vertex v by an edge, flags_a on one end and flags_b on the other.

    Both flag groups must have at least two members, otherwise the result
    would be unstable.  Contracting the new edge recovers t.
    """
    here = _structure(t).flags[v]
    fa = [tuple(sorted(f)) for f in flags_a]
    fb = [tuple(sorted(f)) for f in flags_b]
    if len(fa) < 2 or len(fb) < 2:
        raise DomainError("each side of a vertex split needs at least 2 flags")
    if sorted(fa + fb) != list(here):
        raise DomainError(f"flag groups do not partition the flags at vertex {v}")
    side = [m for f in fb for m in f]
    return MarkedTree.from_sides(t.n, t.splits + (tuple(side),))


def contract_edge(t: MarkedTree, side: Iterable[int]) -> MarkedTree:
    """Contract the internal edge with the given side; inverse of split_vertex."""
    s = _norm_side(side, t.n)
    if s not in t.splits:
        raise DomainError(f"no edge with side {s} in {canonical_form(t)}")
    return MarkedTree(t.n, tuple(x for x in t.splits if x != s))


def _edge_toward(t: MarkedTree, st: _Structure, v: int, w: int) -> Side:
    """Behind-set of the flag at internal vertex v on the path to vertex w."""
    sets = [frozenset(s) for s in t.splits]
    for i, pv in enumerate(st.parent_vertex):
        if pv == v and w >= 1 and sets[w - 1] <= sets[i]:
            return t.splits[i]
    if v < 1:
        raise TreeStructureError(f"vertex 0 has no child edge toward vertex {w}")
    full = frozenset(range(1, t.n + 1))
    return tuple(sorted(full - sets[v - 1]))


def _two_vertex_data(t: MarkedTree):
    """(v1, P1, a1, v2, P2, a2, middle) for a tree with exactly two fat vertices."""
    st = _structure(t)
    fat = [v for v, f in enumerate(st.flags) if len(f) >= 4]
    if len(fat) != 2:
        raise DomainError(
            f"expected filtration level 2, got level {len(fat)} tree"
        )
    v1, v2 = fat
    full = frozenset(range(1, t.n + 1))
    p1 = full - frozenset(_edge_toward(t, st, v1, v2))
    p2 = full - frozenset(_edge_toward(t, st, v2, v1))
    a1 = len(st.flags[v1]) - 3
    a2 = len(st.flags[v2]) - 3
    if min(p2) < min(p1):
        v1, p1, a1, v2, p2, a2 = v2, p2, a2, v1, p1, a1
    return v1, p1, a1, v2, p2, a2, full - p1 - p2


def decompose_two_vertex(t: MarkedTree):
    """Cut the two edges separating the fat vertices of a level-2 tree.

    Returns (P1, a1, P2, a2, middle): the mark sets at the two fat
    vertices with their excess valences a_i = val(v_i) - 3, ordered so
    min(P1) < min(P2), plus the marks on the connecting subtree.
    """
    _, p1, a1, _, p2, a2, mid = _two_vertex_data(t)
    if a1 + a2 != t.k or len(p1) < a1 + 2 or len(p2) < a2 + 2:
        raise TreeStructureError(f"fat vertices {a1}, {a2} do not fit {canonical_form(t)}")
    return p1, a1, p2, a2, mid


@lru_cache(maxsize=None)
def _inner_levels(n: int, k: int) -> tuple[int | None, ...]:
    """Inner level (marks on the connecting subtree) of each level-2 tree in
    enumerate_strata(n, k), and None for every tree of another level."""
    return tuple(len(decompose_two_vertex(t)[4]) if filtration_level(t) == 2 else None
                 for t in enumerate_strata(n, k))


def forget_mark(t: MarkedTree, m: int | None = None) -> tuple[MarkedTree, bool]:
    """Remove the last mark and stabilize.

    Only m = n is supported; relabel first to forget another mark.  The
    returned flag says whether an internal edge was lost, i.e. whether a
    vertex became 2-valent and was suppressed.
    """
    if t.n == 3:
        raise DomainError("cannot forget a mark of a 3-marked tree")
    if m is None:
        m = t.n
    if m != t.n:
        raise DomainError(f"only the last mark ({t.n}) can be forgotten, got {m}")
    n1 = t.n - 1
    kept = set()
    for s in t.splits:
        s1 = tuple(x for x in s if x != m)
        if 2 <= len(s1) <= n1 - 2:
            kept.add(s1)
    out = MarkedTree(n1, tuple(sorted(kept)))
    return out, len(kept) < len(t.splits)


@lru_cache(maxsize=None)
def _level(n: int, n_edges: int) -> tuple[MarkedTree, ...]:
    if n_edges == 0:
        return (MarkedTree.star(n),)
    if n_edges > n - 3:
        return ()
    out = []
    # mark n at vertex 0 (no split changes) or at the far end of edge s:
    # n joins s and every split containing s
    for t in _level(n - 1, n_edges):
        sets = [frozenset(s) for s in t.splits]
        out.append(t.splits)
        for s in sets:
            out.append(tuple(sorted(x + (n,) if s <= u else x for x, u in zip(t.splits, sets))))
    # mark n on a new trivalent vertex inside the leaf edge of mark 1 (new
    # split {2..n-1}), or inside the edge whose far side s is a leaf {m} or
    # a split: s stays, s + {n} is new, n joins every split strictly above s
    for t in _level(n - 1, n_edges - 1):
        sets = [frozenset(s) for s in t.splits]
        out.append(tuple(sorted(t.splits + (tuple(range(2, n)),))))
        for s in [(m,) for m in range(2, n)] + list(t.splits):
            f = frozenset(s)
            out.append(tuple(sorted(
                [s + (n,), *(x + (n,) if f < u else x for x, u in zip(t.splits, sets))])))
    return tuple(MarkedTree(n, splits) for splits in sorted(out))


def enumerate_strata(n: int, k: int) -> tuple[MarkedTree, ...]:
    """Every stable n-marked tree with n-3-k internal edges, each once.

    Built by the forget-map recursion: mark n at a vertex of an (n-1)-marked
    tree of dimension k-1, or on a new trivalent vertex inside an edge of
    one of dimension k; output sorted on the split families.
    """
    if n < 3 or k < 0 or k > n - 3:
        raise DomainError(f"no strata for n={n}, k={k}")
    return _level(n, n - 3 - k)
