"""Stable n-marked trees and the boundary-strata sets they index.

A tree is stored as the family of splits cut out by its internal edges.
Each internal edge separates the mark set {1..n} into two sides; we
record the side *not* containing mark 1, as a sorted tuple.  A family of
pairwise compatible sides (any two nested or disjoint) determines the
tree uniquely, so isomorphism testing, hashing and a total order come
for free from tuple comparison.

Vertex numbering convention of the vertex flags: vertex 0 is the
internal vertex incident to mark 1, and vertex i >= 1 is the far
endpoint of the edge recorded by ``t.splits[i-1]``.

This module owns the bitmask encoding of sides that the package works
on: bit m stands for mark m, the n marks fill `_full(n)`, a mark bitmask
becomes the side away from mark 1 by `_away`, a set of marks becomes a
range-checked bitmask by `_marks_bits`, and `_side_bits` / `_bits_side`
convert between a side's tuple and its bitmask (`_bits_splits` a family
of bitmasks into a tree's splits).  Other modules ask these
helpers rather than write the mask or the flip themselves.  Validation
(`_check_splits`), containment and orientation are all done on bitmasks;
sets are built only by the public `decompose_two_vertex`.

Every split tuple the package builds comes from the lru-cached
`_bits_side`, so all strata share one tuple object per side (the (9,3)
strata hold 246 of them).  Equality, hashing and order stay by value: a
tree read back from JSON, with fresh tuples, is equal to its enumerated
twin and is found wherever that one is.

How the splits hang together is worked out in one place, ``_vertex_pass``:
one pass over the splits, larger first, gives each split's parent vertex,
each vertex's valence, each mark's vertex and the fat vertices.  The
vertex flags (`_vertex_flag_bits`, as bitmasks), the two sides of a
level-2 tree (`_two_vertex_bits`) and the filtration keys are all read
off its one tuple, which a caller reading two passes on.

Strata are enumerated by the forget-map recursion: forgetting mark n
sends a tree to an (n-1)-marked tree and the vertex or edge mark n sat
on, so re-attaching mark n at every place of every (n-1)-marked tree
yields each n-marked tree exactly once.  `_families` generates those
split families, unsorted and unvalidated, from the cached (n-1)-marked
level; `_level` sorts them, validates each as a MarkedTree and caches
the level.  `_at_vertex` and `_in_edge` re-attach the mark, and
`wtilde._square_trees` calls `_in_edge` too: it reads the level of a few
of the (n+1)-marked strata from each n-marked parent and the place,
counts most of them and builds only those with the mark in a middle
edge, caching no level on n+1 marks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Side = tuple  # sorted marks on the side of an edge away from mark 1


class DomainError(ValueError):
    """Raised for (n, k), marks, moves or JSON input outside the valid range."""


def _json_fields(obj, what: str, *names: str) -> list:
    """The named fields of a JSON object read as a `what`; DomainError if
    obj is no object or lacks one of them."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if missing := [name for name in names if name not in obj]:
        raise DomainError(f"{what} has no field {missing[0]}")
    return [obj[name] for name in names]


def _json_list(value, what: str, name: str, of: str = "") -> list:
    """value, the field `name` of a JSON `what`, if a list (of "lists" or
    "numbers" as `of` says; float marks are refused later); else DomainError."""
    entry = {"lists": list, "numbers": (int, float)}.get(of, object)
    if type(value) is not list or not all(isinstance(x, entry) for x in value):
        raise DomainError(f"{what} {name} must be a list" + (f" of {of}" if of else ""))
    return value


class TreeStructureError(RuntimeError):
    """An internal invariant of a tree's vertex structure does not hold."""


def _full(n: int) -> int:
    """Bitmask of the marks 1..n: bit m for mark m."""
    return (1 << n + 1) - 2


def _away(bits: int, full: int) -> int:
    """A mark bitmask as the side away from mark 1: bits, or its complement
    in full (`_full(n)`) when it holds mark 1."""
    return full ^ bits if bits & 2 else bits


def _marks_bits(marks: Iterable[int], n: int, what: str = "mark") -> int:
    """Bitmask of a set of marks; DomainError naming `what` for a mark that
    is not an int in 1..n."""
    bits = 0
    for m in marks:
        if type(m) is not int or not 0 < m <= n:
            raise DomainError(f"{what} {m!r} is not a mark in 1..{n}")
        bits |= 1 << m
    return bits


def _side(marks: Iterable[int], n: int) -> Side:
    """The side of an edge given by the marks on either end of it."""
    return _bits_side(_away(_marks_bits(marks, n), _full(n)))


@lru_cache(maxsize=1 << 16)
def _side_bits(n: int, s: Side) -> int:
    """Bitmask of the marks of a tuple of ints s when s is a valid side for
    n marks (sorted, duplicate-free, in 2..n, of size 2..n-2), else 0.
    The cache matches keys by equality, (2, 3.0) with (2, 3), so the
    caller refuses marks that are not ints first (`_check_splits`)."""
    if 2 <= len(s) <= n - 2 and s[0] >= 2 and s[-1] <= n and all(a < b for a, b in zip(s, s[1:])):
        return sum(1 << m for m in s)
    return 0


@lru_cache(maxsize=None)
def _bits_side(bits: int) -> tuple[int, ...]:
    """The sorted marks m with bit m set in bits."""
    return tuple(m for m in range(bits.bit_length()) if bits >> m & 1)


@lru_cache(maxsize=None)
def _side_json(s: Side) -> str:
    """A side as a JSON list, its marks written as json writes ints
    (int.__repr__, for int subclasses too)."""
    return "[" + ",".join(map(int.__repr__, s)) + "]"


def _bits_splits(family: Iterable[int]) -> tuple[Side, ...]:
    """The sorted sides of split bitmasks: a tree's splits, if they are valid."""
    return tuple(sorted(map(_bits_side, family)))


def _check_splits(n: int, splits) -> None:
    """Raise naming the first fault of a tree's marks and splits, if any:
    ValueError unless n is an int and splits a strictly sorted tuple of
    valid, pairwise nested or disjoint sides, DomainError for n < 3.  One
    pass, each side read as the bitmask of its marks."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 3:
        raise DomainError(f"need at least 3 marks, got n={n}")
    if type(splits) is not tuple:
        raise ValueError(f"splits must be a tuple of sides, got {type(splits).__name__}")
    prev = ()
    seen = []
    for s in splits:
        # int marks (int subclasses count) sum to an int, and a float,
        # Fraction or numpy mark makes the sum another type: it is refused
        # here, before the cache
        try:
            b = _side_bits(n, s) if type(s) is tuple and type(sum(s)) is int else 0
        except TypeError:  # a mark that is not a number
            b = 0
        if not b:
            if (type(s) is not tuple or any(type(m) is not int for m in s)
                    or list(s) != sorted(set(s))):
                raise ValueError(f"split {s!r} is not a sorted duplicate-free tuple")
            if not 2 <= len(s) <= n - 2:
                raise ValueError(f"split {s!r} has invalid size for n={n}")
            raise ValueError(f"split {s!r} must use marks in 2..{n}")
        if s <= prev:
            raise ValueError("split family must be strictly sorted")
        for a in seen:
            if (c := a & b) and c != a and c != b:
                raise ValueError(f"incompatible splits {_bits_side(a)} / {s}")
        seen.append(b)
        prev = s


@dataclass(frozen=True, order=True, slots=True)
class MarkedTree:
    """A stable tree with marks {1..n}, in canonical split-family form."""

    n: int
    splits: tuple[Side, ...]

    def __post_init__(self):
        _check_splits(self.n, self.splits)

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
        return MarkedTree(n, tuple(sorted(_side(s, n) for s in sides)))

    def to_obj(self) -> dict:
        return {"n": self.n, "splits": [list(s) for s in self.splits]}

    def to_json(self) -> str:
        """json.dumps(self.to_obj(), separators=(",", ":")), written from
        one cached string per side."""
        return '{"n":%d,"splits":[%s]}' % (self.n, ",".join(map(_side_json, self.splits)))

    @staticmethod
    def from_obj(obj: dict) -> "MarkedTree":
        n, splits = _json_fields(obj, "tree", "n", "splits")
        return MarkedTree(n, tuple(map(tuple, _json_list(splits, "tree", "splits", "lists"))))

    @staticmethod
    def from_json(text: str) -> "MarkedTree":
        return MarkedTree.from_obj(json.loads(text))


def _vertex_pass(t: MarkedTree) -> tuple[list[int], list[int], list[int], list[int], int]:
    """(parent, valence, owner, fat, c): how the splits of t hang together.

    One pass over the splits, larger first: owner[m] is the vertex of the
    least split seen so far that holds mark m (vertex 0 when none does), so
    the owner of a split's first mark is the split's parent vertex, and at
    the end owner[m] is the vertex mark m sits at.  The valence of a vertex
    is its child edges, its marks and, except at vertex 0, its parent edge.
    fat lists the vertices of valence >= 4: at level 2, [u, w] with u's
    split the larger (vertex 0 counts as size n), so w is never above u; c
    is the child of u on the path to w, else 0 (u not above w, level != 2).
    """
    n, splits = t.n, t.splits
    owner = [0] * (n + 1)
    parent = [0] * (len(splits) + 1)
    valence = [0] + [1] * len(splits)  # the parent edge of every vertex but 0
    for i, s in sorted(enumerate(splits, 1), key=lambda e: -len(e[1])):
        parent[i] = owner[s[0]]
        valence[parent[i]] += 1
        for m in s:
            owner[m] = i
    for m in range(1, n + 1):
        valence[owner[m]] += 1
    fat = [v for v, val in enumerate(valence) if val >= 4]
    if len(fat) != 2:
        return parent, valence, owner, fat, 0
    u, w = fat
    if u and len(splits[u - 1]) < len(splits[w - 1]):
        u, w = w, u
    c = w
    while c and parent[c] != u:
        c = parent[c]
    return parent, valence, owner, [u, w], c


def _vertex_flag_bits(t: MarkedTree, passed=None) -> list[list[int]]:
    """The flags at each internal vertex as mark bitmasks, the marks behind
    each flag; a vertex's flags partition the marks, so they are listed by
    least mark.  passed is _vertex_pass(t) when the caller has it.

    The flag toward mark 1 comes first at every vertex but 0.  The splits
    sort by least mark, so walking the marks in order and each split with
    its least mark appends the other flags in order, with no sort."""
    parent, _, owner, _, _ = passed or _vertex_pass(t)
    n, splits = t.n, t.splits
    full = _full(n)
    bits = [_side_bits(n, s) for s in splits]
    flags = [[]] + [[full ^ b] for b in bits]
    i = 0
    for m in range(1, n + 1):
        while i < len(splits) and splits[i][0] == m:
            flags[parent[i + 1]].append(bits[i])
            i += 1
        flags[owner[m]].append(1 << m)
    return flags


def canonical_form(t: MarkedTree) -> str:
    """Canonical string form; equal iff the marked trees are isomorphic."""
    return json.dumps([list(s) for s in t.splits], separators=(",", ":"))


def filtration_level(t: MarkedTree) -> int:
    """Number of fat vertices, those of valence >= 4 (0 if trivalent)."""
    return len(_vertex_pass(t)[3])


def apply_permutation(t: MarkedTree, g: Sequence[int]) -> MarkedTree:
    """Relabel marks by the permutation g (g[i-1] is the image of i)."""
    if sorted(g) != list(range(1, t.n + 1)):
        raise DomainError(f"not a permutation of 1..{t.n}: {g!r}")
    return MarkedTree.from_sides(t.n, ((g[m - 1] for m in s) for s in t.splits))


def _two_vertex_bits(t: MarkedTree, passed=None) -> tuple[int, int, int, int]:
    """(P1, a1, P2, a2) of a level-2 tree, the sides as mark bitmasks: the
    marks at the two fat vertices once the edges between them are cut, with
    their excess valences a_i = val(v_i) - 3, ordered so min(P1) < min(P2).
    passed is _vertex_pass(t) when the caller has it."""
    _, valence, _, fat, c = passed or _vertex_pass(t)
    if len(fat) != 2:
        raise DomainError(f"expected filtration level 2, got level {len(fat)} tree")
    n, splits = t.n, t.splits
    u, w = fat
    p2 = _side_bits(n, splits[w - 1])
    if c:  # u above w: u keeps every mark outside c's side
        p1 = _full(n) ^ _side_bits(n, splits[c - 1])
    else:
        p1 = _side_bits(n, splits[u - 1])
    a1, a2 = valence[u] - 3, valence[w] - 3
    if p2 & -p2 < p1 & -p1:
        p1, a1, p2, a2 = p2, a2, p1, a1
    if a1 + a2 != t.k or p1.bit_count() < a1 + 2 or p2.bit_count() < a2 + 2:
        raise TreeStructureError(f"fat vertices {a1}, {a2} do not fit {canonical_form(t)}")
    return p1, a1, p2, a2


def decompose_two_vertex(t: MarkedTree):
    """Cut the two edges separating the fat vertices of a level-2 tree.

    Returns (P1, a1, P2, a2, middle): the mark sets at the two fat
    vertices with their excess valences a_i = val(v_i) - 3, ordered so
    min(P1) < min(P2), plus the marks on the connecting subtree.
    """
    p1, a1, p2, a2 = _two_vertex_bits(t)
    mid = _full(t.n) & ~(p1 | p2)
    return (frozenset(_bits_side(p1)), a1, frozenset(_bits_side(p2)), a2,
            frozenset(_bits_side(mid)))


def _filtration_key(t: MarkedTree) -> int:
    """n * level + inner level of t, the inner level (marks on the
    connecting subtree, < n) counted at level 2 only; read off split
    sizes, without building a set."""
    n, splits = t.n, t.splits
    _, _, _, fat, c = _vertex_pass(t)
    if len(fat) != 2:
        return n * len(fat)
    u, w = fat
    if c:  # u above w: the middle is c's side less w's
        inner = len(splits[c - 1]) - len(splits[w - 1])
    else:
        inner = n - len(splits[u - 1]) - len(splits[w - 1])
    return 2 * n + inner


@lru_cache(maxsize=None)
def _filtration_keys(n: int, k: int) -> tuple[int, ...]:
    """_filtration_key of each tree in enumerate_strata(n, k): level >= r is
    key >= n*r, and level >= 3 or level 2 with inner level >= b is
    key >= 2n + b."""
    return tuple(map(_filtration_key, enumerate_strata(n, k)))


def forget_mark(t: MarkedTree) -> tuple[MarkedTree, bool]:
    """Remove the last mark and stabilize; relabel first to forget another.

    The returned flag says whether an internal edge was lost, i.e. whether
    a vertex became 2-valent and was suppressed.
    """
    if t.n == 3:
        raise DomainError("cannot forget a mark of a 3-marked tree")
    n1 = t.n - 1
    kept = set()
    for s in t.splits:
        b = _side_bits(t.n, s) & ~(1 << t.n)
        if 2 <= b.bit_count() <= n1 - 2:
            kept.add(_bits_side(b))
    out = MarkedTree(n1, tuple(sorted(kept)))
    return out, len(kept) < len(t.splits)


def _at_vertex(bits: list[int], b: int, new: int) -> tuple[Side, ...]:
    """The splits of a tree, given as the bitmasks bits, after the mark
    bit new joins the vertex at the far end of the edge whose side is b:
    new joins b and every split containing b.  At vertex 0 no split
    changes."""
    return _bits_splits(u | new if b & u == b else u for u in bits)


def _in_edge(bits: list[int], b: int, new: int) -> tuple[Side, ...]:
    """The splits after the mark bit new lands on a new trivalent vertex
    inside the edge whose far side b is a leaf {m} or a split: b stays,
    b + new is new, and new joins every split strictly above b."""
    return _bits_splits([b | new, *(u | new if b & u == b != u else u for u in bits)])


def _families(n: int, n_edges: int) -> Iterator[tuple[Side, ...]]:
    """Every split family of a stable n-marked tree with n_edges internal
    edges, each once, unsorted and not validated: the forget-map recursion
    on the cached (n-1)-marked levels."""
    if n_edges == 0:
        yield ()
        return
    if n_edges > n - 3:
        return
    # every family is worked out on the split bitmasks of its parent tree
    # and read back through _bits_splits, so all strata share one tuple per side
    new = 1 << n
    # mark n at vertex 0 or at the far end of an edge
    for t in _level(n - 1, n_edges):
        bits = [_side_bits(n - 1, s) for s in t.splits]
        yield t.splits
        for b in bits:
            yield _at_vertex(bits, b, new)
    # mark n inside the leaf edge of mark 1, of a mark m, or of a split
    for t in _level(n - 1, n_edges - 1):
        bits = [_side_bits(n - 1, s) for s in t.splits]
        yield _bits_splits([*bits, _full(n - 1) ^ 2])
        for b in [1 << m for m in range(2, n)] + bits:
            yield _in_edge(bits, b, new)


@lru_cache(maxsize=None)
def _level(n: int, n_edges: int) -> tuple[MarkedTree, ...]:
    """The strata with n_edges internal edges: _families(n, n_edges) sorted,
    each validated as a MarkedTree."""
    return tuple(MarkedTree(n, splits) for splits in sorted(_families(n, n_edges)))


def enumerate_strata(n: int, k: int) -> tuple[MarkedTree, ...]:
    """Every stable n-marked tree with n-3-k internal edges, each once.

    Built by the forget-map recursion: mark n at a vertex of an (n-1)-marked
    tree of dimension k-1, or on a new trivalent vertex inside an edge of
    one of dimension k; output sorted on the split families.
    """
    if n < 3 or k < 0 or k > n - 3:
        raise DomainError(f"no strata for n={n}, k={k}")
    return _level(n, n - 3 - k)
