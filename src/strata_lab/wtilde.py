"""The cut map to weighted pairs, its signed rational extension, and the
rewriting engine to standard form.

w_map sends a tree with exactly two fat vertices to the weighted pair
obtained by cutting the two separating edges.  wtilde extends it to all
strata: on level-1 trees it is a signed sum over the covering pairs
refined by the fat vertex, with coefficient (-1)^e / 2, on level-2 trees
it is the single pair, and it vanishes on level >= 3.  The extension is
checked at runtime to kill every relation modulo pairs of inner level
>= 1, in exact integer half-units.

rewrite_to_standard normalizes a level-2 tree within its homology class
to the canonical representative of its pair fiber, recording a replayable
move list (trivalent-subtree rearrangements and single relation swaps).

Pairs and splits are worked on as mark bitmasks in the encoding of
`trees` (bit m for mark m; `trees._full`, `_away` and `_marks_bits`): a
pair is the key (P1 bits, a1, P2 bits, a2), read off the tree by
`trees._two_vertex_bits`, and `_half_units` gives 2 * wtilde(t) in ints
over those keys.  A split is the bitmask of its side away from mark 1,
and both the rewrite and apply_move change a tree's splits by one
surgery, `_surgery`.  PairLabels, Fractions, frozensets and MarkedTrees
are built from the bits only where a public function returns them, where
the rewrite records a move (it builds no tree), and for failure reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .psets import PairLabel
from .relations import _every_template, _site_basis, _sites
from .trees import (
    DomainError,
    MarkedTree,
    _away,
    _bits_side,
    _bits_splits,
    _full,
    _in_edge,
    _json_fields,
    _json_list,
    _marks_bits,
    _side_bits,
    _two_vertex_bits,
    _vertex_flag_bits,
    _vertex_pass,
    enumerate_strata,
    forget_mark,
)

PVector = dict  # PairLabel -> Fraction, exact, denominators are powers of 2
PairBits = tuple  # (P1 bits, a1, P2 bits, a2) with min(P1) < min(P2)


class RewriteError(RuntimeError):
    """A rewrite did not end at the standard form of its pair fiber."""


def _pair_label(key: PairBits) -> PairLabel:
    """The PairLabel of a pair on mark bitmasks."""
    p1, a1, p2, a2 = key
    return PairLabel(_bits_side(p1), a1, _bits_side(p2), a2)


def w_map(t: MarkedTree) -> PairLabel:
    """Weighted pair of a level-2 tree: mark sets at the two fat vertices."""
    return _pair_label(_two_vertex_bits(t))


def _half_units(t: MarkedTree) -> dict[PairBits, int]:
    """2 * wtilde(t) in ints, keyed by pairs on mark bitmasks, in the order
    wtilde gives them: 2 at the cut pair of a level-2 tree; at a level-1
    tree, (-1)^e at each pair whose sides are unions of the flags at the fat
    vertex (side 1 holding mark 1's flag), e = min(s1 - a1, s2 - a2) for
    s_i flags making up side i; nothing at any other level."""
    passed = _vertex_pass(t)
    fat = passed[3]
    if len(fat) == 2:
        return {_two_vertex_bits(t, passed): 2}
    if len(fat) != 1:
        return {}
    first, *rest = _vertex_flag_bits(t, passed)[fat[0]]
    full = _full(t.n)
    k = t.k
    out = {}
    for r in range(len(rest) + 1):
        s1, s2 = 1 + r, len(rest) - r
        for chosen in combinations(rest, r):
            p1 = first | sum(chosen)
            p2 = full ^ p1
            size1, size2 = p1.bit_count(), p2.bit_count()
            for a1 in range(1, k):
                a2 = k - a1
                if size1 < a1 + 2 or size2 < a2 + 2:
                    continue
                out[p1, a1, p2, a2] = -1 if min(s1 - a1, s2 - a2) % 2 else 1
    return out


def wtilde(t: MarkedTree) -> PVector:
    """Signed rational image of a stratum in the space of weighted pairs."""
    return {_pair_label(key): Fraction(h, 2) for key, h in _half_units(t).items()}


def _covering_image(t: MarkedTree, full: int, number: dict[PairBits, int]) -> dict[int, int]:
    """_half_units(t) on the pairs of inner level 0 (P1 | P2 == full), each
    pair given by its number in `number`, where a new pair takes the next
    one."""
    return {number.setdefault(key, len(number)): h
            for key, h in _half_units(t).items() if key[0] | key[2] == full}


@dataclass
class KilledReport:
    """Outcome of checking that wtilde kills relations modulo inner level >= 1."""

    n: int
    k: int
    relations: int
    failures: list[dict] = field(default_factory=list)
    max_residual: Fraction = Fraction(0)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "relations": self.relations,
            "failures": self.failures,
            "max_residual": str(self.max_residual),
        }


def _residual(row: dict[int, int], local: list[dict[int, int]]) -> dict[int, int]:
    """The half-units the relation row {local id: coeff} leaves over the
    images `local` of its site's terms, by pair number, zeros dropped."""
    acc: dict[int, int] = {}
    for i, coeff in row.items():
        for g, h in local[i].items():
            val = acc.get(g, 0) + coeff * h
            if val:
                acc[g] = val
            else:
                acc.pop(g, None)
    return acc


def verify_relations_killed(n: int, k: int) -> KilledReport:
    """Check the covering-pair component of wtilde(R) vanishes for every
    relation R of S_{k,n}, both pairings of every 4-subset at every site
    (`relations._every_template`); residuals are exact rationals, zero
    means zero.

    Restricting to inner level 0 commutes with summing over the terms, so
    each distinct tree's restricted image is taken once, in half-units
    (_half_units gives only the ints 2, 1 and -1, so every value of wtilde
    lies in (1/2)Z), with its pairs numbered in order of appearance, and
    each relation is summed in integers over the local ids of its site's
    template splits.  `_sites` gives each term as its enumeration id, so
    the images are kept in a list by id and each term is looked up once.

    At each site the rows of the site basis (`relations._site_basis`) are
    summed first.  Every relation of the site is an integer combination of
    them as formal sums over the site's splits (the proof is in
    `_site_basis`), and the residual is linear in the row, so when no basis
    row leaves one no relation of the site does, and its relations are
    counted without being summed.  Otherwise every relation of the site is
    summed, so the failures and their residuals come in the same order.
    PairLabels are built only for the residual of a failure.
    """
    if not 2 <= k <= n - 4:
        raise DomainError(f"check needs 2 <= k <= n-4, got ({n}, {k})")
    report = KilledReport(n, k, 0)
    full = _full(n)
    number: dict[PairBits, int] = {}  # pair -> its position in the dict
    strata = enumerate_strata(n, k)
    images: list[dict[int, int] | None] = [None] * len(strata)  # by enumeration id
    ids = {t.splits: i for i, t in enumerate(strata)}
    for sigma, v, marks, terms, rows in _sites(n, k, _every_template, ids):
        local = []
        for i in terms:
            img = images[i]
            if img is None:
                img = images[i] = _covering_image(strata[i], full, number)
            local.append(img)
        report.relations += len(rows)
        if not any(_residual(row, local) for *_, row in _site_basis(len(marks))[1]):
            continue
        for quad, pairing, row in rows:
            if acc := _residual(row, local):
                pairs = list(number)
                residual = {_pair_label(pairs[g]): Fraction(h, 2) for g, h in acc.items()}
                report.max_residual = max(
                    report.max_residual, *(abs(q) for q in residual.values())
                )
                report.failures.append(
                    {
                        "sigma": sigma.to_obj(),
                        "vertex": v,
                        "flags": [list(_bits_side(marks[i])) for i in quad],
                        "pairing": pairing,
                        "residual": {str(g.to_obj()): str(q) for g, q in residual.items()},
                    }
                )
    return report


@dataclass
class SquareReport:
    """Outcome of the forgetful-map commuting-square check."""

    n: int
    k: int
    b: int
    checked: int
    mismatches: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "b": self.b,
            "checked": self.checked,
            "mismatches": self.mismatches,
        }


@lru_cache(maxsize=None)
def _square_trees(n: int, k: int) -> tuple[tuple[int, tuple[MarkedTree, ...]], ...]:
    """(counted, built) at index b, for 0 <= b < n-k-3: the level-2 strata
    of S_{k,n+1} of inner level b+1, those whose mark n+1 lies in P1 + P2
    counted and the rest built, in enumeration order.

    Each is derived from its forget-map parent: forgetting mark n+1 sends
    a tree sigma to one tree tau on n marks and one place of tau, a vertex
    (tau in S_{k-1,n}: mark n+1 sat at a vertex of valence >= 4, which
    stays) or an edge (tau in S_{k,n}: it sat at a trivalent vertex, which
    is suppressed), and every tree and place arise this way, so each sigma
    is met once, as in `trees._families`.  sigma's level and inner level
    are read off tau's one `_vertex_pass` and the place, with sizes of
    sides taken in tau (vertex 0 of size n), and P1 and P2 from
    `_two_vertex_bits(tau)`, which give tau's inner level n - |P1 + P2|:

    - at a vertex v of a level-2 tau, v must be fat and the inner level
      stays; any other v gives level 3;
    - at a vertex v != u of a level-1 tau with fat vertex u, the fat
      vertices are u and v and the inner level is |side(x)| - |side(v)|
      if v lies below u, x the child of u toward v, |side(y)| - |side(u)|
      if u lies below v, y the child of v toward u, else
      n - |side(u)| - |side(v)|; parents of level 0 or >= 3 give nothing;
    - in an edge of a level-2 tau the level stays, and the inner level
      grows by one when the edge lies in the middle: neither of its two
      sides is a proper subset of P1 or of P2.

    A vertex place, or an edge outside the middle, puts mark n+1 in P1 + P2;
    only a middle edge gets splits and a validated MarkedTree, and no
    level on n+1 marks is asked for."""
    groups: list[list[tuple]] = [[] for _ in range(n - k - 3)]
    counted = [0] * len(groups)
    full, new = _full(n), 1 << n + 1
    for tau in enumerate_strata(n, k - 1):  # mark n+1 at a vertex of tau
        passed = _vertex_pass(tau)
        parent, fat, splits = passed[0], passed[3], tau.splits
        if len(fat) == 2:
            p1, _, p2, _ = _two_vertex_bits(tau, passed)
            g = n - (p1 | p2).bit_count() - 1  # the inner level, less one
            if 0 <= g < len(groups):
                counted[g] += 2
        elif len(fat) == 1:
            (u,) = fat
            size = [n, *map(len, splits)]
            toward = {u: 0}  # each vertex from u up to vertex 0 -> its child toward u
            x = u
            while x:
                toward[parent[x]] = x
                x = parent[x]
            for v in range(len(size)):
                if v == u:
                    continue
                below, x = 0, v  # climb from v to u's path; below is the last vertex off it
                while x not in toward:
                    below, x = x, parent[x]
                if x == u:  # v below u
                    inner = size[below] - size[v]
                elif x == v:  # u below v
                    inner = size[toward[v]] - size[u]
                else:
                    inner = n - size[u] - size[v]
                if 0 < inner <= len(groups):
                    counted[inner - 1] += 1
    for tau in enumerate_strata(n, k):  # mark n+1 inside an edge of tau
        passed = _vertex_pass(tau)
        if len(passed[3]) != 2:
            continue
        p1, _, p2, _ = _two_vertex_bits(tau, passed)
        inner = n - (p1 | p2).bit_count()
        bits = [_side_bits(n, s) for s in tau.splits]
        for b in [full ^ 2, *(1 << m for m in range(2, n + 1)), *bits]:
            if any(x & p == x != p for x in (b, full ^ b) for p in (p1, p2)):
                if 0 < inner <= len(groups):
                    counted[inner - 1] += 1  # mark n+1 joins P1 or P2
            elif inner < len(groups):
                groups[inner].append(_bits_splits([*bits, b]) if b == full ^ 2 else _in_edge(bits, b, new))
    return tuple((c, tuple(MarkedTree(n + 1, s) for s in sorted(g))) for c, g in zip(counted, groups))


def verify_forgetful_square(n: int, k: int, b: int) -> SquareReport:
    """For every level-2 tree on n+1 marks with inner level b+1, forgetting
    the last mark commutes with the cut map, from inner level b+1 to b.

    The trees come from `_square_trees(n, k)`, which derives the level-2
    strata of S_{k,n+1} that some b checks from their forget-map parents
    on n marks: each tree is one place of mark n+1 (a vertex, or a new
    trivalent vertex in an edge) on one parent, so each arises once, and
    its level and inner level are read off the parent's vertex pass by the
    rules listed there.  The places with the last mark in P1 + P2 are only
    counted: forgetting it leaves their pairs at inner level b+1, so both
    routes vanish.  Every built tree is decomposed, forgotten and compared,
    afresh on every call, in enumeration order."""
    if not 2 <= k <= (n + 1) - 4 or b < 0 or b + 1 > (n + 1) - k - 4:
        raise DomainError(f"no trees to check for (n, k, b) = ({n}, {k}, {b})")
    counted, built = _square_trees(n, k)[b]
    report = SquareReport(n, k, b, counted)
    for sigma in built:
        pair = _two_vertex_bits(sigma)
        report.checked += 1
        image, _ = forget_mark(sigma)
        tree_route = _two_vertex_bits(image)
        if pair != tree_route:
            report.mismatches.append(
                {
                    "sigma": sigma.to_obj(),
                    "pair_route": _pair_label(pair).to_obj(),
                    "tree_route": _pair_label(tree_route).to_obj(),
                }
            )
    return report


@dataclass(frozen=True)
class RewriteMove:
    """A class-preserving move: "rearrange" of a trivalent subtree, or a
    "km_swap" applying the two-term relation that trades one mark at a fat
    vertex for a chosen flag."""

    kind: str
    payload: tuple

    def to_obj(self) -> dict:
        if self.kind == "rearrange":
            region, sides = self.payload
            return {
                "kind": self.kind,
                "region": [region[0]] + [sorted(x) for x in region[1:]],
                "sides": [sorted(s) for s in sides],
            }
        e, a, b, c = self.payload
        return {
            "kind": self.kind,
            "e": sorted(e),
            "a": sorted(a),
            "b": b,
            "c": sorted(c),
        }

    @staticmethod
    def from_obj(obj: dict) -> "RewriteMove":
        kind = _json_fields(obj, "move", "kind")[0]
        if kind not in ("rearrange", "km_swap"):
            raise DomainError(f"unknown move kind {kind!r}")
        what = f"{kind} move"

        def marks(value, name):
            return frozenset(_json_list(value, what, name, "numbers"))

        if kind == "rearrange":
            region, sides = _json_fields(obj, what, "region", "sides")
            region = _json_list(region, what, "region")
            region = (*region[:1], *(marks(x, "region set") for x in region[1:]))
            _check_region(region)
            sides = tuple(marks(s, "side") for s in _json_list(sides, what, "sides"))
            return RewriteMove("rearrange", (region, sides))
        e, a, b, c = _json_fields(obj, what, "e", "a", "b", "c")
        return RewriteMove("km_swap", (marks(e, "e"), marks(a, "a"), b, marks(c, "c")))


def _check_region(region: tuple) -> None:
    """DomainError unless a rearrange region is ("hanging", M) or
    ("middle", P1, mid)."""
    kind = region[0] if region else None
    if (kind, len(region)) not in (("hanging", 2), ("middle", 3)):
        raise DomainError(f"unknown rearrange region {kind!r} with {len(region) - 1} sets")


def _comb_bits(x: int) -> list[int]:
    """Sides of the caterpillar combing the marks of x in ascending order:
    x, then x less its least mark, and so on down to its last two marks."""
    out = []
    while x & (x - 1):
        out.append(x)
        x &= x - 1
    return out


def _least_marks(x: int, count: int) -> int:
    """The `count` least marks of x."""
    rest = x
    for _ in range(count):
        rest &= rest - 1
    return x ^ rest


def _middle_chain(p1: int, mid: int) -> list[int]:
    """Sides of the middle marks combed in ascending order away from side
    1: P1 plus the i least marks of mid, for i = 1 .. |mid| - 1."""
    out, rest = [], mid
    while rest & (rest - 1):
        rest &= rest - 1
        out.append(p1 | mid ^ rest)
    return out


def _surgery(family: list[int], full: int, kind: str, where, sides) -> list[int]:
    """The splits of a tree after one move, each the bitmask of its side
    away from mark 1: a "rearrange" drops every split strictly inside the
    region `where`, ("hanging", M) or ("middle", P1, mid), and a "km_swap"
    the one split `where`; both then add `sides`, given in either
    orientation.  DomainError when the split a swap drops is missing."""
    if kind == "rearrange":
        if where[0] == "hanging":
            (m,) = where[1:]

            def inside(x):  # strictly inside M
                return x & m == x and x != m
        else:
            p1, mid = where[1], where[2]
            span = p1 | mid

            def inside(x):  # within the middle, or strictly between P1 and P1 + middle
                return x & mid == x or (x & p1 == p1 and x != p1 and x & span == x and x != span)

        kept = [s for s in family if not (inside(s) or inside(full ^ s))]
    else:
        edge = _away(where, full)
        if edge not in family:
            raise DomainError("swap edge not present; moves replayed out of order?")
        kept = [s for s in family if s != edge]
    return kept + [_away(x, full) for x in sides]


def apply_move(t: MarkedTree, move: RewriteMove) -> MarkedTree:
    """Replay one recorded move on a tree.  DomainError for a move that is
    not one (a mark out of range, an unknown kind or region, a swap whose
    side a is not its edge e less its mark b or whose flag c meets e) or
    that does not fit the tree."""
    n = t.n
    full = _full(n)
    family = [_side_bits(n, s) for s in t.splits]

    def bits(marks):
        return _marks_bits(marks, n, "move mark")

    if move.kind == "rearrange":
        region, sides = move.payload
        _check_region(region)
        where = (region[0], *map(bits, region[1:]))
        after = _surgery(family, full, "rearrange", where, list(map(bits, sides)))
    elif move.kind == "km_swap":
        edge, side, mark, flag = move.payload
        e, a, b, c = bits(edge), bits(side), bits([mark]), bits(flag)
        if not b & e:
            raise DomainError(f"swap mark {mark} is not in its edge {sorted(edge)}")
        if a != e ^ b:
            raise DomainError(f"swap side {sorted(side)} is not its edge {sorted(edge)} "
                              f"less mark {mark}")
        if c & e:
            raise DomainError(f"swap flag {sorted(flag)} meets its edge {sorted(edge)}")
        after = _surgery(family, full, "km_swap", e, [a | c])
    else:
        raise DomainError(f"unknown move kind {move.kind!r}")
    try:
        return MarkedTree(n, _bits_splits(after))
    except ValueError as exc:  # the validator's fault: the moved splits are no tree
        raise DomainError(f"{move.kind} does not fit the tree {t.to_json()}: {exc}") from None


def standard_tree(n: int, pair: PairLabel) -> MarkedTree:
    """Canonical level-2 tree in the fiber of a weighted pair: the first
    a_i + 1 marks of each side sit at the fat vertex, everything else is
    combed into caterpillars, middle marks ascending away from side 1."""
    return _standard_tree(n, (_marks_bits(pair.p1, n), pair.a1, _marks_bits(pair.p2, n), pair.a2))


@lru_cache(maxsize=1 << 16)
def _standard_tree(n: int, key: PairBits) -> MarkedTree:
    """standard_tree(n, pair) of the pair on mark bitmasks: the one tree
    object the public function and the rewrite both return."""
    full = _full(n)
    p1, a1, p2, a2 = key
    sides = {p1, p2, *_middle_chain(p1, full & ~(p1 | p2))}
    for p, a in ((p1, a1), (p2, a2)):
        sides.update(_comb_bits(p & ~_least_marks(p, a + 1)))
    return MarkedTree(n, _bits_splits({_away(x, full) for x in sides}))


def _component_flags(family: list[int], full: int, p: int) -> list[int]:
    """The flags other than full ^ p at the fat vertex whose cut component
    is p, as mark bitmasks: the largest sides strictly inside p, then the
    marks of p under none of them.  DomainError when the edge cutting p off
    is missing or the vertex at its p end has valence < 4."""
    inside = sorted((x for s in family for x in (s, full ^ s) if x & p == x and x != p),
                    key=int.bit_count, reverse=True)
    flags, covered = [], 0
    for x in inside:  # nested or disjoint: a side is largest iff it misses the larger ones
        if not x & covered:
            flags.append(x)
            covered |= x
    rest = p & ~covered
    while rest:
        flags.append(rest & -rest)
        rest &= rest - 1
    if _away(p, full) not in family or len(flags) < 3:
        raise DomainError(f"no fat vertex with component {list(_bits_side(p))}")
    return flags


def _sets(bits) -> tuple[frozenset, ...]:
    return tuple(frozenset(_bits_side(x)) for x in bits)


def rewrite_to_standard(t: MarkedTree) -> tuple[MarkedTree, list[RewriteMove]]:
    """Rewrite a level-2 tree to the standard form of its pair fiber.

    Each swap strictly increases the number of required marks incident to
    the fat vertex being processed, so the move list is finite; replaying
    it from t (`apply_move` validates each tree) reproduces the returned
    tree, standard_tree(n, w_map(t)).  The rewrite builds no tree: it works
    on split bitmasks, records no rearrange that changes no split, and
    raises RewriteError unless its final sides are the standard tree's.
    """
    n = t.n
    full = _full(n)
    pair = _two_vertex_bits(t)
    p1, a1, p2, a2 = pair
    family = [_side_bits(n, s) for s in t.splits]
    moves: list[RewriteMove] = []

    def rearrange(where, sides):
        nonlocal family
        after = _surgery(family, full, "rearrange", where, sides)
        if sorted(after) != sorted(family):
            family = after
            region = (where[0], *_sets(where[1:]))
            moves.append(RewriteMove("rearrange", (region, _sets(sides))))

    for p, a in ((p1, a1), (p2, a2)):
        required = _least_marks(p, a + 1)
        while True:
            flags = _component_flags(family, full, p)
            incident = 0
            for f in flags:
                if not f & (f - 1):
                    incident |= f
            missing = required & ~incident
            if not missing:
                break
            m_bit = missing & -missing
            e = next(f for f in flags if f & m_bit)
            # put m right behind the edge, rest of the subtree combed; the
            # flags at the fat vertex lie outside e, so they stay as they are
            rearrange(("hanging", e), _comb_bits(e ^ m_bit))
            eligible = [f for f in flags if f != e and not (f & required and not f & (f - 1))]
            c = max(eligible, key=lambda f: f & -f)  # flags are disjoint: by least mark
            e_set, a_set, c_set = _sets((e, e ^ m_bit, c))
            moves.append(RewriteMove("km_swap", (e_set, a_set, m_bit.bit_length() - 1, c_set)))
            family = _surgery(family, full, "km_swap", e, [e ^ m_bit | c])
        # comb the leftover subtree of this side (its own edge is the boundary)
        leftover = p & ~required
        if leftover.bit_count() >= 3:
            rearrange(("hanging", leftover), _comb_bits(leftover)[1:])
    mid = full & ~(p1 | p2)
    if mid:
        rearrange(("middle", p1, mid), _middle_chain(p1, mid))
    expected = _standard_tree(n, pair)
    if (ended := _bits_splits(family)) != expected.splits:
        raise RewriteError(f"rewrite ended at splits {ended} instead of {expected}")
    return expected, moves
