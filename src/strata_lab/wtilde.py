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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .psets import PairLabel, inner_level
from .relations import KMRelation, _every_template, _sites
from .trees import (
    DomainError,
    MarkedTree,
    _filtration_keys,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
    forget_mark,
    vertex_flags,
)

PVector = dict  # PairLabel -> Fraction, exact, denominators are powers of 2


class RewriteError(RuntimeError):
    """A rewrite did not end at the standard form of its pair fiber."""


def w_map(t: MarkedTree) -> PairLabel:
    """Weighted pair of a level-2 tree: mark sets at the two fat vertices."""
    p1, a1, p2, a2, _ = decompose_two_vertex(t)
    return PairLabel.from_parts(p1, a1, p2, a2)


def level1_partition(t: MarkedTree) -> tuple[frozenset, ...]:
    """Mark-set partition induced by the unique fat vertex of a level-1 tree."""
    fat = [f for f in vertex_flags(t) if len(f) >= 4]
    if len(fat) != 1:
        raise DomainError(f"expected filtration level 1, got {len(fat)}")
    return tuple(frozenset(f) for f in fat[0])


def e_pi(pi: Iterable[Iterable[int]], gamma: PairLabel, s1: int | None = None) -> int:
    """min(s1 - a1, s2 - a2) where s_i parts of pi make up gamma's side i.

    The pair must cover the ground set of the partition (inner level 0),
    each side being a union of parts.
    """
    parts = [frozenset(x) for x in pi]
    side1 = frozenset(gamma.p1)
    inside = [q for q in parts if q <= side1]
    union = frozenset().union(*inside) if inside else frozenset()
    if union != side1:
        raise DomainError(f"side {gamma.p1} is not a union of parts")
    rest = frozenset().union(*parts) - side1
    if rest != frozenset(gamma.p2):
        raise DomainError(f"pair does not cover the partitioned set: {gamma}")
    computed = len(inside)
    if s1 is not None and s1 != computed:
        raise DomainError(f"claimed s1={s1} but side 1 is a union of {computed} parts")
    s2 = len(parts) - computed
    return min(computed - gamma.a1, s2 - gamma.a2)


_ONE, _HALF, _MINUS_HALF = Fraction(1), Fraction(1, 2), Fraction(-1, 2)


def wtilde(t: MarkedTree) -> PVector:
    """Signed rational image of a stratum in the space of weighted pairs."""
    lvl = filtration_level(t)
    if lvl == 2:
        return {w_map(t): _ONE}
    if lvl != 1:
        return {}
    parts = level1_partition(t)
    k = t.k
    out: PVector = {}
    rest = parts[1:]
    for r in range(len(rest) + 1):
        for chosen in combinations(range(len(rest)), r):
            side1 = set(parts[0])
            for i in chosen:
                side1 |= rest[i]
            side2 = [rest[i] for i in range(len(rest)) if i not in chosen]
            p2 = set().union(*side2) if side2 else set()
            s1, s2 = 1 + r, len(rest) - r
            for a1 in range(1, k):
                a2 = k - a1
                if len(side1) < a1 + 2 or len(p2) < a2 + 2:
                    continue
                e = min(s1 - a1, s2 - a2)
                gamma = PairLabel.from_parts(side1, a1, p2, a2)
                out[gamma] = _MINUS_HALF if e % 2 else _HALF
    return out


def wtilde_relation(rel: KMRelation) -> PVector:
    """wtilde of a relation, by linearity, in exact rational arithmetic."""
    acc: PVector = {}
    for tree, coeff in rel.terms.items():
        for gamma, q in wtilde(tree).items():
            val = acc.get(gamma, 0) + coeff * q
            if val:
                acc[gamma] = val
            else:
                acc.pop(gamma, None)
    return acc


class HalfIntegerError(ArithmeticError):
    """A value of wtilde lies outside (1/2)Z, the lattice the killing check sums in."""


def _covering_half_units(t: MarkedTree, n: int) -> dict[PairLabel, int]:
    """2 * wtilde(t) on the pairs of inner level 0, as ints; a value may
    be a Fraction or an int."""
    out = {}
    for gamma, q in wtilde(t).items():
        if inner_level(gamma, n) == 0:
            den = q.denominator
            if 2 % den:
                raise HalfIntegerError(f"wtilde({t}) has coefficient {q} at {gamma}")
            out[gamma] = q.numerator * (2 // den)
    return out


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


def verify_relations_killed(n: int, k: int) -> KilledReport:
    """Check the covering-pair component of wtilde(R) vanishes for every
    relation R of generate_relations(n, k); residuals are exact rationals,
    zero means zero.

    Restricting to inner level 0 commutes with summing over the terms, so
    each distinct tree's restricted image is taken once, in half-units
    (every value of wtilde lies in (1/2)Z; HalfIntegerError otherwise),
    with its pairs numbered in order of appearance, and each relation is
    summed in integers over the local ids of its site's template splits.
    """
    if not 2 <= k <= n - 4:
        raise DomainError(f"check needs 2 <= k <= n-4, got ({n}, {k})")
    report = KilledReport(n, k, 0)
    number: dict[PairLabel, int] = {}  # pair -> its position in the dict
    images: dict[MarkedTree, dict[int, int]] = {}
    for sigma, v, fl, trees, rows in _sites(n, k, _every_template):
        local = []
        for t in trees:
            img = images.get(t)
            if img is None:
                img = images[t] = {number.setdefault(gamma, len(number)): h
                                   for gamma, h in _covering_half_units(t, n).items()}
            local.append(img)
        report.relations += len(rows)
        for quad, pairing, row in rows:
            acc: dict[int, int] = {}
            for i, coeff in row.items():
                for g, h in local[i].items():
                    val = acc.get(g, 0) + coeff * h
                    if val:
                        acc[g] = val
                    else:
                        acc.pop(g, None)
            if acc:
                pairs = list(number)
                residual = {pairs[g]: Fraction(h, 2) for g, h in acc.items()}
                report.max_residual = max(
                    report.max_residual, *(abs(q) for q in residual.values())
                )
                report.failures.append(
                    {
                        "sigma": sigma.to_obj(),
                        "vertex": v,
                        "flags": [list(fl[i]) for i in quad],
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


def verify_forgetful_square(n: int, k: int, b: int) -> SquareReport:
    """For every level-2 tree on n+1 marks with inner level b+1, forgetting
    the last mark commutes with the cut map (both sides zero when the last
    mark sits on a fat-vertex component)."""
    if not 2 <= k <= (n + 1) - 4 or b < 0 or b + 1 > (n + 1) - k - 4:
        raise DomainError(f"no trees to check for (n, k, b) = ({n}, {k}, {b})")
    report = SquareReport(n, k, b, 0)
    key = 2 * (n + 1) + b + 1  # level 2, inner level b+1, on n+1 marks
    for sigma, sigma_key in zip(enumerate_strata(n + 1, k), _filtration_keys(n + 1, k)):
        if sigma_key != key:
            continue
        p1, a1, p2, a2, mid = decompose_two_vertex(sigma)
        report.checked += 1
        pair = PairLabel.from_parts(p1, a1, p2, a2)
        pair_route = None if (n + 1) in (set(p1) | set(p2)) else pair
        tree_route = None
        if (n + 1) in mid:
            image, _ = forget_mark(sigma)
            tree_route = w_map(image)
        if pair_route != tree_route:
            report.mismatches.append(
                {
                    "sigma": sigma.to_obj(),
                    "pair_route": pair_route.to_obj() if pair_route else None,
                    "tree_route": tree_route.to_obj() if tree_route else None,
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
        if obj["kind"] == "rearrange":
            region = (obj["region"][0],) + tuple(
                frozenset(x) for x in obj["region"][1:]
            )
            return RewriteMove(
                "rearrange", (region, tuple(frozenset(s) for s in obj["sides"]))
            )
        return RewriteMove(
            "km_swap",
            (
                frozenset(obj["e"]),
                frozenset(obj["a"]),
                obj["b"],
                frozenset(obj["c"]),
            ),
        )


def _comb_sides(marks: Iterable[int]) -> list[frozenset]:
    """Edge sides of the canonical caterpillar hanging a sorted mark list."""
    ms = sorted(marks)
    return [frozenset(ms[i:]) for i in range(len(ms) - 1)] if len(ms) >= 2 else []


def _strictly_inside(side: frozenset, other: frozenset, region: tuple) -> bool:
    if region[0] == "hanging":
        (m,) = region[1:]
        return side < m or other < m
    _, p1, mid = region[0], region[1], region[2]
    span = p1 | mid
    for s in (side, other):
        if s <= mid:
            return True
        if p1 < s < span:
            return True
    return False


def _apply_rearrange(t: MarkedTree, region: tuple, sides) -> MarkedTree:
    full = frozenset(range(1, t.n + 1))
    kept = [
        s
        for s in t.splits
        if not _strictly_inside(frozenset(s), full - frozenset(s), region)
    ]
    return MarkedTree.from_sides(t.n, kept + [tuple(sorted(s)) for s in sides])


def apply_move(t: MarkedTree, move: RewriteMove) -> MarkedTree:
    """Replay one recorded move on a tree."""
    if move.kind == "rearrange":
        region, sides = move.payload
        return _apply_rearrange(t, region, sides)
    if move.kind != "km_swap":
        raise DomainError(f"unknown move kind {move.kind!r}")
    e, a, b, c = move.payload
    full = frozenset(range(1, t.n + 1))
    e_norm = tuple(sorted(e if 1 not in e else full - e))
    if e_norm not in t.splits:
        raise DomainError("swap edge not present; moves replayed out of order?")
    kept = [s for s in t.splits if s != e_norm]
    return MarkedTree.from_sides(t.n, kept + [tuple(sorted(a | c))])


@lru_cache(maxsize=1 << 16)
def standard_tree(n: int, pair: PairLabel) -> MarkedTree:
    """Canonical level-2 tree in the fiber of a weighted pair: the first
    a_i + 1 marks of each side sit at the fat vertex, everything else is
    combed into caterpillars, middle marks ascending away from side 1."""
    sides: set[frozenset] = set()
    mid = sorted(set(range(1, n + 1)) - set(pair.p1) - set(pair.p2))
    for p, a in ((pair.p1, pair.a1), (pair.p2, pair.a2)):
        rest = list(p[a + 1 :])
        sides.update(_comb_sides(rest))
        sides.add(frozenset(p))
    for i in range(1, len(mid)):
        sides.add(frozenset(pair.p1) | frozenset(mid[:i]))
    full = frozenset(range(1, n + 1))
    norm = {frozenset(s) if 1 not in s else full - frozenset(s) for s in sides}
    return MarkedTree.from_sides(n, (tuple(sorted(s)) for s in norm))


def _fat_vertex_flags(t: MarkedTree, p_side: frozenset):
    """Flags at the fat vertex whose cut component is p_side, plus its
    outward flag (the one pointing at the rest of the tree)."""
    full = frozenset(range(1, t.n + 1))
    for fl in vertex_flags(t):
        if len(fl) < 4:
            continue
        outward = [f for f in fl if not frozenset(f) <= p_side]
        if len(outward) == 1 and full - frozenset(outward[0]) == p_side:
            return fl, outward[0]
    raise DomainError(f"no fat vertex with component {sorted(p_side)}")


def rewrite_to_standard(t: MarkedTree) -> tuple[MarkedTree, list[RewriteMove]]:
    """Rewrite a level-2 tree to the standard form of its pair fiber.

    Each swap strictly increases the number of required marks incident to
    the fat vertex being processed, so the move list is finite; replaying
    it from t reproduces the returned tree exactly.
    """
    pair = w_map(t)
    moves: list[RewriteMove] = []
    cur = t

    def do_rearrange(region, sides):
        nonlocal cur
        nxt = _apply_rearrange(cur, region, sides)
        if nxt != cur:
            moves.append(RewriteMove("rearrange", (region, tuple(sides))))
            cur = nxt

    for p, a in ((pair.p1, pair.a1), (pair.p2, pair.a2)):
        p_side = frozenset(p)
        required = set(p[: a + 1])
        while True:
            flags, _ = _fat_vertex_flags(cur, p_side)
            incident = {f[0] for f in flags if len(f) == 1}
            missing = sorted(required - incident)
            if not missing:
                break
            m = missing[0]
            e_set = frozenset(next(f for f in flags if m in f))
            # put m right behind the edge, rest of the subtree combed
            do_rearrange(("hanging", e_set), tuple(_comb_sides(e_set - {m})))
            flags, outward = _fat_vertex_flags(cur, p_side)
            eligible = [
                f
                for f in flags
                if frozenset(f) not in (e_set, frozenset(outward))
                and not (len(f) == 1 and f[0] in required)
            ]
            c_set = frozenset(max(eligible))
            a_set = e_set - {m}
            swap = RewriteMove("km_swap", (e_set, a_set, m, c_set))
            moves.append(swap)
            cur = apply_move(cur, swap)
        # comb the leftover subtree of this side (its own edge is the boundary)
        leftover = p_side - required
        if len(leftover) >= 3:
            do_rearrange(("hanging", leftover), tuple(_comb_sides(leftover)[1:]))
    mid = frozenset(range(1, cur.n + 1)) - frozenset(pair.p1) - frozenset(pair.p2)
    if mid:
        chain = tuple(
            frozenset(pair.p1) | frozenset(sorted(mid)[:i])
            for i in range(1, len(mid))
        )
        do_rearrange(("middle", frozenset(pair.p1), mid), chain)
    expected = standard_tree(cur.n, pair)
    if cur != expected:
        raise RewriteError(f"rewrite ended at {cur} instead of {expected}")
    return cur, moves
