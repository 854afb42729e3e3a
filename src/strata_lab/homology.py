"""Betti numbers, graded dimensions, class tests and S_n-characters.

Everything is computed in the coordinates of the reduced quotient basis
of one natural-order echelon of the relation matrix per modulus, whose
rows are the spanning subfamily `relations.spanning_relations`: a free
column is a basis vector of the quotient, and the class of a pivot column
is minus its reduced row.  The graded piece spanned by the level >= r
strata is handled through its permutation presentation, Q(S^{>=r})
modulo the kernel of e_j -> [e_j], and the trace of a permutation on
that presentation is read off its reduced form, free column by free
column; the image of a stratum under a permutation is looked up by its
split family once and shared by every modulus and presentation
(`_image_id`).

Every reported number is certified at two independent primes by
`exact_linalg.certified_value`, which evaluates each closure below once
per pair of primes p, q, at the modulus p*q: all of its eliminations
have unit leads or raise, so the ranks, pivots and reduced forms it
finds reduce to those mod p and mod q, and each prime reads the value a
computation mod that prime alone gives.  Traces are summed mod p*q and
lifted to the symmetric range at each prime, so the two primes still
check each other.  When a lead is not a unit the pair is evaluated one
prime at a time.  The exception is a Betti number whose relation rank
reaches its known value at the first prime: reduction mod p can only
lower a rank, and the rank over Q is |S_{k,n}| - b_k with b_k from
Keel's recursion (a theorem), so a mod-p rank equal to that bound is the
rank over Q.  A wrong relation matrix misses the bound and is certified
at two primes as before.  The graded dimensions must sum to that b_k.

The argument p of the closures and cached helpers below is the modulus:
a prime, or a product of two.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb

from .characters import Character, partitions_of, representative
from .exact_linalg import (
    ModEchelon,
    QuotientBasis,
    RankCertificationError,
    certified_value,
    lift_symmetric,
    prime_stream,
    quotient_basis,
    rank_bareiss,
)
from .relations import _bits_side, _sites, _spanning_quads
from .trees import (
    DomainError,
    MarkedTree,
    TreeStructureError,
    _filtration_key,
    _filtration_keys,
    enumerate_strata,
)


@lru_cache(maxsize=None)
def _index(n: int, k: int) -> dict[tuple, int]:
    """Column id of each stratum of (n, k), keyed by its split family."""
    return {t.splits: i for i, t in enumerate(enumerate_strata(n, k))}


@lru_cache(maxsize=None)
def _relation_rows(n: int, k: int) -> tuple[dict[int, int], ...]:
    """Sparse rows of the relation matrix for (n, k), from the spanning
    subfamily: the row space, hence every rank and reduced form computed
    from it, is that of all the relations.  Shared; never mutate a row."""
    if k == n - 3:
        return ()
    idx, rows = _index(n, k), []
    for _, _, _, trees, site_rows in _sites(n, k, _spanning_quads):
        cols = [idx[t.splits] for t in trees]
        rows.extend({cols[i]: c for i, c in row.items()} for _, _, row in site_rows)
    return tuple(rows)


@lru_cache(maxsize=None)
def _echelon(n: int, k: int, p: int) -> ModEchelon:
    ech = ModEchelon(p)
    ech.add_rows(_relation_rows(n, k))
    return ech


@lru_cache(maxsize=None)
def _quotient_basis(n: int, k: int, p: int) -> QuotientBasis:
    return quotient_basis(_echelon(n, k, p), len(_index(n, k)))


@lru_cache(maxsize=None)
def _keel_row(n: int) -> tuple[int, ...]:
    """b_0 .. b_{n-3} of the n-marked space from Keel's recursion for the
    Poincare polynomial (Keel, Trans. AMS 330, 1992), q of degree 2:
    P_3 = 1,  P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}.
    The sum is even: its terms j and m-j are equal, and C(m, m/2) is even."""
    if n == 3:
        return (1,)
    m = n - 1
    row = [0, *_keel_row(m)]
    for i, c in enumerate(_keel_row(m)):
        row[i] += c
    pairs = [0] * (m - 2)
    for j in range(2, m - 1):
        for x, a in enumerate(_keel_row(j + 1)):
            for y, b in enumerate(_keel_row(m - j + 1)):
                pairs[x + y] += comb(m, j) * a * b
    return tuple(c + (pairs[i - 1] // 2 if i else 0) for i, c in enumerate(row))


@lru_cache(maxsize=None)
def betti(n: int, k: int, seed: int = 0) -> int:
    """dim H_{2k} of the n-marked space: |S_{k,n}| minus the relation rank.

    The rank at the first prime is returned when it reaches |S_{k,n}| - b_k,
    b_k from Keel's recursion; otherwise the rank is certified at two
    primes, by `certified_value`."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    size = len(enumerate_strata(n, k))
    rank = _echelon(n, k, next(prime_stream(seed))).rank
    if rank != size - _keel_row(n)[k]:
        rank = certified_value(lambda m: _echelon(n, k, m).rank, seed,
                               f"relation rank ({n},{k})", lower_bound=True)
    return size - rank


@lru_cache(maxsize=None)
def _ids(n: int, k: int, key_min: int) -> tuple[int, ...]:
    """Ids of the strata of filtration key >= key_min (`trees._filtration_keys`):
    level >= r at n*r; level >= 3 or level 2 with inner level >= b at 2n + b."""
    return tuple(i for i, key in enumerate(_filtration_keys(n, k)) if key >= key_min)


@lru_cache(maxsize=None)
def _projected_echelon(n: int, k: int, key_min: int, p: int) -> ModEchelon:
    """Echelon of the reduced rows of the pivot columns in ids without the
    free columns in ids, ids = _ids(n, k, key_min); with those free basis
    vectors, its row space spans the classes of the strata in ids."""
    ids = _ids(n, k, key_min)
    rows, drop = _quotient_basis(n, k, p)._rows, set(ids)
    ech = ModEchelon(p)
    ech.add_rows({c: v for c, v in zip(*rows[i]) if c not in drop} for i in ids if i in rows)
    return ech


def _graded_pieces(n: int, k: int, key_mins: list[int], seed: int, what: str) -> list[int]:
    """Certified dimensions of the successive quotients of the chain of spans
    of the strata of filtration key >= each of key_mins, in increasing order."""
    def compute(p: int) -> tuple[int, ...]:
        rows = _quotient_basis(n, k, p)._rows
        sdims = [sum(i not in rows for i in _ids(n, k, m)) + _projected_echelon(n, k, m, p).rank
                 for m in key_mins]
        return tuple(a - b for a, b in zip(sdims, sdims[1:]))

    return list(certified_value(compute, seed, what=what))


def graded_dims(n: int, k: int, seed: int = 0) -> list[int]:
    """Dimensions of the graded pieces for r = 1 .. min(k, n-2-k); they must
    sum to b_k from Keel's recursion, not to a rank of the same matrix."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    if k == 0:
        return []
    key_mins = [n * r for r in range(1, min(k, n - 2 - k) + 2)]
    dims = _graded_pieces(n, k, key_mins, seed, f"graded dims ({n},{k})")
    if sum(dims) != _keel_row(n)[k]:
        raise RankCertificationError(f"graded dims {dims} do not sum to b_{k} of n={n}")
    return dims


def inner_graded_dims(n: int, k: int, seed: int = 0) -> list[int]:
    """Dimensions of the inner graded pieces of the level-2 part, b = 0..n-k-4."""
    if not 2 <= k <= n - 4:
        raise DomainError(f"inner filtration needs 2 <= k <= n-4, got ({n}, {k})")
    key_mins = [2 * n + b for b in range(n - k - 2)]
    dims = _graded_pieces(n, k, key_mins, seed, f"inner dims ({n},{k})")
    if sum(dims) != graded_dims(n, k, seed)[1]:
        raise RankCertificationError(f"inner dims {dims} do not sum to level 2 of ({n},{k})")
    return dims


def _difference(t1: MarkedTree, t2: MarkedTree) -> dict[int, int]:
    """e_{t1} - e_{t2} in the strata coordinates of their homology group
    (meaningless for t1 == t2, which both class tests answer first)."""
    if (t1.n, t1.k) != (t2.n, t2.k):
        raise DomainError("classes live in different homology groups")
    idx = _index(t1.n, t1.k)
    return {idx[t1.splits]: 1, idx[t2.splits]: -1}


@lru_cache(maxsize=None)
def exact_rank(n: int, k: int) -> int:
    """Rank over Q of the relation matrix, by fraction-free elimination:
    the audit behind `betti --exact` and the base rank of every exact
    class_equal audit at (n, k).  Refused before any work for n > 6."""
    if n > 6:
        raise DomainError("exact audit elimination is limited to n <= 6")
    return rank_bareiss(_relation_rows(n, k), len(_index(n, k)))


def class_equal(t1: MarkedTree, t2: MarkedTree, seed: int = 0,
                exact: bool = False) -> bool:
    """Whether two strata have the same homology class.

    Probabilistic-exact via two-prime membership of e_{t1} - e_{t2} in the
    relation row space; ``exact=True`` reruns with fraction-free integer
    elimination (audit mode, n <= 6 only) and raises
    RankCertificationError if the two verdicts differ.
    """
    diff = _difference(t1, t2)
    n, k = t1.n, t1.k
    if exact:
        base = exact_rank(n, k)
    if t1 == t2:
        return True

    def compute(p: int) -> bool:
        return not _echelon(n, k, p).reduce(diff)

    verdict = certified_value(compute, seed, what="class membership")
    if exact:
        if (base == rank_bareiss((*_relation_rows(n, k), diff), len(_index(n, k)))) != verdict:
            raise RankCertificationError(
                f"modular and exact class membership differ for {t1} and {t2}"
            )
    return verdict


def graded_class_equal(t1: MarkedTree, t2: MarkedTree, seed: int = 0) -> bool:
    """Whether two level-2 strata of the same inner level have the same
    class in their inner graded piece.

    Tests membership of e_{t1} - e_{t2} in the span of the relations
    together with the level >= 3 strata and the level-2 strata of inner
    level >= b+1.  This is the equality the two-term rewriting relation
    lives at; it is strictly weaker than class_equal.
    """
    diff = _difference(t1, t2)
    n, k = t1.n, t1.k
    key1, key2 = _filtration_key(t1), _filtration_key(t2)
    for key in (key1, key2):
        if key // n != 2:
            raise DomainError(f"expected filtration level 2, got level {key // n} tree")
    if key1 != key2:
        raise DomainError(f"inner levels differ: {key1 - 2 * n} vs {key2 - 2 * n}")
    if t1 == t2:
        return True
    key_min = key1 + 1

    def compute(p: int) -> bool:
        qb = _quotient_basis(n, k, p)
        drop = set(_ids(n, k, key_min))
        cls = qb.quotient_reduce(diff)
        v = {c: x for c, x in zip(qb.free_cols, cls) if x and c not in drop}
        return not _projected_echelon(n, k, key_min, p).reduce(v)

    return certified_value(compute, seed, what="graded class membership")


@lru_cache(maxsize=None)
def _image_id(n: int, k: int, i: int, g: tuple[int, ...]) -> int:
    """Id of the image of stratum i of (n, k) under g (g[m-1] the image of
    mark m), looked up by its split family: each split's marks moved by g,
    as a bitmask, its side away from mark 1.  Shared by every modulus and
    presentation, so each (stratum, g) is relabelled once."""
    full = (1 << n + 1) - 2
    sides = []
    for s in enumerate_strata(n, k)[i].splits:
        bits = 0
        for m in s:
            bits |= 1 << g[m - 1]
        sides.append(_bits_side(full ^ bits if bits & 2 else bits))
    j = _index(n, k).get(tuple(sorted(sides)))
    if j is None:
        raise TreeStructureError(f"relabelling stratum {i} of ({n}, {k}) by {g} gives no stratum")
    return j


class _Presentation:
    """Permutation presentation of the invariant span of the strata ids of
    (n, k), increasing: a reduced form over the positions in ids."""

    def __init__(self, n: int, k: int, ids: tuple[int, ...], qb: QuotientBasis):
        self.n, self.k, self.ids, self.qb = n, k, ids, qb

    def trace(self, g: tuple[int, ...]) -> int:
        """Trace of the permutation action, mod the modulus of the quotient
        basis; lift it at a prime with lift_symmetric."""
        qb, ids, n, k = self.qb, self.ids, self.n, self.k
        total = 0
        rows = qb._rows
        for f in qb.free_cols:
            u = bisect_left(ids, _image_id(n, k, ids[f], g))
            if u == f:
                total += 1
            elif u in rows:
                total -= qb.coeff(u, f)
        return total % qb.modulus


@lru_cache(maxsize=None)
def _graded_presentation(n: int, k: int, r: int, p: int) -> _Presentation | None:
    """Presentation of the span of the level >= r strata inside the quotient
    (r = 0: the homology group itself)."""
    ids = _ids(n, k, n * r)
    if not ids:
        return None
    qb = _quotient_basis(n, k, p)
    if len(ids) == qb.n_cols:
        return _Presentation(n, k, ids, qb)
    # the kernel of e_j -> [e_j]: eliminate the rows [class(e_j) | e_j], class
    # columns first; the pivot rows past the class columns span it
    shift, rows = qb.n_cols, qb._rows
    ech = ModEchelon(p)
    ech.add_rows((({c: -v % p for c, v in zip(*rows[i])} if i in rows else {i: 1})
                  | {shift + j: 1}) for j, i in enumerate(ids))
    kernel = ModEchelon(p)
    kernel.pivots = {c - shift: {x - shift: v for x, v in row.items()}
                     for c, row in ech.pivots.items() if c >= shift}
    return _Presentation(n, k, ids, quotient_basis(kernel, len(ids)))


def character_homology(n: int, k: int, seed: int = 0) -> Character:
    """Character of the S_n-action on H_{2k}, one trace per cycle type."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")

    def compute(p: int) -> tuple[int, ...]:
        pres = _graded_presentation(n, k, 0, p)
        return tuple(pres.trace(representative(t)) for t in partitions_of(n))

    vals = certified_value(compute, seed, what=f"character ({n},{k})",
                           read=lambda traces, p: tuple(lift_symmetric(x, p) for x in traces))
    return Character(n, dict(zip(partitions_of(n), vals)))


def character_graded(n: int, k: int, r: int, seed: int = 0) -> Character:
    """Character of the graded piece at level r (trace on the invariant span
    of level >= r minus the trace on level >= r+1)."""
    if not 1 <= r <= min(k, n - 2 - k):
        raise DomainError(f"no graded piece for (n, k, r) = ({n}, {k}, {r})")

    def compute(p: int) -> tuple[tuple[int, int], ...]:
        top = _graded_presentation(n, k, r, p)
        above = _graded_presentation(n, k, r + 1, p)
        out = []
        for t in partitions_of(n):
            g = representative(t)
            out.append((top.trace(g), above.trace(g) if above else 0))
        return tuple(out)

    def read(traces, p: int) -> tuple[int, ...]:
        return tuple(lift_symmetric(a, p) - lift_symmetric(b, p) for a, b in traces)

    vals = certified_value(compute, seed, what=f"graded character ({n},{k},{r})", read=read)
    return Character(n, dict(zip(partitions_of(n), vals)))
