"""Betti numbers, graded dimensions, class tests and S_n-characters.

Everything is computed in the coordinates of the reduced quotient basis
of one natural-order echelon of the relation matrix per prime, whose rows
are the spanning subfamily `relations.spanning_relations`: a free
column is a basis vector of the quotient, and the class of a pivot column
is minus its reduced row.  The graded piece spanned by the level >= r
strata is handled through its permutation presentation, Q(S^{>=r})
modulo the kernel of e_j -> [e_j], and the trace of a permutation on
that presentation is read off its reduced form, free column by free
column.  Every reported number is certified at two independent primes,
except a Betti number whose relation rank reaches its known value at the
first prime: reduction mod p can only lower a rank, and the rank over Q is
|S_{k,n}| - b_k with b_k from Keel's recursion (a theorem), so a mod-p
rank equal to that bound is the rank over Q.  A wrong relation matrix
misses the bound and is certified at two primes as before.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .characters import Character, partitions_of, representative
from .exact_linalg import (
    ModEchelon,
    QuotientBasis,
    RankCertificationError,
    SparseIntMatrix,
    certified_value,
    lift_symmetric,
    prime_stream,
    quotient_basis,
    rank_bareiss,
    unique_rows,
)
from .relations import spanning_relations
from .trees import (
    DomainError,
    MarkedTree,
    _inner_levels,
    apply_permutation,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
)


@lru_cache(maxsize=None)
def _index(n: int, k: int) -> dict[MarkedTree, int]:
    return {t: i for i, t in enumerate(enumerate_strata(n, k))}


@lru_cache(maxsize=None)
def _relation_rows(n: int, k: int) -> tuple[dict[int, int], ...]:
    """Deduplicated sparse rows of the relation matrix for (n, k), from the
    spanning subfamily: the row space, hence every rank and reduced form
    computed from it, is that of all the relations."""
    if k == n - 3:
        return ()
    idx = _index(n, k)
    return tuple(unique_rows(r.row(idx) for r in spanning_relations(n, k)))


def relation_matrix(n: int, k: int) -> SparseIntMatrix:
    rows = [dict(r) for r in _relation_rows(n, k)]
    return SparseIntMatrix(len(rows), len(_index(n, k)), rows)


@lru_cache(maxsize=None)
def _echelon(n: int, k: int, p: int) -> ModEchelon:
    ech = ModEchelon(p)
    ech.add_rows([dict(r) for r in _relation_rows(n, k)])
    return ech


@lru_cache(maxsize=None)
def _quotient_basis(n: int, k: int, p: int) -> QuotientBasis:
    return quotient_basis((), len(_index(n, k)), p, echelon=_echelon(n, k, p))


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
    primes, starting at that same prime."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    size = len(enumerate_strata(n, k))
    rank = _echelon(n, k, next(prime_stream(seed))).rank
    if rank != size - _keel_row(n)[k]:
        rank = certified_value(lambda p: _echelon(n, k, p).rank, seed,
                               f"relation rank ({n},{k})", lower_bound=True)
    return size - rank


@lru_cache(maxsize=None)
def _level_ids(n: int, k: int, r: int) -> tuple[int, ...]:
    """Ids of the strata whose valence partition has at least r parts."""
    return tuple(
        i for i, t in enumerate(enumerate_strata(n, k)) if filtration_level(t) >= r
    )


@lru_cache(maxsize=None)
def _projected_echelon(n: int, k: int, ids: tuple[int, ...], p: int) -> ModEchelon:
    """Echelon of the reduced rows of the pivot columns in ids without the
    free columns in ids; with those free basis vectors, its row space spans
    the classes of the strata in ids."""
    rows, drop = _quotient_basis(n, k, p)._rows, set(ids)
    ech = ModEchelon(p)
    ech.add_rows({c: v for c, v in zip(*rows[i]) if c not in drop} for i in ids if i in rows)
    return ech


def _span_dim(n: int, k: int, ids: tuple[int, ...], p: int) -> int:
    rows = _quotient_basis(n, k, p)._rows
    return sum(i not in rows for i in ids) + _projected_echelon(n, k, ids, p).rank


def graded_dims(n: int, k: int, seed: int = 0) -> list[int]:
    """Dimensions of the graded pieces for r = 1 .. min(k, n-2-k)."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    if k == 0:
        return []
    rmax = min(k, n - 2 - k)

    def compute(p: int) -> tuple[int, ...]:
        sdims = [_span_dim(n, k, _level_ids(n, k, r), p) for r in range(1, rmax + 2)]
        return tuple(sdims[i] - sdims[i + 1] for i in range(rmax))

    dims = list(certified_value(compute, seed, what=f"graded dims ({n},{k})"))
    if sum(dims) != betti(n, k, seed):
        raise RankCertificationError(f"graded dims {dims} do not sum to b_{k} of n={n}")
    return dims


@lru_cache(maxsize=None)
def _inner_ids(n: int, k: int, b: int) -> tuple[int, ...]:
    """Ids of level >= 3 strata plus level-2 strata with inner level >= b."""
    inner = {i for i, c in enumerate(_inner_levels(n, k)) if c is not None and c >= b}
    return tuple(sorted(inner.union(_level_ids(n, k, 3))))


def inner_graded_dims(n: int, k: int, seed: int = 0) -> list[int]:
    """Dimensions of the inner graded pieces of the level-2 part, b = 0..n-k-4."""
    if not 2 <= k <= n - 4:
        raise DomainError(f"inner filtration needs 2 <= k <= n-4, got ({n}, {k})")
    bmax = n - k - 4

    def compute(p: int) -> tuple[int, ...]:
        sdims = [_span_dim(n, k, _inner_ids(n, k, b), p) for b in range(bmax + 2)]
        return tuple(sdims[b] - sdims[b + 1] for b in range(bmax + 1))

    dims = list(certified_value(compute, seed, what=f"inner dims ({n},{k})"))
    if sum(dims) != graded_dims(n, k, seed)[1]:
        raise RankCertificationError(f"inner dims {dims} do not sum to level 2 of ({n},{k})")
    return dims


def class_equal(t1: MarkedTree, t2: MarkedTree, seed: int = 0,
                exact: bool = False) -> bool:
    """Whether two strata have the same homology class.

    Probabilistic-exact via two-prime membership of e_{t1} - e_{t2} in the
    relation row space; ``exact=True`` reruns with fraction-free integer
    elimination (audit mode, n <= 6 only) and raises
    RankCertificationError if the two verdicts differ.
    """
    if (t1.n, t1.k) != (t2.n, t2.k):
        raise DomainError("classes live in different homology groups")
    if exact and t1.n > 6:
        raise DomainError("exact audit elimination is limited to n <= 6")
    if t1 == t2:
        return True
    n, k = t1.n, t1.k
    idx = _index(n, k)
    diff = {idx[t1]: 1, idx[t2]: -1}

    def compute(p: int) -> bool:
        return not _echelon(n, k, p).reduce(diff)

    verdict = certified_value(compute, seed, what="class membership")
    if exact:
        M = relation_matrix(n, k)
        M2 = SparseIntMatrix(M.n_rows + 1, M.n_cols, M.rows + [diff])
        if (rank_bareiss(M) == rank_bareiss(M2)) != verdict:
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
    if (t1.n, t1.k) != (t2.n, t2.k):
        raise DomainError("classes live in different homology groups")
    n, k = t1.n, t1.k
    b1 = len(decompose_two_vertex(t1)[4])
    b2 = len(decompose_two_vertex(t2)[4])
    if b1 != b2:
        raise DomainError(f"inner levels differ: {b1} vs {b2}")
    if t1 == t2:
        return True
    idx = _index(n, k)
    diff = {idx[t1]: 1, idx[t2]: -1}
    ids = _inner_ids(n, k, b1 + 1)

    def compute(p: int) -> bool:
        qb = _quotient_basis(n, k, p)
        drop = set(ids)
        cls = qb.quotient_reduce(diff)
        v = {c: x for c, x in zip(qb.free_cols, cls) if x and c not in drop}
        return not _projected_echelon(n, k, ids, p).reduce(v)

    return certified_value(compute, seed, what="graded class membership")


class _Presentation:
    """Permutation presentation of an invariant span: trees, index, reduced form."""

    def __init__(self, trees: tuple[MarkedTree, ...], qb: QuotientBasis):
        self.trees = trees
        self.index = {t: i for i, t in enumerate(trees)}
        self.qb = qb

    def trace(self, g: tuple[int, ...]) -> int:
        """Trace of the permutation action, as an exact integer."""
        qb = self.qb
        total = 0
        rows = qb._rows
        for pos, f in enumerate(qb.free_cols):
            u = self.index[apply_permutation(self.trees[f], g)]
            if u == f:
                total += 1
            elif u in rows:
                total -= qb.coeff(u, f)
        return lift_symmetric(total, qb.prime)


@lru_cache(maxsize=None)
def _homology_presentation(n: int, k: int, p: int) -> _Presentation:
    return _Presentation(enumerate_strata(n, k), _quotient_basis(n, k, p))


@lru_cache(maxsize=None)
def _graded_presentation(n: int, k: int, r: int, p: int) -> _Presentation | None:
    """Presentation of the span of the level >= r strata inside the quotient."""
    ids = _level_ids(n, k, r)
    if not ids:
        return None
    strata = enumerate_strata(n, k)
    sub = tuple(strata[i] for i in ids)
    if len(ids) == len(strata):
        return _homology_presentation(n, k, p)
    # the kernel of e_j -> [e_j]: eliminate the rows [class(e_j) | e_j], class
    # columns first; the pivot rows past the class columns span it
    qb = _quotient_basis(n, k, p)
    shift, rows = qb.n_cols, qb._rows
    ech = ModEchelon(p)
    ech.add_rows((({c: -v % p for c, v in zip(*rows[i])} if i in rows else {i: 1})
                  | {shift + j: 1}) for j, i in enumerate(ids))
    kernel = ModEchelon(p)
    kernel.pivots = {c - shift: {x - shift: v for x, v in row.items()}
                     for c, row in ech.pivots.items() if c >= shift}
    return _Presentation(sub, quotient_basis((), len(ids), p, echelon=kernel))


def character_homology(n: int, k: int, seed: int = 0) -> Character:
    """Character of the S_n-action on H_{2k}, one trace per cycle type."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")

    def compute(p: int) -> tuple[int, ...]:
        pres = _homology_presentation(n, k, p)
        return tuple(pres.trace(representative(t)) for t in partitions_of(n))

    vals = certified_value(compute, seed, what=f"character ({n},{k})")
    return Character(n, dict(zip(partitions_of(n), vals)))


def character_graded(n: int, k: int, r: int, seed: int = 0) -> Character:
    """Character of the graded piece at level r (trace on the invariant span
    of level >= r minus the trace on level >= r+1)."""
    if not 1 <= r <= min(k, n - 2 - k):
        raise DomainError(f"no graded piece for (n, k, r) = ({n}, {k}, {r})")

    def compute(p: int) -> tuple[int, ...]:
        top = _graded_presentation(n, k, r, p)
        above = _graded_presentation(n, k, r + 1, p)
        out = []
        for t in partitions_of(n):
            g = representative(t)
            val = top.trace(g) - (above.trace(g) if above else 0)
            out.append(val)
        return tuple(out)

    vals = certified_value(compute, seed, what=f"graded character ({n},{k},{r})")
    return Character(n, dict(zip(partitions_of(n), vals)))
