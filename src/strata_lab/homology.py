"""Betti numbers, graded dimensions, class tests and S_n-characters.

Everything is read off one natural-order echelon of the relation matrix
per modulus, whose rows are the site basis `relations._site_basis`
(m(m-3)/2 rows per site of valence m, with the row space of all the
relations modulo every modulus; the proof is in its docstring).

The columns are the strata in filtration order (`_columns`): by
filtration key (`trees._filtration_key`: n * level, plus the inner level
at level 2), ties by depth (the sum of the sizes of the tree's splits),
then in enumeration order.  The order within a key only relabels
columns: it moves no cut and changes no graded quantity, and it costs
nothing per elimination step, but the echelon it gives does less work
where a key has many strata (at (8,3), one prime: 113,004 entry updates
and 10,222 stored entries, against 230,926 and 11,446 with ties in
enumeration order).  The strata of key >= m, which span a step of the
filtration by level (m = n*r) or of the inner filtration of level 2
(m = 2n + b), are then the columns from a cut c_m on (`_cut`).

Every reading of the echelon goes through one normal form,
`ModEchelon.reduce`: the vector congruent to a given one modulo the row
space whose support has no pivot column.  A vector lies in the span of
the relations and the columns >= a cut iff its normal form is zero or
leads at or past the cut (`_member`, which states why); with the cut at
the width this is homology equality (`class_equal`), with a filtration
cut it is equality in an inner graded piece (`graded_class_equal`).  The
free columns (those that are no pivot) are a basis of the quotient: the
class of e_c is the sum over the free columns f of the entry at f of the
normal form of e_c, times [e_f].  A pivot row's entries lie at or after
its pivot, so for c >= c_m that normal form is supported past the cut.
Hence the span of the classes of the columns >= c_m is spanned by the
free columns >= c_m:

- its dimension is the number of columns >= c_m that are no pivot;
- the trace of a permutation g on it (or on a quotient of two such
  spans) is the sum over its free columns f of the coefficient of [e_f]
  in [e_{g f}], the entry at f of the normal form of e_{g f} (1 when
  g f = f).

The image of a column under a permutation g is its sides' images,
sorted, looked up as a split family (`_image_column`); the sides' images
come from one table per (n, g), shared by every k and every modulus
(`_side_images`).

Every reported number is certified at two independent primes by
`exact_linalg.certified_value`, which evaluates each closure below once
per pair of primes p, q, at the modulus p*q, where each prime reads the
value a computation mod that prime alone gives (its module docstring
says why).  Traces are summed mod p*q and lifted to the symmetric range
at each prime, so the two primes still check each other.  Every
echelon's rank passes Keel's check where it is built (`_eliminate`,
`_keel_checked`), so it is the rank over Q.

The argument p of the closures and cached helpers below is the modulus:
a prime, or a product of two.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

from .characters import Character, partitions_of, representative
from .exact_linalg import (
    ModEchelon,
    RankCertificationError,
    certified_value,
    lift_symmetric,
)
from .relations import _site_basis, _sites
from .trees import (
    DomainError,
    MarkedTree,
    TreeStructureError,
    _filtration_key,
    _filtration_keys,
    _side,
    enumerate_strata,
)


@lru_cache(maxsize=None)
def _columns(n: int, k: int) -> tuple[MarkedTree, ...]:
    """The strata of (n, k) in column order: by filtration key, ties by
    depth (the sum of the sizes of the splits), then in enumeration order."""
    strata, keys = enumerate_strata(n, k), _filtration_keys(n, k)
    order = sorted(range(len(strata)),
                   key=lambda i: (keys[i], sum(map(len, strata[i].splits)), i))
    return tuple(strata[i] for i in order)


@lru_cache(maxsize=None)
def _index(n: int, k: int) -> dict[tuple, int]:
    """Column of each stratum of (n, k), keyed by its split family."""
    return {t.splits: c for c, t in enumerate(_columns(n, k))}


@lru_cache(maxsize=None)
def _cut(n: int, k: int, key_min: int) -> int:
    """First column of filtration key >= key_min: those strata are the
    columns from it on.  Level >= r is key >= n*r; level >= 3 or level 2
    with inner level >= b is key >= 2n + b."""
    return sum(key < key_min for key in _filtration_keys(n, k))


def _relation_rows(n: int, k: int) -> Iterator[dict[int, int]]:
    """Sparse rows of the relation matrix for (n, k), from the site basis
    (`relations._site_basis`): the row space, hence every rank and
    reduced form computed from it, is that of all the relations modulo
    every modulus.  Generated, so an elimination frees each row once
    reduced; a caller that reads them twice takes a tuple."""
    if k == n - 3:
        return
    for _, _, _, cols, site_rows in _sites(n, k, _site_basis, _index(n, k)):
        yield from ({cols[i]: c for i, c in row.items()} for _, _, row in site_rows)


def _eliminate(n: int, k: int, p: int) -> ModEchelon:
    """The natural-order echelon of the relation matrix of (n, k) mod p;
    RankCertificationError unless its rank passes `_keel_checked`."""
    ech = ModEchelon(p)
    ech.add_rows(_relation_rows(n, k))
    _keel_checked(n, k, ech.rank)
    return ech


_echelon = lru_cache(maxsize=None)(_eliminate)


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


def _keel_checked(n: int, k: int, rank: int) -> None:
    """RankCertificationError unless |S_{k,n}| minus the relation rank of
    (n, k) modulo a prime, or a pair's product, is b_k from Keel's recursion.
    A rank that passes is the rank over Q: the relation rows are integer
    relations that hold in H_{2k}, the strata span H_{2k} (Keel, Trans. AMS
    330, 1992), and a minor that is nonzero mod p is a nonzero integer, so
        rank mod p <= rank over Q <= |S_{k,n}| - b_k.
    A wrong or missing row can make this raise, never pass a wrong rank."""
    b = len(_index(n, k)) - rank
    if b != (want := _keel_row(n)[k]):
        raise RankCertificationError(f"Betti number {b} of ({n},{k}) is not b_{k} = {want}")


def betti(n: int, k: int, seed: int = 0) -> int:
    """dim H_{2k} of the n-marked space: |S_{k,n}| minus the relation rank,
    certified in an echelon of its own, which nothing keeps.  Raises
    RankCertificationError unless it equals b_k from Keel's recursion."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    rank = certified_value(lambda m: _eliminate(n, k, m).rank, seed, f"relation rank ({n},{k})")
    return len(_index(n, k)) - rank


def _graded_pieces(n: int, k: int, key_mins: list[int], seed: int, what: str) -> list[int]:
    """Certified dimensions of the successive quotients of the chain of spans
    of the strata of filtration key >= each of key_mins, in increasing order:
    the numbers of columns between consecutive cuts that are no pivot."""
    cuts = [_cut(n, k, m) for m in key_mins]

    def compute(p: int) -> tuple[int, ...]:
        pivots = sorted(_echelon(n, k, p).pivots)
        return tuple(b - a - (bisect_left(pivots, b) - bisect_left(pivots, a))
                     for a, b in zip(cuts, cuts[1:]))

    return list(certified_value(compute, seed, what=what))


def graded_dims(n: int, k: int, seed: int = 0) -> list[int]:
    """Dimensions of the graded pieces for r = 1 .. min(k, n-2-k), the levels
    of all strata: the cuts run from 0 to the width, so they sum to b_k."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    if k == 0:
        return []
    key_mins = [n * r for r in range(1, min(k, n - 2 - k) + 2)]
    return _graded_pieces(n, k, key_mins, seed, f"graded dims ({n},{k})")


def inner_graded_dims(n: int, k: int, seed: int = 0) -> list[int]:
    """Dimensions of the inner graded pieces of the level-2 part, b = 0..n-k-4."""
    if not 2 <= k <= n - 4:
        raise DomainError(f"inner filtration needs 2 <= k <= n-4, got ({n}, {k})")
    key_mins = [2 * n + b for b in range(n - k - 2)]
    return _graded_pieces(n, k, key_mins, seed, f"inner dims ({n},{k})")


def _difference(t1: MarkedTree, t2: MarkedTree) -> dict[int, int]:
    """e_{t1} - e_{t2} in the strata coordinates of their homology group
    (meaningless for t1 == t2, which both class tests answer first)."""
    if (t1.n, t1.k) != (t2.n, t2.k):
        raise DomainError("classes live in different homology groups")
    idx = _index(t1.n, t1.k)
    return {idx[t1.splits]: 1, idx[t2.splits]: -1}


def _member(n: int, k: int, diff: dict[int, int], cut: int, seed: int, what: str) -> bool:
    """Certified: whether diff lies in the span of the relation rows of
    (n, k) and the unit vectors of the columns >= cut.

    It does iff its normal form r (`ModEchelon.reduce`) is zero or leads
    at or past the cut.  If r leads at or past the cut, diff is r, which
    is supported on the columns >= cut, plus a vector of the row space.
    If diff = v + u with v in the row space and u supported on the
    columns >= cut, r is also the normal form of u, since normal forms
    are unique; reducing u subtracts only pivot rows whose pivot is in
    its support, and a pivot row's entries lie at or after its pivot, so
    r is supported on the columns >= cut.  Modulo p*q the lead of r is a
    unit or `_NonUnitLead` is raised, so r reduces to the normal form
    modulo each prime, with the same lead, and the verdict is the one
    each prime alone gives."""
    def compute(p: int) -> bool:
        return min(_echelon(n, k, p).reduce(diff), default=cut) >= cut

    return certified_value(compute, seed, what=what)


def class_equal(t1: MarkedTree, t2: MarkedTree, seed: int = 0) -> bool:
    """Whether two strata have the same homology class: certified
    membership of e_{t1} - e_{t2} in the relation row space."""
    diff = _difference(t1, t2)
    if t1 == t2:
        return True
    return _member(t1.n, t1.k, diff, len(_index(t1.n, t1.k)), seed, "class membership")


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
    return _member(n, k, diff, _cut(n, k, key1 + 1), seed, "graded class membership")


@lru_cache(maxsize=None)
def _side_images(n: int, g: tuple[int, ...]) -> dict[tuple, tuple]:
    """The image under g (g[m-1] the image of mark m) of every side of n
    marks: its marks moved by g, as the side away from mark 1.  One table
    per (n, g), shared by every k and every modulus."""
    return {side: _side((g[m - 1] for m in side), n)
            for size in range(2, n - 1) for side in combinations(range(2, n + 1), size)}


def _image_column(n: int, k: int, c: int, images: dict[tuple, tuple]) -> int:
    """Column of the image of column c of (n, k) under the permutation whose
    side table is images (`_side_images`): its sides' images, sorted, looked
    up as a split family."""
    j = _index(n, k).get(tuple(sorted(images[s] for s in _columns(n, k)[c].splits)))
    if j is None:
        raise TreeStructureError(f"relabelling column {c} of ({n}, {k}) gives no stratum")
    return j


def _character(n: int, k: int, lo: int, hi: int, seed: int, what: str) -> Character:
    """Certified character of the span of the classes of the columns >= lo
    modulo that of the columns >= hi, lo and hi cuts: one trace per cycle
    type, the sum over the free columns f in [lo, hi) (those that are no
    pivot) of the entry at f of the normal form of e_{g f}.  The normal
    forms are kept for one modulus only.

    On H_{2k} one prime p gives chi exactly.  Let L = Z^S / R_Z, R_Z the
    integer span of the relation rows, which is that of all the relations
    (`relations._site_basis`); S_n permutes them, so it acts on L.  As the
    echelon passed Keel's check, rank L = b_k = dim L (x) F_p, so L has no
    p-torsion and L (x) F_p is Lambda (x) F_p for the lattice Lambda =
    L/torsion of H_{2k}(Q).  The trace read mod p is chi(g) mod p, and
    |chi(g)| <= b_k < p/2, so its symmetric lift is chi(g)."""
    def compute(p: int) -> tuple[int, ...]:
        ech = _echelon(n, k, p)
        free = [c for c in range(lo, hi) if c not in ech.pivots]
        forms: dict[int, dict[int, int]] = {}
        traces = []
        for t in partitions_of(n):
            images, total = _side_images(n, representative(t)), 0
            for f in free:
                u = _image_column(n, k, f, images)
                if (form := forms.get(u)) is None:
                    form = forms[u] = ech.reduce({u: 1})
                total += form.get(f, 0)
            traces.append(total % p)
        return tuple(traces)

    vals = certified_value(compute, seed, what=what,
                           read=lambda traces, p: tuple(lift_symmetric(x, p) for x in traces))
    return Character(n, dict(zip(partitions_of(n), vals)))


def character_homology(n: int, k: int, seed: int = 0) -> Character:
    """Character of the S_n-action on H_{2k}, one trace per cycle type."""
    if n < 3 or not 0 <= k <= n - 3:
        raise DomainError(f"no homology group for (n, k) = ({n}, {k})")
    return _character(n, k, 0, len(_columns(n, k)), seed, f"character ({n},{k})")


def character_graded(n: int, k: int, r: int, seed: int = 0) -> Character:
    """Character of the graded piece at level r: the span of the level >= r
    classes modulo that of the level >= r+1 classes."""
    if not 1 <= r <= min(k, n - 2 - k):
        raise DomainError(f"no graded piece for (n, k, r) = ({n}, {k}, {r})")
    return _character(n, k, _cut(n, k, n * r), _cut(n, k, n * (r + 1)), seed,
                      f"graded character ({n},{k},{r})")
