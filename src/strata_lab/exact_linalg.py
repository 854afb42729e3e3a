"""Exact sparse linear algebra over Q via modular arithmetic.

Matrices are sequences of sparse rows {column: coefficient}.  Ranks,
pivot columns and normal forms come from one natural-order row echelon
modulo m, `ModEchelon`.  The normal form of a vector (`ModEchelon.reduce`)
is the one vector congruent to it modulo the row space whose support has
no pivot column; it is the one reduction that membership tests and
character traces read.  Values are certified by `certified_value`, the
one loop that repeats across random 62-bit primes.

`certified_value` takes the primes two at a time and eliminates once,
modulo their product m = p*q, which costs well under two eliminations
mod p.  This is sound because every lead the elimination stops at or
inverts must be a unit mod m, else `_NonUnitLead` is raised: by the
Chinese remainder theorem a unit mod m is nonzero mod p and mod q, and a
residue that is zero mod m is zero mod both.  So each reduction step mod
m reduces to the same step mod p (a step whose factor vanishes mod p
changes nothing there), the pivot columns mod m are those mod p and mod
q, the pivot rows mod m reduce to pivot rows mod p, and the normal form
of a vector mod m reduces to its normal form mod p and mod q: its support
has no pivot column there either, and the normal form is unique.  A
value read off them at p is the value an elimination mod p alone gives.
When a lead is not a unit, the pair's two primes are evaluated one at a
time.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable

DEFAULT_PRIME_BITS = 62
MAX_PRIMES = 12
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class RankCertificationError(RuntimeError):
    """A certified value could not be established or failed a cross-check."""


class _NonUnitLead(ArithmeticError):
    """A lead of an elimination modulo a composite is not a unit: its value
    may vanish modulo one prime factor, so the elimination modulo that prime
    would go on past it."""


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream(seed: int) -> Iterable[int]:
    """Deterministic stream of distinct random primes of DEFAULT_PRIME_BITS bits."""
    bits = DEFAULT_PRIME_BITS
    rng = random.Random(seed)
    seen = set()
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if c in seen or not is_probable_prime(c):
            continue
        seen.add(c)
        yield c


def _row_order_key(row: dict[int, int]):
    return (-min(row, default=0), len(row))


class ModEchelon:
    """Incremental row-echelon form modulo p, a prime or a product of
    distinct primes.

    Every lead the elimination stops at must be a unit mod p: a row that
    reduces to a nonzero row whose leading value shares a factor with p
    raises `_NonUnitLead`, in `add_row` and in `reduce` alike, and leaves
    the echelon as it was.  A prime modulus never raises it.

    `add_row` folds a row against the pivot rows only up to its lead, its
    first column that is no pivot, and stores it with that pivot; `reduce`
    folds it against every pivot row, up to and past its lead.  Stored
    pivot rows are never mutated after insertion, and every stored row is
    supported on its pivot column and the columns after it.

    A row is reduced in a sparse accumulator (Gilbert, Moler & Schreiber,
    SIAM J. Matrix Anal. Appl. 13, 1992): one dense scratch row of values
    and a `bytearray` mask of its nonzero columns, both kept by the
    echelon, grown to the widest column seen and left all-zero by every
    call.  The next leading column is the next set byte of the mask, found
    by `bytearray.find` in C, so a pivot step costs the length of the pivot
    row, not of the filled-in working row.  Columns must be non-negative
    ints, since they index the scratch row.

    `add_rows` feeds rows by leading (least) column, largest first, then
    fewest entries.  A row whose leading column has no pivot yet is stored
    as it came, so the pivot rows stay about as sparse as the input: at
    (8,3) the relation echelon holds 10,222 entries, against 21,211 when
    the same rows go in by fewest entries first.  The order cannot change
    a result: the pivot columns and the normal forms depend on the row
    space alone, and so do ranks, traces and membership verdicts.
    """

    key = None  # perfbench/tracing.py reads it to name each traced elimination

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}
        self._values: list[int] = []
        self._nonzero = bytearray()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """The normal form of row: the one vector congruent to it modulo the
        row space with no pivot column in its support, in column order.
        Raises ValueError on a negative column and _NonUnitLead on a
        nonzero result whose leading value is not a unit."""
        return self._reduce(row, full=True)[1]

    def add_row(self, row: dict[int, int]) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        lead, r = self._reduce(row, full=False)
        if lead is None:
            return None
        inv = pow(r[lead], -1, self.p)
        self.pivots[lead] = {c: v * inv % self.p for c, v in r.items()}
        return lead

    def _reduce(self, row: dict[int, int], full: bool) -> tuple[int | None, dict[int, int]]:
        """(leading column or None, reduced row, in column order).  The row
        is folded against the pivot rows up to its lead, its first column
        that is no pivot; if full, against those past the lead too."""
        if not row:
            return None, {}
        lo = min(row)
        if lo < 0:
            raise ValueError(f"negative column {lo}")
        values, nonzero = self._values, self._nonzero
        width = max(row) + 1
        if width > len(nonzero):
            values.extend([0] * (width - len(nonzero)))
            nonzero.extend(bytes(width - len(nonzero)))
        p, pivots = self.p, self.pivots
        try:
            for c, v in row.items():
                if vp := v % p:
                    values[c] = vp
                    nonzero[c] = 1
            lead = -1
            c = nonzero.find(1, lo)
            while c >= 0:
                pr = pivots.get(c)
                if pr is not None:
                    f = values[c]
                    for cc, v in pr.items():
                        nv = values[cc] = (values[cc] - f * v) % p
                        nonzero[cc] = nv != 0
                elif lead < 0:
                    lead = c
                    if not full:
                        break
                c = nonzero.find(1, c + 1)
            r = {}
            c = lead
            while c >= 0:
                r[c] = values[c]
                values[c] = nonzero[c] = 0
                c = nonzero.find(1, c + 1)
        except BaseException:  # leave the scratch row all-zero for the next call
            self._values = [0] * len(values)
            self._nonzero = bytearray(len(nonzero))
            raise
        if lead < 0:
            return None, r
        if math.gcd(r[lead], p) != 1:
            raise _NonUnitLead(f"lead {r[lead]} at column {lead} is not a unit mod {p}")
        return lead, r

    def add_rows(self, rows: Iterable[dict[int, int]], presorted: bool = False) -> int:
        """Insert rows, by leading column, largest first, unless presorted;
        returns how many were independent.  Each row leaves the echelon's
        own list once reduced, so rows an iterator made are freed as it goes."""
        todo = list(rows) if presorted else sorted(rows, key=_row_order_key)
        todo.reverse()
        added = 0
        while todo:
            added += self.add_row(todo.pop()) is not None
        return added


def certified_value(compute: Callable[[int], object], seed: int = 0,
                    what: str = "value",
                    read: Callable[[object, int], object] = lambda value, p: value):
    """Read values at the primes of prime_stream(seed), in stream order,
    and return the first value seen twice; RankCertificationError after
    MAX_PRIMES primes.

    The primes are taken two at a time: compute(p*q) is evaluated once and
    read(result, p), then read(result, q), are the values at the two primes
    (read lifts what depends on the prime, such as a trace mod p; by
    default the result is the value).  When compute raises _NonUnitLead,
    compute(p) and compute(q) are evaluated one at a time instead (see the
    module docstring for why either way gives the value at each prime).
    A wrong value is returned only if two primes err alike.  Relation
    ranks, Betti numbers and chi(H_{2k}) are proven at each prime: the rank
    meets Keel's bound where its echelon is built (`homology._keel_checked`,
    `homology._character`).  Graded dimensions, graded characters and
    membership verdicts are only agreed: they rest on ranks of truncated
    relation rows, which mod p may fall short of those over Q.
    """
    seen: list = []
    primes = prime_stream(seed)
    for p, q in zip(primes, primes):
        try:
            result = compute(p * q)
            results = ((result, p), (result, q))
        except _NonUnitLead:
            results = ((compute(r), r) for r in (p, q))
        for result, r in results:
            seen.append(v := read(result, r))
            if seen.count(v) >= 2:
                return v
            if len(seen) == MAX_PRIMES:
                raise RankCertificationError(
                    f"no value of {what} certified at {MAX_PRIMES} primes: {seen}"
                )


def lift_symmetric(x: int, p: int) -> int:
    """Lift a residue to the symmetric range (-p/2, p/2]."""
    x %= p
    return x if x <= p // 2 else x - p
