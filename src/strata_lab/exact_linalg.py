"""Exact sparse linear algebra over Q via modular arithmetic.

Ranks and reduced forms are computed modulo random 62-bit primes and
certified by `certified_value`, the one loop that repeats across primes.
A fraction-free Bareiss elimination is available as an audit fallback
for small matrices.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable

DEFAULT_PRIME_BITS = 62
MAX_PRIMES = 12
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class RankCertificationError(RuntimeError):
    """A certified value could not be established or failed a cross-check."""


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


def prime_stream(seed: int, bits: int = DEFAULT_PRIME_BITS) -> Iterable[int]:
    """Deterministic stream of distinct random primes with the given bit size."""
    rng = random.Random(seed)
    seen = set()
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if c in seen or not is_probable_prime(c):
            continue
        seen.add(c)
        yield c


@dataclass
class SparseIntMatrix:
    """Rows as sparse integer vectors {column: coefficient}."""

    n_rows: int
    n_cols: int
    rows: list[dict[int, int]]

    def __post_init__(self):
        if self.n_rows != len(self.rows):
            raise ValueError(f"n_rows is {self.n_rows} but {len(self.rows)} rows are given")
        for r in self.rows:
            for c, v in r.items():
                if not 0 <= c < self.n_cols:
                    raise ValueError(f"column {c} out of range")
                if v == 0:
                    raise ValueError("explicit zero entry")

    @staticmethod
    def from_rows(n_cols: int, rows: Iterable[dict[int, int]]) -> "SparseIntMatrix":
        rows = [dict(r) for r in rows]
        return SparseIntMatrix(len(rows), n_cols, rows)

    def entries(self) -> list[tuple[int, int, int]]:
        return [(i, c, v) for i, r in enumerate(self.rows) for c, v in sorted(r.items())]


def _row_order_key(row: dict[int, int]):
    return (len(row), sorted(row.items()))


def unique_rows(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Drop duplicate rows up to sign; preserves the row span."""
    seen = set()
    out = []
    for r in rows:
        if not r:
            continue
        lead = min(r)
        sign = 1 if r[lead] > 0 else -1
        key = frozenset((c, sign * v) for c, v in r.items())
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


class ModEchelon:
    """Incremental row-echelon form mod p.

    Stored pivot rows are never mutated after insertion.  The pivot of a
    reduced row is its least column in `key` order (natural order when
    `key` is None), so every stored row is supported on its pivot column
    and the columns after it.
    """

    def __init__(self, p: int, key: Callable[[int], object] | None = None):
        self.p = p
        self.key = key
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Fold row against the current pivots; the result has no pivot column
        as its leading column (it may still touch later pivot columns)."""
        p = self.p
        key = self.key
        r = {c: vp for c, v in row.items() if (vp := v % p)}
        while r:
            lead = min(r) if key is None else min(r, key=key)
            pr = self.pivots.get(lead)
            if pr is None:
                return r
            f = r[lead]
            for c, v in pr.items():
                nv = (r.get(c, 0) - f * v) % p
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        return r

    def add_row(self, row: dict[int, int]) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        lead = min(r) if self.key is None else min(r, key=self.key)
        inv = pow(r[lead], -1, self.p)
        self.pivots[lead] = {c: v * inv % self.p for c, v in r.items()}
        return lead

    def add_rows(self, rows: Iterable[dict[int, int]], presorted: bool = False) -> int:
        added = 0
        todo = rows if presorted else sorted(rows, key=_row_order_key)
        for r in todo:
            if self.add_row(r) is not None:
                added += 1
        return added


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over the field with p elements."""
    ech = ModEchelon(p)
    ech.add_rows(unique_rows(M.rows))
    return ech.rank


def certified_value(compute: Callable[[int], object], seed: int = 0,
                    what: str = "value", lower_bound: bool = False):
    """Evaluate compute(p) at the primes of prime_stream(seed) until a value
    is certified.

    With lower_bound=True (ranks) the largest value seen so far is returned
    once it has been seen twice: reduction mod p can only lower a rank, so
    no value below the maximum is the rank over Q, and the maximum is wrong
    only if every prime drawn so far was unlucky.  With lower_bound=False
    the first value seen twice is returned.  Either way
    RankCertificationError is raised after MAX_PRIMES primes.
    """
    seen: list = []
    for p in prime_stream(seed):
        seen.append(compute(p))
        v = max(seen) if lower_bound else seen[-1]
        if seen.count(v) >= 2:
            return v
        if len(seen) == MAX_PRIMES:
            raise RankCertificationError(
                f"no value of {what} certified at {MAX_PRIMES} primes: {seen}"
            )


def rank_exact(M: SparseIntMatrix, seed: int = 0) -> int:
    """Rank over Q, certified from ranks mod p."""
    return certified_value(lambda p: rank_mod_p(M, p), seed, "rank", lower_bound=True)


def rank_bareiss(M: SparseIntMatrix) -> int:
    """Fraction-free integer elimination; exact, for audit runs on small inputs."""
    mat = [[r.get(c, 0) for c in range(M.n_cols)] for r in M.rows]
    n_rows, n_cols = len(mat), M.n_cols
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, n_rows):
            if not any(mat[i][c:]):
                continue
            for j in range(c + 1, n_cols):
                mat[i][j] = (mat[r][c] * mat[i][j] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        r += 1
        if r == n_rows:
            break
    return r


@dataclass
class QuotientBasis:
    """RREF presentation of F_p^{n_cols} / rowspace, basis = free columns.

    For a pivot column c the stored row is the free-column part of the
    reduced relation  e_c + sum_f row[f] e_f  in the row space; hence the
    class of e_c is  -sum_f row[f] [e_f].
    """

    prime: int
    n_cols: int
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    _rows: dict[int, tuple[array, array]] = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    def coeff(self, pivot_col: int, free_col: int) -> int:
        cols, vals = self._rows[pivot_col]
        i = bisect_left(cols, free_col)
        if i < len(cols) and cols[i] == free_col:
            return vals[i]
        return 0

    def quotient_reduce(self, v: dict[int, int]) -> list[int]:
        """Coordinates of the class of v on the free-column basis, mod p."""
        p = self.prime
        pos = self._free_index
        out = [0] * len(self.free_cols)
        for c, val in v.items():
            if not 0 <= c < self.n_cols:
                raise ValueError(f"column {c} out of range")
            if c in self._rows:
                cols, vals = self._rows[c]
                for fc, fv in zip(cols, vals):
                    out[pos[fc]] -= val * fv
            else:
                out[pos[c]] += val
        return [x % p for x in out]

    def __post_init__(self):
        self._free_index = {c: i for i, c in enumerate(self.free_cols)}


def quotient_basis(rows: Iterable[dict[int, int]], n_cols: int, p: int,
                   echelon: ModEchelon | None = None) -> QuotientBasis:
    """Full RREF of the row space, packed column-compactly.

    An existing natural-order echelon of the same rows may be passed and
    is not modified.
    """
    if echelon is None:
        echelon = ModEchelon(p)
        echelon.add_rows(unique_rows(list(rows)))
    if echelon.key is not None:
        raise ValueError("quotient basis needs natural column order")
    pivots = echelon.pivots
    pivot_cols = sorted(pivots)
    pivot_set = set(pivot_cols)
    free_cols = tuple(c for c in range(n_cols) if c not in pivot_set)
    reduced: dict[int, dict[int, int]] = {}
    for c in reversed(pivot_cols):
        row = dict(pivots[c])
        row.pop(c)
        for cc in [x for x in row if x in pivot_set]:
            f = row.pop(cc)
            for fc, fv in reduced[cc].items():
                nv = (row.get(fc, 0) - f * fv) % p
                if nv:
                    row[fc] = nv
                else:
                    row.pop(fc, None)
        reduced[c] = row
    packed = {}
    for c, row in reduced.items():
        cols = array("i", sorted(row))
        vals = array("q", (row[x] for x in cols))
        packed[c] = (cols, vals)
    return QuotientBasis(p, n_cols, tuple(pivot_cols), free_cols, packed)


def lift_symmetric(x: int, p: int) -> int:
    """Lift a residue to the symmetric range (-p/2, p/2]."""
    x %= p
    return x if x <= p // 2 else x - p
