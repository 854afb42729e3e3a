"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the library's modular elimination and
enumeration strategies: ranks are fraction Gaussian elimination, strata
come from brute-force search over compatible split families, relations
are expanded term by term from their definition, characters are
fixed-point counts, and Betti numbers come from Keel's recursion, which
is a theorem.  The one modular piece, the certification
loop, is kept here evaluating one prime at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb


def rref_fraction(rows: list[dict[int, int]], n_cols: int) -> list[tuple[int, list[Fraction]]]:
    """Reduced row echelon form over Q by dense Gaussian elimination, as
    (pivot column, dense row) pairs."""
    mat = [[Fraction(r.get(c, 0)) for c in range(n_cols)] for r in rows]
    pivot_cols = []
    for col in range(n_cols):
        rank = len(pivot_cols)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivot_cols.append(col)
    return list(zip(pivot_cols, mat))


def rank_fraction(rows: list[dict[int, int]], n_cols: int) -> int:
    return len(rref_fraction(rows, n_cols))


def independent_rows(rows, n_cols: int) -> tuple[dict[int, int], ...]:
    """The rows, in order, that raise the rank over Q of those before them:
    a subfamily independent over Q with the same span, so dropping any one
    of its rows lowers the rank."""
    basis: list[dict[int, int]] = []
    for r in rows:
        if rank_fraction(basis + [dict(r)], n_cols) > len(basis):
            basis.append(dict(r))
    return tuple(basis)


def reference_row_order_key(row: dict[int, int]):
    """A reference row order for `ModEchelon.add_rows`, fewest entries
    first, ties by the sorted entries: the reduced form of a natural-order
    echelon must not depend on the order its rows came in."""
    return (len(row), sorted(row.items()))


class ReferenceEchelon:
    """Natural-order echelon mod p with the dict-and-`min` kernel: the working
    row is a dict and each pivot step takes `min` over all of it.  The
    reference for `ModEchelon`'s sparse-accumulator kernel, which must give
    the same pivots and the same normal forms."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """The normal form: row folded against every pivot row it meets."""
        return self._reduce(row, full=True)

    def add_row(self, row: dict[int, int]) -> int | None:
        r = self._reduce(row, full=False)
        if not r:
            return None
        lead = min(r)
        inv = pow(r[lead], -1, self.p)
        self.pivots[lead] = {c: v * inv % self.p for c, v in r.items()}
        return lead

    def _reduce(self, row: dict[int, int], full: bool) -> dict[int, int]:
        """Row folded against the least pivot column in it, again and again;
        unless full, only while its least column is a pivot column."""
        p = self.p
        r = {c: vp for c, v in row.items() if (vp := v % p)}
        while r:
            lead = min((c for c in r if c in self.pivots), default=None) if full else min(r)
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


def pivot_normal_forms(ech) -> dict[int, dict[int, int]]:
    """The normal form (`reduce`) of the unit vector of each pivot column of
    an echelon: minus the reduced row echelon row of that pivot, off the
    pivot, so it holds the same row-space information as that form."""
    return {c: ech.reduce({c: 1}) for c in ech.pivots}


def solve_fraction(rows: list[dict[int, int]], targets: list[dict[int, int]],
                   n_cols: int) -> list[list[Fraction] | None]:
    """For each target, the coefficients x with sum_i x[i] rows[i] == target
    over Q, by Gauss-Jordan elimination on the transposed system (one
    equation per column, one unknown per row, one right-hand side per
    target); None for a target outside the span of the rows.  The rows
    must be independent, so that each x is unique."""
    width = len(rows)
    eqs = [[Fraction(r.get(c, 0)) for r in rows] + [Fraction(t.get(c, 0)) for t in targets]
           for c in range(n_cols)]
    for var in range(width):
        piv = next((i for i in range(var, n_cols) if eqs[i][var]), None)
        if piv is None:
            raise ValueError("rows are dependent: the coefficients are not unique")
        eqs[var], eqs[piv] = eqs[piv], eqs[var]
        inv = 1 / eqs[var][var]
        eqs[var] = [x * inv for x in eqs[var]]
        for i in range(n_cols):
            if i != var and eqs[i][var]:
                f = eqs[i][var]
                eqs[i] = [a - f * b for a, b in zip(eqs[i], eqs[var])]
    return [None if any(eqs[i][width + j] for i in range(width, n_cols))
            else [eqs[i][width + j] for i in range(width)]
            for j in range(len(targets))]


def in_lattice(rows: list[dict[int, int]], vec: dict[int, int], n_cols: int) -> bool:
    """Whether vec is an integer combination of rows, which need not be
    independent: the rows are brought to an echelon basis of the same
    Z-lattice by Euclid's algorithm on each column, then vec is reduced
    against it, each step an integer multiple of a basis row."""
    mat = [[r.get(c, 0) for c in range(n_cols)] for r in rows]
    basis = []
    for col in range(n_cols):
        live = [r for r in mat if r[col]]
        mat = [r for r in mat if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head, rest = live[0], []
            for r in live[1:]:
                q = r[col] // head[col]
                r = [a - q * b for a, b in zip(r, head)]
                (rest if r[col] else mat).append(r)
            live = [head, *rest]
        if live:
            basis.append((col, live[0]))
    v = [vec.get(c, 0) for c in range(n_cols)]
    for col, b in basis:
        q, rem = divmod(v[col], b[col])
        if rem:
            return False
        v = [a - q * x for a, x in zip(v, b)]
    return not any(v)


def in_row_space(rref: list[tuple[int, list[Fraction]]], vec: dict[int, int], n_cols: int) -> bool:
    """Whether vec lies in the span over Q of the rows whose reduced form
    is rref (from rref_fraction): each pivot row is 1 at its own pivot
    column and 0 at every other, so vec is in the span exactly when
    subtracting vec[c] times the row of each pivot c leaves 0."""
    v = [Fraction(vec.get(c, 0)) for c in range(n_cols)]
    for col, row in rref:
        if v[col]:
            f = v[col]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def brute_force_strata(n: int, n_edges: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every compatible family of `n_edges` splits, by direct search, sorted.

    Candidate splits are all subsets of {2..n} of size 2..n-2, as sorted
    tuples; compatible means any two are nested or disjoint.  Each family
    is a sorted tuple of splits.  Exponential; keep n small.
    """
    marks = range(2, n + 1)
    candidates = [c for size in range(2, n - 1) for c in combinations(marks, size)]

    def compatible(a, b):
        a, b = set(a), set(b)
        return a <= b or b <= a or not (a & b)

    out = []
    stack = [((), 0)]
    while stack:
        chosen, start = stack.pop()
        if len(chosen) == n_edges:
            out.append(tuple(sorted(chosen)))
            continue
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all(compatible(c, x) for x in chosen):
                stack.append((chosen + (c,), i + 1))
    return sorted(out)


@lru_cache(maxsize=None)
def keel_betti(n: int) -> tuple[int, ...]:
    """dim H_{2k} of the n-marked space for k = 0..n-3, from Keel's
    recursion for the Poincare polynomial (Keel 1992):

        P_3 = 1,  P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}.
    """
    if n == 3:
        return (1,)
    m = n - 1
    prev = keel_betti(m)
    out = [Fraction(0)] * (n - 2)
    for i, c in enumerate(prev):
        out[i] += c
        out[i + 1] += c
    for j in range(2, m - 1):
        for x, ca in enumerate(keel_betti(j + 1)):
            for y, cb in enumerate(keel_betti(m - j + 1)):
                out[x + y + 1] += Fraction(comb(m, j) * ca * cb, 2)
    if any(c.denominator != 1 for c in out):
        raise ArithmeticError(f"Keel's recursion gave a non-integer at n={n}")
    return tuple(int(c) for c in out)


def reference_split_fault(n: int, splits) -> str | None:
    """The message MarkedTree(n, splits) raises for a tuple of split tuples,
    None for a valid family: reading the splits in order, the first of a
    split's form, size, marks, order after the split before it and
    compatibility with each earlier split that fails.  Works on frozensets,
    not on the library's bitmasks."""
    sets: list[frozenset] = []
    prev = None
    for s in splits:
        if (not isinstance(s, tuple) or any(type(m) is not int for m in s)
                or list(s) != sorted(set(s))):
            return f"split {s!r} is not a sorted duplicate-free tuple"
        if not 2 <= len(s) <= n - 2:
            return f"split {s!r} has invalid size for n={n}"
        if s[0] < 2 or s[-1] > n:
            return f"split {s!r} must use marks in 2..{n}"
        if prev is not None and s <= prev:
            return "split family must be strictly sorted"
        b = frozenset(s)
        for a in sets:
            if not (a <= b or b <= a or not a & b):
                return f"incompatible splits {tuple(sorted(a))} / {s}"
        sets.append(b)
        prev = s
    return None


def brute_force_vertex_flags(n: int, splits) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Flags at each vertex of a tree, from the definition: vertex i >= 1 is
    the far end of the edge of splits[i-1], vertex 0 the one at mark 1.

    The edge of a split hangs from the vertex of its least strict superset
    (vertex 0 when there is none), and a mark sits at the vertex of the
    least split holding it.  Quadratic in the number of splits.
    """
    sets = [frozenset(s) for s in splits]
    full = frozenset(range(1, n + 1))

    def least_vertex(holds) -> int:
        best = 0
        for j, u in enumerate(sets, 1):
            if holds(u) and (best == 0 or u < sets[best - 1]):
                best = j
        return best

    flags = [[] for _ in range(len(sets) + 1)]
    for i, s in enumerate(sets, 1):
        flags[least_vertex(lambda u: s < u)].append(tuple(sorted(s)))
        flags[i].append(tuple(sorted(full - s)))
    for m in full:
        flags[least_vertex(lambda u: m in u)].append((m,))
    return tuple(tuple(sorted(f)) for f in flags)


def brute_force_filtration_key(n: int, splits) -> int:
    """n * (number of fat vertices) plus, at exactly two fat vertices, the
    marks left over when each fat vertex keeps the marks behind its flags
    other than the one toward the other; from brute_force_vertex_flags.

    The flag at v toward w is the one flag at v whose marks lie in no
    single flag at w.
    """
    fat = [f for f in brute_force_vertex_flags(n, splits) if len(f) >= 4]
    if len(fat) != 2:
        return n * len(fat)
    toward = [
        next(set(f) for f in here if not any(set(f) <= set(g) for g in there))
        for here, there in (fat, fat[::-1])
    ]
    kept = [n - len(x) for x in toward]  # marks at each fat vertex's side
    return 2 * n + n - sum(kept)


def brute_force_two_vertex(n: int, splits):
    """(P1, a1, P2, a2) of a tree with exactly two fat vertices, None for any
    other tree; from brute_force_vertex_flags.  P_i is the marks behind the
    flags at the i-th fat vertex other than the one toward the other, a_i
    its valence less 3, and the sides are ordered by least mark."""
    fat = [f for f in brute_force_vertex_flags(n, splits) if len(f) >= 4]
    if len(fat) != 2:
        return None
    sides = []
    for here, there in (fat, fat[::-1]):
        toward = next(set(f) for f in here if not any(set(f) <= set(g) for g in there))
        sides.append((tuple(sorted(set(range(1, n + 1)) - toward)), len(here) - 3))
    (p1, a1), (p2, a2) = sorted(sides)
    return p1, a1, p2, a2


def reference_wtilde(n: int, splits) -> dict:
    """The signed pair map as the library computed it in Fractions before
    its half-unit core, with the structure of the tree taken from
    brute_force_vertex_flags and brute_force_two_vertex: {pair: 1} at level
    2, a sum over the covering pairs refined by the fat vertex with
    coefficient (-1)^e / 2 at level 1, {} at any other level, pairs in the
    same order."""
    from strata_lab.psets import PairLabel

    fat = [f for f in brute_force_vertex_flags(n, splits) if len(f) >= 4]
    if len(fat) == 2:
        return {PairLabel.from_parts(*brute_force_two_vertex(n, splits)): Fraction(1)}
    if len(fat) != 1:
        return {}
    parts = [frozenset(f) for f in fat[0]]
    k = n - 3 - len(splits)
    out = {}
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
                out[gamma] = Fraction(-1, 2) if e % 2 else Fraction(1, 2)
    return out


def certify_prime_by_prime(compute, seed: int = 0, what: str = "value",
                           read=lambda value, p: value):
    """Reference for `exact_linalg.certified_value`: the same rule, with
    read(compute(p), p) evaluated at each prime of the library's prime
    stream on its own, never at a product of primes."""
    import strata_lab.exact_linalg as el

    seen: list = []
    for p in el.prime_stream(seed):
        seen.append(v := read(compute(p), p))
        if seen.count(v) >= 2:
            return v
        if len(seen) == el.MAX_PRIMES:
            raise el.RankCertificationError(f"no value of {what} certified: {seen}")


def brute_force_expansion(n: int, splits, here, quad, pairing: int) -> dict:
    """The Kontsevich-Manin relation of the flags quad = (A, B, C, D) at a
    vertex whose flags are `here` (each a tuple of the marks behind it) of
    the tree with these splits: sum over the subsets U1 of the leftover
    flags of (A B U1 | rest) minus (A X U1 | rest), X = C for pairing 1
    and D for pairing 2, each term the tree with the side of A B U1 (or
    A X U1) added as a split.  {tree: coeff}, terms in the order they are
    first met, zeros dropped."""
    from strata_lab.trees import MarkedTree

    a, b, c, d = quad
    x = c if pairing == 1 else d
    rest = [f for f in here if f not in quad]
    subsets = [u for r in range(len(rest) + 1) for u in combinations(rest, r)]
    terms: dict = {}
    for pair, sign in (((a, b), 1), ((a, x), -1)):
        for u in subsets:
            side = [m for f in (*pair, *u) for m in f]
            t = MarkedTree.from_sides(n, tuple(splits) + (side,))
            terms[t] = terms.get(t, 0) + sign
    return {t: v for t, v in terms.items() if v}


def brute_force_relations(n: int, k: int):
    """Every Kontsevich-Manin relation of the strata of dimension k, as
    (sigma, v, flags, pairing, terms): for each stratum sigma of dimension
    k+1 in enumeration order, each vertex v in the order of
    brute_force_vertex_flags with at least four flags, each 4-subset of
    its flags in lexicographic order and pairings 1 then 2, the expansion
    of brute_force_expansion.  Uses no relation code of the library."""
    from strata_lab.trees import enumerate_strata

    for sigma in enumerate_strata(n, k + 1):
        for v, here in enumerate(brute_force_vertex_flags(n, sigma.splits)):
            for quad in combinations(here, 4):
                for pairing in (1, 2):
                    yield (sigma, v, quad, pairing,
                           brute_force_expansion(n, sigma.splits, here, quad, pairing))
