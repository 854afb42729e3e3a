import random
import weakref
from collections import Counter

import pytest

import strata_lab.exact_linalg as el
from oracles import (
    ReferenceEchelon,
    brute_force_relations,
    certify_prime_by_prime,
    pivot_normal_forms,
    rank_fraction,
    reference_row_order_key,
)

from strata_lab.exact_linalg import (
    MAX_PRIMES,
    _NonUnitLead,
    _row_order_key,
    ModEchelon,
    RankCertificationError,
    certified_value,
    is_probable_prime,
    lift_symmetric,
    prime_stream,
)
from strata_lab.homology import _echelon, _relation_rows
from strata_lab.trees import enumerate_strata


def _relation_matrix(n, k):
    """(rows, n_cols) of all the relations of (n, k), from the brute-force
    expansion, over the enumeration ids of the strata."""
    trees = enumerate_strata(n, k)
    idx = {t: i for i, t in enumerate(trees)}
    rows = [{idx[t]: c for t, c in terms.items()} for *_, terms in brute_force_relations(n, k)]
    return rows, len(trees)


def _rank_mod_p(rows, p):
    ech = ModEchelon(p)
    ech.add_rows(rows)
    return ech.rank


def rank_exact(rows, seed=0):
    """Rank over Q, certified from ranks mod p."""
    return certified_value(lambda p: _rank_mod_p(rows, p), seed)


def _normal_forms(rows, p):
    ech = ModEchelon(p)
    ech.add_rows(rows)
    return pivot_normal_forms(ech)


def _random_sparse(rng, n_rows, n_cols, density=0.3, lo=-4, hi=4):
    rows = []
    for _ in range(n_rows):
        row = {}
        for c in range(n_cols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_prime_stream_deterministic():
    a = [p for _, p in zip(range(4), prime_stream(0))]
    b = [p for _, p in zip(range(4), prime_stream(0))]
    assert a == b
    assert all(p > 2**60 and is_probable_prime(p) for p in a)
    assert a != [p for _, p in zip(range(4), prime_stream(1))]


def test_rank_examples():
    p = next(iter(prime_stream(0)))
    assert _rank_mod_p([], p) == 0
    assert rank_exact([]) == 0
    assert rank_exact([{i: 1} for i in range(5)]) == 5
    assert rank_exact([{} for _ in range(3)]) == 0
    m40, _ = _relation_matrix(4, 0)
    assert _rank_mod_p(m40, p) == 2
    m50, _ = _relation_matrix(5, 0)
    assert _rank_mod_p(m50, p) == 14
    m61, _ = _relation_matrix(6, 1)
    assert rank_exact(m61) == 105 - 16  # betti oracle: h2 of the 6-marked space is 16


def _read_next(values):
    """A read that gives the next of values at each prime, in stream order."""
    return lambda result, p: next(values)


def test_certifier_rules():
    # the first value seen twice wins, for every quantity
    values = iter([3, 5, 3, 5])
    assert certified_value(lambda m: None, read=_read_next(values)) == 3
    values = iter([5, 3, 3, 5])
    assert certified_value(lambda m: None, read=_read_next(values)) == 3


def test_certifier_gives_up():
    moduli, read = [], []

    def distinct(result, p):
        read.append(p)
        return p

    with pytest.raises(RankCertificationError):
        certified_value(moduli.append, read=distinct)
    assert read == [p for _, p in zip(range(MAX_PRIMES), prime_stream(0))]
    assert moduli == [p * q for p, q in zip(read[::2], read[1::2])]


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(11)
    for trial in range(25):
        n_cols = rng.randint(1, 10)
        rows = _random_sparse(rng, rng.randint(1, 12), n_cols)
        want = rank_fraction(rows, n_cols)
        assert rank_exact(rows, seed=trial) == want


def test_two_prime_agreement_across_suite():
    ps = [p for _, p in zip(range(3), prime_stream(123))]
    for n, k in [(4, 0), (5, 0), (5, 1), (6, 1), (6, 2)]:
        rows, _ = _relation_matrix(n, k)
        ranks = {_rank_mod_p(rows, p) for p in ps}
        assert len(ranks) == 1


def test_quotient_basis_and_reduce():
    p = next(iter(prime_stream(0)))
    rows, n_cols = _relation_matrix(4, 0)
    ech = ModEchelon(p)
    ech.add_rows(rows)
    forms = pivot_normal_forms(ech)
    assert ech.rank == len(forms) == 2
    [f] = [c for c in range(n_cols) if c not in forms]
    # the normal form of a pivot column c is on free columns after c, and
    # e_c minus it is in the row space
    for c, form in forms.items():
        assert all(x == f and x > c for x in form)
        assert ech.reduce({c: 1, **{x: -v for x, v in form.items()}}) == {}
    # a relation row reduces to zero
    assert ech.reduce(rows[0]) == {}
    # a free-column unit vector is no member: it reduces to itself
    assert ech.reduce({f: 1}) == {f: 1}
    # e_(12|34) - e_(13|24) is a relation row
    trees = enumerate_strata(4, 0)
    idx = {t: i for i, t in enumerate(trees)}
    from strata_lab.trees import MarkedTree

    d = {
        idx[MarkedTree.from_sides(4, [(3, 4)])]: 1,
        idx[MarkedTree.from_sides(4, [(2, 4)])]: -1,
    }
    assert ech.reduce(d) == {}


def test_lift_symmetric():
    p = 101
    assert lift_symmetric(100, p) == -1
    assert lift_symmetric(5, p) == 5
    assert lift_symmetric(-3 % p, p) == -3


@pytest.mark.parametrize("n, k", [(n, k) for n in range(4, 8) for k in range(n - 3)] + [(8, 3)])
def test_row_order_leaves_the_reduced_form_unchanged(n, k):
    """Leading column, largest first, against the reference order: the
    pivots and the normal forms depend on the row space alone."""
    rows = tuple(_relation_rows(n, k))
    for seed in (0, 7):
        p = next(prime_stream(seed))
        ref = ModEchelon(p)
        ref.add_rows(sorted(rows, key=reference_row_order_key), presorted=True)
        assert _normal_forms(rows, p) == pivot_normal_forms(ref)


def test_row_order_keeps_the_n8k3_echelon_sparse():
    ech = _echelon(8, 3, next(prime_stream(0)))
    assert ech.rank == 1203
    assert sum(len(r) for r in ech.pivots.values()) <= 13_000  # 32,875 in the reference order


@pytest.mark.parametrize("presorted", [False, True])
def test_add_rows_keeps_no_reduced_input_row(monkeypatch, presorted):
    """Each row is dropped once reduced: when a row goes in, no row that went
    in before it is alive, so generated rows are freed as they are used."""
    class Row(dict):  # a dict that takes a weak reference
        pass

    rows = sorted(_relation_rows(6, 1), key=_row_order_key)
    went_in, add_row = [], ModEchelon.add_row

    def checking_add_row(self, row):
        assert all(ref() is None for ref in went_in), "an earlier row is alive"
        went_in.append(weakref.ref(row))
        return add_row(self, row)

    monkeypatch.setattr(ModEchelon, "add_row", checking_add_row)
    ech = ModEchelon(next(prime_stream(0)))
    added = ech.add_rows((Row(r) for r in rows), presorted)
    assert len(went_in) == len(rows) and added == ech.rank == 105 - 16


def test_add_rows_takes_empty_rows():
    p = next(prime_stream(0))
    ech = ModEchelon(p)
    assert ech.add_rows([{}, {2: 1, 3: 1}, {}, {0: p}, {3: 2}]) == 2
    assert ech.pivots == {2: {2: 1, 3: 1}, 3: {3: 1}}


def _kernel_row(rng, p, width, earlier):
    """A random row over columns < width: empty sometimes, with negative
    values, multiples of p and values beyond p, or a combination of two
    earlier rows (so that it is dependent on them)."""
    roll = rng.random()
    if roll < 0.1:
        return {}
    if roll < 0.3 and len(earlier) >= 2:
        a, b = rng.sample(earlier, 2)
        fa, fb = rng.randint(-5, 5), rng.randint(-5, 5)
        return {c: v for c in a.keys() | b.keys() if (v := fa * a.get(c, 0) + fb * b.get(c, 0))}
    row = {}
    for c in rng.sample(range(width), rng.randint(1, min(width, 8))):
        row[c] = rng.choice([rng.randint(-3, 3) or 1, p, -2 * p, p + 1, rng.randrange(-3 * p, 3 * p)])
    return row


def _assert_reduces_alike(ech, ref, row):
    got = ech.reduce(row)
    assert got == ref.reduce(row)
    assert list(got) == sorted(got)


@pytest.mark.parametrize("p", [101, next(prime_stream(0))])
def test_scratch_row_kernel_matches_the_reference_kernel(p):
    """Pivots and probe normal forms equal those of the dict-and-min kernel,
    with reduce calls between add_row calls and the width growing."""
    rng = random.Random(5)
    for _ in range(60):
        ech, ref = ModEchelon(p), ReferenceEchelon(p)
        earlier = []
        width = rng.randint(1, 4)
        for _ in range(rng.randint(0, 40)):
            if rng.random() < 0.2:
                width += rng.randint(1, 6)  # wider than any earlier row
            row = _kernel_row(rng, p, width, earlier)
            if rng.random() < 0.3:
                _assert_reduces_alike(ech, ref, row)
            else:
                assert ech.add_row(row) == ref.add_row(row)
                earlier.append(row)
        assert ech.pivots == ref.pivots
        for _ in range(5):
            _assert_reduces_alike(ech, ref, _kernel_row(rng, p, width + 3, earlier))


@pytest.mark.parametrize("seed", [0, 7])
def test_scratch_row_kernel_matches_the_reference_on_the_n8k3_relations(seed):
    p = next(prime_stream(seed))
    ech, ref = ModEchelon(p), ReferenceEchelon(p)
    for row in sorted(_relation_rows(8, 3), key=_row_order_key):
        assert ech.add_row(row) == ref.add_row(row)
    assert ech.pivots == ref.pivots and ech.rank == 1203
    width = len(enumerate_strata(8, 3))
    rng = random.Random(seed)
    for _ in range(50):
        i, j = rng.sample(range(width), 2)
        _assert_reduces_alike(ech, ref, {i: 1, j: -1})


def test_negative_columns_are_refused():
    p = 101
    ech = ModEchelon(p)
    ech.add_row({0: 1, 2: 3})
    for call in (ech.reduce, ech.add_row):
        with pytest.raises(ValueError, match="negative column"):
            call({-1: 1})
        with pytest.raises(ValueError, match="negative column"):
            call({2: 1, -3: 5})
    assert ech.pivots == {0: {0: 1, 2: 3}}
    assert ech.reduce({1: 1, 2: 1}) == {1: 1, 2: 1}


def test_scratch_row_is_clean_after_a_failed_call():
    """A row that fails halfway through loading leaves nothing behind."""
    ech = ModEchelon(101)
    with pytest.raises(TypeError):
        ech.reduce({1: 1, 1.5: 1, 3: 1})
    assert ech.reduce({0: 1}) == {0: 1}
    assert ech.add_row({0: 2}) == 0 and ech.pivots == {0: {0: 1}}


SMALL_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def _eliminate(rows, probe, cut, m):
    """An elimination mod m: rank, pivot normal forms, the probe's verdict
    and its graded verdict at cut (whether it lies in the row space plus
    the span of the columns >= cut)."""
    ech = ModEchelon(m)
    ech.add_rows(rows)
    reduced = ech.reduce(probe)
    return ech.rank, pivot_normal_forms(ech), not reduced, min(reduced, default=cut) >= cut


def _read_at(result, p):
    """What an elimination shows at the prime p dividing its modulus: rank,
    pivot columns, pivot normal forms mod p and both verdicts."""
    rank, reduced, member, graded = result
    rows = tuple((c, tuple((f, v % p) for f, v in sorted(reduced[c].items()) if v % p))
                 for c in sorted(reduced))
    return rank, tuple(sorted(reduced)), rows, member, graded


def test_pair_modulus_reads_each_prime_or_falls_back(monkeypatch):
    """At small primes leads that are not units mod p*q occur: those pairs
    are evaluated prime by prime, and every value read at a prime, from
    either path, is the one an elimination mod that prime gives; the
    certified value is the prime-by-prime loop's."""
    monkeypatch.setattr(el, "prime_stream", lambda seed: iter(SMALL_PRIMES))
    rng = random.Random(16)
    paths = Counter()
    for trial in range(150):
        n_cols = rng.randint(2, 9)
        rows = _random_sparse(rng, rng.randint(1, 10), n_cols, density=0.4, lo=-250, hi=250)
        probe = _random_sparse(rng, 1, n_cols, density=0.5, lo=-250, hi=250)[0]
        cut = rng.randint(0, n_cols)
        moduli = []

        def compute(m):
            moduli.append(m)
            return _eliminate(rows, probe, cut, m)

        def read(result, p):
            got = _read_at(result, p)
            assert got == _read_at(_eliminate(rows, probe, cut, p), p)
            return got

        def outcome(certify):
            try:
                return certify(compute, trial, read=read)
            except RankCertificationError:
                return RankCertificationError

        got = outcome(certified_value)
        paths["pair"] += sum(m not in SMALL_PRIMES for m in moduli)
        paths["fallback"] += sum(m in SMALL_PRIMES for m in moduli)
        assert got == outcome(certify_prime_by_prime)
    assert paths["pair"] and paths["fallback"], paths


def test_non_unit_leads_raise_and_leave_the_echelon_unchanged():
    m = 101 * 103
    ech = ModEchelon(m)
    assert ech.add_row({0: 1, 2: 5}) == 0
    for call in (ech.add_row, ech.reduce):
        with pytest.raises(_NonUnitLead):
            call({1: 101, 2: 1})
        with pytest.raises(_NonUnitLead):
            call({0: 1, 1: 103, 2: 5})
    assert ech.pivots == {0: {0: 1, 2: 5}}
    assert ech.reduce({0: 2, 1: m, 2: 10}) == {}  # zero mod m, so zero mod 101 and mod 103
    assert ech.add_row({1: 2, 2: 101}) == 1  # only the lead must be a unit
    assert ech.pivots[1] == {1: 1, 2: 101 * pow(2, -1, m) % m}
