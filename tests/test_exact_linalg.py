import random

import pytest
from oracles import rank_fraction

from strata_lab.exact_linalg import (
    MAX_PRIMES,
    RankCertificationError,
    SparseIntMatrix,
    certified_value,
    is_probable_prime,
    lift_symmetric,
    prime_stream,
    quotient_basis,
    rank_bareiss,
    rank_exact,
    rank_mod_p,
    unique_rows,
)
from strata_lab.relations import generate_relations
from strata_lab.trees import enumerate_strata


def _relation_matrix(n, k):
    trees = enumerate_strata(n, k)
    idx = {t: i for i, t in enumerate(trees)}
    rows = [r.row(idx) for r in generate_relations(n, k)]
    return SparseIntMatrix.from_rows(len(trees), rows)


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
    return SparseIntMatrix.from_rows(n_cols, rows)


def test_prime_stream_deterministic():
    a = [p for _, p in zip(range(4), prime_stream(0))]
    b = [p for _, p in zip(range(4), prime_stream(0))]
    assert a == b
    assert all(p > 2**60 and is_probable_prime(p) for p in a)
    assert a != [p for _, p in zip(range(4), prime_stream(1))]


def test_rank_examples():
    p = next(iter(prime_stream(0)))
    empty = SparseIntMatrix.from_rows(5, [])
    assert rank_mod_p(empty, p) == 0
    assert rank_exact(empty) == 0
    ident = SparseIntMatrix.from_rows(5, [{i: 1} for i in range(5)])
    assert rank_exact(ident) == 5
    zero = SparseIntMatrix.from_rows(3, [{} for _ in range(3)])
    assert rank_exact(zero) == 0
    m40 = _relation_matrix(4, 0)
    assert rank_mod_p(m40, p) == 2
    m50 = _relation_matrix(5, 0)
    assert rank_mod_p(m50, p) == 14
    m61 = _relation_matrix(6, 1)
    assert rank_exact(m61) == 105 - 16  # betti oracle: h2 of the 6-marked space is 16


def test_certifier_rules():
    # ranks: the largest value seen so far wins once seen twice
    values = iter([3, 5, 3, 5])
    assert certified_value(lambda p: next(values), lower_bound=True) == 5
    # other values: the first value seen twice wins
    values = iter([3, 5, 3, 5])
    assert certified_value(lambda p: next(values)) == 3


def test_certifier_gives_up():
    calls = []

    def distinct(p):
        calls.append(p)
        return p

    for lower_bound in (False, True):
        calls.clear()
        with pytest.raises(RankCertificationError):
            certified_value(distinct, lower_bound=lower_bound)
        assert len(calls) == MAX_PRIMES


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(11)
    for trial in range(25):
        M = _random_sparse(rng, rng.randint(1, 12), rng.randint(1, 10))
        want = rank_fraction(M.rows, M.n_cols)
        assert rank_exact(M, seed=trial) == want
        assert rank_bareiss(M) == want


def test_two_prime_agreement_across_suite():
    ps = [p for _, p in zip(range(3), prime_stream(123))]
    for n, k in [(4, 0), (5, 0), (5, 1), (6, 1), (6, 2)]:
        M = _relation_matrix(n, k)
        ranks = {rank_mod_p(M, p) for p in ps}
        assert len(ranks) == 1


def test_bareiss_agrees_on_relation_matrices():
    for n, k in [(4, 0), (5, 0), (5, 1), (6, 2)]:
        M = _relation_matrix(n, k)
        assert rank_bareiss(M) == rank_exact(M)


def test_quotient_basis_and_reduce():
    p = next(iter(prime_stream(0)))
    M = _relation_matrix(4, 0)
    qb = quotient_basis(M.rows, M.n_cols, p)
    assert qb.rank == 2 and qb.dim == 1
    # a relation row reduces to zero
    assert qb.quotient_reduce(M.rows[0]) == [0]
    # a free-column unit vector is its own coordinate
    f = qb.free_cols[0]
    assert qb.quotient_reduce({f: 1}) == [1]
    # e_(12|34) - e_(13|24) is a relation row
    trees = enumerate_strata(4, 0)
    idx = {t: i for i, t in enumerate(trees)}
    from strata_lab.trees import MarkedTree

    d = {
        idx[MarkedTree.from_sides(4, [(3, 4)])]: 1,
        idx[MarkedTree.from_sides(4, [(2, 4)])]: -1,
    }
    assert qb.quotient_reduce(d) == [0]


def test_quotient_reduce_rejects_out_of_range():
    p = next(iter(prime_stream(0)))
    qb = quotient_basis([{0: 1, 1: -1}], 2, p)
    with pytest.raises(ValueError):
        qb.quotient_reduce({5: 1})


def test_matrix_row_count_checked():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 3, [{0: 1}])


def test_unique_rows_sign_normalization():
    rows = [{0: 1, 1: -1}, {0: -1, 1: 1}, {0: 1, 1: -1}, {2: 3}]
    assert unique_rows(rows) == [{0: 1, 1: -1}, {2: 3}]


def test_lift_symmetric():
    p = 101
    assert lift_symmetric(100, p) == -1
    assert lift_symmetric(5, p) == 5
    assert lift_symmetric(-3 % p, p) == -3
