import pytest
from oracles import keel_betti

from strata_lab.conjecture import betti_formula, q_dim_formula
from strata_lab.psets import cardinality_p1, cardinality_p2
from strata_lab.trees import DomainError


def test_formula_examples():
    assert q_dim_formula(6, 2, 2) == 10
    assert q_dim_formula(7, 2, 1) == 22
    assert q_dim_formula(7, 2, 2) == 105
    assert q_dim_formula(8, 2, 1) == 64
    assert q_dim_formula(8, 2, 2) == 651
    assert q_dim_formula(8, 2, 1) + q_dim_formula(8, 2, 2) == 715


def test_betti_formula_examples():
    assert betti_formula(6, 2) == 16
    assert betti_formula(7, 3) == 42
    assert betti_formula(7, 2) == 127
    assert betti_formula(4, 0) == 1
    assert betti_formula(5, 2) == 1


def test_formula_domain_errors():
    with pytest.raises(DomainError):
        q_dim_formula(6, 2, 3)
    with pytest.raises(DomainError):
        q_dim_formula(6, 2, 0)
    with pytest.raises(DomainError):
        betti_formula(6, 4)


def test_level1_matches_subset_count_to_n12():
    for n in range(4, 13):
        for k in range(1, n - 2):
            if min(k, n - 2 - k) >= 1:
                assert q_dim_formula(n, k, 1) == cardinality_p1(n, k)


def test_level2_matches_pair_count_to_n12():
    for n in range(6, 13):
        for k in range(2, n - 2):
            if min(k, n - 2 - k) >= 2:
                assert q_dim_formula(n, k, 2) == cardinality_p2(n, k)


def test_betti_formula_matches_keel_recursion_to_n16():
    for n in range(4, 17):
        assert tuple(betti_formula(n, k) for k in range(n - 2)) == keel_betti(n)


def test_betti_formula_palindromic_to_n12():
    for n in range(4, 13):
        vals = [betti_formula(n, k) for k in range(n - 2)]
        assert vals == vals[::-1]


def test_values_are_nonnegative_big_integers():
    v = betti_formula(16, 6)
    assert isinstance(v, int) and v > 0
    # spot totals stay palindromic out at n = 16
    assert betti_formula(16, 6) == betti_formula(16, 16 - 3 - 6)
