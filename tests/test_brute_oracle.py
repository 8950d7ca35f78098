from fractions import Fraction
from math import comb

import pytest

from longrun import enumerate_joint, oracle_null_pmf, oracle_snk
from longrun.brute_oracle import oracle_plus_counts
from longrun.errors import CapExceeded


def test_n1():
    t = enumerate_joint(1)
    assert t.counts == {(0, 1): 1, (1, 1): 1}


def test_n2_by_hand():
    # 00, 01, 10, 11
    t = enumerate_joint(2)
    assert t.counts == {(0, 2): 1, (1, 1): 2, (2, 2): 1}


def test_total_is_power_of_two():
    for n in range(1, 13):
        assert sum(enumerate_joint(n).counts.values()) == 2**n


def test_flip_symmetry():
    for n in range(1, 13):
        t = enumerate_joint(n)
        for (k, l), c in t.counts.items():
            assert t.counts[(n - k, l)] == c


def test_n4_mass_below_two():
    assert sum(oracle_snk(4, 2, k) for k in range(5)) == 10


def test_vacuous_bound():
    for n in range(1, 10):
        for k in range(n + 1):
            assert oracle_snk(n, n, k) == comb(n, k)
            assert oracle_plus_counts(n, n, k) == comb(n, k)


def test_null_pmf_n3():
    t = oracle_null_pmf(3)
    assert t.as_dict() == {1: Fraction(1, 4), 2: Fraction(1, 2), 3: Fraction(1, 4)}


def test_determinism():
    a = enumerate_joint(7)
    b = enumerate_joint(7)
    assert a.counts == b.counts and a.counts_plus == b.counts_plus


def test_cap():
    with pytest.raises(CapExceeded):
        enumerate_joint(25)


@pytest.mark.parametrize("n", [0, -1])
def test_n_below_1(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_joint(n)


def test_marginals():
    t = enumerate_joint(5)
    assert sum(t.marginal_k().values()) == 32
    assert t.marginal_k()[2] == comb(5, 2)
    assert sum(t.marginal_l().values()) == 32
