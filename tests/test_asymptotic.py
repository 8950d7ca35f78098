from fractions import Fraction
from math import comb

import mpmath
import pytest

from longrun import (
    AlternativeSpec,
    alt_cdf,
    convergence_report,
    enumerate_joint,
    plus_run_cdf,
    plus_run_counts,
)

F = Fraction


class TestPlusRunCounts:
    def test_nonadjacent_ones(self):
        assert plus_run_counts(4, 1).counts[2] == 3

    def test_vacuous(self):
        assert plus_run_counts(4, 4).counts[2] == 6

    @pytest.mark.parametrize("n, x, message", [
        (0, 1, "n must be >= 1"), (-2, 1, "n must be >= 1"), (4, -1, "x must be >= 0"),
    ])
    def test_refuses_n_below_1_and_negative_x(self, n, x, message):
        with pytest.raises(ValueError, match=message):
            plus_run_counts(n, x)

    def test_no_ones_allowed(self):
        t = plus_run_counts(3, 0)
        assert t.counts[0] == 1
        assert all(t.counts[k] == 0 for k in range(1, 4))

    def test_small_k_unconstrained(self):
        for n in range(1, 12):
            for x in range(n + 1):
                t = plus_run_counts(n, x)
                for k in range(min(x, n) + 1):
                    assert t.counts[k] == comb(n, k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_enumeration(self, n):
        joint = enumerate_joint(n)
        for x in range(n + 1):
            t = plus_run_counts(n, x)
            for k in range(n + 1):
                assert t.counts[k] == joint.count_plus_run_at_most(k, x)


class TestPlusRunCdf:
    def test_certain_event(self):
        for p in ("0.3", "0.8"):
            assert plus_run_cdf(4, 4, p) == 1

    def test_fair_n4_k1(self):
        # 8 of 16 sequences have no two adjacent ones
        assert plus_run_cdf(4, 1, F(1, 2)) == F(1, 2)

    def test_n2_k1_p07(self):
        # only the sequence 11 violates the bound
        assert plus_run_cdf(2, 1, "0.7") == 1 - F(49, 100)

    @pytest.mark.parametrize("p", [1.5, "3/2", F(3, 2), 1, 0, "-0.1", mpmath.mpf(1)])
    def test_rejects_p_outside_unit_interval(self, p):
        # 1.5 used to give -8291/1024
        with pytest.raises(ValueError):
            plus_run_cdf(10, 3, p)

    @pytest.mark.parametrize("k", [-1, 11])
    def test_rejects_k_outside_0_to_n(self, k):
        with pytest.raises(ValueError, match="k must lie in 0..n"):
            plus_run_cdf(10, k, "0.7")

    def test_dominates_two_sided(self):
        for n in range(1, 13):
            for p in (F(3, 5), F(4, 5)):
                spec = AlternativeSpec(p=p)
                for k in range(n + 1):
                    assert plus_run_cdf(n, k, p) >= alt_cdf(n, k, spec)


class TestConvergenceReport:
    def test_rejects_fair_p(self):
        with pytest.raises(ValueError):
            convergence_report(3, F(1, 2), [10, 20])

    @pytest.mark.parametrize("p", ["3/2", "1", "0"])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            convergence_report(3, p, [8, 16])

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            convergence_report(-1, "0.7", [4])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            convergence_report(3, "0.7", [])

    def test_k_at_n_gives_zero_diff(self):
        r = convergence_report(10, "0.7", [8, 10])
        assert all(d == 0 for _, d in r.entries)

    def test_monotone_small_grid(self):
        r = convergence_report(3, "0.7", [10, 20, 40])
        assert r.monotone_decreasing
        assert r.shrink_factor > 1

    def test_low_p_uses_flip_symmetry(self):
        a = convergence_report(4, "0.3", [12, 24])
        b = convergence_report(4, "0.7", [12, 24])
        assert [d for _, d in a.entries] == [d for _, d in b.entries]

    @pytest.mark.parametrize("p", ["0.7", "0.3"])
    def test_mpf_p_keeps_digits(self, p):
        with mpmath.workdps(50):
            p_mpf = mpmath.mpf(p)
        man, exp = p_mpf.man_exp
        exact = convergence_report(5, F(man) * F(2) ** exp, [16, 64, 128])
        got = convergence_report(5, p_mpf, [16, 64, 128])
        for (_, d), (_, want) in zip(got.entries, exact.entries):
            assert abs(d - want) <= mpmath.mpf("1e-48") * want
