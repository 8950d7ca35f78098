from fractions import Fraction

import pytest

from longrun import (
    critical_value,
    null_table_by_counting,
    null_table_riordan,
    oracle_null_pmf,
    p_value,
    snk_dp,
)
from longrun.errors import ObservedOutOfRange
from longrun.exact_null import rejection_region

F = Fraction


class TestCountingEngine:
    def test_n3_enumerated(self):
        assert null_table_by_counting(3).as_dict() == {1: F(1, 4), 2: F(1, 2), 3: F(1, 4)}

    def test_n4_enumerated(self):
        assert null_table_by_counting(4).as_dict() == {
            1: F(1, 8), 2: F(1, 2), 3: F(1, 4), 4: F(1, 8)
        }

    def test_n5_enumerated(self):
        assert null_table_by_counting(5).as_dict() == {
            1: F(1, 16), 2: F(7, 16), 3: F(5, 16), 4: F(1, 8), 5: F(1, 16)
        }

    @pytest.mark.parametrize("n", range(1, 31))
    def test_boundary_masses(self, n):
        t = null_table_by_counting(n)
        assert t.p(1) == F(1, 2 ** (n - 1))
        if n >= 2:
            assert t.p(n) == F(1, 2 ** (n - 1))

    @pytest.mark.parametrize("n", range(1, 26))
    def test_pmf_is_a_distribution(self, n):
        t = null_table_by_counting(n)
        assert sum(t.pmf) == 1
        assert all(p >= 0 for p in t.pmf)
        assert t.cdf(n) == 1

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_enumeration(self, n):
        assert null_table_by_counting(n).pmf == oracle_null_pmf(n).pmf

    @pytest.mark.parametrize("n", range(1, 16))
    def test_consistent_with_conditional_counts(self, n):
        t = null_table_by_counting(n)
        for x in range(1, n + 1):
            total = sum(snk_dp(n, x).counts)
            assert F(total, 2**n) == t.cdf(x)


class TestRiordanEngine:
    def test_n2_base_case(self):
        t, _ = null_table_riordan(2)
        assert t.as_dict() == {1: F(1, 2), 2: F(1, 2)}

    def test_n5(self):
        t, _ = null_table_riordan(5)
        assert t.as_dict() == {
            1: F(1, 16), 2: F(7, 16), 3: F(5, 16), 4: F(1, 8), 5: F(1, 16)
        }

    def test_n10_k1(self):
        t, _ = null_table_riordan(10)
        assert t.p(1) == F(1, 512)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_agrees_with_counting(self, n):
        t, report = null_table_riordan(n)
        assert report.clean
        assert t.pmf == null_table_by_counting(n).pmf

    def test_report_documents_resolution(self):
        _, report = null_table_riordan(6)
        assert report.resolutions
        assert report.mismatches == ()

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            null_table_riordan(1)


class TestCriticalValue:
    def test_paper_convention_example(self):
        r = critical_value(5, F(1, 4), "paper")
        assert (r.c, r.attained_level) == (2, F(1, 2))

    def test_conservative_convention_example(self):
        r = critical_value(5, F(1, 4), "conservative")
        assert (r.c, r.attained_level) == (3, F(3, 16))

    def test_alpha_near_one(self):
        r = critical_value(8, F(999, 1000), "paper")
        assert r.c == 0
        assert r.attained_level == 1

    def test_tiny_alpha_conservative_degenerate(self):
        r = critical_value(4, F(1, 1000), "conservative")
        assert r.c == 4
        assert r.attained_level == 0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            critical_value(5, F(1))
        with pytest.raises(ValueError):
            critical_value(5, 0)

    def test_monotone_in_alpha(self):
        # paper convention: the threshold can only shrink as alpha grows
        alphas = [F(a, 100) for a in (1, 2, 5, 10, 25, 50)]
        for n in range(2, 21):
            for conv in ("paper", "conservative"):
                cs = [critical_value(n, a, conv).c for a in alphas]
                assert cs == sorted(cs, reverse=True)

    def test_conventions_bracket_alpha(self):
        for n in range(2, 21):
            for a in (F(1, 100), F(5, 100), F(1, 4)):
                assert critical_value(n, a, "paper").attained_level >= a
                assert critical_value(n, a, "conservative").attained_level <= a


class TestPValue:
    def test_examples(self):
        assert p_value(5, 4) == F(6, 32)
        assert p_value(5, 1) == 1
        assert p_value(4, 4) == F(1, 8)

    def test_bilateral_doubles_smaller_tail(self):
        # n=5, observed=5: upper tail 1/16, lower tail 1
        assert p_value(5, 5, "bilateral") == F(1, 8)

    def test_bilateral_capped_at_one(self):
        # n=6, observed=3: both tails exceed 1/2 after doubling
        assert p_value(6, 3, "bilateral") == 1

    def test_out_of_range(self):
        with pytest.raises(ObservedOutOfRange):
            p_value(5, 6)
        with pytest.raises(ObservedOutOfRange):
            p_value(5, 0)

    def test_unknown_tail(self):
        with pytest.raises(ValueError):
            p_value(5, 3, "both")


class TestRejectionRegion:
    @pytest.mark.parametrize("tail", ["unilateral", "bilateral"])
    @pytest.mark.parametrize("convention", ["paper", "conservative"])
    def test_size_is_null_mass_of_rejected_values(self, tail, convention):
        for n in (3, 8, 17, 30):
            for alpha in (F(1, 20), F(1, 4)):
                region = rejection_region(n, alpha, tail, convention)
                table = null_table_by_counting(n)
                rejected = sum((table.p(l) for l in range(1, n + 1) if region.rejects(l)), F(0))
                assert region.size == rejected

    def test_bilateral_cutoffs(self):
        region = rejection_region(20, F(1, 20), "bilateral")
        assert str(region) == "L < 2 or L > 8"
        assert {k: cv.c for k, cv in region.critical_values.items()} == {"c_lower": 2, "c_upper": 8}
        assert region.size == F(13295, 524288)

    def test_invalid_tail(self):
        with pytest.raises(ValueError):
            rejection_region(10, F(1, 20), "triple")
