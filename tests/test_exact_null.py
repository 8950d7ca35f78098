import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun import (
    compositions_bounded,
    critical_value,
    null_table_by_counting,
    null_table_riordan,
    oracle_null_pmf,
    p_value,
    snk_dp,
)
from longrun import exact_null
from longrun.conditional_counts import bounded_runs
from longrun.errors import ObservedOutOfRange
from longrun.exact_null import below, rejection_region

F = Fraction
CONVENTIONS = ("paper", "conservative")
# alphas whose float is 0 (1e-400) or 1 (1-1e-40) among them
ALPHAS = {"0.05": F(1, 20), "1_over_3": F(1, 3), "1e-40": F(1, 10**40),
          "1-1e-40": 1 - F(1, 10**40), "2^-200": F(1, 2**200), "1e-400": F(1, 10**400),
          "1e-30": F(1, 10**30), "1e-6": F(1, 10**6), "1e-3": F(1, 1000), "1_over_2": F(1, 2),
          "999_over_1000": F(999, 1000)}


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

    @pytest.mark.parametrize("n", [*range(1, 151), 333, 1000])
    def test_below_equals_kernel(self, n):
        below = tuple(bounded_runs(n, x, x) for x in range(n + 1))
        assert null_table_by_counting(n).below == below

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_cdf_and_sf_are_prefix_sums(self, n):
        t = null_table_by_counting(n)
        for k in range(-1, n + 2):
            assert t.cdf(k) == sum((t.p(j) for j in range(1, k + 1)), F(0))
            assert t.sf(k) == 1 - t.cdf(k)


def compositions_by_largest_part(n):
    """Compositions of n >= 1 by largest part, from all 2^(n-1) sets of cut points."""
    counts = [0] * (n + 1)
    joined = (1 << (n - 1)) - 1
    for cuts in range(1 << (n - 1)):
        v, longest = joined & ~cuts, 0  # bit i: places i+1 and i+2 in one part
        while v:
            v &= v >> 1
            longest += 1
        counts[longest + 1] += 1
    return counts


class TestClosedUpperHalf:
    """below[x] for x >= n/2 comes from a closed form, the rest from the window."""

    @pytest.mark.parametrize("first", range(1, 401, 50))
    def test_below_equals_window_count(self, first):
        for n in range(first, first + 50):
            window = (0, *(compositions_bounded(n, x) << 1 for x in range(1, n + 1)))
            assert null_table_by_counting(n).below == window, n

    @pytest.mark.parametrize("n", range(0, 21))
    def test_compositions_equal_enumeration(self, n):
        by_largest = compositions_by_largest_part(n) if n else [1]
        for x in range(1, n + 2):
            assert compositions_bounded(n, x) == sum(by_largest[: x + 1]), x


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

    @pytest.mark.parametrize("n", [*range(2, 151), 300])
    def test_below_equals_counting(self, n):
        assert null_table_riordan(n)[0].below == null_table_by_counting(n).below

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

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        alpha=st.fractions(F(1, 10**6), F(999999, 10**6), max_denominator=10**6),
    )
    def test_matches_definition(self, n, alpha):
        sf = null_table_by_counting(n).sf
        paper = max(c for c in range(n + 1) if sf(c) >= alpha)
        conservative = min(c for c in range(n + 1) if sf(c) <= alpha)
        assert critical_value(n, alpha, "paper").c == paper
        assert critical_value(n, alpha, "conservative").c == conservative

    @pytest.mark.parametrize("alpha", ALPHAS.values(), ids=ALPHAS.keys())
    def test_integer_cut_matches_fraction_definition(self, alpha):
        for n in range(1, 301):
            table = null_table_by_counting(n)
            sf = [table.sf(c) for c in range(n + 1)]

            def want(alpha):
                return {"paper": max(c for c in range(n + 1) if sf[c] >= alpha),
                        "conservative": min(c for c in range(n + 1) if sf[c] <= alpha)}

            lower, upper = want(1 - alpha / 2), want(alpha / 2)
            for convention, c in want(alpha).items():
                got = critical_value(n, alpha, convention)
                assert (got.c, got.attained_level) == (c, sf[c])
                region = rejection_region(n, alpha, "bilateral", convention)
                assert (region.lower.c, region.upper.c) == (lower[convention], upper[convention])
                assert region.size == table.cdf(region.lower.c - 1) + sf[region.upper.c]


def decision(n, alpha, convention):
    """(c, attained level) of ``critical_value``, and how many counts it took."""
    below.cache_clear()
    got = critical_value(n, alpha, convention)
    return (got.c, got.attained_level), below.cache_info().misses


class TestCountPath:
    """Critical values and regions from a few counts ``below(n, x)``, not the null table."""

    @pytest.mark.parametrize("first", range(1, 301, 50))
    def test_below_is_the_table_count(self, first):
        for n in range(first, first + 50):
            counts = null_table_by_counting(n).below
            assert [below(n, x) for x in range(-1, n + 2)] == [0, *counts, counts[-1]], n

    @pytest.mark.parametrize("n", range(1, 21))
    def test_equals_enumeration(self, n):
        pmf = oracle_null_pmf(n)
        sf = [pmf.sf(c) for c in range(n + 1)]
        for alpha in ALPHAS.values():
            for convention in CONVENTIONS:
                want = (max(c for c in range(n + 1) if sf[c] >= alpha) if convention == "paper"
                        else min(c for c in range(n + 1) if sf[c] <= alpha))
                assert critical_value(n, alpha, convention).c == want
                for tail in ("unilateral", "bilateral"):
                    region = rejection_region(n, alpha, tail, convention)
                    rejected = [l for l in range(1, n + 1) if region.rejects(l)]
                    assert region.size == sum(map(pmf.p, rejected), F(0))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 299, 1000, 10_000])
    def test_a_missed_guess_costs_log_n_counts(self, n, monkeypatch):
        for alpha in ALPHAS.values():
            for convention in CONVENTIONS:
                want, _ = decision(n, alpha, convention)
                for guess in (0, n - 1):
                    monkeypatch.setattr(exact_null, "_guess", lambda n, alpha: guess)
                    got, counts = decision(n, alpha, convention)
                    assert got == want
                    assert counts <= 2 * n.bit_length() + 2
                monkeypatch.undo()

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_the_guess_costs_two_counts_at_n_10_000(self, convention):
        for alpha in ALPHAS.values():
            assert decision(10_000, alpha, convention)[1] <= 2

    @pytest.mark.parametrize(("convention", "c"), [("paper", 19), ("conservative", 20)])
    def test_n_100_000(self, convention, c):
        assert critical_value(100_000, F(1, 20), convention).c == c

    # A trend check beside the exact values above, never in their place: the attained level
    # Pr(L_n > c) against the extreme-value law 1 - exp(-n 2^-(c+1)) of Gordon, Schilling &
    # Waterman (PTRF 72, 1986).  Measured: within 0.22 % at n = 10^4 and 0.025 % at 10^5.
    @pytest.mark.parametrize(("n", "tolerance"), [(10_000, 1e-2), (100_000, 1e-3)])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_attained_level_follows_the_extreme_value_law(self, n, tolerance, convention):
        for alpha in (F(1, 2), F(1, 20), F(1, 100), F(1, 1000)):
            cv = critical_value(n, alpha, convention)
            assert abs(cv.c - exact_null._guess(n, alpha)) <= 1
            law = -math.expm1(-n * 2.0 ** -(cv.c + 1))
            assert abs(cv.attained_level / law - 1) <= tolerance, (alpha, cv.c)


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
        for _ in range(2):  # an error is not cached: every call raises
            with pytest.raises(ValueError):
                rejection_region(10, F(1, 20), "triple")

    @pytest.mark.parametrize("tail", ["unilateral", "bilateral"])
    @pytest.mark.parametrize("alpha", [F(0), F(1), F(3, 2), F(199, 100), F(-1, 2)])
    def test_alpha_itself_must_lie_in_the_unit_interval(self, tail, alpha):
        # a bilateral alpha in [1, 2) has halves in (0, 1): its two tails overlapped
        for _ in range(2):  # an error is not cached: every call raises
            with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
                rejection_region(250, alpha, tail)

    def test_built_once_per_configuration(self):
        region = rejection_region(40, F(1, 20), "bilateral", "conservative")
        assert rejection_region(40, F(1, 20), "bilateral", "conservative") is region

    @pytest.mark.parametrize("alpha", [F(1, 20), Decimal("0.05"), "1/20", "0.05", 0.05, 0.25])
    def test_any_alpha_gives_the_region_of_its_fraction(self, alpha):
        region = rejection_region(30, alpha, "bilateral")
        assert region == rejection_region.__wrapped__(30, F(alpha), "bilateral")
        assert region.upper.alpha == F(alpha) / 2

    def test_float_alpha_is_its_own_key(self):
        # 0.05 is not 1/20 as a float, so it neither shares nor evicts 1/20's entry
        exact, rounded = rejection_region(50, F(1, 20)), rejection_region(50, 0.05)
        assert exact.upper.alpha == F(1, 20) != rounded.upper.alpha == F(0.05)
        assert rejection_region(50, F(1, 20)) is exact and rejection_region(50, 0.05) is rounded
