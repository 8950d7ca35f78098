import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun import (
    compositions_bounded,
    enumerate_joint,
    plus_run_counts,
    snk_dp,
    snk_proposition1,
)
from longrun.conditional_counts import _special_correction, bounded_runs, counts_by_ones


def brute_compositions(n, x):
    """List-and-count oracle for bounded compositions."""
    if n == 0:
        return 1
    total = 0
    for parts in range(1, n + 1):
        for combo in itertools.product(range(1, x + 1), repeat=parts):
            if sum(combo) == n:
                total += 1
    return total


class TestCompositions:
    def test_examples(self):
        assert compositions_bounded(5, 2) == 8
        assert compositions_bounded(5, 3) == 13
        assert compositions_bounded(0, 7) == 1

    @pytest.mark.parametrize("x", [1, 2, 3, 4])
    def test_against_listing(self, x):
        for n in range(0, 9):
            assert compositions_bounded(n, x) == brute_compositions(n, x)

    def test_invalid(self):
        with pytest.raises(ValueError):
            compositions_bounded(3, 0)
        with pytest.raises(ValueError):
            compositions_bounded(-1, 2)


def enumerate_bounded_runs(n, x1, x0):
    """Counts by number of ones of all 2^n strings with ones-runs <= x1, zero-runs <= x0."""
    counts = [0] * (n + 1)
    for bits in itertools.product("01", repeat=n):
        s = "".join(bits)
        if "1" * (x1 + 1) not in s and "0" * (x0 + 1) not in s:
            counts[s.count("1")] += 1
    return tuple(counts)


class TestBoundedRuns:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 14),
        x1=st.integers(0, 16),
        x0=st.integers(0, 16),
    )
    def test_against_enumeration(self, n, x1, x0):
        by_k = enumerate_bounded_runs(n, x1, x0)
        assert bounded_runs(n, x1, x0) == sum(by_k)
        assert counts_by_ones(n, x1, x0) == by_k

    @pytest.mark.parametrize("n", [64, 200, 400])
    def test_packing_width_holds_binomials(self, n):
        binomials = tuple(comb(n, k) for k in range(n + 1))
        assert snk_dp(n, n).counts == binomials
        assert plus_run_counts(n, n).counts == binomials

    def test_invalid(self):
        with pytest.raises(ValueError):
            bounded_runs(-1, 2, 2)
        with pytest.raises(ValueError):
            bounded_runs(3, -1, 2)


class TestSnkDp:
    def test_n4_x2(self):
        assert snk_dp(4, 2).counts == (0, 2, 6, 2, 0)

    def test_n5_k2_x2(self):
        assert snk_dp(5, 2).counts[2] == 7

    def test_vacuous_bound_gives_binomials(self):
        for n in range(1, 10):
            t = snk_dp(n, n)
            assert t.counts == tuple(comb(n, k) for k in range(n + 1))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_enumeration(self, n):
        joint = enumerate_joint(n)
        for x in range(1, n + 1):
            t = snk_dp(n, x)
            for k in range(n + 1):
                assert t.counts[k] == joint.count_max_run_at_most(k, x)

    def test_symmetry_and_bounds(self):
        for n in range(1, 16):
            for x in range(1, n + 1):
                t = snk_dp(n, x)
                for k in range(n + 1):
                    assert t.counts[k] == t.counts[n - k]
                    assert t.counts[k] <= comb(n, k)

    def test_normalization(self):
        for n in range(1, 16):
            for x in range(1, n + 1):
                assert snk_dp(n, x).total == 2 * compositions_bounded(n, x)

    def test_monotone_in_x(self):
        for n in range(1, 14):
            for k in range(n + 1):
                prev = 0
                for x in range(1, n + 1):
                    cur = snk_dp(n, x).counts[k]
                    assert cur >= prev
                    prev = cur

    def test_invalid(self):
        with pytest.raises(ValueError):
            snk_dp(0, 2)
        with pytest.raises(ValueError):
            snk_dp(4, 0)


class TestProposition1:
    def test_case1_binomial(self):
        t, _ = snk_proposition1(4, 4)
        assert t.counts[2] == 6

    def test_case1_inside_bound(self):
        t, _ = snk_proposition1(4, 2)
        assert t.counts[2] == 6

    def test_case3_example(self):
        t, _ = snk_proposition1(5, 2)
        assert t.counts[2] == 7

    def test_all_negative_run_too_long(self):
        t, _ = snk_proposition1(3, 2)
        assert t.counts[0] == 0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_agrees_with_dp(self, n):
        for x in range(1, n + 1):
            table, report = snk_proposition1(n, x)
            assert report.clean
            assert table.counts == snk_dp(n, x).counts

    @pytest.mark.parametrize("n", [31, 44, 60])
    def test_agrees_with_dp_beyond_grid(self, n):
        for x in (2, 3, 5, 8, n // 2, n):
            table, report = snk_proposition1(n, x)
            assert report.clean
            assert table.counts == snk_dp(n, x).counts

    def test_report_lists_corrected_cases(self):
        _, report = snk_proposition1(6, 2)
        locations = {r.location for r in report.resolutions}
        assert "case 2 (n-k <= x, k > x)" in locations
        assert "case 3 (n-k > x, k <= x)" in locations
        assert "case 4 special points" in locations

    def test_correction_set_symmetric(self):
        # the +-1 special points are closed under the flip k -> n-k
        for x in range(1, 5):
            for n in range(1, 40):
                for k in range(n + 1):
                    if n - k > x and k > x:
                        assert _special_correction(n, k, x) == _special_correction(
                            n, n - k, x
                        )
