import itertools
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longrun import (
    alternative,
    asymptotic,
    brute_oracle,
    compositions_bounded,
    conditional_counts,
    enumerate_joint,
    exact_null,
    plus_run_counts,
    published,
    snk_dp,
    snk_proposition1,
)
from longrun.conditional_counts import bounded_runs, counts_by_ones
from longrun.published import _special_correction


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n + 2))))
    @example((0, 1))
    @example((0, 2))
    @example((1, 1))
    @example((1, 2))
    @example((1, 3))
    @example((2, 1))
    @example((300, 299))
    @example((300, 300))
    @example((300, 301))
    @example((299, 149))
    @example((299, 150))
    def test_window_recurrence_equals_kernel(self, case):
        n, x = case
        # one string per first sign, except the empty string, counted once
        assert compositions_bounded(n, x) == (bounded_runs(n, x, x) // 2 if n else 1)

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
    # a digit is n // 8 + 1 bytes: one at n = 7, two at n = 8
    @example(n=7, x1=2, x0=3)
    @example(n=7, x1=7, x0=1)
    @example(n=8, x1=3, x0=2)
    @example(n=8, x1=1, x0=8)
    # a bound of n/2 or more: its window keeps a few of the values it makes, or none
    @example(n=13, x1=12, x0=12)
    @example(n=13, x1=7, x0=7)
    @example(n=14, x1=7, x0=13)
    @example(n=12, x1=11, x0=2)
    def test_against_enumeration(self, n, x1, x0):
        by_k = enumerate_bounded_runs(n, x1, x0)
        assert bounded_runs(n, x1, x0) == sum(by_k)
        assert counts_by_ones(n, x1, x0) == by_k

    @pytest.mark.parametrize("n", [7, 8, 15, 16, 64, 200, 255, 256, 400])
    def test_packing_width_holds_binomials(self, n):
        # C(n, n/2) is the widest count; a digit of n // 8 + 1 bytes widens at each multiple of 8
        binomials = tuple(comb(n, k) for k in range(n + 1))
        assert snk_dp(n, n).counts == binomials
        assert plus_run_counts(n, n).counts == binomials

    def test_window_keeps_only_the_values_read(self):
        # every value stayed x + 1 steps, each up to about m (n + 1) bits: a 135 MB peak here
        tracemalloc.start()
        try:
            table = snk_dp.__wrapped__(1000, 999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert table.counts == (0, *(comb(1000, k) for k in range(1, 1000)), 0)

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

    def test_report_flags_counts_that_differ_from_dp(self, monkeypatch):
        published._prop1_rows.cache_clear()
        monkeypatch.setattr(published, "_special_correction", lambda n, k, x: 0)
        try:
            table, report = snk_proposition1(5, 1)
            assert table.counts != snk_dp(5, 1).counts
            assert not report.clean
            assert {"n": 5, "x": 1, "k": 2, "published": 0, "kernel": 1} in report.mismatches
        finally:
            published._prop1_rows.cache_clear()

    def test_correction_set_symmetric(self):
        # the +-1 special points are closed under the flip k -> n-k
        for x in range(1, 5):
            for n in range(1, 40):
                for k in range(n + 1):
                    if n - k > x and k > x:
                        assert _special_correction(n, k, x) == _special_correction(
                            n, n - k, x
                        )


def test_engine_caches_are_bounded():
    cached = (
        exact_null.null_table_by_counting,
        published._riordan_pmf,
        conditional_counts.snk_dp,
        published._prop1_rows,
        asymptotic.plus_run_counts,
        brute_oracle.enumerate_joint,
        alternative.rejected_counts,
    )
    for fn in cached:
        assert fn.cache_info().maxsize == exact_null.CACHE_SIZE
