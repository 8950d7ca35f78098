import math
import random
import re
from fractions import Fraction
from math import comb

import mpmath
import pytest
from mpmath.libmp import dps_to_prec
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longrun import (
    AlternativeSpec,
    alt_cdf,
    attained_size,
    enumerate_joint,
    null_table_by_counting,
    p_from_gaussian_shift,
    power,
)
from longrun import alternative, exact_null
from longrun.alternative import TAIL_BITS, counts_at_most, mixture, pow_down, rejected_counts
from longrun.conditional_counts import snk_dp
from longrun.exact_null import rejection_region

F = Fraction

TAILS = ("unilateral", "bilateral")
CONVENTIONS = ("paper", "conservative")
rational_p = st.fractions(F(1, 50), F(49, 50), max_denominator=60)
alphas = st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000)


def dyadic(x: mpmath.mpf) -> Fraction:
    """The exact rational value of an mpf."""
    man, exp = x.man_exp
    return F(man) * F(2) ** exp


def shaped_counts(n: int, shape: str, seed: int):
    """A length-(n + 1) count vector: synthetic, or as longrun builds it."""
    rng = random.Random(seed)
    counts = [0] * (n + 1)
    if shape == "random":
        counts = [rng.getrandbits(rng.randint(0, n)) for _ in counts]
    elif shape == "at most 4":
        counts = counts_at_most(n, 4) if n else counts
    elif shape in TAILS:
        counts = rejected_counts(n, F(1, 20), shape, "paper")[1] if n else counts
    elif shape != "zeros":
        counts[0 if shape == "first" else n] = rng.getrandbits(n) + 1
    return counts


def assert_mpf_within_50_digits(counts, p: mpmath.mpf):
    """The mpf mixture is within 1e-50, relative, of the exact mixture at p's dyadic value."""
    got, want = mixture(counts, p), mixture(counts, dyadic(p))
    assert isinstance(got, mpmath.mpf)
    assert abs(dyadic(got) - want) <= want * F(1, 10**50)


def enumerated(n, p, event):
    """Pr(event(k, l)) summed over all 2^n strings; k ones, longest run l."""
    joint = enumerate_joint(n)
    return sum(
        (c * p**k * (1 - p) ** (n - k) for (k, l), c in joint.counts.items() if event(k, l)),
        F(0),
    )


class TestAlternativeSpec:
    def test_direct_decimal_string_is_exact(self):
        assert AlternativeSpec.direct("0.7").p == F(7, 10)

    def test_p_bounds(self):
        with pytest.raises(ValueError):
            AlternativeSpec.direct(F(0))
        with pytest.raises(ValueError):
            AlternativeSpec.direct(F(1))
        for p in (F(3, 2), mpmath.mpf(1), mpmath.mpf(-0.5), mpmath.mpf("nan")):
            with pytest.raises(ValueError):
                AlternativeSpec(p=p)

    def test_gaussian_shift_carries_parameters(self):
        spec = AlternativeSpec.gaussian_shift(0.5, 2.0)
        assert (spec.shift, spec.sigma) == (0.5, 2.0)

    @pytest.mark.parametrize("build, want", [
        (lambda: AlternativeSpec("7/10"), F(7, 10)),
        (lambda: AlternativeSpec(0.7), F(0.7)),
        (lambda: AlternativeSpec.direct("0.6")._replace(p="3/10"), F(3, 10)),
    ], ids=["str", "float", "replace"])
    def test_p_is_stored_as_the_exact_rational(self, build, want):
        spec = build()
        assert type(spec.p) is Fraction and spec.p == want
        got = power(6, F(1, 4), "unilateral", "paper", spec).power
        assert got == power(6, F(1, 4), "unilateral", "paper", AlternativeSpec(want)).power


class TestGaussianSpecMemo:
    @pytest.fixture
    def phi_calls(self, monkeypatch):
        """The (c, sigma) of every p_from_gaussian_shift call, on an emptied memo."""
        calls = []

        def counted(c, sigma):
            calls.append((c, sigma))
            return p_from_gaussian_shift(c, sigma)

        alternative._gaussian_spec.cache_clear()
        monkeypatch.setattr(alternative, "p_from_gaussian_shift", counted)
        yield calls
        alternative._gaussian_spec.cache_clear()

    def test_phi_runs_once_per_shift_across_a_curve(self, phi_calls):
        shifts = (-0.6, -0.3, 0.0, 0.3, 0.6)
        for n in (60, 120, 180, 250):  # n-major, as a power study sweeps its curves
            for tail in TAILS:
                for c in shifts:
                    power(n, F(1, 20), tail, "paper", AlternativeSpec.gaussian_shift(c, 1.0))
        assert sorted(phi_calls) == sorted((c, 1.0) for c in shifts)

    def test_equal_floats_return_the_same_spec(self, phi_calls):
        spec = AlternativeSpec.gaussian_shift(0.3, 1.0)
        assert AlternativeSpec.gaussian_shift(0.3, 1) is spec
        assert AlternativeSpec.gaussian_shift("0.3", "1") is spec
        assert AlternativeSpec.gaussian_shift(F(3, 10), 1.0) is spec
        assert phi_calls == [(0.3, 1.0)]

    def test_p_comes_from_the_recorded_floats(self, phi_calls):
        from_str = AlternativeSpec.gaussian_shift("0.3", 1.0)
        alternative._gaussian_spec.cache_clear()
        from_float = AlternativeSpec.gaussian_shift(0.3, 1.0)
        assert from_str is not from_float and from_str == from_float
        assert from_str.p._mpf_ == p_from_gaussian_shift(0.3, 1.0)._mpf_
        # the 169-bit decimal 0.3 is not the float 0.3
        assert p_from_gaussian_shift("0.3", 1.0) != from_float.p

    def test_spec_does_not_depend_on_the_caller_precision(self, phi_calls):
        with mpmath.workdps(15):
            low = AlternativeSpec.gaussian_shift(0.3, 1.0)
        alternative._gaussian_spec.cache_clear()
        with mpmath.workdps(80):
            high = AlternativeSpec.gaussian_shift(0.3, 1.0)
        assert low is not high and low.p._mpf_ == high.p._mpf_ and low == high

    @pytest.mark.parametrize("c, message", [(1e300, "strictly between"), (-1e300, "c/sigma")])
    def test_refusals_are_not_kept(self, phi_calls, c, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                AlternativeSpec.gaussian_shift(c, 1.0)
        assert phi_calls == [(c, 1.0)] * 2
        assert alternative._gaussian_spec.cache_info().currsize == 0

    def test_memo_is_bounded(self):
        assert alternative._gaussian_spec.cache_info().maxsize == exact_null.CACHE_SIZE

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_minus_zero_is_recorded_as_zero_whatever_came_first(self, phi_calls, first):
        specs = [AlternativeSpec.gaussian_shift(c, 1.0) for c in (first, -first)]
        assert specs[0] is specs[1]
        assert math.copysign(1.0, specs[0].shift) == 1.0
        assert phi_calls == [(0.0, 1.0)]


class TestAltCdf:
    @pytest.mark.parametrize("n, x", [(0, 0), (-1, 0), (4, -1), (4, 5)])
    def test_refuses_n_below_1_and_x_outside_0_to_n(self, n, x):
        with pytest.raises(ValueError, match="n must be >= 1" if n < 1 else "x must lie in 0..n"):
            alt_cdf(n, x, AlternativeSpec.direct("0.6"))

    def test_fair_p_matches_null(self):
        assert alt_cdf(4, 2, AlternativeSpec.direct(F(1, 2))) == F(10, 16)

    def test_p07_exact(self):
        # counts {0,2,6,2,0}: 2*0.7*0.3^3 + 6*0.49*0.09 + 2*0.343*0.3
        assert alt_cdf(4, 2, AlternativeSpec.direct("0.7")) == F(5082, 10000)

    def test_full_support(self):
        for p in (F(1, 3), F(9, 10)):
            assert alt_cdf(4, 4, AlternativeSpec(p=p)) == 1
            assert alt_cdf(4, 0, AlternativeSpec(p=p)) == 0

    @pytest.mark.parametrize("n", range(1, 16))
    def test_reduces_to_null(self, n):
        spec = AlternativeSpec.direct(F(1, 2))
        table = null_table_by_counting(n)
        for x in range(n + 1):
            assert alt_cdf(n, x, spec) == table.cdf(x)

    def test_symmetry_in_p(self):
        for n in range(1, 13):
            for num in (1, 2, 3):
                a, b = AlternativeSpec(p=F(num, 7)), AlternativeSpec(p=F(7 - num, 7))
                for x in range(n + 1):
                    assert alt_cdf(n, x, a) == alt_cdf(n, x, b)

    def test_monotone_in_x(self):
        spec = AlternativeSpec.direct("0.6")
        for n in range(1, 13):
            vals = [alt_cdf(n, x, spec) for x in range(n + 1)]
            assert vals == sorted(vals)
            assert vals[-1] == 1

    def test_mpf_path_matches_rational_path(self):
        with mpmath.workdps(50):
            spec_f = AlternativeSpec(p=mpmath.mpf("0.7"))
        exact = alt_cdf(6, 3, AlternativeSpec.direct("0.7"))
        approx = alt_cdf(6, 3, spec_f)
        assert abs(float(exact) - float(approx)) < 1e-12


class TestPower:
    def test_fair_p_equals_attained_size(self):
        r = power(5, F(1, 4), "unilateral", "paper", AlternativeSpec.direct(F(1, 2)))
        assert r.power == F(1, 2)
        assert r.power == attained_size(5, F(1, 4), "unilateral", "paper")

    def test_extreme_p_near_one(self):
        r = power(5, F(1, 4), "unilateral", "paper", AlternativeSpec(p=F(999, 1000)))
        assert r.power > F(99, 100)

    def test_complements_alt_cdf(self):
        # alpha chosen so the cutoff is 2; power = 1 - Pr(L_4 <= 2)
        r = power(4, F(3, 8), "unilateral", "paper", AlternativeSpec.direct("0.7"))
        assert r.critical_region == "L > 2"
        assert r.power == 1 - F(5082, 10000)

    def test_symmetric_in_p(self):
        for n in (5, 9, 14):
            for num in (6, 7, 9):
                a = power(n, F(1, 10), "unilateral", "paper", AlternativeSpec(p=F(num, 10)))
                b = power(n, F(1, 10), "unilateral", "paper",
                          AlternativeSpec(p=F(10 - num, 10)))
                assert a.power == b.power

    def test_unilateral_power_grows_away_from_half(self):
        for n in (8, 12, 16, 20):
            ps = [F(p, 100) for p in range(50, 100, 5)]
            vals = [
                power(n, F(1, 10), "unilateral", "paper", AlternativeSpec(p=p)).power
                for p in ps
            ]
            assert vals == sorted(vals)

    def test_bilateral_power_at_null(self):
        for n in (6, 10, 15):
            r = power(n, F(1, 5), "bilateral", "paper", AlternativeSpec.direct(F(1, 2)))
            assert r.power == attained_size(n, F(1, 5), "bilateral", "paper")

    @pytest.mark.parametrize("tail", ["unilateral", "bilateral"])
    def test_gaussian_power_keeps_digits_at_default_precision(self, tail):
        spec = AlternativeSpec.gaussian_shift(0.3, 1.0)
        with mpmath.workdps(15):
            low = power(120, F(1, 20), tail, "paper", spec).power
        with mpmath.workdps(60):
            high = power(120, F(1, 20), tail, "paper", spec).power
            assert abs(low - high) <= mpmath.mpf("1e-45") * high

    def test_builds_no_null_table(self):
        for cache in (null_table_by_counting, rejection_region, rejected_counts):
            cache.cache_clear()
        for spec in (AlternativeSpec.direct("0.6"), AlternativeSpec.gaussian_shift(0.3, 1.0)):
            for tail in TAILS:
                for convention in CONVENTIONS:
                    power(97, F(1, 20), tail, convention, spec)
                    attained_size(97, F(1, 3), tail, convention)
        assert null_table_by_counting.cache_info().misses == 0

    def test_a_fraction_alpha_is_kept_as_given(self):
        alpha, spec = F(1, 20), AlternativeSpec.gaussian_shift(0.3, 1.0)
        assert power(60, alpha, "unilateral", "paper", spec).alpha is alpha
        for given in ("1/20", "0.05", 0.05):  # converted as before: the float is not 1/20
            got = power(60, given, "unilateral", "paper", spec)
            assert got == power(60, F(given), "unilateral", "paper", spec)
            assert type(got.alpha) is F and got.alpha == F(given)

    def test_invalid_config(self):
        spec = AlternativeSpec.direct("0.6")
        with pytest.raises(ValueError):
            power(5, F(1, 4), "triple", "paper", spec)
        with pytest.raises(ValueError):
            power(5, F(1, 4), "unilateral", "classic", spec)


class TestAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), p=rational_p, data=st.data())
    def test_mixture_and_alt_cdf(self, n, p, data):
        x = data.draw(st.integers(0, n))
        counts = [0] * (n + 1)
        for (k, l), c in enumerate_joint(n).counts.items():
            counts[k] += c if l <= x else 0
        want = enumerated(n, p, lambda k, l: l <= x)
        assert mixture(counts, p) == want
        assert alt_cdf(n, x, AlternativeSpec(p=p)) == want

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 14),
        p=rational_p,
        alpha=alphas,
        tail=st.sampled_from(TAILS),
        convention=st.sampled_from(CONVENTIONS),
    )
    def test_power(self, n, p, alpha, tail, convention):
        region = rejection_region(n, alpha, tail, convention)
        got = power(n, alpha, tail, convention, AlternativeSpec(p=p)).power
        assert got == enumerated(n, p, lambda k, l: region.rejects(l))


class TestMixture:
    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(0, 2**80), min_size=1, max_size=60), p=rational_p)
    def test_fraction_branch_is_the_direct_sum(self, counts, p):
        n, a, b = len(counts) - 1, p.numerator, p.denominator
        want = F(sum(c * a**k * (b - a) ** (n - k) for k, c in enumerate(counts)), b**n)
        got = mixture(counts, p)
        assert type(got) is Fraction and got == want

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 600),
        # drawn: the four synthetic shapes; the count shapes of longrun come from examples
        # and from test_mpf_branch_at_a_gaussian_shift
        shape=st.sampled_from(("random", "first", "last", "zeros")),
        seed=st.integers(0, 2**32),
        log_d=st.floats(-80, math.log10(0.5)),  # log10 of the distance of p from 0 or from 1
        near_one=st.booleans(),
        prec=st.sampled_from((53, 166, 400)),  # 400: more bits than the mixture works at
        shift=st.none(),  # examples only: p = Phi(shift) as a Gaussian shift gives it
    )
    @example(n=1200, shape="random", seed=1, log_d=-0.4, near_one=False, prec=166, shift=None)
    @example(n=1200, shape="random", seed=2, log_d=-30.0, near_one=True, prec=166, shift=None)
    @example(n=1200, shape="last", seed=3, log_d=-30.0, near_one=False, prec=53, shift=None)
    @example(n=400, shape="random", seed=4, log_d=-80.0, near_one=False, prec=166, shift=None)
    @example(n=300, shape="last", seed=5, log_d=-80.0, near_one=False, prec=53, shift=None)
    @example(n=300, shape="first", seed=6, log_d=-60.0, near_one=True, prec=400, shift=None)
    # alt-power's own inputs: the rejected counts of both tails at n = 250, p = Phi(+-0.3)
    @example(n=250, shape="unilateral", seed=0, log_d=0.0, near_one=False, prec=53, shift=0.3)
    @example(n=250, shape="unilateral", seed=0, log_d=0.0, near_one=False, prec=53, shift=-0.3)
    @example(n=250, shape="bilateral", seed=0, log_d=0.0, near_one=False, prec=53, shift=0.3)
    @example(n=250, shape="bilateral", seed=0, log_d=0.0, near_one=False, prec=53, shift=-0.3)
    # leading zeros (the first nonzero count is past k = 0, and past k = n read by zeros),
    # at a p below 2^-1000 and at a p within 1e-20 of 1
    @example(n=250, shape="at most 4", seed=0, log_d=-310.0, near_one=False, prec=53, shift=None)
    @example(n=250, shape="at most 4", seed=0, log_d=-20.0, near_one=True, prec=166, shift=None)
    def test_mpf_branch_within_50_digits(self, n, shape, seed, log_d, near_one, prec, shift):
        with mpmath.workprec(prec):
            if shift is not None:
                p = p_from_gaussian_shift(shift, 1.0)
            elif near_one:  # 1 - d rounds to 1 once d < 2^-prec
                p = 1 - mpmath.mpf(10) ** max(log_d, 1 - 0.3 * prec)
            else:  # below 1e-55 (2^-183) the mixture cuts 1 - p to its working bits
                p = mpmath.mpf(10) ** log_d
        assert_mpf_within_50_digits(shaped_counts(n, shape, seed), p)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 600),
        shape=st.sampled_from(("at most 4", "unilateral", "bilateral")),
        shift=st.floats(-10, 10),  # past |shift| ~ 4, r = min(p, 1 - p) / max(p, 1 - p) < 2^-15
    )
    @example(n=1000, shape="unilateral", shift=-0.3)
    @example(n=1000, shape="bilateral", shift=8.0)
    def test_mpf_branch_at_a_gaussian_shift(self, n, shape, shift):
        assert_mpf_within_50_digits(shaped_counts(n, shape, 0), p_from_gaussian_shift(shift, 1.0))

    @pytest.mark.parametrize("n", [120, 180])
    @pytest.mark.parametrize("p", ["0.1", "0.3", "0.7", "0.9"])
    def test_mpf_branch_while_the_sum_collapses(self, n, p):
        # 2^600 weighed by the smaller of p and 1 - p n times, and a 1 at the other end: the
        # sum starts at 2^600 and falls by ~380-570 (r = 1/9) or ~147-220 (r = 3/7) bits
        # while that term still dominates it, so the fixed point cuts s at every size
        counts = [1] + [0] * (n - 1) + [2**600]
        with mpmath.workprec(166):
            p = mpmath.mpf(p)
        assert_mpf_within_50_digits(counts if p < 0.5 else counts[::-1], p)

    def test_mpf_p_too_small_for_an_exact_1_minus_p(self):
        # 1 - p needs about 7e11 bits exactly; a power of a sure rejection is 1
        spec = AlternativeSpec.gaussian_shift(-1e6, 1.0)
        got = power(60, F(1, 20), "unilateral", "paper", spec).power
        with mpmath.workdps(60):
            assert 0 <= 1 - got <= mpmath.mpf("1e-50")


W = dps_to_prec(alternative.INTERNAL_DPS + len("250") + 1)  # the mixture's bits at n = 250


class TestPowDown:
    """The mixture's powers: never above the exact power, and short by less than 2^(1-W)."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 250, 2**16 + 1, 10**6])
    @pytest.mark.parametrize("e", [0, -1, -W, -2 * W])
    @pytest.mark.parametrize("b, c", [(W - 1, 0), (W, 1), (3 * W, 1)])
    def test_against_exact_powers(self, k, e, b, c):
        # m = 2^b - c, so (m 2^e)^k = 2^(k (b + e)) (1 - c 2^-b)^k; the binomial sums to the
        # 2nd and 3rd powers of c 2^-b bound (1 - c 2^-b)^k, as its terms alternate and fall
        pm, pe = pow_down((1 << b) - c, e, k, W)
        got = pm * F(2) ** (pe - k * (b + e))
        eps = F(c, 1 << b)
        above = 1 - k * eps + comb(k, 2) * eps**2
        below = above - comb(k, 3) * eps**3
        assert got <= below and above - got < below * F(2) ** (1 - W)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 2 ** (3 * W)), e=st.integers(-2 * W, 0), k=st.integers(0, 300))
    def test_against_fraction_powers(self, m, e, k):
        pm, pe = pow_down(m, e, k, W)
        got, want = pm * F(2) ** pe, (m * F(2) ** e) ** k
        assert got <= want and want - got < want * F(2) ** (1 - W)


class TestRatioHorner:
    """The mpf mixture, q^n sum_k c_k r^k with r = p/(1-p), against the exact sum."""

    @pytest.mark.parametrize("tail", TAILS)
    @pytest.mark.parametrize("shift", [0.02, 0.3, 0.8, 3, 16, -2])
    @pytest.mark.parametrize("n", [1, 60, 250, 1000])
    def test_mpf_power_within_50_digits_of_exact(self, n, shift, tail):
        spec = AlternativeSpec.gaussian_shift(shift, 1.0)
        got = power(n, F(1, 20), tail, "paper", spec).power
        want = power(n, F(1, 20), tail, "paper", AlternativeSpec(p=dyadic(spec.p))).power
        assert isinstance(got, mpmath.mpf)
        assert abs(dyadic(got) - want) <= want * F(1, 10**50)

    def test_one_count(self):
        for c in (1, 7, 2**300 + 1):
            assert mixture((c,), F(3, 10)) == c
            with mpmath.workdps(50):
                got = mixture([c], mpmath.mpf("0.3"))
            assert isinstance(got, mpmath.mpf) and got == c

    def test_all_zero_counts(self):
        for n in (0, 1, 40):
            assert mixture([0] * (n + 1), F(2, 3)) == 0
            got = mixture((0,) * (n + 1), mpmath.mpf(2) / 3)
            assert isinstance(got, mpmath.mpf) and got == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_p_within_2_to_minus_200_of_half(self, sign):
        with mpmath.workprec(260):
            p = mpmath.mpf(0.5) + sign * mpmath.ldexp(1, -200)
        assert dyadic(p) == F(1, 2) + sign * F(1, 2**200)
        rng = random.Random(200)
        # at n = 1000, r ~ 1 leaves the sum of the binomial row about 2^n: s carries about
        # n + W bits, the widest fixed point
        for n in (1, 60, 250, 1000):
            drawn = [[rng.getrandbits(n) for _ in range(n + 1)]] if n < 1000 else []
            for counts in ([comb(n, k) for k in range(n + 1)],  # sums to exactly 1
                           *drawn,
                           snk_dp(n, 4).counts):
                got, want = mixture(counts, p), mixture(counts, dyadic(p))
                assert abs(dyadic(got) - want) <= want * F(1, 10**50)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("tail", TAILS)
    def test_fraction_power_is_the_rejected_binomial_sum(self, tail, convention):
        def snk(n, x):
            return snk_dp(n, x).counts if x >= 1 else (0,) * (n + 1)

        for n in (1, 2, 3, 7, 16, 61, 128, 251, 300):
            for p in (F(7, 10), F(1, 3), F(37, 80)):
                for alpha in (F(1, 20), F(1, 3)):
                    region = rejection_region(n, alpha, tail, convention)
                    c_low = region.lower.c - 1 if region.lower else 0
                    a, b = p.numerator, p.denominator
                    rejected = (
                        comb(n, k) - snk(n, region.upper.c)[k] + snk(n, c_low)[k]
                        for k in range(n + 1)
                    )
                    want = F(sum(r * a**k * (b - a) ** (n - k) for k, r in enumerate(rejected)),
                             b**n)
                    got = power(n, alpha, tail, convention, AlternativeSpec(p=p))
                    assert type(got.power) is Fraction and got.power == want
                    assert got.critical_region == str(region)


class TestRegionOperands:
    """A power reads its region's Horner operands, made once per orientation and kept."""

    SHIFTS = (0.3, -0.3, 2.0, -2.0)  # p on both sides of 1/2

    @pytest.mark.parametrize(
        "n, alpha",
        [(n, F(1, 20)) for n in (1, 2, 60, 250)]
        # small regions can reject nothing: every count is 0, j0 = n + 1
        + [(n, alpha) for n in range(1, 9) for alpha in (F(1, 3), F(1, 1000))],
    )
    def test_power_is_the_mixture_bit_for_bit(self, n, alpha):
        for tail in TAILS:
            for convention in CONVENTIONS:
                rejected = rejected_counts(n, alpha, tail, convention)[1]
                for _ in range(2):  # the operands made, then read
                    for shift in self.SHIFTS:
                        spec = AlternativeSpec.gaussian_shift(shift, 1.0)
                        got = power(n, alpha, tail, convention, spec).power
                        assert got._mpf_ == mixture(rejected, spec.p)._mpf_, (tail, convention)

    @pytest.mark.parametrize("shape", ["first", "last", "zeros", "inside"])
    def test_kept_operands_give_the_mixture_bit_for_bit(self, shape):
        counts = [0, 0, 0, 5, 0, 9, 2, 0, 0] if shape == "inside" else shaped_counts(40, shape, 3)
        operands = {}
        for _ in range(2):
            for shift in self.SHIFTS:
                p = p_from_gaussian_shift(shift, 1.0)
                got = alternative._mixture(counts, p, operands)
                assert got._mpf_ == mixture(counts, p)._mpf_
        assert sorted(operands) == [False, True]

    def test_a_warm_curve_makes_each_orientation_once_per_region(self, monkeypatch):
        calls, made = [], alternative.horner_operands

        def counted(counts, u_is_p):
            calls.append((len(counts) - 1, u_is_p))
            return made(counts, u_is_p)

        monkeypatch.setattr(alternative, "horner_operands", counted)
        rejected_counts.cache_clear()
        specs = [AlternativeSpec.gaussian_shift(c, 1.0) for c in (-0.8, -0.3, 0.05, 0.3, 2.0)]
        for _ in range(3):
            for n in (60, 120):
                for spec in (*specs, AlternativeSpec.direct("3/10")):  # a Fraction p needs none
                    power(n, F(1, 20), "bilateral", "paper", spec)
        assert sorted(calls) == [(60, False), (60, True), (120, False), (120, True)]


class TestOnePassPower:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 80), p=rational_p, alpha=alphas, convention=st.sampled_from(CONVENTIONS))
    def test_bilateral_is_sum_of_tails(self, n, p, alpha, convention):
        spec = AlternativeSpec(p=p)
        region = rejection_region(n, alpha, "bilateral", convention)
        lower = alt_cdf(n, max(region.lower.c - 1, 0), spec)
        upper = 1 - alt_cdf(n, region.upper.c, spec)
        assert power(n, alpha, "bilateral", convention, spec).power == lower + upper

    def test_small_power_keeps_digits(self):
        # the upper tail used to be 1 - cdf: relative error 2.3e-22 here
        with mpmath.workdps(50):
            p = mpmath.mpf(3) / 5
        got = power(200, F(1, 10**40), "unilateral", "conservative", AlternativeSpec(p=p)).power
        want = power(200, F(1, 10**40), "unilateral", "conservative",
                     AlternativeSpec(p=dyadic(p))).power
        assert abs(dyadic(got) - want) <= want * F(1, 10**50)

    @pytest.mark.parametrize("n, examples", [(60, 8), (250, 4), (1000, 2)])
    def test_mpf_power_within_50_digits(self, n, examples):
        @settings(max_examples=examples, deadline=None)
        @given(
            shift=st.floats(-1.5, 1.5).filter(lambda c: abs(c) > 1e-3),
            tail=st.sampled_from(TAILS),
            convention=st.sampled_from(CONVENTIONS),
        )
        def check(shift, tail, convention):
            spec = AlternativeSpec.gaussian_shift(shift, 1.0)
            got = power(n, F(1, 20), tail, convention, spec).power
            want = power(n, F(1, 20), tail, convention, AlternativeSpec(p=dyadic(spec.p))).power
            assert abs(dyadic(got) - want) <= want * F(1, 10**50)

        check()


class TestGaussianShift:
    def test_zero_shift(self):
        assert p_from_gaussian_shift(0.0, 1.0) == mpmath.mpf("0.5")

    def test_large_shift(self):
        assert p_from_gaussian_shift(50.0, 1.0) > mpmath.mpf("0.999999")
        assert p_from_gaussian_shift(-50.0, 1.0) < mpmath.mpf("0.000001")

    def test_scale_invariance(self):
        assert abs(p_from_gaussian_shift(1.0, 2.0) - p_from_gaussian_shift(0.5, 1.0)) < mpmath.mpf("1e-45")

    def test_phi_one_against_quadrature(self):
        # independent oracle: numerical integration of the normal density
        with mpmath.workdps(40):
            quad = mpmath.mpf("0.5") + mpmath.quad(
                lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi), [0, 1]
            )
        assert abs(p_from_gaussian_shift(1.0, 1.0) - quad) < mpmath.mpf("1e-15")

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            p_from_gaussian_shift(1.0, 0.0)

    @pytest.mark.parametrize("c, sigma, message", [
        (1.0, math.nan, "sigma must be positive"),
        (math.nan, 1.0, "c/sigma = nan/1.0 is not a number"),
        (math.inf, math.inf, "c/sigma = inf/inf is not a number"),
    ])
    def test_a_nan_sigma_or_c_over_sigma_is_refused(self, c, sigma, message, monkeypatch):
        def refuse(z):
            raise AssertionError(f"ncdf({z}) was called")

        monkeypatch.setattr(mpmath, "ncdf", refuse)
        with pytest.raises(ValueError, match=re.escape(message)):
            p_from_gaussian_shift(c, sigma)

    def test_p_unchanged_where_phi_is_below_one(self):
        # the 1 - Phi(-c/sigma) path runs only where Phi(c/sigma) rounds to 1
        for c in [F(i, 8) for i in range(-64, 65)] + [F(15), F(151, 10)]:
            for sigma in (0.5, 1.0, 3.0):
                with mpmath.workdps(50):
                    want = mpmath.ncdf(mpmath.mpf(float(c)) / mpmath.mpf(sigma))
                if want < 1:
                    assert p_from_gaussian_shift(float(c), sigma)._mpf_ == want._mpf_

    def test_bit_identical_to_mpmath_ncdf(self):
        # against mpmath.ncdf at 50 digits as written out here, both branches, on a seeded grid
        def through_mpmath(c, sigma):
            with mpmath.workdps(50):
                z = mpmath.mpf(c) / mpmath.mpf(sigma)
                if (p := mpmath.ncdf(z)) != 1:
                    return p
                q = mpmath.ncdf(-z)
                return mpmath.fsub(1, q, prec=mpmath.mp.prec - max(mpmath.mag(q), -TAIL_BITS))

        rng = random.Random(20)
        grid = [(rng.uniform(-20, 20), rng.uniform(0.05, 5)) for _ in range(1500)]
        grid += [(rng.gauss(0, 1), 1.0) for _ in range(300)]
        grid += [(0.0, 1.0), (-0.0, 2.0), (5e-324, 1.0), (-15.2, 1.0), (15.2, 1.0), (40.0, 1.0),
                 (-40.0, 1.0), (3, 7), ("0.3", 1.1), (mpmath.mpf("0.1"), 3)]
        for c, sigma in grid:
            assert p_from_gaussian_shift(c, sigma)._mpf_ == through_mpmath(c, sigma)._mpf_, (c, sigma)
        assert sum(c / sigma > 15.1 for c, sigma in grid[:1800]) > 50  # the tail branch ran

    @pytest.mark.parametrize("shift", [15.2, 16.0, 40.0])
    def test_phi_rounding_to_one_keeps_1_minus_p(self, shift):
        p = p_from_gaussian_shift(shift, 1.0)
        with mpmath.workdps(60):
            tail = mpmath.ncdf(-mpmath.mpf(shift))
            assert abs((1 - p) / tail - 1) < mpmath.mpf("1e-49")

    @pytest.mark.parametrize("tail", TAILS)
    @pytest.mark.parametrize("shift", [16.0, 40.0])
    def test_power_beyond_phi_rounding_within_50_digits(self, shift, tail):
        spec = AlternativeSpec.gaussian_shift(shift, 1.0)
        for alpha in (F(1, 20), F(1, 1000)):
            got = power(60, alpha, tail, "paper", spec).power
            want = power(60, alpha, tail, "paper", AlternativeSpec(p=dyadic(spec.p))).power
            assert abs(dyadic(got) - want) <= want * F(1, 10**50)

    @pytest.mark.parametrize("c", [1e154, 2.0**512, 1e155, 1e300, math.inf])
    def test_p_is_one_far_above_zero(self, c):
        # mpmath's erfc series overflows a float from c/sigma ~ 1.9e154; p = 1 from 2^512 on
        assert p_from_gaussian_shift(c, 1.0) == 1
        assert p_from_gaussian_shift(c / 4, 0.25) == 1

    @pytest.mark.parametrize("c", [-2.0**512, -1e155, -1e300])
    def test_far_below_zero_is_refused_naming_c_over_sigma(self, c):
        with pytest.raises(ValueError, match=r"c/sigma = -1\.\d+e\+\d+ is below -2\^512"):
            p_from_gaussian_shift(c, 1.0)

    def test_just_above_minus_2_to_512_still_runs(self):
        p = p_from_gaussian_shift(-1e154, 1.0)
        assert 0 < p < 1 and mpmath.mag(p) < -2**500
        got = power(50, F(1, 20), "unilateral", "paper", AlternativeSpec(p=p)).power
        with mpmath.workdps(60):
            assert 0 <= 1 - got <= mpmath.mpf("1e-50")

    def test_shift_past_tail_bits_is_refused(self):
        # 1 - p ~ 1e-217147240959 would need ~7e11 bits; p rounds to 1 and is refused
        with pytest.raises(ValueError):
            AlternativeSpec.gaussian_shift(1e6, 1.0)
