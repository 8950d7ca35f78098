from fractions import Fraction

import mpmath
import pytest

from longrun import (
    AlternativeSpec,
    alt_cdf,
    attained_size,
    null_table_by_counting,
    p_from_gaussian_shift,
    power,
)

F = Fraction


class TestAlternativeSpec:
    def test_direct_decimal_string_is_exact(self):
        assert AlternativeSpec.direct("0.7").p == F(7, 10)

    def test_p_bounds(self):
        with pytest.raises(ValueError):
            AlternativeSpec.direct(F(0))
        with pytest.raises(ValueError):
            AlternativeSpec.direct(F(1))

    def test_gaussian_shift_carries_parameters(self):
        spec = AlternativeSpec.gaussian_shift(0.5, 2.0)
        assert spec.origin == "gaussian_shift"
        assert (spec.shift, spec.sigma) == (0.5, 2.0)


class TestAltCdf:
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

    def test_invalid_config(self):
        spec = AlternativeSpec.direct("0.6")
        with pytest.raises(ValueError):
            power(5, F(1, 4), "triple", "paper", spec)
        with pytest.raises(ValueError):
            power(5, F(1, 4), "unilateral", "classic", spec)


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
