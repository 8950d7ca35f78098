"""Law of the longest run under a constant-shift alternative, and exact power.

Under a constant shift the probability p that a residual is positive
is the same for every observation but differs from 1/2.  The CDF of
the longest run is then a binomial mixture of the bounded-run counts:
Pr(L_n <= x) = sum_k snk(n, x).counts[k] * p^k * (1-p)^(n-k).

``mixture`` sums it by Horner's rule over the integers, acc = acc*q + c_k*a^k
with q = b-a for p = a/b, divided by b^n once: exact for a rational p.  An
mpf p = a*2^e weighs the smaller u of p and 1 - p by its count j: the sum is
u^j0 v^(n-j0) T, v = 1 - u, T = sum_j c_j r^(j-j0) >= 1 from the first nonzero
count j0, r = u/v <= 1 cut to W = dps_to_prec(INTERNAL_DPS + len(str(n)) + 1)
bits.  Horner sums T at the fixed point 2^-sh, sh = W + bits(n) + 1, cutting toward
zero, from the c_j 2^sh that ``horner_operands`` makes without p, and ``pow_down``
cuts each power by less than 2^(1-W) of itself.  Every term is nonnegative, so the
relative error is under (n + 3)*2^(1-W), at most 2.7e-52 at any n (README "Engines").
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import mpmath
from mpmath.libmp import dps_to_prec

from .conditional_counts import snk_dp
from .exact_null import engine_cache, rejection_region

INTERNAL_DPS = 50
TAIL_BITS = 1 << 16  # a Gaussian-shift 1 - p below ~2^-TAIL_BITS (c/sigma > ~301) rounds p to 1

Prob = Fraction | mpmath.mpf


class _AlternativeFields(NamedTuple):
    p: Prob
    shift: float | None = None
    sigma: float | None = None


class AlternativeSpec(_AlternativeFields):
    """Constant-shift alternative: p = Pr(residual > 0), and the shift and sigma it came from."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, p, shift=None, sigma=None):
        return super().__new__(cls, as_prob(p), shift, sigma)  # raises unless 0 < p < 1

    @classmethod
    def direct(cls, p: Fraction | float | str) -> "AlternativeSpec":
        """p given directly; rationals (including decimal strings) stay exact."""
        return cls(p)

    @classmethod
    def gaussian_shift(cls, c: float, sigma: float) -> "AlternativeSpec":
        """p = Phi(c/sigma) of the floats c and sigma (-0.0 as 0.0); equal ones share a spec."""
        return _gaussian_spec(float(c) + 0.0, float(sigma))


@engine_cache  # sound: p does not depend on the caller's precision
def _gaussian_spec(c: float, sigma: float) -> AlternativeSpec:
    return AlternativeSpec(p_from_gaussian_shift(c, sigma), c, sigma)


class PowerResult(NamedTuple):
    n: int
    alpha: Fraction
    tail: str
    convention: str
    spec: AlternativeSpec
    power: Prob
    critical_region: str


def p_from_gaussian_shift(c: float, sigma: float) -> mpmath.mpf:
    """p = Phi(c/sigma) for Gaussian errors shifted by c; 1 - Phi(-c/sigma) if that rounds to 1.

    z = c/sigma and ``mpmath.ncdf`` run at INTERNAL_DPS digits.  From |z| = 2^512 on, p is 1
    above 0 and a ValueError below; a sigma that is not > 0 and a NaN z are ValueErrors too.
    """
    if not sigma > 0:  # a NaN sigma too
        raise ValueError("sigma must be positive")
    with mpmath.workdps(INTERNAL_DPS):
        if mpmath.isnan(z := mpmath.mpf(c) / mpmath.mpf(sigma)):  # a NaN c, or c = sigma = inf
            raise ValueError(f"c/sigma = {c}/{sigma} is not a number")
        if mpmath.isfinite(z) and mpmath.mag(z) > 512:  # from |z| ~ 1.9e154 erfc overflows a float
            if z < 0:
                raise ValueError(f"c/sigma = {mpmath.nstr(z, 5)} is below -2^512, where Phi is "
                                 "not computed")
            return mpmath.mpf(1)
        if (p := mpmath.ncdf(z)) != 1:
            return p
        q = mpmath.ncdf(-z)
        return mpmath.fsub(1, q, prec=mpmath.mp.prec - max(mpmath.mag(q), -TAIL_BITS))


def as_prob(p: Prob | float | str) -> Prob:
    """p as a Fraction or an mpf in (0, 1); a str or float is read as an exact rational."""
    try:
        p = p if isinstance(p, mpmath.mpf) else Fraction(p)
    except ZeroDivisionError:
        raise ValueError(f"p = {p} has a zero denominator") from None
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return p


def mixture(counts: tuple[int, ...] | list[int], p: Prob) -> Prob:
    """sum_k counts[k] p^k (1-p)^(n-k) over k = 0..n (see the module docstring)."""
    return _mixture(counts, p, {})


def _mixture(counts: tuple[int, ...] | list[int], p: Prob, operands: dict) -> Prob:
    """``mixture``; an mpf p keeps ``horner_operands(counts, u_is_p)`` in ``operands``."""
    n = len(counts) - 1
    if isinstance(p, Fraction):
        a, b = p.numerator, p.denominator
        q, acc, ak = b - a, 0, 1
        for c in counts:
            acc *= q
            if c:
                acc += c * ak
            ak *= a
        return Fraction(acc, b**n)
    _, a, e, _ = p._mpf_
    if (u_is_p := a.bit_length() + e < 0) not in operands:  # p < 1/2: u = p, else u = 1 - p
        operands[u_is_p] = horner_operands(counts, u_is_p)
    bits, sh, j0, shifted = operands[u_is_p]
    if not shifted:
        return mpmath.mpf(0)
    t = min(-e, 2 * bits + a.bit_length())
    q = (1 << t) + (-a >> -e - t)  # (1 - p) 2^t, cut toward zero; exact unless p is tiny
    (um, ue), (vm, ve) = ((a, e), (q, -t)) if u_is_p else ((q, -t), (a, e))
    lift = bits + vm.bit_length() - um.bit_length()  # r = rho 2^-shift, rho >= 2^(W-1)
    rho, shift = (um << lift) // vm, lift + ve - ue
    s = 0  # the sum so far is s 2^-sh
    for c in shifted:
        s = (s * rho >> shift) + c  # cut toward zero
    pu, eu = pow_down(um, ue, j0, bits)
    pv, ev = pow_down(vm, ve, n - j0, bits)
    return mpmath.ldexp(s * pu * pv, eu + ev - sh)  # ldexp is exact


def horner_operands(counts: tuple[int, ...] | list[int], u_is_p: bool) -> tuple:
    """The mpf mixture's operands for u = p (else u = 1 - p), which do not depend on p:
    W, sh, the first nonzero count j0 (n + 1 if none) and c_j << sh for j = n down to j0."""
    n = len(counts) - 1
    bits = dps_to_prec(INTERNAL_DPS + len(str(n)) + 1)
    ordered, sh = counts[::-1] if u_is_p else counts, bits + n.bit_length() + 1  # [i]: j = n - i
    j0 = next((j for j, c in enumerate(reversed(ordered)) if c), n + 1)
    return bits, sh, j0, tuple(c << sh for c in ordered[:n + 1 - j0])


def pow_down(m: int, e: int, k: int, bits: int) -> tuple[int, int]:
    """(m 2^e)^k for m > 0 as (man, exp), cut toward zero by less than 2^(1-bits) of itself.

    Binary powering from the top bit of k, each product cut toward zero to
    P = bits + bits(k) + 1 bits.  A cut loses under 2^(1-P) of a value, and a
    squaring at most doubles what the power has lost so far, so x^k loses at
    most (2k - 1) 2^(1-P) < 2^(1-bits).
    """
    prec, pm, cuts = bits + k.bit_length() + 1, 1, 0
    for bit in bin(k)[2:]:
        pm *= pm
        cuts += cuts
        if bit == "1":
            pm *= m
        if (cut := pm.bit_length() - prec) > 0:
            pm >>= cut
            cuts += cut
    return pm, cuts + k * e


def counts_at_most(n: int, x: int) -> tuple[int, ...]:
    """Counts by number of ones of the length-n strings whose longest run is <= x."""
    return snk_dp(n, x).counts if x >= 1 else (0,) * (n + 1)  # L_n >= 1 always


def alt_cdf(n: int, x: int, spec: AlternativeSpec) -> Prob:
    """Pr(L_n <= x) under the alternative."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= x <= n:
        raise ValueError("x must lie in 0..n")
    return mixture(counts_at_most(n, x), spec.p)


@engine_cache
def rejected_counts(n: int, alpha: Fraction, tail: str, convention: str) -> tuple:
    """(region, counts by k of the rejected strings, str(region), their ``horner_operands``
    by orientation, each made on first use): C(n, k) - S(c_upper) + S(c_lower - 1)."""
    region = rejection_region(n, alpha, tail, convention)
    every = accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)  # C(n, k)
    kept = counts_at_most(n, region.upper.c)
    low = counts_at_most(n, region.lower.c - 1 if region.lower else 0)
    rejected = tuple(all_k - kept_k + low_k for all_k, kept_k, low_k in zip(every, kept, low))
    return region, rejected, str(region), {}


def power(n: int, alpha: Fraction | float | str, tail: str, convention: str,
          spec: AlternativeSpec) -> PowerResult:
    """Exact rejection probability of the longest-run test under the alternative.

    An mpf power carries INTERNAL_DPS digits whatever the caller's precision.
    """
    alpha = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    _, rejected, label, ops = rejected_counts(n, alpha, tail, convention)
    return PowerResult(n, alpha, tail, convention, spec, _mixture(rejected, spec.p, ops), label)
