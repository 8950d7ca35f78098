"""Law of the longest run under a constant-shift alternative, and exact power.

Under a constant shift the probability p that a residual is positive
is the same for every observation but differs from 1/2.  The CDF of
the longest run is then a binomial mixture of the bounded-run counts:
Pr(L_n <= x) = sum_k snk(n, x).counts[k] * p^k * (1-p)^(n-k).

``mixture`` sums it by Horner's rule over the integers, acc = acc*q + c_k*a^k
with q = b-a for p = a/b, divided by b^n once: exact for a rational p.  An
mpf p = a*2^e runs it with b = 2^-e, or b = 2^t and q cut for p < ~2^-t,
acc and a^k carrying binary scales and cut toward zero to W bits per step,
W = dps_to_prec(INTERNAL_DPS + len(str(n)) + 1), t = W + bits(a).  Every
term is nonnegative: the relative error is at most about 2(n+1)*2^(1-W).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import mpmath

from .conditional_counts import snk_dp
from .exact_null import rejection_region

INTERNAL_DPS = 50
TAIL_BITS = 1 << 16  # a Gaussian-shift 1 - p below ~2^-TAIL_BITS (c/sigma > ~301) rounds p to 1

Prob = Fraction | mpmath.mpf


class _AlternativeFields(NamedTuple):
    p: Prob
    origin: str = "direct"
    shift: float | None = None
    sigma: float | None = None


class AlternativeSpec(_AlternativeFields):
    """Constant-shift alternative, parameterized by p = Pr(residual > 0)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, p, origin="direct", shift=None, sigma=None):
        as_prob(p)  # raises unless 0 < p < 1
        return super().__new__(cls, p, origin, shift, sigma)

    @classmethod
    def direct(cls, p: Fraction | float | str) -> "AlternativeSpec":
        """p given directly; rationals (including decimal strings) stay exact."""
        return cls(p=as_prob(p), origin="direct")

    @classmethod
    def gaussian_shift(cls, c: float, sigma: float) -> "AlternativeSpec":
        return cls(
            p=p_from_gaussian_shift(c, sigma),
            origin="gaussian_shift",
            shift=float(c),
            sigma=float(sigma),
        )


class PowerResult(NamedTuple):
    n: int
    alpha: Fraction
    tail: str
    convention: str
    spec: AlternativeSpec
    power: Prob
    critical_region: str


def p_from_gaussian_shift(c: float, sigma: float) -> mpmath.mpf:
    """p = Phi(c/sigma) for Gaussian errors shifted by c; 1 - Phi(-c/sigma) if that rounds to 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    with mpmath.workdps(INTERNAL_DPS):
        z = mpmath.mpf(c) / mpmath.mpf(sigma)
        if (p := mpmath.ncdf(z)) != 1:
            return p
        q = mpmath.ncdf(-z)
        return mpmath.fsub(1, q, prec=mpmath.mp.prec - max(mpmath.mag(q), -TAIL_BITS))


def as_prob(p: Prob | float | str) -> Prob:
    """p as a Fraction or an mpf in (0, 1); a str or float is read as an exact rational."""
    p = p if isinstance(p, mpmath.mpf) else Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return p


def mixture(counts: tuple[int, ...] | list[int], p: Prob) -> Prob:
    """sum_k counts[k] p^k (1-p)^(n-k) over k = 0..n (see the module docstring)."""
    n = len(counts) - 1
    if isinstance(p, Fraction):
        a, b, q, bits = p.numerator, p.denominator, p.denominator - p.numerator, 0
    else:  # p 2^t = a 2^(e+t), and q = (1 - p) 2^t cut toward zero; exact unless p is tiny
        (_, a, e, _), bits = p._mpf_, mpmath.libmp.dps_to_prec(INTERNAL_DPS + len(str(n)) + 1)
        t = min(-e, bits + a.bit_length())
        q, drift = (1 << t) + (-a >> -e - t), e + t
    acc, acc_s, ak, ak_s = 0, 0, 1 << bits, -bits  # acc 2^acc_s, ak 2^ak_s: sum, p^k; times b^k
    for c in counts:
        acc *= q
        if c:
            if acc_s < ak_s or not acc:  # align to the larger scale; a zero sum takes ak's
                acc, acc_s = acc >> max(ak_s - acc_s, 0), ak_s
            acc += c * ak >> acc_s - ak_s
        ak *= a
        if bits and (d := acc.bit_length() - bits) > 0:
            acc, acc_s = acc >> d, acc_s + d
        if bits and (d := ak.bit_length() - bits) >= 0:  # every step: ak keeps ``bits`` bits
            ak, ak_s = ak >> d, ak_s + d + drift
    return mpmath.ldexp(acc, acc_s - t * n) if bits else Fraction(acc, b**n)  # ldexp is exact


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


def power(
    n: int,
    alpha: Fraction | float | str,
    tail: str,
    convention: str,
    spec: AlternativeSpec,
) -> PowerResult:
    """Exact rejection probability of the longest-run test under the alternative.

    An mpf power carries INTERNAL_DPS digits whatever the caller's precision.
    """
    region = rejection_region(n, alpha, tail, convention)
    every = counts_at_most(n, n)  # the binomial row C(n, k), cached with the other counts
    kept = counts_at_most(n, region.upper.c)
    low = counts_at_most(n, region.lower.c - 1 if region.lower else 0)
    rejected = [all_k - kept_k + low_k for all_k, kept_k, low_k in zip(every, kept, low)]
    return PowerResult(
        n=n,
        alpha=Fraction(alpha),
        tail=tail,
        convention=convention,
        spec=spec,
        power=mixture(rejected, spec.p),
        critical_region=str(region),
    )


def attained_size(n: int, alpha: Fraction | float | str, tail: str, convention: str) -> Fraction:
    """Exact null probability of the configured rejection region."""
    return rejection_region(n, alpha, tail, convention).size
