"""Law of the longest run under a constant-shift alternative, and exact power.

Under a constant shift the probability p that a residual is positive
is the same for every observation but differs from 1/2.  The CDF of
the longest run is then a binomial mixture of the bounded-run counts:
Pr(L_n <= x) = sum_k snk(n, x)[k] * p^k * (1-p)^(n-k).

Arithmetic is exact (Fraction) whenever p is rational; otherwise
mpmath with at least 50 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath

from .conditional_counts import snk_dp
from .exact_null import rejection_region

INTERNAL_DPS = 50

Prob = Union[Fraction, mpmath.mpf]


@dataclass(frozen=True)
class AlternativeSpec:
    """Constant-shift alternative, parameterized by p = Pr(residual > 0)."""

    p: Prob
    origin: str = "direct"
    shift: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")

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


@dataclass(frozen=True)
class PowerResult:
    n: int
    alpha: Fraction
    tail: str
    convention: str
    spec: AlternativeSpec
    power: Prob
    critical_region: str


def p_from_gaussian_shift(c: float, sigma: float) -> mpmath.mpf:
    """p = Phi(c / sigma) for centered Gaussian errors shifted by c."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    with mpmath.workdps(INTERNAL_DPS):
        return mpmath.ncdf(mpmath.mpf(c) / mpmath.mpf(sigma))


def as_prob(p: Prob | float | str) -> Prob:
    """p as a Fraction or an mpf; a str or float is read as an exact rational."""
    return p if isinstance(p, mpmath.mpf) else Fraction(p)


def mixture(counts: tuple[int, ...], p: Prob) -> Prob:
    """sum_k counts[k] p^k (1-p)^(n-k) over k = 0..n; an mpf p is summed at INTERNAL_DPS."""
    n = len(counts) - 1
    if isinstance(p, Fraction):
        a, b = p.numerator, p.denominator
        return Fraction(sum(c * a**k * (b - a) ** (n - k) for k, c in enumerate(counts) if c), b**n)
    with mpmath.workdps(INTERNAL_DPS):
        p = mpmath.mpf(p)
        q = 1 - p
        return mpmath.fsum(
            counts[k] * p**k * q ** (n - k) for k in range(n + 1) if counts[k]
        )


def alt_cdf(n: int, x: int, spec: AlternativeSpec) -> Prob:
    """Pr(L_n <= x) under the alternative."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= x <= n:
        raise ValueError("x must lie in 0..n")
    counts = snk_dp(n, x).counts if x else (0,)  # L_n >= 1 always
    return mixture(counts, spec.p)


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
    with mpmath.workdps(INTERNAL_DPS):
        pw = 1 - alt_cdf(n, region.upper.c, spec)
        if region.lower is not None:
            pw += alt_cdf(n, max(region.lower.c - 1, 0), spec)
    return PowerResult(
        n=n,
        alpha=Fraction(alpha),
        tail=tail,
        convention=convention,
        spec=spec,
        power=pw,
        critical_region=str(region),
    )


def attained_size(n: int, alpha: Fraction | float | str, tail: str, convention: str) -> Fraction:
    """Exact null probability of the configured rejection region."""
    return rejection_region(n, alpha, tail, convention).size
