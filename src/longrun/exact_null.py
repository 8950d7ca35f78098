"""Exact null distribution of the longest-run statistic, critical values, p-values.

Under the null the residual signs are independent fair coin flips, so
every probability is a rational with denominator 2^n, kept as the
integer count over 2^n from ``_count_below``.  The published
null recursion, a cross-check of this engine, lives in ``longrun.published``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import floor, log, log1p, log2
from typing import NamedTuple

from .errors import ObservedOutOfRange

CONVENTIONS = ("paper", "conservative")
TAILS = ("unilateral", "bilateral")
CACHE_SIZE = 32  #: entries per cached engine; a power study at four n uses 20 count tables
engine_cache = lru_cache(maxsize=CACHE_SIZE)


def compositions_bounded(n: int, x: int) -> int:
    """Number of compositions of n into parts from {1..x}; 1 for n = 0 (the empty one).

    The parts are the runs of the strings that start with a one, so for n >= 1 the count
    is half of ``_count_below(n, x)``: the window recurrence c(m) = 2 c(m-1) - c(m-1-x)
    for m > x (Schilling, College Math. J. 1990), from c(0) = 1 and c(m) = 2^(m-1) for
    1 <= m <= x, below x = n // 2 and a closed form from there.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _count_below(n, x) >> 1 if n else 1


def _count_below(n: int, x: int, firsts: list[int] | None = None) -> int:
    """The length-n sign strings with L_n <= x: for 0 < x < n // 2 twice the compositions of n
    into parts <= x (one per first sign) from a window started at ``firsts`` (c(0..x) at least,
    built here if None); for n // 2 <= x < n at most one run is longer than x, so the strings
    with one are counted by where it starts: 2^(n-x) at the first place, 2^(n-x-1) after the
    other sign at n - x - 1."""
    if not 0 < x < n:
        return 0 if x <= 0 else 1 << n
    if x >= n // 2:
        return (1 << n) - ((n - x + 1) << (n - x - 1))
    # step m reads c(m-1-x), and m-1-x <= n-1-x: the window holds c(0..x), x + 1 <= n - x
    # terms, and the appended ones follow
    window = deque(([1] + [1 << m for m in range(x)]) if firsts is None else firsts[: x + 1])
    last = 1 << (x - 1)  # c(x)
    for _ in range(n - x):
        last = (last << 1) - window.popleft()
        window.append(last)
    return last << 1


class ProbabilityTable(NamedTuple):
    """Exact pmf/cdf of the longest-run statistic for one n, as counts over 2^n."""

    n: int
    below: tuple[int, ...]  # below[x] = number of length-n sign strings with L_n <= x, x = 0..n

    @property
    def pmf(self) -> tuple[Fraction, ...]:  # index k = 1..n stored at [k-1]; built on each read
        return tuple(map(self.p, range(1, self.n + 1)))

    def p(self, k: int) -> Fraction:
        """Pr(L_n = k); zero outside 1..n."""
        if 1 <= k <= self.n:
            return Fraction(self.below[k] - self.below[k - 1], 2**self.n)
        return Fraction(0)

    def cdf(self, k: int) -> Fraction:
        """Pr(L_n <= k)."""
        return Fraction(self.below[min(max(k, 0), self.n)], 2**self.n)

    def sf(self, k: int) -> Fraction:
        """Pr(L_n > k)."""
        return Fraction(2**self.n - self.below[min(max(k, 0), self.n)], 2**self.n)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(enumerate(self.pmf, 1))


class CriticalValueResult(NamedTuple):
    n: int
    alpha: Fraction
    c: int
    attained_level: Fraction  # Pr(L_n > c), exact
    convention: str


@engine_cache
def null_table_by_counting(n: int) -> ProbabilityTable:
    """Null pmf via bounded-run counting (authoritative engine), not through ``below``'s cache."""
    if n < 1:
        raise ValueError("n must be >= 1")
    firsts = [1] + [1 << m for m in range(n // 2 - 1)]  # c(0..n//2-1), shared by every x < n // 2
    return ProbabilityTable(n=n, below=tuple(_count_below(n, x, firsts) for x in range(n + 1)))


@engine_cache
def below(n: int, x: int) -> int:
    """``null_table_by_counting(n).below[x]``, one count: the length-n strings with L_n <= x."""
    return _count_below(n, x)


def _guess(n: int, alpha: Fraction) -> int:
    """The x at which Pr(L_n > x) ~ 1 - exp(-n 2^-(x+1)) is alpha, rounded down: the
    extreme-value law of Gordon, Schilling & Waterman (PTRF 72, 1986)."""
    a, rest = float(alpha), 1 - alpha  # log2 of -ln(1 - alpha), never of a float 1 - alpha
    if a > 0.5:
        rate = log2(log(2) * (log2(rest.denominator) - log2(rest.numerator)))
    else:  # -ln(1 - alpha) is alpha to double precision where float(alpha) is 0
        rate = log2(-log1p(-a)) if a else log2(alpha.numerator) - log2(alpha.denominator)
    return floor(log2(n) - 1 - rate)


def _last_at_most(n: int, cut: int, x: int) -> int:
    """Largest x < n with below(n, x) <= cut: from a guess x, step and gallop, then bisect."""
    x, step = min(max(x, 0), n - 1), 1
    if below(n, x) <= cut:
        while x + step < n and below(n, x + step) <= cut:
            x, step = x + step, 2 * step
        lo, hi = x, min(x + step, n)
    else:
        while x - step > 0 and below(n, x - step) > cut:
            x, step = x - step, 2 * step
        lo, hi = max(x - step, 0), x
    while hi - lo > 1:  # below(n, lo) <= cut < below(n, hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(n, mid) <= cut else (lo, mid)
    return lo


def critical_value(n: int, alpha: Fraction | float | str,
                   convention: str = "paper") -> CriticalValueResult:
    """Critical value c for the unilateral region {L_n > c}, from a few exact counts.

    'paper' convention: largest c with Pr(L_n > c) >= alpha (the test
    may exceed the nominal level).  'conservative': smallest c with
    Pr(L_n > c) <= alpha.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    # (1 - alpha) 2^n = top/den; below(n, c) is an integer, and Pr(L_n > c) >= alpha exactly
    # when below(n, c) <= top // den, Pr(L_n > c) <= alpha when below(n, c) > (top - 1) // den
    top, den = (alpha.denominator - alpha.numerator) << n, alpha.denominator
    paper = convention == "paper"
    cut = top // den if paper else (top - 1) // den
    c = _last_at_most(n, cut, _guess(n, alpha)) + (not paper)  # the last c at most cut, or next
    level = Fraction((1 << n) - below(n, c), 1 << n)
    return CriticalValueResult(n=n, alpha=alpha, c=c, attained_level=level, convention=convention)


class RejectionRegion(NamedTuple):
    """Rejection region {L_n < lower.c} or {L_n > upper.c} of one test configuration."""

    lower: CriticalValueResult | None  # None for the unilateral test
    upper: CriticalValueResult
    size: Fraction  # exact null probability of the region

    def rejects(self, observed: int) -> bool:
        return observed > self.upper.c or (self.lower is not None and observed < self.lower.c)

    @property
    def critical_values(self) -> dict[str, CriticalValueResult]:
        if self.lower is None:
            return {"c": self.upper}
        return {"c_lower": self.lower, "c_upper": self.upper}

    def __str__(self) -> str:
        if self.lower is None:
            return f"L > {self.upper.c}"
        return f"L < {self.lower.c} or L > {self.upper.c}"


@engine_cache
def rejection_region(
    n: int, alpha: Fraction | float | str, tail: str = "unilateral", convention: str = "paper"
) -> RejectionRegion:
    """Rejection region of the level-alpha test; the bilateral one puts alpha/2 in each tail.

    Built once per configuration: an alpha equal to another (1/20 and Decimal("0.05"))
    shares its entry, as its ``Fraction(alpha)`` does; the float 0.05 is not 1/20.
    """
    if tail not in TAILS:
        raise ValueError(f"unknown tail {tail!r}")
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:  # before the bilateral halves, which lie in (0, 1) for alpha < 2
        raise ValueError("alpha must lie in (0, 1)")
    if tail == "unilateral":
        upper = critical_value(n, alpha, convention)
        return RejectionRegion(lower=None, upper=upper, size=upper.attained_level)
    lower = critical_value(n, 1 - alpha / 2, convention)
    upper = critical_value(n, alpha / 2, convention)
    # Pr(L_n < c_lower) + Pr(L_n > c_upper), one Fraction
    size = Fraction(below(n, lower.c - 1) + (1 << n) - below(n, upper.c), 1 << n)
    return RejectionRegion(lower=lower, upper=upper, size=size)


def attained_size(n: int, alpha: Fraction | float | str, tail: str, convention: str) -> Fraction:
    """Exact null probability of the configured rejection region."""
    return rejection_region(n, alpha, tail, convention).size


def p_value(n: int, observed: int, tail: str = "unilateral") -> Fraction:
    """Exact p-value of an observed longest run.

    Unilateral: Pr(L_n >= observed).  Bilateral: doubled smaller tail,
    capped at 1.
    """
    if tail not in TAILS:
        raise ValueError(f"unknown tail {tail!r}")
    if not 1 <= observed <= n:
        raise ObservedOutOfRange(f"observed={observed} outside 1..{n}")
    counts = null_table_by_counting(n).below
    count = (1 << n) - counts[observed - 1]  # the strings with L_n >= observed
    if tail == "bilateral":  # the smaller tail doubled, at most all 2^n strings
        count = min(1 << n, 2 * min(count, counts[observed]))
    return Fraction(count, 1 << n)
