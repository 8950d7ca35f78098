"""Exact null distribution of the longest-run statistic, critical values, p-values.

Under the null the residual signs are independent fair coin flips, so
every probability is a rational with denominator 2^n, kept as the
integer count over 2^n from the bounded-run counting engine.  The
published null recursion, a cross-check of this engine, lives in
``longrun.published``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

from .conditional_counts import _compositions, _first_compositions, engine_cache
from .errors import ObservedOutOfRange

CONVENTIONS = ("paper", "conservative")
TAILS = ("unilateral", "bilateral")


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
    """Null pmf via bounded-run counting (authoritative engine).

    Pr(L_n <= x) is the number of length-n binary strings whose runs of
    either symbol are at most x, over 2^n.  Those strings are twice the
    compositions of n into parts <= x (one for each first sign), counted
    per x by the one-sequence window recurrence of
    ``compositions_bounded``, all x sharing the initial powers of two.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    firsts = _first_compositions((n + 1) // 2)  # the most any x reads: min(x + 1, n - x)
    below = (0, *(_compositions(n, x, firsts) << 1 for x in range(1, n + 1)))
    return ProbabilityTable(n=n, below=below)


def critical_value(
    n: int, alpha: Fraction | float | str, convention: str = "paper"
) -> CriticalValueResult:
    """Critical value c for the unilateral region {L_n > c}.

    'paper' convention: largest c with Pr(L_n > c) >= alpha (the test
    may exceed the nominal level).  'conservative': smallest c with
    Pr(L_n > c) <= alpha.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    table = null_table_by_counting(n)
    # (1 - alpha) 2^n = top/den; below[c] is an integer, and Pr(L_n > c) >= alpha exactly
    # when below[c] <= floor(top/den), Pr(L_n > c) <= alpha when below[c] >= ceil(top/den)
    top, den, below = (alpha.denominator - alpha.numerator) << n, alpha.denominator, table.below
    paper = convention == "paper"
    c = bisect_right(below, top // den) - 1 if paper else bisect_left(below, -(-top // den))
    return CriticalValueResult(
        n=n, alpha=alpha, c=c, attained_level=table.sf(c), convention=convention
    )


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


def rejection_region(
    n: int, alpha: Fraction | float | str, tail: str = "unilateral", convention: str = "paper"
) -> RejectionRegion:
    """Rejection region of the level-alpha test; the bilateral one puts alpha/2 in each tail."""
    if tail not in TAILS:
        raise ValueError(f"unknown tail {tail!r}")
    alpha = Fraction(alpha)
    if tail == "unilateral":
        upper = critical_value(n, alpha, convention)
        return RejectionRegion(lower=None, upper=upper, size=upper.attained_level)
    lower = critical_value(n, 1 - alpha / 2, convention)
    upper = critical_value(n, alpha / 2, convention)
    below = null_table_by_counting(n).below  # Pr(L_n < c_lower) + Pr(L_n > c_upper), one Fraction
    size = Fraction(below[max(lower.c - 1, 0)] + (1 << n) - below[upper.c], 1 << n)
    return RejectionRegion(lower=lower, upper=upper, size=size)


def p_value(n: int, observed: int, tail: str = "unilateral") -> Fraction:
    """Exact p-value of an observed longest run.

    Unilateral: Pr(L_n >= observed).  Bilateral: doubled smaller tail,
    capped at 1.
    """
    if tail not in TAILS:
        raise ValueError(f"unknown tail {tail!r}")
    if not 1 <= observed <= n:
        raise ObservedOutOfRange(f"observed={observed} outside 1..{n}")
    table = null_table_by_counting(n)
    upper = table.sf(observed - 1)  # Pr(L_n >= observed)
    if tail == "unilateral":
        return upper
    lower = table.cdf(observed)
    return min(Fraction(1), 2 * min(upper, lower))
