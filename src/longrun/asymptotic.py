"""Longest run of ones alone, and convergence of the two-sided law to it.

For biased signs (p far from 1/2) the longest run of the dominant sign
eventually determines the overall longest run; this module computes
the one-sided law exactly and reports how fast the two laws approach
each other along an n-grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .alternative import INTERNAL_DPS, AlternativeSpec, Prob, alt_cdf, as_prob, mixture
from .conditional_counts import CountTable, counts_by_ones


@lru_cache(maxsize=None)
def plus_run_counts(n: int, x: int) -> CountTable:
    """Counts by k of length-n sequences whose longest run of ONES is <= x.

    Zero-runs are unconstrained.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    return CountTable(n=n, x=x, counts=counts_by_ones(n, x, n), engine="plus_run_dp")


def plus_run_cdf(n: int, k: int, p: Prob | float | str) -> Prob:
    """Pr(longest run of ones <= k) when each bit is one with probability p."""
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")
    return mixture(plus_run_counts(n, k).counts, as_prob(p))


@dataclass(frozen=True)
class ConvergenceReport:
    k: int
    p: Fraction | mpmath.mpf
    entries: tuple[tuple[int, mpmath.mpf], ...]  # (n, |two-sided - one-sided|)

    @property
    def monotone_decreasing(self) -> bool:
        diffs = [d for _, d in self.entries]
        return all(a > b for a, b in zip(diffs, diffs[1:]))

    @property
    def shrink_factor(self) -> mpmath.mpf:
        """Ratio first/last difference (larger = faster convergence)."""
        first, last = self.entries[0][1], self.entries[-1][1]
        return first / last if last != 0 else mpmath.inf


def convergence_report(k: int, p, n_grid: list[int]) -> ConvergenceReport:
    """Gap between the two-sided and dominant-sign one-sided CDFs over n_grid.

    Requires p != 1/2.  For p < 1/2 the dominant sign is the zeros, and
    by the flip symmetry the gap equals the one computed at 1 - p.
    """
    p = as_prob(p)
    if p == Fraction(1, 2):
        raise ValueError("p must differ from 1/2")
    p_dom = p if p > Fraction(1, 2) else 1 - p
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    entries = []
    for n in sorted(n_grid):
        two_sided = alt_cdf(n, min(k, n), AlternativeSpec(p=p_dom))
        one_sided = plus_run_cdf(n, min(k, n), p_dom)
        diff = abs(one_sided - two_sided)
        with mpmath.workdps(INTERNAL_DPS):
            if isinstance(diff, Fraction):
                diff = mpmath.mpf(diff.numerator) / mpmath.mpf(diff.denominator)
            entries.append((n, diff))
    return ConvergenceReport(k=k, p=p, entries=tuple(entries))
