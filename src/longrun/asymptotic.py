"""Longest run of ones alone, and convergence of the two-sided law to it.

For biased signs (p far from 1/2) the longest run of the dominant sign
eventually determines the overall longest run; this module computes
the one-sided law exactly and reports how fast the two laws approach
each other along an n-grid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import mpmath

from .alternative import INTERNAL_DPS, Prob, as_prob, counts_at_most, mixture
from .conditional_counts import CountTable, counts_by_ones
from .exact_null import engine_cache


@engine_cache
def plus_run_counts(n: int, x: int) -> CountTable:
    """Counts by k of length-n sequences whose longest run of ONES is <= x.

    Zero-runs are unconstrained.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    return CountTable(n=n, x=x, counts=counts_by_ones(n, x, n))


def plus_run_cdf(n: int, k: int, p: Prob | float | str) -> Prob:
    """Pr(longest run of ones <= k) when each bit is one with probability p."""
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")
    return mixture(plus_run_counts(n, k).counts, as_prob(p))


class ConvergenceReport(NamedTuple):
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

    Each gap is one mixture of a nonnegative count difference, free of
    cancellation.  Requires p != 1/2.  For p < 1/2 the dominant sign is
    the zeros: by the flip symmetry the counts are read by number of zeros.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    p = as_prob(p)
    if 2 * p == 1:
        raise ValueError("p must differ from 1/2")
    flip = 2 * p < 1
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    entries = []
    for n in sorted(n_grid):
        x = min(k, n)
        # strings whose ones-runs are <= x but not all of whose zero-runs are
        gap = [one - two for one, two in zip(plus_run_counts(n, x).counts, counts_at_most(n, x))]
        diff = mixture(gap[::-1] if flip else gap, p)
        with mpmath.workdps(INTERNAL_DPS):
            if isinstance(diff, Fraction):
                diff = mpmath.mpf(diff.numerator) / mpmath.mpf(diff.denominator)
            entries.append((n, diff))
    return ConvergenceReport(k=k, p=p, entries=tuple(entries))
