"""Counts of sign sequences with bounded run length, split by number of ones.

``snk(n, x).counts[k]`` is the number of length-``n`` binary sequences with
``k`` ones in which no run of either symbol is longer than ``x``.  The
run-state kernel ``bounded_runs`` computes it (and the one-sided bounds);
the published four-case recursion, reconciled against the kernel, lives
in ``longrun.published``.  The null law needs only the symmetric total,
which ``exact_null.compositions_bounded`` counts with the kernel's
one-sequence specialisation.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .exact_null import engine_cache


class CountTable(NamedTuple):
    """Counts by number of ones for one (n, x) pair."""

    n: int
    x: int
    counts: tuple[int, ...]  # index k = 0..n

    @property
    def total(self) -> int:
        return sum(self.counts)


def bounded_runs(n: int, x1: int, x0: int, pack: int = 0) -> int:
    """Count length-n binary strings whose ones-runs are <= x1 and zero-runs <= x0.

    A string with k ones counts 2^(pack*k): with pack > n the counts by k
    are the base-2^pack digits of the result, as C(n, k) < 2^pack.  This is
    the Markov chain imbedding of Fu & Koutras (JASA 1994) on run ends, with
    the sliding window of Schilling (College Math. J. 1990).  With t = 2^pack
    and total(m) the weighted count of the strings of length m, total(0) = 1,
    those ending in a one number ones(m) = t total(m-1) - t^(x1+1) zeros(m-1-x1),
    as a run of ones follows a string ending in a zero or the empty string, for
    which the window reads zeros(0) = 1; zeros(m) = total(m-1) - ones(m-1-x0)
    likewise with weight 1, and total(m) = ones(m) + zeros(m).
    """
    if n < 0 or x1 < 0 or x0 < 0:
        raise ValueError("n, x1 and x0 must be >= 0")
    # zeros(m-1-x1) .. and ones(m-1-x0) ..: each is read once, x + 1 steps after it is
    # made, so only those of length m < n - x are kept; none where x >= n
    window1, window0 = (deque([0] * x + [1]) if x < n else deque() for x in (x1, x0))
    drop, total = pack * (x1 + 1), 1
    for m in range(1, n + 1):
        ones, zeros = total << pack, total
        if window1:
            ones -= window1.popleft() << drop
        if window0:
            zeros -= window0.popleft()
        total = ones + zeros
        if m < n - x1:
            window1.append(zeros)
        if m < n - x0:
            window0.append(ones)
    return total


def counts_by_ones(n: int, x1: int, x0: int) -> tuple[int, ...]:
    """``bounded_runs`` split by number of ones k = 0..n."""
    width = n // 8 + 1  # bytes a digit: 2^(8 width) > 2^n >= C(n, k)
    data = bounded_runs(n, x1, x0, pack=8 * width).to_bytes(width * (n + 1), "little")
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


def _validate(n: int, x: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")


@engine_cache
def snk_dp(n: int, x: int) -> CountTable:
    """Bounded-run counts from the run-state kernel ``bounded_runs``."""
    _validate(n, x)
    return CountTable(n=n, x=x, counts=counts_by_ones(n, x, x))
