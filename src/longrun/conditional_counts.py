"""Counts of sign sequences with bounded run length, split by number of ones.

``snk(n, x)[k]`` is the number of length-``n`` binary sequences with
``k`` ones in which no run of either symbol is longer than ``x``.  Two
engines compute it: the run-state kernel ``bounded_runs`` (authoritative;
it also counts the null law and the one-sided bounds), and a
re-derivation of the published four-case recursion whose misprints were
reconciled against the kernel (see the DiscrepancyReport it returns).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .discrepancy import DiscrepancyReport, Resolution


@dataclass(frozen=True)
class CountTable:
    """Counts by number of ones for one (n, x) pair."""

    n: int
    x: int
    counts: tuple[int, ...]  # index k = 0..n
    engine: str

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    @property
    def total(self) -> int:
        return sum(self.counts)


def bounded_runs(n: int, x1: int, x0: int, pack: int = 0) -> int:
    """Count length-n binary strings whose ones-runs are <= x1 and zero-runs <= x0.

    A string with k ones counts 2^(pack*k): with pack > n the counts by k
    are the base-2^pack digits of the result, as C(n, k) < 2^pack.  This is
    the Markov chain imbedding of Fu & Koutras (JASA 1994) on run ends, with
    the sliding window of Schilling (College Math. J. 1990).  With t = 2^pack,
    the strings of length m ending in a one number
    ones(m) = t (lead1(m-1) + ones(m-1)) - t^(x1+1) lead1(m-1-x1), where lead1
    counts those a run of ones may follow (the empty string, or one ending in
    a zero); zeros likewise with weight 1.
    """
    if n < 0 or x1 < 0 or x0 < 0:
        raise ValueError("n, x1 and x0 must be >= 0")
    # lead(m-1-x) .. lead(m-1) for the term that leaves the window; none where x >= n
    window1, window0 = (
        deque([0] * x + [1], maxlen=x + 1) if x < n else deque(maxlen=0) for x in (x1, x0)
    )
    ones = zeros = 0
    lead1 = lead0 = 1  # the empty string
    for _ in range(n):
        ones, zeros = (lead1 + ones) << pack, lead0 + zeros
        if window1:
            ones -= window1[0] << pack * (x1 + 1)
        if window0:
            zeros -= window0[0]
        lead1, lead0 = zeros, ones
        window1.append(lead1)
        window0.append(lead0)
    return ones + zeros if n else 1


def counts_by_ones(n: int, x1: int, x0: int) -> tuple[int, ...]:
    """``bounded_runs`` split by number of ones k = 0..n."""
    width = n + 1
    bits = format(bounded_runs(n, x1, x0, pack=width), f"0{width * width}b")
    return tuple(int(bits[i : i + width], 2) for i in range(len(bits) - width, -1, -width))


def compositions_bounded(n: int, x: int) -> int:
    """Number of compositions of n into parts from {1..x}.

    compositions_bounded(0, x) == 1 (the empty composition).  For n >= 1
    the parts are the runs of the strings that start with a one.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return bounded_runs(n, x, x) // 2 if n else 1


def _validate(n: int, x: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")


@lru_cache(maxsize=None)
def snk_dp(n: int, x: int) -> CountTable:
    """Bounded-run counts from the run-state kernel ``bounded_runs``."""
    _validate(n, x)
    return CountTable(n=n, x=x, counts=counts_by_ones(n, x, x), engine="dp")


#: Corrections applied to the published four-case recursion, each
#: validated by exact agreement with snk_dp on an exhaustive grid.
PROPOSITION1_RESOLUTIONS = (
    Resolution(
        location="case 2 (n-k <= x, k > x)",
        literal="S_n^(k)(x) = sum_{j=0}^{x} S_{n-j}^{(k)}(x)",
        corrected="S_n^(k)(x) = sum_{j=0}^{x} S_{n-1-j}^{(k-j)}(x)",
        note="literal sum contains its own left-hand side at j=0; "
        "corrected form conditions on the leading run of ones (length j) "
        "followed by a zero",
    ),
    Resolution(
        location="case 3 (n-k > x, k <= x)",
        literal="S_n^(k)(x) = sum_{j=0}^{x} S_{n-j}^{(k+1-j)}(x)",
        corrected="S_n^(k)(x) = sum_{j=0}^{x} S_{n-1-j}^{(k-1)}(x)",
        note="literal form fails small cases (n=5, k=2, x=2 gives 16, "
        "true count 7); corrected form conditions on the leading run of "
        "zeros (length j) followed by a one",
    ),
    Resolution(
        location="case 4 special points",
        literal="(k, n) = (2j(x+1)+i, j(x+1)) and companions",
        corrected="(n, k) = (2j(x+1)+i, j(x+1)) and companions",
        note="printed coordinate order implies k > n, which is impossible; "
        "families hold with (k, n) read as (n, k), j >= 1, 1 <= i <= x",
    ),
    Resolution(
        location="conventions",
        literal="R^(0)_0(x) = 1 stated for R, S^(0)_0(x) = 1 stated in the proof",
        corrected="S^(0)_0(x) = 1; negative n or k gives 0; k > n gives 0",
        note="the convention must bind the S terms inside the series for "
        "the inclusion-exclusion to terminate correctly",
    ),
)


def _special_correction(n: int, k: int, x: int) -> int:
    # families (n, k) = f(i, j) with j >= 1, 1 <= i <= x; +1 families first
    corr = 0
    w = x + 1
    for j in range(1, n // w + 2):
        for i in range(1, x + 1):
            if (n, k) in ((2 * j * w + i, j * w), (2 * j * w + i, j * w + i)):
                corr += 1
            if (n, k) in (((2 * j + 1) * w + i, j * w + i), ((2 * j + 1) * w + i, (j + 1) * w)):
                corr -= 1
    return corr


@lru_cache(maxsize=None)
def _prop1_rows(n: int, x: int) -> tuple[tuple[int, ...], ...]:
    """All rows S_m^(k)(x) for m = 0..n via the corrected recursion, bottom-up."""
    rows: list[tuple[int, ...]] = [(1,)]  # S_0^(0) = 1

    def S(m: int, k: int) -> int:
        if m < 0 or k < 0 or k > m:
            return 0
        return rows[m][k]

    for m in range(1, n + 1):
        row = []
        for k in range(m + 1):
            if m - k <= x and k <= x:
                v = comb(m, k)
            elif m - k <= x:  # k > x: only runs of ones can violate the bound
                v = sum(S(m - 1 - j, k - j) for j in range(x + 1))
            elif k <= x:  # only runs of zeros can violate the bound
                v = sum(S(m - 1 - j, k - 1) for j in range(x + 1))
            else:
                # inclusion-exclusion over the 2x possible beginnings
                v = 0
                w = x + 1
                j = 0
                while m - 2 - 2 * j * w >= 0:
                    for i in range(1, x + 1):
                        v += S(m - 1 - i - 2 * j * w, k - 1 - j * w)
                        v += S(m - 1 - i - 2 * j * w, k - i - j * w)
                        v -= S(m - 1 - (2 * j + 1) * w - i, k - (j + 1) * w)
                        v -= S(m - 1 - (2 * j + 1) * w - i, k - 1 - j * w - i)
                    j += 1
                v += _special_correction(m, k, x)
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def snk_proposition1(n: int, x: int) -> tuple[CountTable, DiscrepancyReport]:
    """Bounded-run counts via the corrected published recursion.

    Returns the table together with the report of corrections applied
    to the printed formula; an empty ``mismatches`` list means the
    corrected recursion agrees with the DP wherever validated.
    """
    _validate(n, x)
    counts = _prop1_rows(n, x)[n]
    report = DiscrepancyReport(engine="proposition1", resolutions=PROPOSITION1_RESOLUTIONS)
    return CountTable(n=n, x=x, counts=counts, engine="proposition1"), report
