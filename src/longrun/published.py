"""The paper's two recursions, with their misprints corrected, as cross-checks.

The published recursions for the null law of the longest run and for
the bounded-run counts S_n^(k)(x) contain misprints.  Each engine here
re-derives one of them and returns, with its table, a DiscrepancyReport:
the resolutions it applied (the literal formula vs. the corrected form
actually evaluated) and every cell where its result differs from the
authoritative kernel (``null_table_by_counting``, ``snk_dp``).  An empty
``mismatches`` list means the corrected form reproduces the kernel
exactly.  Nothing on the ``longrun test`` path imports this module.
"""

from __future__ import annotations

from itertools import accumulate, pairwise
from math import comb
from typing import NamedTuple, Sequence

from .conditional_counts import CountTable, _validate, snk_dp
from .exact_null import ProbabilityTable, engine_cache, null_table_by_counting


class Resolution(NamedTuple):
    """One documented correction to a published formula."""

    location: str
    literal: str
    corrected: str
    note: str = ""


class DiscrepancyReport(NamedTuple):
    """Corrections applied by a published-formula engine plus residual mismatches."""

    engine: str
    resolutions: tuple[Resolution, ...] = ()
    mismatches: tuple[dict, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _report(
    engine: str,
    resolutions: tuple[Resolution, ...],
    cell: dict,
    published: Sequence[int],
    kernel: Sequence[int],
) -> DiscrepancyReport:
    """Report listing every k = 0..n where the two rows of counts differ."""
    mismatches = tuple(
        {**cell, "k": k, "published": got, "kernel": want}
        for k, (got, want) in enumerate(zip(published, kernel, strict=True))
        if got != want
    )
    return DiscrepancyReport(engine=engine, resolutions=resolutions, mismatches=mismatches)


#: The published recursion multiplies probabilities by factorials, which
#: is dimensionally impossible for a law supported on 2^n equiprobable
#: sequences.  Reading every factorial m! as 2^m reproduces the counting
#: engine exactly for every n checked.
RIORDAN_RESOLUTIONS = (
    Resolution(
        location="null recursion",
        literal="(n-1)! Pr(L_n=k) = 2(n-2)! Pr(L_{n-1}=k) - (n-k-2)! Pr(L_{n-k-1}=k)"
        " + (n-2)! Pr(L_{n-1}=k-1) - 2(n-3)! Pr(L_{n-2}=k-1) + (n-k-1)! Pr(L_{n-k}=k-1)",
        corrected="same recursion with every factorial m! read as 2^m",
        note="with powers of two the relation is a count identity over "
        "2^m equiprobable sign sequences; terms whose index m is < 1 "
        "vanish because Pr(L_m = k) = 0 there",
    ),
)


@engine_cache
def _riordan_pmf(n: int) -> tuple[int, ...]:
    """2^n Pr(L_n = k) for k = 1..n: the pmf as counts over 2^n.

    With m! read as 2^m and N(m, k) = 2^m Pr(L_m = k) the number of
    length-m sign strings whose longest run is k, the recursion is
    N(m,k) = 2N(m-1,k) - N(m-k-1,k) + N(m-1,k-1) - 2N(m-2,k-1) + N(m-k,k-1)
    from N(m, 1) = N(2, 2) = 2, every N(m, k) with m < 1 or k outside
    1..m being 0.
    """
    rows: list[list[int]] = [[]]  # rows[m][k-1] = N(m, k)

    def N(m: int, k: int) -> int:
        return rows[m][k - 1] if m >= 1 and 1 <= k <= m else 0

    for m in range(1, n + 1):
        row = [2]  # k = 1: the two alternating strings
        for k in range(2, m + 1):
            row.append(
                2  # (m, k) = (2, 2): the two constant strings
                if m == 2
                else 2 * N(m - 1, k) - N(m - k - 1, k) + N(m - 1, k - 1)
                - 2 * N(m - 2, k - 1) + N(m - k, k - 1)
            )
        rows.append(row)
    return tuple(rows[n])


def null_table_riordan(n: int) -> tuple[ProbabilityTable, DiscrepancyReport]:
    """Null pmf via the published recursion (cross-check engine).

    Returns the table and a report: the documented factorial-to-power
    resolution plus any remaining cell-level disagreement with the
    counting engine (none is expected).
    """
    if n < 2:
        raise ValueError("the recursion needs n >= 2")
    counts = (0, *_riordan_pmf(n))  # k = 0..n; no string has L_n = 0
    below = null_table_by_counting(n).below
    kernel = [b - a for a, b in pairwise((0, *below))]  # strings with L_n = k
    report = _report("riordan", RIORDAN_RESOLUTIONS, {"n": n}, counts, kernel)
    return ProbabilityTable(n=n, below=tuple(accumulate(counts))), report


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


@engine_cache
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
    to the printed formula and of every count k where the corrected
    recursion differs from ``snk_dp`` (none is expected).
    """
    _validate(n, x)
    counts = _prop1_rows(n, x)[n]
    report = _report(
        "proposition1", PROPOSITION1_RESOLUTIONS, {"n": n, "x": x},
        counts, snk_dp(n, x).counts,
    )
    return CountTable(n=n, x=x, counts=counts), report
