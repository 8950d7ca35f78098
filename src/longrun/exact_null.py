"""Exact null distribution of the longest-run statistic, critical values, p-values.

Under the null the residual signs are independent fair coin flips, so
every probability is a rational with denominator 2^n.  The counting
engine is authoritative; the published recursion is kept as a
cross-check (its printed factorials must be read as powers of two, see
``RIORDAN_RESOLUTIONS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .conditional_counts import bounded_runs
from .discrepancy import DiscrepancyReport, Resolution
from .errors import ObservedOutOfRange

CONVENTIONS = ("paper", "conservative")
TAILS = ("unilateral", "bilateral")


@dataclass(frozen=True)
class ProbabilityTable:
    """Exact pmf/cdf of the longest-run statistic for one n."""

    n: int
    pmf: tuple[Fraction, ...]  # index k = 1..n stored at [k-1]
    regime: str = "null"

    def p(self, k: int) -> Fraction:
        """Pr(L_n = k); zero outside 1..n."""
        if 1 <= k <= self.n:
            return self.pmf[k - 1]
        return Fraction(0)

    def cdf(self, k: int) -> Fraction:
        """Pr(L_n <= k)."""
        if k < 1:
            return Fraction(0)
        return sum(self.pmf[: min(k, self.n)], Fraction(0))

    def sf(self, k: int) -> Fraction:
        """Pr(L_n > k)."""
        return 1 - self.cdf(k)

    def as_dict(self) -> dict[int, Fraction]:
        return {k: self.pmf[k - 1] for k in range(1, self.n + 1)}


@dataclass(frozen=True)
class CriticalValueResult:
    n: int
    alpha: Fraction
    c: int
    attained_level: Fraction  # Pr(L_n > c), exact
    convention: str


@lru_cache(maxsize=None)
def null_table_by_counting(n: int) -> ProbabilityTable:
    """Null pmf via bounded-run counting (authoritative engine).

    Pr(L_n <= x) is the number of length-n binary strings whose runs of
    either symbol are at most x, over 2^n; the run-state kernel
    ``bounded_runs`` counts them once per x.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    denom = 2**n
    below = [bounded_runs(n, x, x) for x in range(n + 1)]
    pmf = tuple(Fraction(below[k] - below[k - 1], denom) for k in range(1, n + 1))
    return ProbabilityTable(n=n, pmf=pmf, regime="null")


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


@lru_cache(maxsize=None)
def _riordan_pmf(n: int) -> tuple[Fraction, ...]:
    two = Fraction(2)

    table: list[list[Fraction]] = [[]]  # table[m][k-1] = Pr(L_m = k)
    for m in range(1, n + 1):
        row: list[Fraction] = []
        for k in range(1, m + 1):

            def P(mm: int, kk: int) -> Fraction:
                if mm < 1 or kk < 1 or kk > mm:
                    return Fraction(0)
                return table[mm][kk - 1]

            if k == 1:
                v = Fraction(1, 2 ** (m - 1))
            elif m == 2 and k == 2:
                v = Fraction(1, 2)
            else:
                rhs = 2 * two ** (m - 2) * P(m - 1, k)
                if m - k - 1 >= 1:
                    rhs -= two ** (m - k - 2) * P(m - k - 1, k)
                rhs += two ** (m - 2) * P(m - 1, k - 1)
                rhs -= 2 * two ** (m - 3) * P(m - 2, k - 1)
                if m - k >= 1:
                    rhs += two ** (m - k - 1) * P(m - k, k - 1)
                v = rhs / two ** (m - 1)
            row.append(v)
        table.append(row)
    return tuple(table[n])


def null_table_riordan(n: int) -> tuple[ProbabilityTable, DiscrepancyReport]:
    """Null pmf via the published recursion (cross-check engine).

    Returns the table and a report: the documented factorial-to-power
    resolution plus any remaining cell-level disagreement with the
    counting engine (none is expected).
    """
    if n < 2:
        raise ValueError("the recursion needs n >= 2")
    pmf = _riordan_pmf(n)
    reference = null_table_by_counting(n)
    mismatches = tuple(
        {
            "n": n,
            "k": k,
            "riordan": str(pmf[k - 1]),
            "counting": str(reference.pmf[k - 1]),
        }
        for k in range(1, n + 1)
        if pmf[k - 1] != reference.pmf[k - 1]
    )
    report = DiscrepancyReport(
        engine="riordan", resolutions=RIORDAN_RESOLUTIONS, mismatches=mismatches
    )
    return ProbabilityTable(n=n, pmf=pmf, regime="null"), report


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
    if convention == "paper":
        c = 0
        while c + 1 <= n and table.sf(c + 1) >= alpha:
            c += 1
    else:
        c = 0
        while table.sf(c) > alpha:
            c += 1
    return CriticalValueResult(
        n=n, alpha=alpha, c=c, attained_level=table.sf(c), convention=convention
    )


@dataclass(frozen=True)
class RejectionRegion:
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
    size = null_table_by_counting(n).cdf(lower.c - 1) + upper.attained_level
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
