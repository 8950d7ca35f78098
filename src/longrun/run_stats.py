"""Residual sign sequences and longest-run statistics.

Residuals are ordered by the covariate; each one contributes a bit
(1 for positive, 0 for negative) and the test statistic is the length
of the longest block of equal bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyAfterDrop, EmptySequence, ZeroResidual

ZERO_POLICIES = ("error", "drop")


@dataclass(frozen=True)
class ResidualSeries:
    """Covariate-ordered residuals.

    ``points`` is sorted ascending by covariate; ties keep input order.
    ``source`` records whether residuals came in raw (y, fitted) form
    or precomputed.
    """

    points: tuple[tuple[float, float], ...]
    source: str = "precomputed"

    def __post_init__(self):
        if len(self.points) < 1:
            raise EmptySequence("residual series is empty")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(r for _, r in self.points)

    @classmethod
    def from_residuals(cls, x: Iterable[float], residuals: Iterable[float]) -> "ResidualSeries":
        pts = list(zip(x, residuals, strict=True))
        pts.sort(key=lambda p: p[0])  # sort is stable: covariate ties keep input order
        return cls(points=tuple(pts), source="precomputed")

    @classmethod
    def from_raw(cls, x: Iterable[float], y: Iterable[float], fitted: Iterable[float]) -> "ResidualSeries":
        pts = [(xi, yi - fi) for xi, yi, fi in zip(x, y, fitted, strict=True)]
        pts.sort(key=lambda p: p[0])
        return cls(points=tuple(pts), source="raw")


@dataclass(frozen=True)
class SignSequence:
    """Binary sequence of residual signs (1 = positive residual)."""

    bits: tuple[int, ...]
    zero_positions: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class RunSummary:
    """Longest-run lengths of a sign sequence."""

    l_plus: int
    l_minus: int
    l_n: int
    k: int


def signs_from_residuals(series: ResidualSeries, zero_policy: str = "error") -> SignSequence:
    """Map residuals to sign bits under the given zero policy.

    With ``zero_policy='drop'`` exactly-zero residuals are removed and
    their (covariate-ordered) indices recorded; with ``'error'`` any
    zero residual raises :class:`ZeroResidual`.
    """
    if zero_policy not in ZERO_POLICIES:
        raise ValueError(f"unknown zero policy {zero_policy!r}")
    bits = []
    zeros = []
    for i, r in enumerate(series.residuals):
        if r == 0:
            if zero_policy == "error":
                raise ZeroResidual(f"residual at ordered index {i} is exactly zero")
            zeros.append(i)
        else:
            bits.append(1 if r > 0 else 0)
    if not bits:
        raise EmptyAfterDrop("all residuals are zero")
    return SignSequence(bits=tuple(bits), zero_positions=tuple(zeros))


def longest_runs(seq: SignSequence | Sequence[int]) -> RunSummary:
    """Longest run of ones, of zeros, and of either, plus the count of ones.

    Single pass over the bits; runs of length zero are reported when a
    symbol does not occur at all.
    """
    bits = seq.bits if isinstance(seq, SignSequence) else tuple(seq)
    if not bits:
        raise EmptySequence("cannot compute runs of an empty sequence")
    l_plus = l_minus = 0
    run = 0
    prev = None
    for b in bits:
        run = run + 1 if b == prev else 1
        prev = b
        if b:
            l_plus = max(l_plus, run)
        else:
            l_minus = max(l_minus, run)
    return RunSummary(
        l_plus=l_plus,
        l_minus=l_minus,
        l_n=max(l_plus, l_minus),
        k=sum(bits),
    )
