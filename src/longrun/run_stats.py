"""Residual sign sequences and longest-run statistics.

Residuals are ordered by the covariate; each one contributes a bit
(1 for positive, 0 for negative) and the test statistic is the length
of the longest block of equal bits.  Each step is one C-level pass: the
bits are one ``bytes`` from ``operator.gt`` against 0 (``0 in residuals``
finds zeros, -0.0 too), and L+ and L- its longest pieces split at 0 and 1.
"""

from __future__ import annotations

from itertools import compress, count, repeat, starmap
from operator import eq, gt, itemgetter, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyAfterDrop, EmptySequence, ZeroResidual

ZERO_POLICIES = ("error", "drop")


class _ResidualFields(NamedTuple):
    points: tuple[tuple[float, float], ...]


class ResidualSeries(_ResidualFields):
    """Covariate-ordered residuals.

    ``points`` is sorted ascending by covariate; ties keep input order.
    An empty series raises :class:`EmptySequence`.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, points):
        if len(points) < 1:
            raise EmptySequence("residual series is empty")
        return super().__new__(cls, points)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(map(itemgetter(1), self.points))

    @classmethod
    def from_residuals(cls, x: Iterable[float], residuals: Iterable[float]) -> "ResidualSeries":
        pts = list(zip(x, residuals, strict=True))
        pts.sort(key=itemgetter(0))  # sort is stable: covariate ties keep input order
        return cls(points=tuple(pts))

    @classmethod
    def from_raw(cls, x: Iterable[float], y: Iterable[float], fitted: Iterable[float]) -> "ResidualSeries":
        pts = list(zip(x, starmap(sub, zip(y, fitted, strict=True)), strict=True))
        pts.sort(key=itemgetter(0))
        return cls(points=tuple(pts))


class SignSequence(NamedTuple):
    """Binary sequence of residual signs (1 = positive residual)."""

    bits: tuple[int, ...]
    zero_positions: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.bits)


class RunSummary(NamedTuple):
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
    res = series.residuals
    zeros = tuple(compress(count(), map(eq, res, repeat(0)))) if 0 in res else ()
    if zeros and zero_policy == "error":
        raise ZeroResidual(f"residual at ordered index {zeros[0]} is exactly zero")
    # filter drops the zeros; bool, as a NumPy scalar's > gives numpy.bool, which bytes() refuses
    bits = bytes(map(bool, map(gt, filter(None, res), repeat(0))))
    if not bits:
        raise EmptyAfterDrop("all residuals are zero")
    return SignSequence(bits=tuple(bits), zero_positions=zeros)


def longest_runs(seq: SignSequence | Sequence[int]) -> RunSummary:
    """Longest run of ones, of zeros, and of either, plus the count of ones.

    Runs of length zero are reported when a symbol does not occur at all.
    A bit not equal to 0 or 1 (``True`` and ``1.0`` are) raises ValueError.
    """
    bits = seq.bits if isinstance(seq, SignSequence) else tuple(seq)
    try:
        packed = bytes(bits)
    except (TypeError, ValueError):  # not all ints in 0..255; 2 stands for a non-bit
        packed = bytes(1 if b == 1 else 0 if b == 0 else 2 for b in bits)
    if packed.translate(None, b"\0\1"):
        raise ValueError("sign bits must be 0 or 1")
    if not packed:
        raise EmptySequence("cannot compute runs of an empty sequence")
    l_plus = max(map(len, packed.split(b"\0")))
    l_minus = max(map(len, packed.split(b"\1")))
    return RunSummary(l_plus=l_plus, l_minus=l_minus, l_n=max(l_plus, l_minus), k=packed.count(1))
