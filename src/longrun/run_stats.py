"""Residual sign sequences and longest-run statistics.

Residuals are ordered by the covariate; each one contributes a bit
(1 for positive, 0 for negative) and the test statistic is the length
of the longest block of equal bits.  Each step is a few C-level passes:
the bits are one ``bytes`` from ``operator.gt`` against zero (``zero in
residuals`` finds zeros, -0.0 too), a float zero for float residuals, as
float == int takes CPython's slower mixed-type compare; L+ and L- are the
longest ``b"\1" * m`` and ``b"\0" * m`` found in those bytes, by galloping.
"""

from __future__ import annotations

from itertools import compress, count, repeat, starmap
from math import isnan
from operator import add, eq, gt, itemgetter, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyAfterDrop, EmptySequence, ZeroResidual

ZERO_POLICIES = ("error", "drop")


class _ResidualFields(NamedTuple):
    points: tuple[tuple[float, float], ...]


class ResidualSeries(_ResidualFields):
    """Covariate-ordered residuals.

    Every build, ``from_residuals``, ``from_raw``, ``_make``, ``_replace`` and
    unpickling, takes this constructor: its (x, residual) pairs are sorted
    ascending by covariate, and ties keep input order.  An empty series raises
    :class:`EmptySequence`, a NaN covariate or residual ValueError naming its
    index in the caller's order, and a point that is not a pair TypeError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, points: Iterable[tuple[float, float]]):
        points = list(points)
        if not points:
            raise EmptySequence("residual series is empty")
        _refuse_nan(points)  # before the sort moves them
        points.sort(key=itemgetter(0))  # sort is stable: covariate ties keep input order
        return super().__new__(cls, tuple(points))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(map(itemgetter(1), self.points))

    @classmethod
    def from_residuals(cls, x: Iterable[float], residuals: Iterable[float]) -> "ResidualSeries":
        return cls(zip(x, residuals, strict=True))

    @classmethod
    def from_raw(cls, x: Iterable[float], y: Iterable[float], fitted: Iterable[float]) -> "ResidualSeries":
        return cls(zip(x, starmap(sub, zip(y, fitted, strict=True)), strict=True))


def _refuse_nan(points: list) -> None:
    """Raise ValueError at the first point holding a NaN, TypeError at one not a pair.

    x + r is NaN when x or r is, and a float sum is NaN when a term is, so pairs of
    floats and ints cost one C-level pass; ``add`` refuses a point that is not a
    pair.  What the pass refuses, or a NaN from inf - inf, takes the loop.
    """
    try:
        if not isnan(sum(starmap(add, points), 0.0)):
            return
    except (TypeError, ArithmeticError):  # a Decimal; an int past the float range; not a pair
        pass
    for i, point in enumerate(points):
        if len(point) != 2:
            raise TypeError(f"point {i} is not an (x, residual) pair: {point!r}")
        xi, ri = point
        if xi != xi or ri != ri:  # NaN is the one value unequal to itself
            raise ValueError(f"point {i} holds a NaN: covariate {xi!r}, residual {ri!r}")


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
    zero = 0.0 if type(res[0]) is float else 0  # exact either way: zero is zero
    zeros = tuple(compress(count(), map(eq, res, repeat(zero)))) if zero in res else ()
    if zeros and zero_policy == "error":
        raise ZeroResidual(f"residual at ordered index {zeros[0]} is exactly zero")
    try:  # filter drops the zeros
        bits = bytes(map(gt, filter(None, res) if zeros else res, repeat(zero)))
    except TypeError:  # a NumPy scalar's > gives numpy.bool, which bytes() refuses
        bits = bytes(map(bool, map(gt, filter(None, res), repeat(zero))))
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
    l_plus, l_minus = _longest(packed, b"\1"), _longest(packed, b"\0")
    return RunSummary(l_plus=l_plus, l_minus=l_minus, l_n=max(l_plus, l_minus), k=packed.count(1))


def _longest(packed: bytes, bit: bytes) -> int:
    """The largest m with ``bit * m in packed``: double m while it is found, then bisect."""
    lo, hi = 0, 1
    while bit * hi in packed:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # bit * lo is found, bit * hi is not
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bit * mid in packed else (lo, mid)
    return lo
