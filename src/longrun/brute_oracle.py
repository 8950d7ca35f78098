"""Ground-truth enumeration over all 2^n sign sequences.

Every other engine in the package is validated against these joint
counts.  The run lengths are extracted with integer bit tricks, so a
full scan at n = 20 stays within seconds.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import CapExceeded
from .exact_null import ProbabilityTable, engine_cache

ENUMERATION_CAP = 24


def _longest_one_run(v: int) -> int:
    length = 0
    while v:
        v &= v >> 1
        length += 1
    return length


class JointCountTable(NamedTuple):
    """Counts of sequences by (number of ones, longest run)."""

    n: int
    counts: dict[tuple[int, int], int]  # (k, L) -> count, L = max-run of either symbol
    counts_plus: dict[tuple[int, int], int]  # (k, L+) -> count, ones-runs only

    def marginal_k(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (k, _), c in self.counts.items():
            out[k] = out.get(k, 0) + c
        return out

    def marginal_l(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (_, l), c in self.counts.items():
            out[l] = out.get(l, 0) + c
        return out

    def count_max_run_at_most(self, k: int, x: int) -> int:
        return sum(c for (kk, l), c in self.counts.items() if kk == k and l <= x)

    def count_plus_run_at_most(self, k: int, x: int) -> int:
        return sum(c for (kk, l), c in self.counts_plus.items() if kk == k and l <= x)


@engine_cache
def enumerate_joint(n: int) -> JointCountTable:
    """Exhaustive scan of all 2^n bit patterns."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    mask = (1 << n) - 1
    counts: dict[tuple[int, int], int] = {}
    counts_plus: dict[tuple[int, int], int] = {}
    for v in range(1 << n):
        k = v.bit_count()
        l_plus = _longest_one_run(v)
        l_minus = _longest_one_run(~v & mask)
        key = (k, max(l_plus, l_minus))
        counts[key] = counts.get(key, 0) + 1
        key_p = (k, l_plus)
        counts_plus[key_p] = counts_plus.get(key_p, 0) + 1
    return JointCountTable(n=n, counts=counts, counts_plus=counts_plus)


def oracle_snk(n: int, x: int, k: int) -> int:
    """Sequences with k ones and longest run of either symbol <= x."""
    return enumerate_joint(n).count_max_run_at_most(k, x)


def oracle_plus_counts(n: int, x: int, k: int) -> int:
    """Sequences with k ones and longest run of ONES <= x (zero-runs free)."""
    return enumerate_joint(n).count_plus_run_at_most(k, x)


def oracle_null_pmf(n: int) -> ProbabilityTable:
    """Null pmf of the longest run straight from enumeration."""
    table = enumerate_joint(n)
    by_l = table.marginal_l()
    below = accumulate((by_l.get(k, 0) for k in range(1, n + 1)), initial=0)
    return ProbabilityTable(n=n, below=tuple(below))
