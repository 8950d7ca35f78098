"""Benchmark-owned exact answers, used to check every output outside the timed region.

Nothing here calls the package's engines.  Null counts, p-values,
critical values and power come from one weighted run-length recurrence
over exact integers; ``longrun.brute_oracle`` enumeration cross-checks it
wherever n <= BRUTE_MAX_N.  Each ``check_*`` function returns ``None``
for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction

import mpmath

BRUTE_MAX_N = 20
# Gaussian-shift power must agree with the exact value to this many
# significant digits (the package states at least 50).
MPF_DIGITS = 45
GAUSS_DPS = 50  # precision at which p = Phi(c / sigma) is defined


def run_weight(n: int, a: int, b: int, max_ones: int, max_zeros: int) -> int:
    """Sum of a^(#ones) * b^(#zeros) over length-n binary strings whose runs of
    ones are at most ``max_ones`` long and runs of zeros at most ``max_zeros``.

    A[m] (B[m]) weighs strings of length m that end in a run of ones (zeros);
    A[m] = sum_{j=1..max_ones} B[m-j] a^j is kept as a sliding window, so
    with a = b = 1 this is the count recursion c[m] = 2c[m-1] - c[m-1-x].
    A[0] = B[0] = 1 stand for the empty prefix.  Only the last
    max(max_ones, max_zeros) + 2 values are kept.
    """
    if n == 0:
        return 1
    xa, xb = min(max_ones, n), min(max_zeros, n)
    if xa < 1 and xb < 1:
        return 0
    size = max(xa, xb) + 2
    A = [0] * size
    A[0] = 1
    if a == b and xa == xb:  # symmetric: A == B, one sequence
        s, drop = 0, a ** (xa + 1)
        for m in range(1, n + 1):
            s = a * (A[(m - 1) % size] + s)
            if m - 1 - xa >= 0:
                s -= drop * A[(m - 1 - xa) % size]
            A[m % size] = s
        return 2 * A[n % size]
    B = [0] * size
    B[0] = 1
    sa = sb = 0
    da, db = a ** (xa + 1), b ** (xb + 1)
    for m in range(1, n + 1):
        sa = a * (B[(m - 1) % size] + sa)
        sb = b * (A[(m - 1) % size] + sb)
        if m - 1 - xa >= 0:
            sa -= da * B[(m - 1 - xa) % size]
        if m - 1 - xb >= 0:
            sb -= db * A[(m - 1 - xb) % size]
        A[m % size], B[m % size] = sa, sb
    return A[n % size] + B[n % size]


def brute_weight(n: int, a: int, b: int, max_ones: int, max_zeros: int) -> int:
    """run_weight by exhaustive enumeration (longrun.brute_oracle), n <= BRUTE_MAX_N.

    Only the two shapes the checks use are supported: both runs bounded
    by the same x, and ones-runs bounded with zero-runs free.
    """
    from longrun.brute_oracle import enumerate_joint

    table = enumerate_joint(n)
    if max_zeros >= n:
        cells = table.counts_plus
        x = max_ones
    elif max_ones == max_zeros:
        cells = table.counts
        x = max_ones
    else:
        raise ValueError("unsupported run bounds for enumeration")
    return sum(c * a**k * b ** (n - k) for (k, l), c in cells.items() if l <= x)


class Weights:
    """Memoized run_weight for one (n, a, b), cross-checked by enumeration for small n."""

    def __init__(self, n: int, a: int, b: int):
        self.n, self.a, self.b = n, a, b
        self.total = (a + b) ** n
        self._memo: dict[tuple[int, int], int] = {}

    def __call__(self, max_ones: int, max_zeros: int | None = None) -> int:
        max_zeros = max_ones if max_zeros is None else max_zeros
        key = (min(max_ones, self.n), min(max_zeros, self.n))
        if key not in self._memo:
            w = run_weight(self.n, self.a, self.b, *key)
            if self.n <= BRUTE_MAX_N and w != brute_weight(self.n, self.a, self.b, *key):
                raise AssertionError(f"reference recurrence disagrees with enumeration at {key}")
            self._memo[key] = w
        return self._memo[key]

    def cdf(self, x: int) -> Fraction:
        """Pr(L_n <= x)."""
        return Fraction(self(x) if x >= 1 else 0, self.total)


@functools.cache
def null_law(n: int) -> Weights:
    """Counts of length-n sign sequences by longest-run bound: the null law times 2^n."""
    return Weights(n, 1, 1)


def _last_true(pred, n: int, guess: int) -> int:
    """Largest c in [0, n] with pred(c), for pred true on a prefix with pred(0)."""
    lo, step = 0, 1
    c = max(0, min(guess, n))
    if pred(c):
        lo = c
        while lo + step <= n and pred(lo + step):
            lo += step
            step *= 2
        hi = min(lo + step, n + 1)
    else:
        hi = c
        while hi - step > 0 and not pred(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    while hi - lo > 1:  # pred(lo) holds, pred(hi) fails or hi = n + 1
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def critical_value(n: int, alpha: Fraction, convention: str) -> tuple[int, Fraction]:
    """(c, Pr(L_n > c)) for the unilateral region {L_n > c}.

    paper: largest c with Pr(L_n > c) >= alpha.
    conservative: smallest c with Pr(L_n > c) <= alpha.
    """
    law = null_law(n)
    sf = lambda c: 1 - law.cdf(c)  # noqa: E731
    guess = max(1, int(math.log2(n)))
    if convention == "paper":
        c = _last_true(lambda c: sf(c) >= alpha, n, guess)
    else:
        c = _last_true(lambda c: sf(c) > alpha, n, guess) + 1 if sf(0) > alpha else 0
    return c, sf(c)


def p_value(n: int, observed: int, tail: str) -> Fraction:
    law = null_law(n)
    upper = 1 - law.cdf(observed - 1)
    if tail == "unilateral":
        return upper
    return min(Fraction(1), 2 * min(upper, law.cdf(observed)))


def decision_region(n: int, alpha: Fraction, tail: str, convention: str):
    """Critical values by name, the rejection rule, and its exact null size."""
    if tail == "unilateral":
        c, size = critical_value(n, alpha, convention)
        return {"c": c}, (lambda l: l > c), size
    lo, _ = critical_value(n, 1 - alpha / 2, convention)
    hi, hi_size = critical_value(n, alpha / 2, convention)
    size = null_law(n).cdf(lo - 1) + hi_size
    return {"c_lower": lo, "c_upper": hi}, (lambda l: l < lo or l > hi), size


# ------------------------------------------------------------------ #
# longrun test
# ------------------------------------------------------------------ #


def statistic(csv_text: str, zero_policy: str) -> tuple[dict, int, int]:
    """Longest runs of the covariate-ordered residual signs, n kept, zeros dropped.

    Mirrors the documented input contract: header (x, y, fitted) or
    (x, residual); covariate ties keep input order.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    cols = [h.strip().lower() for h in rows[0]]
    pts = []
    for row in rows[1:]:
        if not row:
            continue
        rec = dict(zip(cols, row))
        x = float(rec["x"])
        r = float(rec["y"]) - float(rec["fitted"]) if "fitted" in rec else float(rec["residual"])
        pts.append((x, r))
    pts.sort(key=lambda p: p[0])
    if zero_policy != "drop" and any(r == 0 for _, r in pts):
        raise ValueError("zero residual under the error policy")
    bits = [1 if r > 0 else 0 for _, r in pts if r != 0]
    best = [0, 0]
    run, prev = 0, None
    for b in bits:
        run = run + 1 if b == prev else 1
        prev = b
        best[b] = max(best[b], run)
    stat = {"l_plus": best[1], "l_minus": best[0], "l_n": max(best), "k": sum(bits)}
    return stat, len(bits), len(pts) - len(bits)


def expected_test(req: dict) -> dict:
    """The fields a correct ``longrun test`` JSON report carries, probabilities exact."""
    stat, n, dropped = statistic(req["csv"], req["zero_policy"])
    alpha = Fraction(req["alpha"])
    crit, rejects, size = decision_region(n, alpha, req["tail"], req["convention"])
    return {
        "n_effective": n,
        "dropped_zeros": dropped,
        "statistic": stat,
        "p_value": p_value(n, stat["l_n"], req["tail"]),
        "alpha": alpha,
        "tail": req["tail"],
        "convention": req["convention"],
        "critical_values": crit,
        "attained_level": size,
        "decision": "reject" if rejects(stat["l_n"]) else "fail_to_reject",
    }


def _prob_error(field: dict, want: Fraction, name: str) -> str | None:
    """A probability rendered as {'fraction': 'a/b', 'decimal': str}."""
    try:
        got = Fraction(field["fraction"])
        dec = float(field["decimal"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{name}: unreadable {field!r} ({exc})"
    if got != want:
        return f"{name}: {got} != exact {want}"
    if not math.isclose(dec, float(want), rel_tol=1e-5, abs_tol=1e-300):
        return f"{name}: decimal {field['decimal']} does not render {want}"
    return None


def check_test_output(req: dict, text: str) -> str | None:
    """Compare a rendered ``longrun test`` JSON report with the exact answer."""
    want = expected_test(req)
    try:
        got = json.loads(text)
    except (TypeError, ValueError) as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(got, dict):
        return f"output is not a JSON object: {text[:80]!r}"
    for key in ("n_effective", "dropped_zeros", "statistic", "tail", "convention",
                "critical_values", "decision"):
        if got.get(key) != want[key]:
            return f"{key}: {got.get(key)!r} != expected {want[key]!r}"
    for key in ("p_value", "alpha", "attained_level"):
        err = _prob_error(got.get(key), want[key], key)
        if err:
            return err
    return None


# ------------------------------------------------------------------ #
# Power and convergence
# ------------------------------------------------------------------ #


def decode(value) -> Fraction:
    """Exact value of an encoded result: 'a/b' or ['mpf', sign, hex mantissa, exponent]."""
    if isinstance(value, str):
        return Fraction(value)
    _, sign, man, exp = value
    v = Fraction(int(man, 16)) * (Fraction(2) ** exp)
    return -v if sign else v


def gaussian_p(shift: float, sigma: float) -> Fraction:
    """p = Phi(c / sigma) at GAUSS_DPS digits, as the exact dyadic rational it rounds to."""
    with mpmath.workdps(GAUSS_DPS):
        p = mpmath.ncdf(mpmath.mpf(shift) / mpmath.mpf(sigma))
    return decode(["mpf", p._mpf_[0], hex(p._mpf_[1]), p._mpf_[2]])


@functools.lru_cache(maxsize=None)  # alt-power checks each answer twice (see workloads)
def exact_power(n: int, p: Fraction, alpha: Fraction, tail: str, convention: str) -> Fraction:
    """Rejection probability when each sign is positive with probability p."""
    weights = Weights(n, p.numerator, p.denominator - p.numerator)
    crit, _, _ = decision_region(n, alpha, tail, convention)
    if tail == "unilateral":
        return 1 - weights.cdf(crit["c"])
    return weights.cdf(crit["c_lower"] - 1) + 1 - weights.cdf(crit["c_upper"])


def _agrees(got: Fraction, want: Fraction, exact: bool) -> bool:
    if exact:
        return got == want
    return abs(got - want) <= abs(want) * Fraction(1, 10**MPF_DIGITS)


def check_power(req: dict, encoded) -> str | None:
    """Rational p must match exactly; Gaussian shifts to MPF_DIGITS significant digits."""
    exact = "p" in req
    p = Fraction(req["p"]) if exact else gaussian_p(req["shift"], req["sigma"])
    want = exact_power(req["n"], p, Fraction(req["alpha"]), req["tail"], req["convention"])
    try:
        got = decode(encoded)
    except (TypeError, ValueError, IndexError) as exc:
        return f"unreadable power {encoded!r} ({exc})"
    if _agrees(got, want, exact):
        return None
    if exact:
        return f"power n={req['n']} p={req['p']} {req['tail']}: {got} != exact {want}"
    rel = float(abs(got - want) / want)
    return (f"power n={req['n']} shift={req['shift']} {req['tail']}: relative error "
            f"{rel:.3g} exceeds 1e-{MPF_DIGITS}")


def check_converge(req: dict, entries) -> str | None:
    """Each |Pr(longest run <= k) - Pr(longest run of the dominant sign <= k)|."""
    p = Fraction(req["p"])
    p_dom = max(p, 1 - p)
    k = req["k"]
    got_ns = [n for n, _ in entries]
    if got_ns != sorted(req["grid"]):
        return f"convergence grid {got_ns} != {sorted(req['grid'])}"
    for n, enc in entries:
        w = Weights(n, p_dom.numerator, p_dom.denominator - p_dom.numerator)
        x = min(k, n)
        want = abs(Fraction(w(x, n), w.total) - w.cdf(x))
        got = decode(enc)
        if not _agrees(got, want, exact=False):
            return f"convergence n={n}: {float(got)!r} != exact {float(want)!r}"
    return None
