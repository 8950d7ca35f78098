"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` seeded from the
command line, so the same seed always yields byte-identical CSV text and
request lists.  The program under test only ever sees the generated CSV
files or CSV text.
"""

from __future__ import annotations

import math
import random

ALPHAS = ("0.05", "1/10", "0.01")
TAILS = ("unilateral", "bilateral")
CONVENTIONS = ("paper", "conservative")
FORMS = ("raw", "residual")  # header (x, y, fitted) or (x, residual)

# Residuals are standard normal plus a constant shift; half the inputs are
# drawn under the null (shift 0) and half under a shift large enough that
# the test rejects often, so both decisions occur.
NULL_SHIFT = 0.0
ALT_SHIFT = 0.6
# |residual| below this is redrawn, so float rounding in y - fitted can
# never turn a drawn residual into an exact zero.
MIN_ABS_RESIDUAL = 1e-3


def residual_csv(
    rng: random.Random, n: int, *, form: str, shift: float, ties: bool, zeros: int
) -> str:
    """CSV text with ``n + zeros`` data rows, ``zeros`` of them exactly zero.

    Rows are written in shuffled covariate order so the program has to
    sort.  With ``ties`` the covariate takes about n/3 distinct values.
    """
    rows = n + zeros
    if ties:
        xs = [float(i // 3) for i in range(rows)]
    else:
        xs = sorted(round(rng.uniform(0.0, 100.0), 6) for _ in range(rows))
    res = []
    for _ in range(n):
        e = rng.gauss(shift, 1.0)
        while abs(e) < MIN_ABS_RESIDUAL:
            e = rng.gauss(shift, 1.0)
        res.append(e)
    res += [0.0] * zeros
    rng.shuffle(res)
    order = list(range(rows))
    rng.shuffle(order)
    slope, intercept = rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0)
    if form == "raw":
        lines = ["x,y,fitted"]
        for i in order:
            fitted = intercept + slope * xs[i]
            y = fitted if res[i] == 0.0 else fitted + res[i]
            lines.append(f"{xs[i]!r},{y!r},{fitted!r}")
    else:
        lines = ["x,residual"]
        lines += [f"{xs[i]!r},{res[i]!r}" for i in order]
    return "\n".join(lines) + "\n"


def test_request(rng: random.Random, n: int, slot: int) -> dict:
    """One ``longrun test`` request whose effective n is exactly ``n``.

    Tail, convention and header form cycle with ``slot``, so any eight
    consecutive slots hold every combination and the work mix is the same
    for every seed.  Every fourth slot carries two exact-zero residuals and
    runs with ``--zero-policy drop``; the zeros come on top of ``n``.  The
    residuals, the shift, tied covariates and alpha are drawn from ``rng``.
    """
    zeros = 2 if slot % 4 == 3 else 0
    form = FORMS[slot // 4 % 2]
    csv = residual_csv(
        rng,
        n,
        form=form,
        shift=rng.choice((NULL_SHIFT, ALT_SHIFT)),
        ties=rng.random() < 0.3,
        zeros=zeros,
    )
    return {
        "kind": "test",
        "n": n,
        "alpha": rng.choice(ALPHAS),
        "tail": TAILS[slot % 2],
        "convention": CONVENTIONS[slot // 2 % 2],
        "zero_policy": "drop" if zeros else "error",
        "csv": csv,
    }


def scale_request(rng: random.Random, n: int) -> dict:
    """A ladder rung: no zeros and the default options, so rows == n."""
    csv = residual_csv(rng, n, form=FORMS[n % 2], shift=rng.choice((NULL_SHIFT, ALT_SHIFT)),
                       ties=False, zeros=0)
    return {
        "kind": "test",
        "n": n,
        "alpha": "0.05",
        "tail": "unilateral",
        "convention": "paper",
        "zero_policy": "error",
        "csv": csv,
    }


def power_requests(
    rng: random.Random, ns, *, shifts: int, rational_ps: int
) -> list[dict]:
    """A power study: at each n, a curve over Gaussian shifts and a few rational p.

    Every (n, alternative) pair is evaluated in both tails.  The requests
    come in shuffled order, so the evaluations of one n are spread over the
    whole pass rather than timed in one stretch of the machine's state.
    """
    curve = sorted(round(rng.uniform(0.02, 0.8), 4) for _ in range(shifts))
    # One fixed denominator per slot, and numerators prime to it, keep the
    # Fraction work per request the same across seeds.
    rationals = []
    for d in (10, 20, 40, 80)[:rational_ps]:
        a = rng.choice([a for a in range(d // 10 + 1, d - d // 10) if math.gcd(a, d) == 1])
        rationals.append(f"{a}/{d}")
    out = []
    for n in ns:
        alts = [{"shift": c, "sigma": 1.0} for c in curve] + [{"p": p} for p in rationals]
        for alt in alts:
            for tail in TAILS:
                out.append({"kind": "power", "n": n, "alpha": "1/20", "tail": tail,
                            "convention": "paper", **alt})
    rng.shuffle(out)
    return out


def converge_request(rng: random.Random, grid) -> dict:
    """One convergence report of the two-sided law to the dominant-sign law."""
    p = rng.choice(("7/10", "3/4", "13/20", "1/4"))
    return {"kind": "converge", "k": 5, "p": p, "grid": list(grid)}
