"""The same-results corpus: seeded CLI runs and library values, by SHA-256 digest.

Every case is recomputed in-process by ``tests/test_golden.py`` and compared
with ``digests.json``.  A change that means to alter an output regenerates
that file with ``PYTHONPATH=src python tests/golden/regenerate.py`` (from
the repository root) and names each changed case.

- ``cli``: argv, input CSV and the resulting exit code, stdout and stderr
  of ``longrun.cli.main``, for all seven subcommands and every offered
  format.  argparse's own usage and help text vary with the Python version,
  so for argparse errors only the exit code and stdout are kept; the tests
  of the CLI check that text against ``build_parser()``.
- ``library``: the exact Fractions of ``p_value``, ``critical_value``,
  ``rejection_region``, ``alt_cdf``, ``power`` and ``plus_run_cdf`` for
  n = 1..60 at four rational p, one digest per (function, n).
- ``large``: the same critical values and rejection regions at n = 500,
  2000, 8000 and 10,000, and the p-values at n = 500 and 2000, one digest
  per (function, n).  They were recorded from the whole null table, which
  the tests never build at n >= 8000.  With them, the Fraction powers at
  the three p other than 1/2: every configuration at n = 500, the
  unilateral and bilateral paper tests at alpha = 1/20 at n = 2000.
- ``mpf``: Gaussian-shift p and powers up to n = 2000, kept as 60-digit
  decimals of their exact values; an mpf result must lie within 1e-50
  (relative) of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath

import longrun
from longrun.cli import main
from longrun.exact_null import rejection_region

ALPHAS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 3), Fraction(1, 1000))
PS = (Fraction(7, 10), Fraction(1, 3), Fraction(37, 80), Fraction(1, 2))
TAILS = ("unilateral", "bilateral")
CONVENTIONS = ("paper", "conservative")
N_MAX = 60
LARGE_NS = (500, 2000, 8000, 10_000)  # the large tier's decisions
LARGE_P_VALUE_NS = (500, 2000)  # and its p-values, which still read the whole null table
CONFIGS = [(alpha, tail, convention) for alpha in ALPHAS for tail in TAILS
           for convention in CONVENTIONS]
LARGE_POWER_CONFIGS = {  # and its Fraction powers; the counts at n = 2000 take about 2 s
    500: CONFIGS,
    2000: [(ALPHAS[0], tail, "paper") for tail in TAILS],
}
MPF_CASES = [(n, shift, tail) for n in (1, 10, 60, 250, 500, 2000) for shift in (0.3, -2.0, 3.0)
             for tail in TAILS]
MPF_DIGITS = 60
MPF_TOLERANCE = Fraction(1, 10**50)


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


# ------------------------------------------------------------------ #
# Input CSVs: seeded, formatted from integers so no float or libm
# detail of the platform enters them
# ------------------------------------------------------------------ #


def _residual(rng: random.Random, shift: int = 0) -> str:
    v = rng.randrange(-2_000_000, 2_000_001) + shift
    return f"{'-' if v < 0 else ''}{abs(v) // 10**6}.{abs(v) % 10**6:06d}"


def _rows(seed: int, n: int, shift=lambda i: 0, ties: bool = False) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    xs = [str(i // 3 if ties else i) for i in range(n)]
    rng.shuffle(xs)
    return [(x, _residual(rng, shift(int(x)))) for x in xs]


def _csv(header: str, lines, end: str = "\n") -> bytes:
    return (end.join([header, *lines]) + end).encode("utf-8")


def _raw(rows):  # (x, y, fitted) with y - fitted the residual
    return [f"{x},{Decimal(r) + Decimal('10.5')},10.5" for x, r in rows]


CSVS = {
    "res40": _csv("x,residual", (f"{x},{r}" for x, r in _rows(1, 40))),
    "raw120_bent": _csv("x,y,fitted", _raw(_rows(2, 120, lambda i: 1_500_000 * (40 <= i < 80)))),
    "res330_upper": _csv(" X ,Residual,note", (f"{x},{r},n{x}" for x, r in _rows(3, 330))),
    "bom_crlf": b"\xef\xbb\xbf" + _csv("x,residual", (f"{x},{r}" for x, r in _rows(4, 25)), "\r\n"),
    "ties": _csv("x,residual", (f"{x},{r}" for x, r in _rows(5, 60, ties=True))),
    "zeros": _csv("x,residual", [*(f"{x},{r}" for x, r in _rows(6, 30)), "30,0", "31,-0.0"]),
    "blank_rows": _csv("x,residual", ["", "   ", *(f"{x},{r}" for x, r in _rows(7, 20)), ",,"]),
    "long_run": _csv("x,residual", [f"{i},{-0.5 if i > 30 and i % 2 else 0.25 + i % 7}"
                                    for i in range(50)]),
    "all_zero": _csv("x,residual", ["0,0", "1,0.0", "2,-0"]),
    "parse_error": _csv("x,residual", ["0,0.5", "1,-0.5", "", "2,oops", "3,0.5"]),
    "non_finite": _csv("x,y,fitted", ["0,1,0.5", "1,nan,0.5", "2,1,0.5"]),
    "short_row": _csv("x,residual", ["0,0.5", "1"]),
    "no_columns": _csv("a,b", ["1,2"]),
    "header_only": _csv("x,residual", []),
    "empty": b"",
    "undecodable": b"x,residual\n0,0.5\n1,\xff\n",
    "undecodable_late": b"x,residual\n" + b"3,0.25\n" * 3000 + b"2,\xff\n",
    "undecodable_unused": b"x,residual,note\n0,0.5,ok\n1,-0.5,caf\xe9\n",
    "oversized": b'x,residual\n0,0.5\n1,"' + b"9" * 200_000 + b'"\n',
}


# ------------------------------------------------------------------ #
# CLI cases: (name, argv, csv or None, via) with "{csv}" in argv for the
# input path; via "stdin" feeds the CSV to ``-i -``.  ``usage`` marks an
# argparse error, whose stderr is not kept.
# ------------------------------------------------------------------ #


def _cli_cases() -> list[dict]:
    cases = []

    def add(argv, csv=None, via="path", usage=False):
        name = " ".join(argv).replace("{csv}", csv or "") + (f" <{csv}" if via == "stdin" else "")
        cases.append({"name": name, "argv": argv, "csv": csv, "via": via, "usage": usage})

    for csv in ("res40", "raw120_bent", "res330_upper", "bom_crlf", "ties", "blank_rows",
                "long_run"):
        for tail in TAILS:
            for convention in CONVENTIONS:
                add(["test", "-i", "{csv}", "--tail", tail, "--convention", convention], csv)
        add(["test", "-i", "{csv}", "--format", "text"], csv)
    for csv in ("res40", "bom_crlf", "long_run"):
        add(["test", "-i", "-", "--format", "text"], csv, via="stdin")
    add(["test", "-i", "{csv}", "--alpha", "0.2", "--precision", "30"], "raw120_bent")
    add(["test", "-i", "{csv}", "--alpha", "1/3", "--tail", "bilateral"], "res40")
    add(["test", "-i", "{csv}", "--fail-on-reject"], "long_run")
    add(["test", "-i", "{csv}", "--fail-on-reject"], "res40")
    add(["test", "-i", "{csv}", "--format", "text", "--fail-on-reject"], "raw120_bent")
    for policy in ("error", "drop"):
        for csv in ("zeros", "all_zero"):
            add(["test", "-i", "{csv}", "--zero-policy", policy], csv)
            add(["test", "-i", "-", "--zero-policy", policy, "--format", "text"], csv, "stdin")
    for csv in ("parse_error", "non_finite", "short_row", "no_columns", "header_only", "empty",
                "undecodable", "undecodable_late", "undecodable_unused", "oversized"):
        add(["test", "-i", "{csv}"], csv)
        add(["test", "-i", "-"], csv, via="stdin")
    add(["test", "-i", "no/such/file.csv"])
    add(["test", "-i", "{csv}", "--alpha", "0"], "res40")
    add(["test", "-i", "{csv}", "--alpha", "3/2"], "res40")
    add(["test", "-i", "{csv}", "--tail", "both"], "res40", usage=True)
    add(["test", "-i", "{csv}", "--format", "csv"], "res40", usage=True)

    for n in ("1", "2", "7", "60"):
        for fmt in ("json", "csv", "text"):
            add(["table", "--n", n, "--format", fmt])
    add(["table", "--n", "30", "--precision", "25", "--format", "csv"])
    add(["table", "--n", "0"])

    for n in ("1", "20", "100", "333"):
        for alpha in ("1/20", "0.05", "1/3", "1e-6"):
            add(["critical", "--n", n, "--alpha", alpha])
            add(["critical", "--n", n, "--alpha", alpha, "--conservative", "--format", "text"])
    add(["critical", "--n", "20", "--alpha", "1", "--format", "text"])
    add(["critical", "--n", "0", "--alpha", "1/20"])

    for n in ("1", "20", "60", "250"):
        for tail in TAILS:
            add(["power", "--n", n, "--alpha", "1/20", "--p", "7/10", "--tail", tail])
            add(["power", "--n", n, "--alpha", "1/10", "--p", "0.35", "--tail", tail,
                 "--conservative", "--format", "text"])
            add(["power", "--n", n, "--alpha", "1/20", "--shift", "0.3", "--sigma", "1",
                 "--tail", tail])
    add(["power", "--n", "120", "--alpha", "1/20", "--shift", "-2", "--sigma", "1.5",
         "--precision", "40", "--format", "text"])
    add(["power", "--n", "60", "--alpha", "1/20", "--shift", "16", "--sigma", "1"])
    add(["power", "--n", "20", "--alpha", "1/20", "--p", "1"])
    add(["power", "--n", "20", "--alpha", "1/20", "--shift", "0.3", "--sigma", "0"])
    add(["power", "--n", "20", "--alpha", "1/20", "--shift", "0.3"], usage=True)
    add(["power", "--n", "20", "--alpha", "1/20", "--p", "1/2", "--sigma", "1"], usage=True)

    for n, x in (("1", "1"), ("12", "3"), ("40", "5"), ("40", "40")):
        for fmt in ("json", "csv"):
            add(["snk", "--n", n, "--x", x, "--format", fmt])
    add(["snk", "--n", "12", "--x", "0"])
    add(["snk", "--n", "12", "--x", "3", "--precision", "4"], usage=True)

    for p in ("7/10", "0.3", "1/3"):
        for fmt in ("json", "csv"):
            add(["converge", "--p", p, "--k", "3", "--n-grid", "8,16,32", "--format", fmt])
    add(["converge", "--p", "7/10", "--k", "4", "--n-grid", "10,40", "--precision", "30"])
    add(["converge", "--p", "3/2", "--k", "3", "--n-grid", "8,16"])

    for n in ("1", "6", "10"):
        for fmt in ("json", "csv"):
            add(["oracle", "--n", n, "--format", fmt])
    add(["oracle", "--n", "30"])
    add(["oracle", "--n", "6", "--format", "text"], usage=True)
    return cases


CLI_CASES = _cli_cases()
FULL_TEXT = (  # cases whose whole stdout and stderr are kept beside their digests
    "test -i res40 --format text",
    "test -i - --zero-policy drop --format text <zeros",
    "test -i undecodable",
    "test -i - <undecodable_late",
    "table --n 7 --format csv",
    "critical --n 20 --alpha 1/20 --conservative --format text",
    "power --n 20 --alpha 1/10 --p 0.35 --tail bilateral --conservative --format text",
    "snk --n 12 --x 3 --format csv",
    "converge --p 7/10 --k 3 --n-grid 8,16,32 --format csv",
    "oracle --n 6 --format csv",
)


class _Stdin(io.TextIOWrapper):
    """A text stdin over given bytes, with the ``buffer`` ``longrun test -i -`` reads."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data), encoding="utf-8")


def run_cli(case: dict, workdir: Path) -> dict:
    """Exit code, stdout and stderr of one CLI case, run in this process."""
    argv = list(case["argv"])
    data = CSVS[case["csv"]] if case["csv"] else b""
    if case["csv"] and case["via"] == "path":
        path = workdir / f"{case['csv']}.csv"
        path.write_bytes(data)
        argv = [str(path) if a == "{csv}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, _Stdin(data)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    result = {"exit": code, "stdout": out.getvalue()}
    if not case["usage"]:
        result["stderr"] = err.getvalue()
    return result


def cli_digest(result: dict) -> dict:
    return {key: sha256(v) if isinstance(v, str) else v for key, v in result.items()}


# ------------------------------------------------------------------ #
# Library values
# ------------------------------------------------------------------ #


def _cv(cv) -> str:
    return f"c={cv.c} level={cv.attained_level}"


def decision_lines(n: int, p_values: bool = True) -> dict[str, list[str]]:
    """Lines of the critical values, rejection regions and (if asked for) p-values at one n."""
    lines = {"critical_value": [], "rejection_region": []}
    if p_values:
        lines["p_value"] = [f"{obs} {tail} {longrun.p_value(n, obs, tail)}"
                            for tail in TAILS for obs in range(1, n + 1)]
    for alpha in ALPHAS:
        for convention in CONVENTIONS:
            cv = longrun.critical_value(n, alpha, convention)
            lines["critical_value"].append(f"{alpha} {convention} {_cv(cv)}")
            for tail in TAILS:
                region = rejection_region(n, alpha, tail, convention)
                crit = " ".join(f"{k}:{_cv(v)}" for k, v in region.critical_values.items())
                lines["rejection_region"].append(
                    f"{alpha} {tail} {convention} {region} {crit} size={region.size}")
    return lines


def power_lines(n: int, ps, configs) -> list[str]:
    """Lines of the Fraction powers at one n, for each p of ``ps`` and each configuration."""
    lines = []
    for p in ps:
        spec = longrun.AlternativeSpec.direct(p)
        for alpha, tail, convention in configs:
            res = longrun.power(n, alpha, tail, convention, spec)
            lines.append(f"{p} {alpha} {tail} {convention} {res.critical_region} {res.power}")
    return lines


def library_lines(n: int) -> dict[str, str]:
    """Text of every library value at one n, by function."""
    lines = decision_lines(n) | {"alt_cdf": [], "power": power_lines(n, PS, CONFIGS),
                                 "plus_run_cdf": []}
    for p in PS:
        spec = longrun.AlternativeSpec.direct(p)
        lines["alt_cdf"] += [f"{p} {x} {longrun.alt_cdf(n, x, spec)}" for x in range(n + 1)]
        lines["plus_run_cdf"] += [f"{p} {k} {longrun.plus_run_cdf(n, k, p)}"
                                  for k in range(n + 1)]
    return {name: "\n".join(text) + "\n" for name, text in lines.items()}


def library_digests() -> dict[str, str]:
    return {f"{name} n={n}": sha256(text)
            for n in range(1, N_MAX + 1) for name, text in library_lines(n).items()}


def large_lines(n: int) -> dict[str, list[str]]:
    """Decisions at n, with p-values where the null table is cheap and powers where listed."""
    lines = decision_lines(n, n in LARGE_P_VALUE_NS)
    if n in LARGE_POWER_CONFIGS:
        lines["power"] = power_lines(n, PS[:3], LARGE_POWER_CONFIGS[n])  # p other than 1/2
    return lines


def large_digests(ns=LARGE_NS) -> dict[str, str]:
    """The large tier at every n of ``ns``, one digest per (function, n)."""
    return {f"{name} n={n}": sha256("\n".join(text) + "\n")
            for n in ns for name, text in large_lines(n).items()}


def exact(value: mpmath.mpf) -> Fraction:
    """The exact dyadic value of an mpf."""
    man, exp = value.man_exp
    return Fraction(man) * Fraction(2) ** exp


def decimal_of(value: Fraction, digits: int = MPF_DIGITS) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def mpf_case(n: int, shift: float, tail: str) -> tuple:
    """(spec, power) of one Gaussian-shift case, p and the power both mpf."""
    spec = longrun.AlternativeSpec.gaussian_shift(shift, 1.0)
    return spec, longrun.power(n, ALPHAS[0], tail, "paper", spec).power


def mpf_key(n: int, shift: float, tail: str) -> str:
    return f"power n={n} shift={shift} {tail}"


def within(value: mpmath.mpf, decimal: str) -> bool:
    """``value`` within MPF_TOLERANCE, relative, of the decimal ``decimal``."""
    want = Fraction(decimal)
    return abs(exact(value) - want) <= MPF_TOLERANCE * abs(want)
