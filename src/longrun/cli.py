"""Command-line front end: ingest residual CSVs, run the test, dump tables.

Subcommands: test, table, critical, power, snk, converge, oracle.
Exit codes: 0 success, 2 input error, 3 configuration error.
All probabilities are emitted both as exact fraction strings and as
decimals rounded to the requested number of significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath

from . import __version__
from .alternative import AlternativeSpec, power
from .asymptotic import convergence_report
from .brute_oracle import enumerate_joint
from .conditional_counts import snk_dp
from .errors import (
    EmptyAfterDrop,
    IngestError,
    LongrunError,
    MissingColumns,
    NonFiniteValue,
    ParseError,
    ZeroResidual,
)
from .exact_null import critical_value, null_table_by_counting, p_value, rejection_region
from .run_stats import ResidualSeries, RunSummary, longest_runs, signs_from_residuals

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REJECT = 1  # only with --fail-on-reject
EXIT_INPUT = 2
EXIT_CONFIG = 3


def fraction_decimal(value: Fraction, precision: int) -> str:
    """Render an exact rational as a decimal with the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = precision
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def prob_fields(value, precision: int) -> dict:
    """Probability as {'fraction': 'a/b' | None, 'decimal': str}."""
    if isinstance(value, Fraction):
        return {
            "fraction": f"{value.numerator}/{value.denominator}",
            "decimal": fraction_decimal(value, precision),
        }
    return {"fraction": None, "decimal": mpmath.nstr(value, precision)}


@dataclass(frozen=True)
class TestReport:
    n_effective: int
    dropped_zeros: int
    statistic: RunSummary
    p_value: Fraction
    alpha: Fraction
    tail: str
    convention: str
    critical_values: dict
    attained_level: Fraction
    decision: str
    config: dict

    def to_dict(self, precision: int) -> dict:
        crit = {name: cv.c for name, cv in self.critical_values.items()}
        return {
            "schema": SCHEMA_VERSION,
            "n_effective": self.n_effective,
            "dropped_zeros": self.dropped_zeros,
            "statistic": {
                "l_plus": self.statistic.l_plus,
                "l_minus": self.statistic.l_minus,
                "l_n": self.statistic.l_n,
                "k": self.statistic.k,
            },
            "p_value": prob_fields(self.p_value, precision),
            "alpha": prob_fields(self.alpha, precision),
            "tail": self.tail,
            "convention": self.convention,
            "critical_values": crit,
            "attained_level": prob_fields(self.attained_level, precision),
            "decision": self.decision,
            "config": self.config,
        }


def ingest(source, fmt: str = "csv") -> tuple[ResidualSeries, int]:
    """Parse a residual CSV into a covariate-ordered series.

    Accepts header (x, y, fitted) or (x, residual).  Returns the series
    plus 0 dropped rows (zero dropping happens at sign time).
    """
    if fmt != "csv":
        raise ValueError(f"unsupported input format {fmt!r}")
    close = False
    if isinstance(source, (str, bytes)):
        fh = open(source, newline="", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumns("empty input")
        cols = [h.strip().lower() for h in header]
        if {"x", "y", "fitted"} <= set(cols):
            idx = (cols.index("x"), cols.index("y"), cols.index("fitted"))
            mode = "raw"
        elif {"x", "residual"} <= set(cols):
            idx = (cols.index("x"), cols.index("residual"))
            mode = "precomputed"
        else:
            raise MissingColumns(
                f"header {header!r} lacks columns (x, y, fitted) or (x, residual)"
            )
        xs, ys, fs, rs = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                vals = [float(row[i]) for i in idx]
            except (ValueError, IndexError) as exc:
                raise ParseError(lineno, f"cannot parse row {row!r}: {exc}")
            for v, i in zip(vals, idx):
                if not math.isfinite(v):
                    raise NonFiniteValue(lineno, cols[i])
            if mode == "raw":
                xs.append(vals[0]); ys.append(vals[1]); fs.append(vals[2])
            else:
                xs.append(vals[0]); rs.append(vals[1])
        if not xs:
            raise MissingColumns("no data rows")
        if mode == "raw":
            return ResidualSeries.from_raw(xs, ys, fs), 0
        return ResidualSeries.from_residuals(xs, rs), 0
    finally:
        if close:
            fh.close()


def run_test(
    series: ResidualSeries,
    alpha: Fraction,
    tail: str = "unilateral",
    convention: str = "paper",
    zero_policy: str = "error",
) -> TestReport:
    """Compose sign extraction, the statistic, and the exact null machinery."""
    seq = signs_from_residuals(series, zero_policy)
    summary = longest_runs(seq)
    n = seq.n
    pv = p_value(n, summary.l_n, tail)
    region = rejection_region(n, alpha, tail, convention)
    return TestReport(
        n_effective=n,
        dropped_zeros=len(seq.zero_positions),
        statistic=summary,
        p_value=pv,
        alpha=alpha,
        tail=tail,
        convention=convention,
        critical_values=region.critical_values,
        attained_level=region.size,
        decision="reject" if region.rejects(summary.l_n) else "fail_to_reject",
        config={"zero_policy": zero_policy},
    )


# ------------------------------------------------------------------ #
# Output rendering
# ------------------------------------------------------------------ #


def _emit_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _table_rows(n: int, precision: int) -> list[dict]:
    table = null_table_by_counting(n)
    rows = []
    cdf = Fraction(0)
    for k in range(1, n + 1):
        pk = table.p(k)
        cdf += pk
        rows.append(
            {
                "k": k,
                "pmf_numerator": pk.numerator,
                "pmf_denominator": pk.denominator,
                "pmf": fraction_decimal(pk, precision),
                "cdf_numerator": cdf.numerator,
                "cdf_denominator": cdf.denominator,
                "cdf": fraction_decimal(cdf, precision),
            }
        )
    return rows


# ------------------------------------------------------------------ #
# Subcommand handlers
# ------------------------------------------------------------------ #


def _cmd_test(args) -> int:
    source = sys.stdin if args.input == "-" else args.input
    series, _ = ingest(source)
    report = run_test(series, args.alpha, args.tail, args.convention, args.zero_policy)
    if args.format == "json":
        sys.stdout.write(_emit_json(report.to_dict(args.precision)))
    else:
        d = report.to_dict(args.precision)
        lines = [
            f"longest-run lack-of-fit test (n={d['n_effective']}, "
            f"dropped_zeros={d['dropped_zeros']})",
            f"statistic: L={d['statistic']['l_n']} "
            f"(L+={d['statistic']['l_plus']}, L-={d['statistic']['l_minus']}, "
            f"k={d['statistic']['k']})",
            f"p-value ({d['tail']}): {d['p_value']['fraction']} "
            f"= {d['p_value']['decimal']}",
            f"critical values ({d['convention']}): {d['critical_values']}",
            f"attained level: {d['attained_level']['fraction']} "
            f"= {d['attained_level']['decimal']}",
            f"decision at alpha={d['alpha']['fraction']}: {d['decision']}",
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    if args.fail_on_reject and report.decision == "reject":
        return EXIT_REJECT
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = _table_rows(args.n, args.precision)
    if args.format == "json":
        sys.stdout.write(_emit_json({"schema": SCHEMA_VERSION, "n": args.n, "rows": rows}))
    elif args.format == "csv":
        sys.stdout.write(_emit_csv(rows))
    else:
        sys.stdout.write(f"null distribution of the longest run, n={args.n}\n")
        sys.stdout.write(f"{'k':>4} {'pmf':>14} {'cdf':>14}\n")
        for r in rows:
            sys.stdout.write(f"{r['k']:>4} {r['pmf']:>14} {r['cdf']:>14}\n")
    return EXIT_OK


def _cmd_critical(args) -> int:
    convention = "conservative" if args.conservative else "paper"
    cv = critical_value(args.n, args.alpha, convention)
    out = {
        "schema": SCHEMA_VERSION,
        "n": cv.n,
        "alpha": prob_fields(cv.alpha, args.precision),
        "c": cv.c,
        "attained_level": prob_fields(cv.attained_level, args.precision),
        "convention": cv.convention,
    }
    if args.format == "json":
        sys.stdout.write(_emit_json(out))
    else:
        sys.stdout.write(
            f"n={cv.n} alpha={cv.alpha} convention={cv.convention}: "
            f"c={cv.c}, attained level {cv.attained_level} "
            f"= {fraction_decimal(cv.attained_level, args.precision)}\n"
        )
    return EXIT_OK


def _cmd_power(args) -> int:
    if args.p is not None:
        spec = AlternativeSpec.direct(args.p)
    else:
        spec = AlternativeSpec.gaussian_shift(args.shift, args.sigma)
    convention = "conservative" if args.conservative else "paper"
    result = power(args.n, args.alpha, args.tail, convention, spec)
    out = {
        "schema": SCHEMA_VERSION,
        "n": result.n,
        "alpha": prob_fields(result.alpha, args.precision),
        "tail": result.tail,
        "convention": result.convention,
        "p": prob_fields(
            spec.p if isinstance(spec.p, Fraction) else spec.p, args.precision
        ),
        "c": spec.shift,
        "sigma": spec.sigma,
        "critical_region": result.critical_region,
        "power": prob_fields(result.power, args.precision),
    }
    if args.format == "json":
        sys.stdout.write(_emit_json(out))
    else:
        sys.stdout.write(
            f"n={result.n} alpha={result.alpha} {result.tail} "
            f"({result.convention}): region {result.critical_region}, "
            f"power = {out['power']['decimal']}\n"
        )
    return EXIT_OK


def _cmd_snk(args) -> int:
    table = snk_dp(args.n, args.x)
    rows = [{"k": k, "count": table.counts[k]} for k in range(args.n + 1)]
    if args.format == "json":
        sys.stdout.write(
            _emit_json(
                {"schema": SCHEMA_VERSION, "n": args.n, "x": args.x, "rows": rows}
            )
        )
    else:
        sys.stdout.write(_emit_csv(rows))
    return EXIT_OK


def _cmd_converge(args) -> int:
    grid = [int(v) for v in args.n_grid.split(",")]
    report = convergence_report(args.k, args.p, grid)
    rows = [
        {"n": n, "diff": mpmath.nstr(d, args.precision)} for n, d in report.entries
    ]
    if args.format == "json":
        sys.stdout.write(
            _emit_json(
                {
                    "schema": SCHEMA_VERSION,
                    "k": args.k,
                    "p": str(args.p),
                    "rows": rows,
                    "monotone_decreasing": report.monotone_decreasing,
                }
            )
        )
    else:
        sys.stdout.write(_emit_csv(rows))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    table = enumerate_joint(args.n)
    rows = [
        {"k": k, "l": l, "count": c}
        for (k, l), c in sorted(table.counts.items())
    ]
    if args.format == "json":
        sys.stdout.write(
            _emit_json({"schema": SCHEMA_VERSION, "n": args.n, "rows": rows})
        )
    else:
        sys.stdout.write(_emit_csv(rows))
    return EXIT_OK


# ------------------------------------------------------------------ #
# Argument parsing
# ------------------------------------------------------------------ #


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_CONFIG)


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )
    common.add_argument(
        "--precision", type=int, default=6,
        help="significant digits for decimal rendering (default 6)",
    )
    common.add_argument(
        "--zero-policy", choices=("error", "drop"), default="error",
        help="what to do with exactly-zero residuals (default error)",
    )

    parser = _Parser(prog="longrun", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", parents=[common], help="run the lack-of-fit test on a CSV")
    p.add_argument("--input", "-i", required=True, help="CSV path, or - for stdin")
    p.add_argument("--alpha", type=_fraction, default=Fraction(1, 20))
    p.add_argument("--tail", choices=("unilateral", "bilateral"), default="unilateral")
    p.add_argument("--convention", choices=("paper", "conservative"), default="paper")
    p.add_argument(
        "--fail-on-reject", action="store_true",
        help="exit with code 1 when the test rejects",
    )
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("table", parents=[common], help="null pmf/cdf table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("critical", parents=[common], help="critical value at a level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--conservative", action="store_true")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("power", parents=[common], help="exact power under a shift alternative")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--p", type=str, default=None, help="Pr(residual > 0) directly")
    p.add_argument("--shift", type=float, default=None, help="constant shift c")
    p.add_argument("--sigma", type=float, default=None, help="Gaussian error scale")
    p.add_argument("--tail", choices=("unilateral", "bilateral"), default="unilateral")
    p.add_argument("--conservative", action="store_true")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("snk", parents=[common], help="bounded-run counts by number of ones")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=_cmd_snk)

    p = sub.add_parser("converge", parents=[common], help="two-sided vs one-sided CDF gap")
    p.add_argument("--p", type=str, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-grid", type=str, required=True, help="comma-separated n values")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("oracle", parents=[common], help="brute-force joint count dump")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "power":
        if (args.p is None) == (args.shift is None):
            parser.error("power needs exactly one of --p or (--shift and --sigma)")
        if args.shift is not None and args.sigma is None:
            parser.error("--shift requires --sigma")
    try:
        return args.func(args)
    except (IngestError, ZeroResidual, EmptyAfterDrop) as exc:
        sys.stderr.write(f"longrun: input error: {exc}\n")
        return EXIT_INPUT
    except FileNotFoundError as exc:
        sys.stderr.write(f"longrun: input error: {exc}\n")
        return EXIT_INPUT
    except (LongrunError, ValueError) as exc:
        sys.stderr.write(f"longrun: error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
