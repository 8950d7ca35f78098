"""Command-line front end: ingest residual CSVs, run the test, dump tables.

Subcommands: test, table, critical, power, snk, converge, oracle.  Each
takes only the flags and formats it uses; any other is a configuration error.
Exit codes: 0 success, 1 rejection with --fail-on-reject, 2 input error,
3 configuration error.
All probabilities are emitted both as exact fraction strings and as
decimals rounded to the requested number of significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from contextlib import nullcontext
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero,
                     InvalidOperation, Overflow)
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

# power, snk, converge and oracle import their engines (and mpmath) when they
# run, so a cold ``longrun test`` loads only what it uses
from . import __version__
from .errors import (
    EmptyAfterDrop,
    IngestError,
    LongrunError,
    MissingColumns,
    NonFiniteValue,
    ParseError,
    UnreadableInput,
    ZeroResidual,
)
from .exact_null import (CONVENTIONS, TAILS, critical_value, null_table_by_counting, p_value,
                         rejection_region)
from .run_stats import (ZERO_POLICIES, ResidualSeries, RunSummary, longest_runs,
                        signs_from_residuals)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REJECT = 1  # only with --fail-on-reject
EXIT_INPUT = 2
EXIT_CONFIG = 3
MAX_PRECISION = 10**6  # most --precision digits: a Fraction's decimal prints every one
# how ``longrun test`` decodes a path and stdin: ``ingest`` finds a byte that is not UTF-8
TEXT = {"encoding": "utf-8", "errors": "surrogateescape", "newline": ""}
CHUNK = 1 << 15  # about the characters ``_split`` parses at once: more fall out of the CPU cache
_FORMS = ((("x", "y", "fitted"), ResidualSeries.from_raw),
          (("x", "residual"), ResidualSeries.from_residuals))
# every field set, as a Context copies from decimal.DefaultContext each one it is not given
_DECIMAL = Context(prec=28, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
                   clamp=0, flags=[], traps=[InvalidOperation, DivisionByZero, Overflow])


def fraction_decimal(value: Fraction, precision: int) -> str:
    """Render an exact rational as a decimal with the given significant digits.

    The division and the rendering run in a copy of ``_DECIMAL``, so neither the
    caller's decimal context nor ``decimal.DefaultContext`` changes the digits.
    """
    ctx = _DECIMAL.copy()
    ctx.prec = precision
    return ctx.to_sci_string(ctx.divide(value.numerator, value.denominator))


def prob_fields(value, precision: int) -> dict:
    """Probability as {'fraction': 'a/b' | None, 'decimal': str}."""
    if isinstance(value, Fraction):
        try:
            fraction = f"{value.numerator}/{value.denominator}"
        except ValueError:  # past Python's int/str digit limit, which a Decimal's str is not under
            fraction = f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
        return {"fraction": fraction, "decimal": fraction_decimal(value, precision)}
    import mpmath  # only an mpf gets here, so mpmath is already loaded

    return {"fraction": None, "decimal": mpmath.nstr(value, precision)}


def record_dict(record: NamedTuple, precision: int, *probs: str) -> dict:
    """A result record's fields as JSON, the named probabilities as ``prob_fields``."""
    d = record._asdict()
    for name in probs:
        d[name] = prob_fields(d[name], precision)
    d["schema"] = SCHEMA_VERSION
    return d


class TestReport(NamedTuple):
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
        d = record_dict(self, precision, "p_value", "alpha", "attained_level")
        d.update(statistic=self.statistic._asdict(),
                 critical_values={name: cv.c for name, cv in self.critical_values.items()})
        return d


def ingest(source) -> tuple[ResidualSeries, int]:
    """Parse a residual CSV into a covariate-ordered series.

    Accepts header (x, y, fitted) or (x, residual).  Returns the series plus 0
    dropped rows (zero dropping happens at sign time).  A path, stdin and a ``StringIO``
    are read whole and parsed by ``_split`` where it can; the csv reader reads the rest,
    and other streams, line by line as the stream splits them, so the series or the
    error is the same.  The csv reader's rows are parsed in one streaming pass that skips
    blank rows and raises at the first bad row's line, or where text cannot be decoded or
    split into fields (:class:`UnreadableInput`).  A path is decoded as ``TEXT``; unless
    such text is all ASCII, each row is checked for a byte that is not UTF-8.
    """
    named = isinstance(source, (str, bytes))
    with open(source, **TEXT) if named else nullcontext(source) as fh:
        escaped, lines = getattr(fh, "errors", None) == "surrogateescape", fh
        if escaped or isinstance(fh, io.StringIO):  # others, strict decoders too, go by line
            start = fh.tell() if isinstance(fh, io.StringIO) or named and fh.seekable() else None
            if split := _split(text := fh.read(), escaped):
                del text  # before build, to cap the peak memory of a large file
                return split[0](*split[1]), 0
            escaped = escaped and not text.isascii()  # ASCII holds no escaped byte
            if start is None:  # stdin or a pipe: each line and its end, as TEXT reads them
                lines = map(itemgetter(0), re.finditer(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", text))
            else:
                fh.seek(start)
            del text
        reader = csv.reader(lines)
        try:
            if (header := next(reader, None)) is None:
                raise MissingColumns("empty input")
            if escaped:
                _check_decodable(header, 1)
            cols, idx, build = _schema(header)
            data, end = [], reader.line_num  # the needed values, row by row
            for row in reader:
                lineno, end = end + 1, reader.line_num  # a row starts after the lines before it
                if escaped:
                    _check_decodable(row, lineno)
                try:
                    vals = [float(row[i]) for i in idx]
                except (ValueError, IndexError) as exc:
                    if not "".join(row).strip():  # a blank or whitespace-only row
                        continue
                    raise ParseError(lineno, f"cannot parse row {row!r}: {exc}")
                if not math.isfinite(sum(vals)):  # or an overflow, which this loop passes
                    for v, i in zip(vals, idx):
                        if not math.isfinite(v):
                            raise NonFiniteValue(lineno, cols[i])
                data += vals
        except (UnicodeDecodeError, csv.Error) as exc:
            raise UnreadableInput(reader.line_num, exc) from exc
    if not data:
        raise MissingColumns("no data rows")
    columns = [data[i::len(idx)] for i in range(len(idx))]
    del data  # before build, to cap the peak memory of a large file
    return build(*columns), 0


def _schema(header: list[str]):
    """The header's lower-cased names, the needed columns' indexes and the series builder."""
    if header:  # the byte-order mark of a "CSV UTF-8" file, as Excel writes it
        header[0] = header[0].removeprefix("\ufeff")
    cols = [h.strip().lower() for h in header]
    for names, build in _FORMS:
        if set(names) <= set(cols):
            return cols, [cols.index(name) for name in names], build
    raise MissingColumns(f"header {header!r} lacks columns (x, y, fitted) or (x, residual)")


def _split(text: str, escaped: bool):
    """The builder and needed columns of CSV ``text`` split at commas and line ends, or None.

    None unless csv splits the text so (no quote, NUL, lone \\r or field past its limit; if
    ``escaped``, ASCII), every line holds the header's fields and every needed value is finite.
    A header without the needed columns raises, as it does on the csv reader's path.
    """
    if ('"' in text or "\0" in text or escaped and not text.removeprefix("\ufeff").isascii()
            or "\r" in text and "\r" in (text := text.replace("\r\n", "\n"))):
        return None
    start, end, limit = text.find("\n") + 1, len(text.rstrip("\n")), csv.field_size_limit()
    if not 1 < start < end or start > limit:  # no header, only blank rows or none, a long header
        return None
    _, idx, build = _schema(header := text[:start - 1].split(","))
    width, columns = len(header), [[] for _ in idx]
    while start < end:
        stop = text.find("\n", start + CHUNK, end) % (end + 1)  # a line end, or the end
        fields = (chunk := text[start:stop]).replace("\n", ",\n").split(",")
        lines, start = chunk.count("\n") + 1, stop + 1
        # a line break starts a field: a line holds width fields if every break is in one
        if (len(fields) != width * lines or "".join(fields[width::width]).count("\n") < lines - 1
                or len(chunk) > limit and max(map(len, fields)) > limit):
            return None
        try:
            for column, i in zip(columns, idx):
                column.extend(map(float, fields[i::width]))
        except ValueError:
            return None
    return (build, columns) if all(math.isfinite(sum(c)) for c in columns) else None


def _check_decodable(row: list[str], line: int) -> None:
    """Raise :class:`UnreadableInput` if the row on ``line`` holds a byte that is not UTF-8."""
    try:
        ",".join(row).encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnreadableInput(line - 1, f"line {line}: {exc}") from exc


def run_test(
    series: ResidualSeries,
    alpha: Fraction | float | str,
    tail: str = "unilateral",
    convention: str = "paper",
    zero_policy: str = "error",
) -> TestReport:
    """Compose sign extraction, the statistic, and the exact null machinery."""
    alpha = Fraction(alpha)
    seq = signs_from_residuals(series, zero_policy)
    summary = longest_runs(seq)
    n = seq.n
    region = rejection_region(n, alpha, tail, convention)  # refuses a bad alpha before the table
    pv = p_value(n, summary.l_n, tail)
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


_RENDER = {"json": _emit_json, "csv": _emit_csv, "text": str}


def _dump(rows: list[dict], **fields) -> dict:
    """A row dump's outputs: the rows as CSV, and as JSON with the schema and ``fields``."""
    return {"json": {"schema": SCHEMA_VERSION, **fields, "rows": rows}, "csv": rows}


# ------------------------------------------------------------------ #
# Subcommand handlers: each returns {format: output} for the formats it offers
# ------------------------------------------------------------------ #


def _cmd_test(args) -> dict:
    try:
        if args.input != "-":
            series, _ = ingest(args.input)
        elif sys.stdin is None:  # the process started with its stdin closed
            raise IngestError("stdin is closed")
        else:  # decoded as a path is
            stdin = io.TextIOWrapper(sys.stdin.buffer, **TEXT)
            try:
                series, _ = ingest(stdin)
            finally:
                stdin.detach()  # sys.stdin stays open
    except OSError as exc:  # opening or reading the input; an error writing stdout is not one
        raise IngestError(exc) from exc
    except MemoryError as exc:  # not a rejection, whose exit code an uncaught error would share
        raise IngestError("out of memory reading the input") from exc
    report = run_test(series, args.alpha, args.tail, args.convention, args.zero_policy)
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
    return {"json": d, "text": "\n".join(lines) + "\n"}


def _cmd_table(args) -> dict:
    table = null_table_by_counting(args.n)
    rows = []
    for k in range(1, args.n + 1):
        pk, cdf = table.p(k), table.cdf(k)
        rows.append(
            {
                "k": k,
                "pmf_numerator": pk.numerator,
                "pmf_denominator": pk.denominator,
                "pmf": fraction_decimal(pk, args.precision),
                "cdf_numerator": cdf.numerator,
                "cdf_denominator": cdf.denominator,
                "cdf": fraction_decimal(cdf, args.precision),
            }
        )
    text = [
        f"null distribution of the longest run, n={args.n}\n",
        f"{'k':>4} {'pmf':>14} {'cdf':>14}\n",
    ]
    text += [f"{r['k']:>4} {r['pmf']:>14} {r['cdf']:>14}\n" for r in rows]
    return {**_dump(rows, n=args.n), "text": "".join(text)}


def _cmd_critical(args) -> dict:
    cv = critical_value(args.n, args.alpha, args.convention)
    out = record_dict(cv, args.precision, "alpha", "attained_level")
    text = (
        f"n={cv.n} alpha={cv.alpha} convention={cv.convention}: "
        f"c={cv.c}, attained level {cv.attained_level} "
        f"= {out['attained_level']['decimal']}\n"
    )
    return {"json": out, "text": text}


def _cmd_power(args) -> dict:
    if (args.shift is None) != (args.sigma is None):
        raise ValueError("--shift and --sigma go together")
    from .alternative import AlternativeSpec, power

    if args.p is not None:
        spec = AlternativeSpec.direct(args.p)
    else:
        spec = AlternativeSpec.gaussian_shift(args.shift, args.sigma)
    result = power(args.n, args.alpha, args.tail, args.convention, spec)
    out = record_dict(result, args.precision, "alpha", "power")
    del out["spec"]
    out.update(p=prob_fields(spec.p, args.precision), c=spec.shift, sigma=spec.sigma)
    text = (
        f"n={result.n} alpha={result.alpha} {result.tail} "
        f"({result.convention}): region {result.critical_region}, "
        f"power = {out['power']['decimal']}\n"
    )
    return {"json": out, "text": text}


def _cmd_snk(args) -> dict:
    from .conditional_counts import snk_dp

    table = snk_dp(args.n, args.x)
    rows = [{"k": k, "count": table.counts[k]} for k in range(args.n + 1)]
    return _dump(rows, n=args.n, x=args.x)


def _cmd_converge(args) -> dict:
    import mpmath

    from .asymptotic import convergence_report

    report = convergence_report(args.k, args.p, args.n_grid)
    rows = [{"n": n, "diff": mpmath.nstr(d, args.precision)} for n, d in report.entries]
    return _dump(rows, k=args.k, p=str(args.p), monotone_decreasing=report.monotone_decreasing)


def _cmd_oracle(args) -> dict:
    from .brute_oracle import enumerate_joint

    table = enumerate_joint(args.n)
    rows = [{"k": k, "l": l, "count": c} for (k, l), c in sorted(table.counts.items())]
    return _dump(rows, n=args.n)


# ------------------------------------------------------------------ #
# Argument parsing
# ------------------------------------------------------------------ #


def significant_digits(text: str) -> int:
    """A --precision value: an int in 1..MAX_PRECISION, else a configuration error."""
    if not 1 <= (digits := int(text)) <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: 1 to {MAX_PRECISION} digits")
    return digits


def alpha_level(text: str) -> Fraction:
    """An --alpha value: a fraction a/b with b != 0 or a decimal, else a configuration error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: a fraction a/b with b != 0, or a decimal") from None


def n_grid(text: str) -> list[int]:
    """A --n-grid value: comma-separated ints, else a configuration error."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: comma-separated integers") from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus sign and a decimal, with an exponent or not, or inf, infinity or nan in any
        # case, is a value: -2e-1 and -inf too, which argparse reads as flags
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_CONFIG)


def flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """A flag's names and its ``add_argument`` keywords."""
    return names, kwargs


N = flag("--n", type=int, required=True)
ALPHA = flag("--alpha", type=alpha_level, required=True)
TAIL = flag("--tail", choices=TAILS, default="unilateral")
CONSERVATIVE = flag("--conservative", dest="convention", action="store_const",
                    const="conservative", default="paper")
WITH_TEXT, WITH_CSV = ("json", "text"), ("json", "csv")

# Each subcommand, in help order: (handler, formats, help, whether --precision applies,
# flags); a list among the flags is a group of which exactly one must be given.
SUBCOMMANDS = {
    "test": (_cmd_test, WITH_TEXT, "run the lack-of-fit test on a CSV", True, (
        flag("--input", "-i", required=True, help="CSV path, or - for stdin"),
        (ALPHA[0], ALPHA[1] | {"required": False, "default": Fraction(1, 20)}),
        TAIL,
        flag("--convention", choices=CONVENTIONS, default="paper"),
        flag("--zero-policy", choices=ZERO_POLICIES, default="error",
             help="what to do with exactly-zero residuals (default error)"),
        flag("--fail-on-reject", action="store_true",
             help="exit with code 1 when the test rejects"),
    )),
    "table": (_cmd_table, ("json", "csv", "text"), "null pmf/cdf table", True, (N,)),
    "critical": (_cmd_critical, WITH_TEXT, "critical value at a level", True,
                 (N, ALPHA, CONSERVATIVE)),
    "power": (_cmd_power, WITH_TEXT, "exact power under a shift alternative", True, (
        N, ALPHA,
        [flag("--p", help="Pr(residual > 0) directly"),
         flag("--shift", type=float, help="constant shift c, with --sigma")],
        flag("--sigma", type=float, help="Gaussian error scale, with --shift only"),
        TAIL, CONSERVATIVE,
    )),
    "snk": (_cmd_snk, WITH_CSV, "bounded-run counts by number of ones", False,
            (N, flag("--x", type=int, required=True))),
    "converge": (_cmd_converge, WITH_CSV, "two-sided vs one-sided CDF gap", True, (
        flag("--p", required=True), flag("--k", type=int, required=True),
        flag("--n-grid", type=n_grid, required=True, help="comma-separated n values"),
    )),
    "oracle": (_cmd_oracle, WITH_CSV, "brute-force joint count dump", False, (N,)),
}
COMMANDS = tuple(SUBCOMMANDS)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``longrun`` parser, or subcommand ``only``'s alone: the same as its subparser."""
    parser = _Parser(prog=f"longrun {only}") if only else \
        _Parser(prog="longrun", description=__doc__)
    if only is None:
        parser.add_argument("--version", action="version", version=__version__)
        sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, formats, summary, decimals, flags) in SUBCOMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=summary) if only is None else parser
        p.add_argument("--format", choices=formats, default="json",
                       help="output format (default json)")
        if decimals:
            p.add_argument("--precision", type=significant_digits, default=6,
                           help=f"significant digits of a decimal (default 6, at most "
                           f"{MAX_PRECISION})")
        for entry in flags:
            if isinstance(entry, list):
                group = p.add_mutually_exclusive_group(required=True)
                for names, kwargs in entry:
                    group.add_argument(*names, **kwargs)
            else:
                p.add_argument(*entry[0], **entry[1])
        p.set_defaults(func=func, command=name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building one parser if ``argv`` names a subcommand."""
    if argv and argv[0] in COMMANDS:
        args, unknown = build_parser(argv[0]).parse_known_args(argv[1:])
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    # Exact integers pass Python's int/str digit limit (3.11+ and backports) at
    # about n = 14,300, sooner for a long --p.  Lift it for the command only:
    # the flags argparse converts (--alpha, --n, ...) were read under it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        outputs = args.func(args)
        sys.stdout.write(_RENDER[args.format](outputs[args.format]))
    except (IngestError, ZeroResidual, EmptyAfterDrop) as exc:
        sys.stderr.write(f"longrun: input error: {exc}\n")
        return EXIT_INPUT
    except (LongrunError, ValueError) as exc:
        sys.stderr.write(f"longrun: error: {exc}\n")
        return EXIT_CONFIG
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    rejected = args.command == "test" and outputs["json"]["decision"] == "reject"
    return EXIT_REJECT if rejected and args.fail_on_reject else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
