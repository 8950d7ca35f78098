import csv
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from decimal import ROUND_DOWN, DefaultContext, Decimal, Inexact, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from longrun import AlternativeSpec, ResidualSeries, power
from longrun import cli, exact_null
from longrun.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REJECT,
    build_parser,
    fraction_decimal,
    ingest,
    main,
    run_test,
)
from longrun.errors import MissingColumns, NonFiniteValue, ParseError, UnreadableInput

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*args, stdin=b"", env=None):
    """``python <args>`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


BOM_CSV = "\ufeffx,residual\n0,0.5\n1,-1.5\n2,0.5\n3,0.5\n"
# the same bytes must give the same exit code from a path and from stdin
PATH_OR_STDIN_CSVS = {
    "latin1_byte": (b"x,residual,note\n0,0.5,caf\xe9\n1,-0.5,ok\n", EXIT_INPUT),
    "CR_line_ends": (b"x,residual\r0,0.5\r1,-0.5\r", EXIT_OK),
    "CRLF_line_ends": (b"x,residual\r\n0,0.5\r\n1,-0.5\r\n", EXIT_OK),
    "BOM": (BOM_CSV.encode("utf-8"), EXIT_OK),
}
UNREADABLE_CSVS = {
    "undecodable": b"x,residual\n0,0.5\n1,\xff\n",
    "oversized": b'x,residual\n0,0.5\n1,"' + b"9" * 200_000 + b'"\n',  # past csv's field limit
    "oversized_header": b'x,"' + b"r" * 200_000 + b'"\n0,0.5\n',
}
# a quoted field spans lines 2 and 3, so the bad row is on line 4
QUOTED_BREAK_CSV = 'x,residual,note\n0,0.5,"two\nlines"\n1,oops,x'
LINE_BREAK = re.compile(r"\r\n|\r|\n")  # the line ends of a newline="" stream


class Pipe(io.BytesIO):
    """Bytes that cannot be read again from their start, as from stdin or a pipe."""

    def seekable(self):
        return False


def undecodable_row(row, line):
    """The error for a row holding an escaped byte (U+DC80..U+DCFF), else None."""
    text = ",".join(row)
    if not any("\udc80" <= c <= "\udcff" for c in text):
        return None
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        err = UnreadableInput(line - 1, f"line {line}: {exc}")
        err.__cause__ = exc
        return err
    raise AssertionError(f"{text!r} decodes")


def row_loop_ingest(source):
    """``ingest`` as a Python loop over the rows: the reference for the column pass."""
    named = isinstance(source, (str, bytes))
    opened = open(source, newline="", encoding="utf-8", errors="surrogateescape") if named \
        else nullcontext(source)
    with opened as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumns("empty input")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise UnreadableInput(reader.line_num, exc) from exc
        if err := undecodable_row(header, 1):
            raise err
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        cols = [h.strip().lower() for h in header]
        if {"x", "y", "fitted"} <= set(cols):
            names, build = ("x", "y", "fitted"), ResidualSeries.from_raw
        elif {"x", "residual"} <= set(cols):
            names, build = ("x", "residual"), ResidualSeries.from_residuals
        else:
            raise MissingColumns(
                f"header {header!r} lacks columns (x, y, fitted) or (x, residual)"
            )
        idx = [cols.index(name) for name in names]
        data = []
        try:
            for row in reader:
                # the row's first line: the lines read less the line breaks inside the row
                lineno = reader.line_num - len(LINE_BREAK.findall(",".join(row)))
                if err := undecodable_row(row, lineno):
                    raise err
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    vals = [float(row[i]) for i in idx]
                except (ValueError, IndexError) as exc:
                    raise ParseError(lineno, f"cannot parse row {row!r}: {exc}")
                for v, i in zip(vals, idx):
                    if not math.isfinite(v):
                        raise NonFiniteValue(lineno, cols[i])
                data.append(vals)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise UnreadableInput(reader.line_num, exc) from exc
    if not data:
        raise MissingColumns("no data rows")
    return build(*zip(*data)), 0


def ingest_outcome(fn, make_source):
    """What ``fn`` makes of a CSV: the exact points, or the exception."""
    try:
        series, dropped = fn(make_source())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), getattr(exc, "line", None), str(exc)
    return repr(series.points), dropped


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0", "0.0", "-0.0", "1e3", " 7 ", '"1.5"', '" -2.5 "']),
)
JUNK = st.sampled_from(
    ["nan", "-inf", "inf", "oops", "", "  ", '"1,5"', '"a\nb"', "0x10", "1_0", "NaN"]
)


@st.composite
def residual_csvs(draw):
    """CSV text in either header form, with the rows ``ingest`` must parse, skip or refuse."""
    names = list(draw(st.sampled_from([("x", "y", "fitted"), ("x", "residual")])))
    names += draw(st.lists(st.sampled_from(["id", "note", "w"]), max_size=2, unique=True))
    names = draw(st.permutations(names))
    header = [draw(st.sampled_from([h, h.upper(), f" {h} "])) for h in names]
    if draw(st.integers(0, 19)) == 0:
        header = header[:1]  # too few columns
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind < 6:
            cells = {"x": draw(st.sampled_from(["0", "1", "1.0", "2", "-3.5"]))}  # ties
            for h in ("residual", "fitted", "id", "note", "w"):
                cells[h] = draw(NUMBERS)
            cells["y"] = cells["fitted"] if draw(st.booleans()) else draw(NUMBERS)
            row = [cells[h] for h in names]
            if draw(st.integers(0, 4)) == 0:
                i = draw(st.integers(0, len(row) - 1))
                row[i] = draw(JUNK)
            if draw(st.integers(0, 4)) == 0:
                row = row[: draw(st.integers(0, len(row)))]  # a short row
            rows.append(",".join(row))
        elif kind < 8:
            rows.append(draw(st.sampled_from(["", "   ", " , ", "\t", ",,"])))
        else:
            rows.append(",".join(draw(st.lists(st.one_of(NUMBERS, JUNK), max_size=5))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(header)] + rows) + draw(st.sampled_from(["", end]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestIngest:
    def test_three_column(self):
        series, _ = ingest(io.StringIO("x,y,fitted\n1,2,1.5\n0,0,0.2\n"))
        assert series.residuals == (-0.2, 0.5)

    def test_two_column_passthrough_sorted(self):
        series, _ = ingest(io.StringIO("x,residual\n2,-0.1\n1,0.3\n"))
        assert series.residuals == (0.3, -0.1)

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError) as exc:
            ingest(io.StringIO("x,residual\n1,0.3\n2,oops\n"))
        assert exc.value.line == 3

    def test_missing_columns(self):
        with pytest.raises(MissingColumns):
            ingest(io.StringIO("a,b\n1,2\n"))

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            ingest(io.StringIO("x,residual\n1,nan\n"))

    def test_an_oversized_header_field_is_unreadable(self):
        with pytest.raises(UnreadableInput) as exc:
            ingest(io.StringIO(UNREADABLE_CSVS["oversized_header"].decode()))
        assert str(exc.value) == ("unreadable text (lines read: 1): "
                                  "field larger than field limit (131072)")
        assert isinstance(exc.value.__cause__, csv.Error)

    def test_blank_rows_skipped(self):
        series, _ = ingest(io.StringIO("x,residual\n1,0.3\n\n2,-0.1\n"))
        assert series.n == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.floats(-9, 9)), min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["", "   ", "\t", ",,", " , "])),
                    max_size=6))
    def test_blank_rows_anywhere_leave_the_series(self, points, blanks):
        lines = [f"{x},{r!r}" for x, r in points]
        want = ingest(io.StringIO("\n".join(["x,residual", *lines])))
        for at, blank in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), blank)
        assert ingest(io.StringIO("\n".join(["x,residual", *lines]))) == want

    @pytest.mark.parametrize("text, line", [
        ("x,residual\n\n  \n,,\n0,0.5\n1,oops\n", 6),
        ("x,residual\n0,0.5\n\t\n\n1,inf\n2,-1\n", 5),
        ("x,y,fitted\n , \n0,1,0.5\n\n1,2\n", 5),
    ])
    def test_a_bad_row_after_blank_rows_is_named_by_its_line(self, text, line):
        with pytest.raises((ParseError, NonFiniteValue)) as exc:
            ingest(io.StringIO(text))
        assert exc.value.line == line

    @pytest.mark.parametrize("text", ["x,residual\n\n", "x,residual\n  \n,,\n\t,\n"])
    def test_blank_rows_alone_are_no_data(self, text):
        with pytest.raises(MissingColumns, match="^no data rows$"):
            ingest(io.StringIO(text))

    def test_an_overflowing_sum_is_not_a_bad_row(self):
        series, _ = ingest(io.StringIO("x,residual\n1e308,1e308\n1e308,-1e308\n1e308,1\n"))
        assert series.residuals == (1e308, -1e308, 1.0)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(residual_csvs())
    @example("")
    @example("x,residual\n")
    @example("x,residual\n  \n\t\n")
    @example("x,residual\n\n   \n1,-0.0\n0,0\n")
    @example(QUOTED_BREAK_CSV)
    @example('x,residual,"no\nte"\n0,0.5,a\n1,oops,b\n')  # a break in the header
    @example("x,residual\n1,2,3\n4\n")  # ragged rows whose fields total the header's width twice
    @example("x,residual\n0,0.5\n1,-0.5\n\n")  # a blank last line
    @example("x,residual\n0,0.5\r1,-0.5\n")  # a lone \r
    @example("x,residual,note\n0,0.5,a\r1\n")  # one that leaves each line the header's width
    @example("x,residual\r\n0,0.5\r\n1,-0.5\r\n")
    @example("x,residual,note\n0,0.5,a\0b\n1,-0.5,c\n")  # NUL, unused: 3.10's csv raises
    @example("x,residual,note\n0,0.5," + "9" * 200_000 + "\n1,-0.5,c\n")  # past csv's limit
    @example("x,residual,note" + "e" * 200_000 + "\n0,0.5,a\n")  # a header past the limit
    @example("x,y,fitted")  # a header with no rows
    @example("x,residual,not\u00e9\n0,0.5,caf\u00e9\n1,-0.5,\u65e5\u672c\n")  # UTF-8, unused
    @example("\ufeffnot\u00e9,x,residual\n\u00fc,0,0.5\n,1,-0.5\n")  # a BOM, then UTF-8
    @example("x,residual\n0,\u00a00.5\n1,-0.5\n")  # U+00A0 in a needed field
    @example("x,residual\n0,0.5\u2028\n1,-0.5\n")  # U+2028
    @example("x,residual\n0,\x850.5\n1,-0.5\n")  # U+0085
    @example("x,residual\n0,0.5\n\n\n1,-0.5\n2,0.5\n")  # blank lines in the middle
    @example("x,residual\n\n0,0.5\n1,-0.5\n")  # a blank line right after the header
    def test_column_pass_equals_row_loop(self, text):
        got = ingest_outcome(ingest, lambda: io.StringIO(text))
        assert got == ingest_outcome(row_loop_ingest, lambda: io.StringIO(text))

    @pytest.mark.parametrize("tail, read_error", [
        (b"2,\xff\n", UnicodeDecodeError),
        (b'2,"' + b"9" * 200_000 + b'"\n', csv.Error),
    ], ids=["undecodable", "oversized"])
    @pytest.mark.parametrize("head, error, line", [
        (b"", None, None),
        (b"\n  ,  \n1,0.5\n2,nan\n", NonFiniteValue, 5),
        (b"\n  ,  \n1,0.5\n2,oops\n", ParseError, 5),
    ], ids=["good", "nan", "oops"])
    def test_read_error_after_rows(self, tmp_path, tail, read_error, head, error, line):
        # unreadable text after 20 KB of rows: a bad row before it is still named by line
        path = tmp_path / "r.csv"
        path.write_bytes(b"x,residual\n" + head + b"3,0.25\n" * 3000 + tail)
        got = ingest_outcome(ingest, lambda: str(path))
        assert got == ingest_outcome(row_loop_ingest, lambda: str(path))
        if error:
            assert got[:2] == (error, line)
            return
        with pytest.raises(UnreadableInput) as exc:
            ingest(str(path))
        assert isinstance(exc.value.__cause__, read_error)
        assert 0 < exc.value.line <= 3002  # the lines read before the text failed

    @pytest.mark.parametrize("via", ["path", "pipe", "after_next"])
    @pytest.mark.parametrize("data", [
        b"x,residual,note\n0,0.5,ok\n1,-0.5,caf\xe9\n",
        b"x,residual\n1,2,3\n4\n",
        b"x,residual\n0,0.5\n1,-0.5\n\n",
        b"x,residual,note\n0,0.5,a\r1\n",
        b"x,residual\r\n0,0.5\r\n1,-0.5\r\n",
        b"\xef\xbb\xbfx,residual\n0,0.5\n1,-0.5\n",
        b"x,residual,note\n0,0.5,a\0b\n1,-0.5,c\n",
        b"x,residual,note\n0,0.5," + b"9" * 200_000 + b"\n1,-0.5,c\n",
        b"x,residual\n",
        "x,residual,not\u00e9\n0,0.5,caf\u00e9\n1,-0.5,\u65e5\u672c\n".encode(),
        "\ufeffnot\u00e9,x,residual\n\u00fc,0,0.5\n,1,-0.5\n".encode(),
        "x,residual\n0,\u00a00.5\n1,-0.5\n".encode(),
        "x,residual\n0,0.5\u2028\n1,-0.5\n".encode(),
        "x,residual\n0,\x850.5\n1,-0.5\n".encode(),
        b"x,residual\n0,0.5\n\n\n1,-0.5\n2,0.5\n",
        b"x,residual\n\n0,0.5\n1,-0.5\n",
        b'x,residual,note\n0,0.5,"a\rb"\n1,oops,x\n',
    ], ids=["undecodable_in_an_unused_column", "ragged", "blank_last_line", "lone_CR", "CRLF",
            "BOM", "NUL", "oversized_unquoted", "header_only", "UTF8_in_the_header_and_unused",
            "BOM_then_UTF8", "NBSP_in_a_needed_field", "LS_in_a_needed_field",
            "NEL_in_a_needed_field", "blank_lines_in_the_middle", "blank_line_after_the_header",
            "quoted_CR"])
    def test_split_path_equals_row_loop_from_a_path_and_a_pipe(self, tmp_path, via, data):
        # a path is re-read from its start if the split path refuses it; a pipe cannot be, and
        # a stream read on by next() cannot tell where it is
        def after_next():
            fh = io.TextIOWrapper(io.BytesIO(b"# a line read before\n" + data), **cli.TEXT)
            next(fh)
            return fh

        path = tmp_path / "r.csv"
        path.write_bytes(data)
        make = {"path": lambda: str(path), "after_next": after_next,
                "pipe": lambda: io.TextIOWrapper(Pipe(data), **cli.TEXT)}[via]
        assert ingest_outcome(ingest, make) == ingest_outcome(row_loop_ingest, make)

    @pytest.mark.parametrize("data, split", [
        (b"x,residual\n2,0.25\n0,0.5\n1,-0.5\n", True),
        (b'x,residual,note\n2,0.25,d\n0,0.5,"a,b"\n1,-0.5,c\n', False),
    ], ids=["split", "quoted"])
    def test_a_path_object_reads_as_its_string(self, data, split, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        assert (cli._split(data.decode()) is not None) == split
        got = ingest(path)
        assert got == ingest(str(path)) and got[0].residuals == (0.5, -0.5, 0.25)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
    def test_a_named_pipe_reads_as_a_file(self, tmp_path):
        # a path that cannot seek, as `longrun test -i <(...)` passes: its text is decoded again
        data = b'x,residual,note\n2,0.25,d\n0,0.5,"a,b"\n1,-0.5,c\n'
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        r, w = os.pipe()
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        try:
            got = ingest(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert got == ingest(str(path))

    @pytest.mark.parametrize("via", ["path", "pipe"])
    def test_utf8_text_never_reaches_the_csv_reader(self, via, tmp_path, monkeypatch):
        data = "\ufeffx,residual,not\u00e9\n0,0.5,caf\u00e9\n1,-0.5,\u65e5\u672c\n".encode()
        path = tmp_path / "r.csv"
        path.write_bytes(data)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr(cli.csv, "reader", refuse)
        series, _ = ingest(str(path) if via == "path" else io.TextIOWrapper(Pipe(data), **cli.TEXT))
        assert series.residuals == (0.5, -0.5)

    @pytest.mark.parametrize("via", ["path", "pipe"])
    def test_an_undecodable_byte_never_reaches_the_split_path(self, via, tmp_path, monkeypatch):
        data = b"x,residual,note\n0,0.5,caf\xc3\xa9\n1,-0.5,\xff\n"
        path = tmp_path / "r.csv"
        path.write_bytes(data)

        def refuse(*args):
            raise AssertionError("_split was called")

        monkeypatch.setattr(cli, "_split", refuse)
        with pytest.raises(UnreadableInput) as exc:
            ingest(str(path) if via == "path" else io.TextIOWrapper(Pipe(data), **cli.TEXT))
        assert exc.value.line == 2

    def test_chunks_equal_the_csv_reader(self, monkeypatch):
        rows = [f"{i % 97},{(-1) ** (i // 3) * (i + 0.5)!r}" for i in range(1000)]
        text = "\n".join(["x,residual", *rows]) + "\n"
        monkeypatch.setattr(cli, "CHUNK", 30)  # about 3 lines
        assert cli._split(text) is not None
        got = ingest(io.StringIO(text))
        rows[700] = "700,oops"
        bad = "\n".join(["x,residual", *rows]) + "\n"
        assert ingest_outcome(ingest, lambda: io.StringIO(bad))[:2] == (ParseError, 702)
        monkeypatch.setattr(cli, "_split", lambda text: None)  # the csv reader alone
        assert got == ingest(io.StringIO(text))

    def test_a_strict_stream_keeps_its_line(self):
        # read whole, a strict decoder would raise before any line was counted
        data = b"x,residual\n" + b"3,0.25\n" * 3000 + b"2,\xff\n"
        make = lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        got = ingest_outcome(ingest, make)
        assert got == ingest_outcome(row_loop_ingest, make)
        assert got[:2] == (UnreadableInput, 2340)

    def test_a_caller_stream_counts_its_own_lines(self):
        # a default io.StringIO splits lines at \n alone, so a \r in a quoted field starts none
        with pytest.raises(ParseError) as exc:
            ingest(io.StringIO('x,residual,note\n0,0.5,"a\rb"\n1,oops,x\n'))
        assert exc.value.line == 3

    def test_a_bad_row_stops_the_read(self):
        def lines():
            yield from ["x,residual", "0,0.5", "1,oops"]
            raise AssertionError("read past the bad row")

        with pytest.raises(ParseError) as exc:
            ingest(lines())
        assert exc.value.line == 3

    def test_the_csv_reader_path_streams(self, tmp_path):
        # a quoted field on the last row sends the whole file to the csv reader, which must
        # not hold every row, or their text, beside the series it builds
        rng = random.Random(10**5)
        rows = [f"{i // 3},{rng.gauss(0, 1)!r}" for i in range(10**5)]
        rows[-1] = f'{10**5},"{rng.gauss(0, 1)!r}"'
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["x,residual", *rows]) + "\n")
        tracemalloc.start()
        try:
            got = ingest(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[0].n == 10**5
        assert peak < 2 * held, f"peak {peak} B for a series of {held} B"

    @pytest.mark.parametrize("header", ["x,y,fitted", "x,residual"])
    def test_100_000_rows_with_ties_equal_the_row_loop(self, header, tmp_path):
        rng = random.Random(10**5)
        rows = [",".join([str(i // 3), *(repr(rng.gauss(0, 1)) for _ in header.split(",")[1:])])
                for i in range(10**5)]
        rng.shuffle(rows)
        path = tmp_path / "r.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        got = ingest(str(path))
        assert got[0].n == 10**5
        assert got == row_loop_ingest(str(path))


class TestUndecodableByte:
    """A byte that is not UTF-8 is named by its line, from a path and from stdin."""

    LINE_3 = ("longrun: input error: unreadable text (lines read: 2): line 3: 'utf-8' codec "
              "can't decode byte 0xff in position 2: invalid start byte\n")

    def test_line_3_from_a_path_and_from_stdin(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_bytes(UNREADABLE_CSVS["undecodable"])
        assert run_cli(capsys, "test", "-i", str(path)) == (EXIT_INPUT, "", self.LINE_3)
        proc = run_module("-m", "longrun.cli", "test", "-i", "-",
                          stdin=UNREADABLE_CSVS["undecodable"])
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (EXIT_INPUT, b"",
                                                                        self.LINE_3)

    @pytest.mark.parametrize("via", ["path", "stdin"])
    def test_line_3002_of_a_21_kb_file(self, via, tmp_path):
        data = b"x,residual\n" + b"3,0.25\n" * 3000 + b"2,\xff\n"
        assert len(data) > 21_000
        if via == "path":
            path = tmp_path / "r.csv"
            path.write_bytes(data)
            with pytest.raises(UnreadableInput) as exc:
                ingest(str(path))
            err = str(exc.value)
        else:
            proc = run_module("-m", "longrun.cli", "test", "-i", "-", stdin=data)
            assert proc.returncode == EXIT_INPUT
            err = proc.stderr.decode().removeprefix("longrun: input error: ")
        assert err.startswith("unreadable text (lines read: 3001): line 3002: 'utf-8' codec")

    @pytest.mark.parametrize("data, line, row", [
        (b"x,residual,note\n0,0.5,ok\n1,-0.5,caf\xe9\n", 3, b"1,-0.5,caf\xe9"),
        (b"x,resid\xffual\n0,0.5\n", 1, b"x,resid\xffual"),
        (b"x,residual\n0,0.5\n1,\xe2\x82\n2,oops\n", 3, b"1,\xe2\x82"),
        (b'x,residual,note\n0,0.5,"a\nb\nc"\n1,\xff,x\n', 5, b"1,\xff,x"),
    ], ids=["unused_column", "header", "before_a_bad_row", "after_a_quoted_break"])
    def test_line_and_cause(self, data, line, row, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        with pytest.raises(UnreadableInput) as exc:
            ingest(str(path))
        assert exc.value.line == line - 1
        assert str(exc.value).startswith(f"unreadable text (lines read: {line - 1}): line {line}: ")
        cause = exc.value.__cause__
        assert isinstance(cause, UnicodeDecodeError) and cause.object == row

    def test_a_bad_row_before_it_wins(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"x,residual\n0,0.5\n1,oops\n2,\xff\n")
        with pytest.raises(ParseError) as exc:
            ingest(str(path))
        assert exc.value.line == 3

    def test_utf8_text_in_an_unused_column_reads(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,residual,note\n0,0.5,café\n1,-0.5,ok\n", encoding="utf-8")
        series, _ = ingest(str(path))
        assert series.residuals == (0.5, -0.5)

    def test_a_caller_stream_is_read_as_given(self):
        # text the caller decoded: a surrogate in an unused column is not a byte read here
        series, _ = ingest(io.StringIO("x,residual,note\n0,0.5,\udcff\n1,-0.5,ok\n"))
        assert series.n == 2


class TestQuotedLineBreak:
    """A line break inside a quoted field is a line of the file: later rows keep their line."""

    @pytest.mark.parametrize("via", ["path", "stdin"])
    @pytest.mark.parametrize("field, bad", [
        ("two\nlines", "oops"), ("two\r\nlines", "oops"), ("two\rlines", "oops"),
        ("two\nlines", "nan"),
    ], ids=["LF", "CRLF", "CR", "non_finite"])
    def test_the_bad_row_is_on_line_4(self, via, field, bad, tmp_path, capsys):
        data = f'x,residual,note\n0,0.5,"{field}"\n1,{bad},x\n'.encode()
        if via == "path":
            path = tmp_path / "r.csv"
            path.write_bytes(data)
            code, out, err = run_cli(capsys, "test", "-i", str(path))
        else:
            proc = run_module("-m", "longrun.cli", "test", "-i", "-", stdin=data)
            code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("longrun: input error: line 4: ")


class TestRunTest:
    def test_reject_example(self):
        series = ResidualSeries.from_residuals(range(5), [1, 1, 1, 1, -1])
        r = run_test(series, F(1, 4))
        assert r.statistic.l_n == 4
        assert r.p_value == F(6, 32)
        assert r.critical_values["c"].c == 2
        assert r.decision == "reject"

    def test_alternating_never_rejects(self):
        series = ResidualSeries.from_residuals(range(10), [(-1) ** i for i in range(10)])
        r = run_test(series, F(24, 100))
        assert r.statistic.l_n == 1
        assert r.p_value == 1
        assert r.decision == "fail_to_reject"

    def test_all_positive(self):
        series = ResidualSeries.from_residuals(range(6), [1.0] * 6)
        r = run_test(series, F(1, 20))
        assert r.p_value == F(2, 64)

    def test_decision_matches_region(self):
        for resid in ([1, 1, -1, 1, 1], [1, -1, 1, -1, 1, 1, 1, 1]):
            series = ResidualSeries.from_residuals(range(len(resid)), resid)
            for tail in ("unilateral", "bilateral"):
                r = run_test(series, F(1, 4), tail=tail)
                if tail == "unilateral":
                    in_region = r.statistic.l_n > r.critical_values["c"].c
                else:
                    in_region = (
                        r.statistic.l_n < r.critical_values["c_lower"].c
                        or r.statistic.l_n > r.critical_values["c_upper"].c
                    )
                assert (r.decision == "reject") == in_region

    def test_drop_policy_reported(self):
        series = ResidualSeries.from_residuals(range(4), [1.0, 0.0, -1.0, 1.0])
        r = run_test(series, F(1, 4), zero_policy="drop")
        assert r.n_effective == 3
        assert r.dropped_zeros == 1

    @pytest.mark.parametrize("alpha", [F(0), F(1), F(3, 2)])
    def test_a_bad_alpha_is_refused_before_the_null_table(self, monkeypatch, alpha):
        # the ~n^3 table was built first: over a second at 3,000 rows before the error
        def no_table(n):
            raise AssertionError("the null table was built")

        monkeypatch.setattr(exact_null, "null_table_by_counting", no_table)
        series = ResidualSeries.from_residuals(range(20), [(-1) ** (i // 3) for i in range(20)])
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            run_test(series, alpha)
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            run_test(series, alpha, "bilateral")

    @pytest.mark.parametrize("argv", [
        ["test", "--tail", "bilateral", "--alpha", "1"],
        ["test", "--tail", "bilateral", "--alpha", "3/2"],
        ["power", "--n", "50", "--alpha", "3/2", "--p", "1/2", "--tail", "bilateral"],
    ], ids=["test_1", "test_3_over_2", "power_3_over_2"])
    def test_a_bilateral_alpha_of_one_or_more_is_a_config_error(self, argv, tmp_path, capsys):
        # its halves lie in (0, 1): the tails overlapped, and power read 1.27681
        path = tmp_path / "r.csv"
        path.write_text("x,residual\n" + "".join(f"{i},{(-1) ** (i // 3)}\n" for i in range(250)))
        extra = ["-i", str(path)] if argv[0] == "test" else []
        assert run_cli(capsys, *argv, *extra) == (
            EXIT_CONFIG, "", "longrun: error: alpha must lie in (0, 1)\n")

    def test_alpha_renders_as_its_exact_fraction_without_mpmath(self):
        # in a fresh interpreter, where no other test has imported mpmath
        script = "\n".join([
            "import sys",
            "from decimal import Decimal",
            "from longrun.cli import run_test",
            "from longrun.run_stats import ResidualSeries",
            "series = ResidualSeries.from_residuals(range(6), [1, -1, 1, 1, 1, -1])",
            "for alpha in ('1/20', Decimal('0.05'), 0.05):",
            "    print(run_test(series, alpha).to_dict(6)['alpha']['fraction'])",
            "print('mpmath' in sys.modules)",
        ])
        proc = run_module("-c", script)
        assert proc.returncode == 0, proc.stderr
        dyadic = F(0.05)
        assert proc.stdout.decode().split() == [
            "1/20", "1/20", f"{dyadic.numerator}/{dyadic.denominator}", "False"]

    def test_attained_size_without_mpmath(self):
        # a null-law number, so the package resolves it without the power engine
        script = "\n".join([
            "import sys",
            "import longrun",
            "print(longrun.attained_size(97, '1/3', 'bilateral', 'paper'))",
            "print('mpmath' in sys.modules)",
        ])
        proc = run_module("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().split() == [
            "3038466456974148386952760031/9903520314283042199192993792", "False"]


class TestRendering:
    def test_fraction_decimal(self):
        assert fraction_decimal(F(1, 8), 6) == "0.125"
        assert fraction_decimal(F(1, 3), 4) == "0.3333"

    def test_fraction_decimal_ignores_the_callers_context(self):
        with localcontext() as ctx:
            ctx.prec, ctx.rounding, ctx.Emax, ctx.capitals = 2, ROUND_DOWN, 3, 0
            ctx.traps[Inexact] = True
            assert fraction_decimal(F(2, 3), 6) == "0.666667"
            assert fraction_decimal(F(12345, 1), 3) == "1.23E+4"

    def test_fraction_decimal_ignores_the_default_context(self):
        saved = DefaultContext.copy()
        try:
            DefaultContext.rounding, DefaultContext.Emax, DefaultContext.capitals = ROUND_DOWN, 3, 0
            DefaultContext.traps[Inexact] = True
            assert fraction_decimal(F(2, 3), 6) == "0.666667"
            assert fraction_decimal(F(12345, 1), 3) == "1.23E+4"
        finally:
            DefaultContext.rounding, DefaultContext.Emax = saved.rounding, saved.Emax
            DefaultContext.capitals, DefaultContext.traps = saved.capitals, saved.traps


class TestCommands:
    def test_test_json(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("x,residual\n" + "".join(f"{i},1.0\n" for i in range(5)))
        code, out, _ = run_cli(capsys, "test", "-i", str(path), "--alpha", "1/4")
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["schema"] == 1
        assert d["statistic"]["l_n"] == 5
        assert d["decision"] == "reject"
        assert d["p_value"]["fraction"] == "1/16"

    def test_fail_on_reject(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("x,residual\n" + "".join(f"{i},1.0\n" for i in range(8)))
        code, _, _ = run_cli(
            capsys, "test", "-i", str(path), "--alpha", "0.05", "--fail-on-reject"
        )
        assert code == EXIT_REJECT

    def test_table_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "9", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        total = F(0)
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            total += F(int(row["pmf_numerator"]), int(row["pmf_denominator"]))
        assert total == 1

    def test_critical_json(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--n", "5", "--alpha", "1/4")
        d = json.loads(out)
        assert (code, d["c"], d["attained_level"]["fraction"]) == (EXIT_OK, 2, "1/2")

    def test_critical_conservative(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical", "--n", "5", "--alpha", "1/4", "--conservative"
        )
        d = json.loads(out)
        assert (d["c"], d["attained_level"]["fraction"]) == (3, "3/16")

    def test_power_with_p(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--n", "4", "--alpha", "3/8", "--p", "0.7"
        )
        d = json.loads(out)
        assert d["power"]["fraction"] == "2459/5000"

    def test_power_with_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--n", "10", "--alpha", "0.05",
            "--shift", "0.5", "--sigma", "1",
        )
        d = json.loads(out)
        assert code == EXIT_OK
        assert 0 < float(d["power"]["decimal"]) < 1

    def test_power_with_shift_beyond_phi_rounding(self, capsys):
        # Phi(16) rounds to 1 at 50 digits; 1 - p = Phi(-16) ~ 6.4e-58 is kept, and so is
        # Phi(-300), near the TAIL_BITS limit
        for shift in ("16", "300"):
            code, out, _ = run_cli(
                capsys, "power", "--n", "60", "--alpha", "1/20", "--shift", shift, "--sigma", "1",
            )
            assert code == EXIT_OK
            assert json.loads(out)["power"]["decimal"] == "1.0"

    @pytest.mark.parametrize("shift, message", [
        ("1e300", "p must lie strictly between 0 and 1"),
        ("-1e300", "c/sigma = -1.0e+300 is below -2^512"),
        ("inf", "p must lie strictly between 0 and 1"),
        ("-inf", "p must lie strictly between 0 and 1"),
        ("nan", "c/sigma = nan/1.0 is not a number"),
        ("302", "p must lie strictly between 0 and 1"),  # 1 - p below 2^-TAIL_BITS
    ])
    def test_power_with_an_extreme_shift_is_a_config_error(self, capsys, shift, message):
        # past |c/sigma| ~ 1.9e154 mpmath's erfc series overflows a float: no traceback
        code, out, err = run_cli(
            capsys, "power", "--n", "50", "--alpha", "1/20", f"--shift={shift}", "--sigma", "1",
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("shift, sigma, message", [
        ("1", "nan", "sigma must be positive"),  # a nan shift is among the extreme shifts above
        ("inf", "inf", "c/sigma = inf/inf is not a number"),
    ])
    def test_a_nan_c_over_sigma_names_its_flags(self, capsys, shift, sigma, message):
        code, out, err = run_cli(
            capsys, "power", "--n", "50", "--alpha", "1/20", "--shift", shift, "--sigma", sigma,
        )
        assert (code, out, err) == (EXIT_CONFIG, "", f"longrun: error: {message}\n")

    @pytest.mark.parametrize("shift", ["-2e-1", "-1E+0"])
    def test_a_negative_shift_in_exponent_form_is_a_value(self, capsys, shift):
        # argparse before Python 3.13 reads "-2e-1" as a flag unless it follows "="
        argv = ["power", "--n", "50", "--alpha", "1/20", "--sigma", "1"]
        code, out, err = run_cli(capsys, *argv, "--shift", shift)
        assert (code, err) == (EXIT_OK, "")
        assert out == run_cli(capsys, *argv, f"--shift={shift}")[1]
        assert json.loads(out)["c"] == float(shift)

    @pytest.mark.parametrize("shift, message", [
        ("-inf", "p must lie strictly between 0 and 1"),
        ("-nan", "c/sigma = nan/1.0 is not a number"),
        ("-Infinity", "p must lie strictly between 0 and 1"),
    ])
    def test_a_negative_infinity_or_nan_shift_is_a_value(self, capsys, shift, message):
        # argparse read "-inf" as a flag: "argument --shift: expected one argument"
        argv = ["power", "--n", "5", "--alpha", "1/20", "--sigma", "1"]
        code, out, err = run_cli(capsys, *argv, "--shift", shift)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"longrun: error: {message}\n"
        assert (code, out, err) == run_cli(capsys, *argv, f"--shift={shift}")

    def test_a_negative_infinite_alpha_is_an_invalid_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["critical", "--n", "5", "--alpha", "-inf"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_CONFIG
        assert "argument --alpha: invalid value '-inf'" in err
        assert "expected one argument" not in err

    @pytest.mark.parametrize("first", [False, True], ids=["after_input", "before_input"])
    @pytest.mark.parametrize("value", ["-inf", "-Infinity"])
    def test_a_negative_infinite_alpha_beside_the_input_flag_is_an_invalid_value(
            self, small_csv, capsys, value, first):
        # argparse matched "-inf" to the short flag -i: "argument --alpha: expected one argument"
        alpha, source = ["--alpha", value], ["-i", small_csv]
        got = parse_outcome(main, ["test", *(alpha + source if first else source + alpha)], capsys)
        assert got == parse_outcome(main, ["test", *source, f"--alpha={value}"], capsys)
        assert got[1] == EXIT_CONFIG
        assert f"argument --alpha: invalid value '{value}'" in got[3]

    def test_a_negative_alpha_in_exponent_form_is_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "power", "--n", "5", "--alpha", "-1e-3", "--p", "1/2")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "longrun: error: alpha must lie in (0, 1)\n"

    def test_power_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["power", "--n", "4", "--alpha", "0.05"])
        assert exc.value.code == EXIT_CONFIG

    def test_snk_csv(self, capsys):
        code, out, _ = run_cli(capsys, "snk", "--n", "4", "--x", "2", "--format", "csv")
        assert out.splitlines()[1:] == ["0,0", "1,2", "2,6", "3,2", "4,0"]

    def test_converge_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--p", "0.7", "--k", "3", "--n-grid", "10,20",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n,diff"
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("p", ["3/2", "1"])
    def test_converge_p_outside_unit_interval(self, p, capsys):
        # exited 0 with negative (3/2) or zero (1) gaps
        code, out, err = run_cli(capsys, "converge", "--p", p, "--k", "3", "--n-grid", "8,16")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "between 0 and 1" in err

    def test_converge_negative_k_is_config_error(self, capsys):
        # named the counts' internal x
        code, out, err = run_cli(capsys, "converge", "--p", "0.7", "--k", "-1", "--n-grid", "4")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "longrun: error: k must be >= 0\n"

    @pytest.mark.parametrize("grid", [",", "4,x", ""])
    def test_converge_bad_n_grid_is_config_error(self, grid, capsys):
        # printed int()'s "invalid literal for int() with base 10"
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--p", "0.7", "--k", "2", "--n-grid", grid])
        assert exc.value.code == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and f"argument --n-grid: invalid value {grid!r}" in out.err
        assert "invalid literal" not in out.err

    # each ended in a ZeroDivisionError traceback with exit 1, the code of --fail-on-reject
    @pytest.mark.parametrize("command", ["test", "critical", "power"])
    def test_alpha_with_a_zero_denominator_is_config_error(self, command, capsys):
        args = {"test": ["-i", "-"], "critical": ["--n", "10"],
                "power": ["--n", "10", "--p", "1/3"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--alpha", "1/0"])
        assert exc.value.code == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert out.err.endswith("error: argument --alpha: invalid value '1/0': "
                                "a fraction a/b with b != 0, or a decimal\n")

    @pytest.mark.parametrize("argv", [
        ["power", "--n", "10", "--alpha", "1/20", "--p", "1/0"],
        ["converge", "--p", "1/0", "--k", "3", "--n-grid", "8,16"],
    ])
    def test_p_with_a_zero_denominator_is_config_error(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "longrun: error: p = 1/0 has a zero denominator\n"

    def test_oracle_json(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2")
        d = json.loads(out)
        assert {(r["k"], r["l"]): r["count"] for r in d["rows"]} == {
            (0, 2): 1, (1, 1): 2, (2, 2): 1
        }

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "test", "-i", "/nonexistent.csv")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("where", ["a_directory", "under_a_file", "proc_self_mem"])
    def test_a_path_that_cannot_be_opened_or_read_is_input_error(self, where, small_csv, capsys):
        path = {"a_directory": str(Path(small_csv).parent),
                "under_a_file": os.path.join(small_csv, "x"),
                "proc_self_mem": "/proc/self/mem"}[where]  # opens, but reading it fails (EIO)
        if where == "proc_self_mem" and not os.path.exists(path):
            pytest.skip("no /proc/self/mem on this platform")
        code, out, err = run_cli(capsys, "test", "-i", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("longrun: input error: [Errno ") and err.count("\n") == 1

    def test_a_closed_stdin_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)  # what Python sets when it starts without fd 0
        assert run_cli(capsys, "test", "-i", "-") == (
            EXIT_INPUT, "", "longrun: input error: stdin is closed\n")

    def test_a_stdin_that_fails_to_read_is_input_error(self, capsys, monkeypatch):
        class Failing(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, buffer):
                raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BufferedReader(Failing())))
        assert run_cli(capsys, "test", "-i", "-") == (
            EXIT_INPUT, "", "longrun: input error: [Errno 5] Input/output error\n")

    @pytest.mark.parametrize("via", ["path", "stdin"])
    def test_running_out_of_memory_reading_the_input_is_input_error(self, via, small_csv,
                                                                     capsys, monkeypatch):
        # not exit 1, which --fail-on-reject gives a rejection, nor a traceback
        def ingest(source):
            raise MemoryError

        monkeypatch.setattr(cli, "ingest", ingest)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"x,residual\n0,1\n")))
        assert run_cli(capsys, "test", "-i", small_csv if via == "path" else "-",
                       "--fail-on-reject") == (
            EXIT_INPUT, "", "longrun: input error: out of memory reading the input\n")

    def test_an_error_writing_stdout_is_not_an_input_error(self, small_csv, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        with pytest.raises(BrokenPipeError):
            main(["test", "-i", small_csv])

    def test_bom_file(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text(BOM_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "test", "-i", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["statistic"]["l_n"] == 2

    def test_bom_stdin(self):
        proc = run_module("-m", "longrun.cli", "test", "-i", "-", stdin=BOM_CSV.encode("utf-8"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["statistic"]["l_n"] == 2

    @pytest.mark.parametrize("name", UNREADABLE_CSVS)
    def test_unreadable_file_is_input_error(self, name, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_bytes(UNREADABLE_CSVS[name])
        code, out, err = run_cli(capsys, "test", "-i", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("longrun: input error: unreadable text (lines read: ")

    # stdin decodes strictly under a UTF-8 locale, with surrogateescape under C/POSIX
    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    @pytest.mark.parametrize("name", UNREADABLE_CSVS)
    def test_unreadable_stdin_is_input_error(self, name, errors):
        proc = run_module("-m", "longrun.cli", "test", "-i", "-", stdin=UNREADABLE_CSVS[name],
                          env={"PYTHONIOENCODING": f"utf-8:{errors}"})
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT, b""), proc.stderr
        assert proc.stderr.startswith(b"longrun: input error: ")

    @pytest.mark.parametrize(
        "env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:surrogateescape"},
                {"PYTHONIOENCODING": "latin-1"}], ids=["C_locale", "surrogateescape", "latin1"]
    )
    @pytest.mark.parametrize("name", PATH_OR_STDIN_CSVS)
    def test_stdin_reads_as_a_path_does(self, name, env, tmp_path, capsys):
        data, want = PATH_OR_STDIN_CSVS[name]
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        code, out, _ = run_cli(capsys, "test", "-i", str(path))
        proc = run_module("-m", "longrun.cli", "test", "-i", "-", stdin=data, env=env)
        assert code == proc.returncode == want, proc.stderr
        assert proc.stdout.decode("utf-8") == out

    def test_cold_test_does_not_import_mpmath(self, small_csv):
        # the body of the installed ``longrun`` script, so that longrun.cli is imported
        script = "import sys; from longrun.cli import main; sys.exit(main())"
        proc = run_module("-X", "importtime", "-c", script, "test", "-i", small_csv)
        assert proc.returncode == EXIT_OK, proc.stderr
        imported = {line.rsplit(b"|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert b"longrun.exact_null" in imported
        assert b"mpmath" not in imported
        assert b"dataclasses" not in imported and b"inspect" not in imported
        assert {m for m in imported if m.split(b".")[0] == b"longrun"} == {
            b"longrun",
            b"longrun.cli",
            b"longrun.errors",
            b"longrun.exact_null",
            b"longrun.run_stats",
        }

    def test_zero_residual_default_policy(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("x,residual\n1,0.0\n2,1.0\n")
        code, _, err = run_cli(capsys, "test", "-i", str(path), "--alpha", "0.05")
        assert code == EXIT_INPUT
        code, out, _ = run_cli(
            capsys, "test", "-i", str(path), "--alpha", "0.05", "--zero-policy", "drop"
        )
        assert code == EXIT_OK
        assert json.loads(out)["dropped_zeros"] == 1

    def test_byte_identical_runs(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("x,residual\n" + "".join(f"{i},{(-1)**i}.5\n" for i in range(12)))
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "test", "-i", str(path), "--alpha", "0.05")
            outputs.add(out)
        assert len(outputs) == 1


OFFERED = [
    ("test", "json"), ("test", "text"),
    ("table", "json"), ("table", "csv"), ("table", "text"),
    ("critical", "json"), ("critical", "text"),
    ("power", "json"), ("power", "text"),
    ("snk", "json"), ("snk", "csv"),
    ("converge", "json"), ("converge", "csv"),
    ("oracle", "json"), ("oracle", "csv"),
]

COMMANDS = list(dict.fromkeys(command for command, _ in OFFERED))
SMALL_ARGS = {
    "table": ["--n", "4"],
    "critical": ["--n", "5", "--alpha", "1/4"],
    "power": ["--n", "4", "--alpha", "3/8", "--p", "0.7"],
    "snk": ["--n", "4", "--x", "2"],
    "converge": ["--p", "0.7", "--k", "2", "--n-grid", "4,8"],
    "oracle": ["--n", "3"],
}


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("x,residual\n0,0.5\n1,-1.5\n2,0.5\n3,0.5\n4,0.5\n5,-0.5\n")
    return str(path)


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("command,fmt", OFFERED)
    def test_offered_format_runs(self, command, fmt, small_csv, capsys):
        args = SMALL_ARGS.get(command, ["-i", small_csv])
        code, out, _ = run_cli(capsys, command, *args, "--format", fmt)
        assert code == EXIT_OK
        assert out

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "-i", "r.csv", "--format", "csv"],
            ["snk", "--n", "4", "--x", "2", "--format", "text"],
            ["table", "--n", "4", "--zero-policy", "drop"],
            ["oracle", "--n", "3", "--precision", "4"],
        ],
    )
    def test_unoffered_flag_is_config_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("pair", [["--p", "0.7", "--sigma", "2"], ["--shift", "0.3"]],
                             ids=["sigma_with_p", "shift_alone"])
    def test_shift_and_sigma_go_together(self, pair, capsys):
        code, out, err = run_cli(capsys, "power", "--n", "4", "--alpha", "3/8", *pair)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "longrun: error: --shift and --sigma go together\n"

    @pytest.mark.parametrize("command", ["test", "table", "critical", "power", "converge"])
    @pytest.mark.parametrize("precision", ["0", "-2"])
    def test_precision_below_one_is_config_error(self, command, precision, small_csv, capsys):
        args = SMALL_ARGS.get(command, ["-i", small_csv])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--precision", precision])
        assert exc.value.code == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and "argument --precision" in out.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_precision_above_the_cap_is_config_error(self, command, small_csv, capsys):
        args = SMALL_ARGS.get(command, ["-i", small_csv])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--precision", str(cli.MAX_PRECISION + 1)])
        assert exc.value.code == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and "--precision" in out.err

    def test_precision_at_the_cap_prints_every_digit(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--n", "10", "--alpha", "1/3",
                               "--precision", str(cli.MAX_PRECISION))
        assert code == EXIT_OK
        assert json.loads(out)["alpha"]["decimal"] == "0." + "3" * cli.MAX_PRECISION


def parse_outcome(parse, argv, capsys):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    try:
        args, code = vars(parse(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return args, code, out.out, out.err


class TestOneSubcommandParser:
    """``main`` builds only the named subcommand's parser, with the full parser's behaviour."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("tail", [
        ["--help"], ["-h"], ["--bogus", "1"], [], ["--format", "yaml"], ["--version"],
        ["--n", "x"], ["-i", "r.csv", "--alpha"], ["--precision", "3", "extra"],
        ["--n", "5", "--alpha", "1/20", "--p", "1/2", "--shift", "1"], ["--precision", "0"],
        ["-i", "r.csv", "--alpha", "-inf"], ["--alpha", "-Infinity", "-i", "r.csv"],
    ], ids=["help", "h", "bad_flag", "missing_required", "bad_choice", "version", "bad_int",
            "missing_value", "extra_positional", "exclusive", "precision_below_one",
            "minus_inf_alpha_after_input", "minus_infinity_alpha_before_input"])
    def test_same_output_as_the_full_parser(self, command, tail, capsys):
        argv = [command, *tail]
        single = parse_outcome(cli.parse_args, argv, capsys)
        assert single == parse_outcome(build_parser().parse_args, argv, capsys)
        assert single[1] in (None, 0, EXIT_CONFIG)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_arguments_parse_alike(self, command, small_csv, capsys):
        argv = [command, *SMALL_ARGS.get(command, ["-i", small_csv])]
        single = parse_outcome(cli.parse_args, argv, capsys)
        assert single[0] is not None and single[0]["command"] == command
        assert single == parse_outcome(build_parser().parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["nosuch"], ["-h", "test"],
                                      ["--version", "test"], ["tes", "-i", "r.csv"]])
    def test_no_subcommand_first_gets_the_full_parser(self, argv, capsys):
        got = parse_outcome(main, argv, capsys)
        full = parse_outcome(build_parser().parse_args, argv, capsys)
        assert got[1:] == full[1:] and got[1] is not None

    def test_a_named_subcommand_builds_one_parser(self, small_csv, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only)
                            or build_parser(only))
        code, out, _ = run_cli(capsys, "test", "-i", small_csv, "--alpha", "1/4")
        assert code == EXIT_OK and json.loads(out)["n_effective"] == 6
        assert built == ["test"]

    def test_commands_are_the_full_parsers_subcommands(self):
        choices = build_parser()._subparsers._group_actions[0].choices
        assert tuple(choices) == cli.COMMANDS


class TestTextOutput:
    def test_test_text(self, small_csv, capsys):
        _, out, _ = run_cli(capsys, "test", "-i", small_csv, "--alpha", "1/4", "--format", "text")
        assert out.splitlines() == [
            "longest-run lack-of-fit test (n=6, dropped_zeros=0)",
            "statistic: L=3 (L+=3, L-=1, k=4)",
            "p-value (unilateral): 19/32 = 0.59375",
            "critical values (paper): {'c': 3}",
            "attained level: 1/4 = 0.25",
            "decision at alpha=1/4: fail_to_reject",
        ]

    def test_table_text(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "4", "--format", "text")
        assert out.splitlines() == [
            "null distribution of the longest run, n=4",
            "   k            pmf            cdf",
            "   1          0.125          0.125",
            "   2            0.5          0.625",
            "   3           0.25          0.875",
            "   4          0.125              1",
        ]

    def test_critical_text(self, capsys):
        _, out, _ = run_cli(capsys, "critical", *SMALL_ARGS["critical"], "--format", "text")
        assert out == "n=5 alpha=1/4 convention=paper: c=2, attained level 1/2 = 0.5\n"

    def test_power_text(self, capsys):
        _, out, _ = run_cli(capsys, "power", *SMALL_ARGS["power"], "--format", "text")
        assert out == "n=4 alpha=3/8 unilateral (paper): region L > 2, power = 0.4918\n"


class TestLongIntegers:
    def test_power_fraction_past_the_int_digit_limit(self, capsys):
        # The power's denominator has 4,501 digits, past Python's default limit of 4,300.
        p = "1/1" + "0" * 50
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run_cli(capsys, "power", "--n", "90", "--alpha", "0.05", "--p", p)
        assert code == EXIT_OK
        num, den = json.loads(out)["power"]["fraction"].split("/")
        exact = power(90, F(1, 20), "unilateral", "paper", AlternativeSpec.direct(p)).power
        assert Decimal(num) == Decimal(exact.numerator)
        assert Decimal(den) == Decimal(exact.denominator)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_record_past_the_int_digit_limit(self):
        # at n = 15,000 the attained level's numerator has over 4,500 digits
        set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        record = exact_null.critical_value(15000, F(1, 20))
        try:
            set_limit(4300)  # Python's default
            limited = cli.record_dict(record, 6, "alpha", "attained_level")
            set_limit(0)
            lifted = cli.record_dict(record, 6, "alpha", "attained_level")
        finally:
            set_limit(limit)
        assert limited == lifted
        assert len(lifted["attained_level"]["fraction"]) > 2 * 4300
