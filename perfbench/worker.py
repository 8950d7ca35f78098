"""Run benchmark requests in-process, in a fresh interpreter, against the checkout's src/.

Usage: python3 perfbench/worker.py JOB.json RESULT.json  (with PYTHONPATH=src)

The job lists requests (``test``, ``power`` or ``converge``), the null
tables to build during set-up, and either the order to run the requests
in once or a number of seconds to cycle through them.  With ``trace``
set, every call across a layer boundary becomes a span (see spans.py);
otherwise the package runs untouched.  The result records when the
worker started (``time.monotonic``, comparable with the parent process's clock),
how long set-up took, each request's latency and output, the peak RSS at
the end of the timed loop, and the spans.  Calibration probes (calib.py) run between requests, so
each request's latency is also given at the reference speed.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import calib
from spans import Tracer

RSS_LIMIT_BYTES = 2 << 30  # address-space cap, so a runaway request cannot fill shared memory
PROBE_EVERY_S = 0.1  # calibration probes between requests, at least this often
# Working precision (decimal digits) at which ``power`` requests call the
# package: ``alternative.power`` takes its last step, ``1 - alt_cdf``, at
# the caller's precision, so a caller who wants the package's stated 50
# digits has to ask for them.
CALLER_DPS = 50

# (module, attribute, span name): every name through which one package
# module calls another's public function, plus the entry points the worker
# itself calls.
BOUNDARIES = (
    ("cli", "ingest", "cli.ingest"),
    ("cli", "run_test", "cli.run_test"),
    ("cli", "signs_from_residuals", "run_stats.signs_from_residuals"),
    ("cli", "longest_runs", "run_stats.longest_runs"),
    ("cli", "p_value", "exact_null.p_value"),
    ("cli", "critical_value", "exact_null.critical_value"),
    ("cli", "null_table_by_counting", "exact_null.null_table_by_counting"),
    ("exact_null", "null_table_by_counting", "exact_null.null_table_by_counting"),
    ("alternative", "null_table_by_counting", "exact_null.null_table_by_counting"),
    ("alternative", "critical_value", "exact_null.critical_value"),
    ("alternative", "snk_dp", "conditional_counts.snk_dp"),
    ("alternative", "alt_cdf", "alternative.alt_cdf"),
    ("alternative", "power", "alternative.power"),
    ("asymptotic", "alt_cdf", "alternative.alt_cdf"),
    ("asymptotic", "plus_run_counts", "asymptotic.plus_run_counts"),
    ("asymptotic", "convergence_report", "asymptotic.convergence_report"),
)


def encode(value):
    """Exact, JSON-safe form of a Fraction ('a/b') or an mpf (['mpf', sign, hex mantissa, exp])."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    sign, man, exp, _ = value._mpf_
    return ["mpf", sign, hex(man), exp]


class Worker:
    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.tables: dict[int, object] = {}  # null tables built, for their numerator size
        self.rows = 0

    def span(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def load(self):
        self.cli = self.span("cli.import", importlib.import_module, "longrun.cli")
        pkg = {name: importlib.import_module(f"longrun.{name}")
               for name in ("cli", "exact_null", "alternative", "asymptotic")}
        self.exact_null = pkg["exact_null"]
        self.alternative, self.asymptotic = pkg["alternative"], pkg["asymptotic"]
        self.mpmath = importlib.import_module("mpmath")  # already loaded by the package
        if self.tracer is None:
            return
        build = pkg["exact_null"].null_table_by_counting

        def null_table(n):
            table = build(n)
            self.tables[n] = table
            return table

        for mod, attr, name in BOUNDARIES:
            module = pkg[mod]
            if not hasattr(module, attr):
                continue
            if attr == "null_table_by_counting":
                setattr(module, attr, null_table)
            self.tracer.wrap(module, attr, name)

    def null_table(self, n):
        return self.exact_null.null_table_by_counting(n)

    # One request of each kind; each returns the exact, comparable output.

    def test(self, req):
        cli = self.cli
        parsed = cli.ingest(io.StringIO(req["csv"]))  # (series, dropped) or the series alone
        series = parsed[0] if isinstance(parsed, tuple) else parsed
        report = cli.run_test(series, Fraction(req["alpha"]), req["tail"],
                              req["convention"], req["zero_policy"])
        text = self.span("cli.render", self.render, report)
        if self.tracer is not None:
            self.rows += series.n
        return text

    def render(self, report) -> str:
        """The JSON ``longrun test`` prints, at the CLI's default ``--precision`` of 6."""
        return self.cli._emit_json(report.to_dict(6))

    def power(self, req, dps=CALLER_DPS):
        alt = self.alternative
        if "p" in req:
            spec = alt.AlternativeSpec.direct(req["p"])
        else:
            spec = alt.AlternativeSpec.gaussian_shift(req["shift"], req["sigma"])
        with self.mpmath.workdps(dps):
            result = alt.power(req["n"], Fraction(req["alpha"]), req["tail"], req["convention"],
                               spec)
        return encode(result.power)

    def converge(self, req):
        report = self.asymptotic.convergence_report(req["k"], req["p"], req["grid"])
        return [[n, encode(d)] for n, d in report.entries]

    def run(self, i, req):
        """(latency, output, error) of one request."""
        if self.tracer is not None:
            self.tracer.request = i
        op = getattr(self, req["kind"])
        start = time.perf_counter()
        try:
            out = self.span("request", op, req)
            err = None
        except Exception as exc:  # a failed operation is counted, never fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, out, err


def main(job_path: str, out_path: str) -> None:
    entered = time.monotonic()
    resource.setrlimit(resource.RLIMIT_AS, (RSS_LIMIT_BYTES, RSS_LIMIT_BYTES))
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    w = Worker(job.get("trace", False))
    if w.tracer is not None:
        w.tracer.request = "setup"
    # Set-up steps: the import, then each null table; timed apart, with a
    # calibration probe between them.
    k = calib.probe()
    result = {"entered": entered, "first_probe": k, "setup_raw": 0.0, "setup_scaled": 0.0}
    steps = [w.load] + [functools.partial(w.null_table, n) for n in job.get("tables", ())]
    for step in steps:
        start = time.perf_counter()
        step()
        took = time.perf_counter() - start
        k_next = calib.probe()
        result["setup_raw"] += took
        result["setup_scaled"] += calib.scale(took, k, k_next)
        k = k_next
    result["module"] = w.cli.__file__
    if not job.get("setup_only"):
        reqs, order = job["requests"], job["order"]
        runs, outputs = [], {}  # [request index, seconds, problem or None, start -> scaled]
        probes = [(time.perf_counter(), k)]
        deadline = job.get("loop_seconds")
        loop_start = time.perf_counter()
        pos = 0
        while True:
            i = order[pos % len(order)]
            start = time.perf_counter()
            lat, out, err = w.run(i, reqs[i])
            if err is None:
                if i not in outputs:
                    outputs[i] = out
                elif outputs[i] != out:
                    err = "differs from the first output of the same request"
            runs.append([i, lat, err, start])
            pos += 1
            done = pos == len(order) if deadline is None else \
                time.perf_counter() - loop_start >= deadline
            if done or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), calib.probe()))
            if done:
                break
        # Each request is scaled by the probes just before and after it.
        times = [t for t, _ in probes]
        for run in runs:
            k = bisect.bisect_right(times, run[3])
            run[3] = calib.scale(run[1], probes[k - 1][1], probes[k][1])
        result.update(
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            runs=runs,
            outputs={str(i): out for i, out in outputs.items()},
        )
    if job.get("default_dps_check"):
        # Untimed: each Gaussian-shift power once more at the interpreter's
        # default precision, where a caller who sets none gets its answer.
        dps = w.mpmath.mp.dps
        result["default_dps"] = dps
        result["default_dps_outputs"] = {
            str(i): w.power(req, dps) for i, req in enumerate(job["requests"])
            if req["kind"] == "power" and "p" not in req}
    if w.tracer is not None:
        bits = [max((getattr(p, "numerator", p).bit_length() for p in t.pmf), default=0)
                for t in w.tables.values()]
        result.update(spans=w.tracer.spans,
                      counts={"cli.ingest_rows": w.rows,
                              "exact_null.max_numerator_bits": max(bits, default=0)})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
