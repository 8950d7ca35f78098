"""The four benchmark workloads, untraced (end-to-end metrics) and traced (per-layer).

Every workload is a closed loop with one client: the next request starts
only when the previous one has finished.  ``test-cold`` and
``test-scale`` start one ``longrun test`` process per request; the
in-process workloads run in ``worker.py``, one fresh interpreter per run
(or per pass), so the package's caches never carry over.

Each workload returns a ``Result``: the metrics named in BENCHMARK.json
(``generic``), the same numbers under the names a reader of that workload
expects (``named``, with sample counts), and the operations attempted and
failed.  An operation fails when it raises, exits nonzero, times out
outside the ladder's stopping rule, or gives an answer that
``reference.py`` rejects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

import calib
import gen
import reference
from spans import self_times, summarize

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

CHILD_AS_LIMIT = 2 << 30  # address-space cap on every process the benchmark starts
COLD_TIMEOUT_S = 60.0  # test-cold: a request running longer fails
WORKER_SETUPS = 3  # test-warm: worker starts timed for setup_s
BASE_RUNG = 1  # test-scale: index of the rung every commit passes, timed repeatedly
# test-scale budgets of a rung.  On a 2-vCPU Xeon at 2.0 GHz longrun 0.1.0
# takes about 5.6 s on 500 rows and 50 s on 1,000; 12 s leaves room for a
# slow phase of a shared machine (up to 1.8x) without letting 1,000 rows pass.
RUNG_BUDGET_S = 12.0
RUNG_RSS_MB = 1024.0


@dataclass(frozen=True)
class Sizes:
    cold_ns: tuple  # test-cold: one request per n per pass
    warm_ns: tuple  # test-warm: null tables built in set-up
    warm_pool: int  # test-warm: distinct inputs per n
    warm_traced_cycles: int  # test-warm: passes over the pool in a traced replay
    power_ns: tuple
    shifts: int
    rational_ps: int
    converge_grid: tuple
    rungs: tuple  # test-scale ladder, rows per rung
    base_runs: int = 24  # test-scale: least number of timed runs of the base rung
    setup_starts: int = 9  # interpreter starts timed for setup_s


FULL = Sizes(
    # Three n, about 2.8 s per pass with longrun 0.1.0, so a run holds
    # several passes and each n is timed several times.
    cold_ns=(120, 220, 320),
    warm_ns=(200, 250, 300),
    warm_pool=16,
    warm_traced_cycles=20,
    power_ns=(60, 120, 180, 250),
    shifts=24,
    rational_ps=3,
    converge_grid=(16, 32, 64, 128),
    rungs=tuple(125 * 2**k for k in range(11)),  # 125 .. 128000
)

# A run of every workload in a few seconds, for the self-test.
SMOKE = Sizes(
    cold_ns=(12, 16, 20),
    warm_ns=(14, 18),
    warm_pool=3,
    warm_traced_cycles=2,
    power_ns=(10, 16),
    shifts=3,
    rational_ps=2,
    converge_grid=(8, 12),
    rungs=(10, 20, 40, 80),
    base_runs=3,
    setup_starts=3,
)


@dataclass
class Result:
    generic: dict = field(default_factory=dict)  # name -> (value, unit)
    named: list = field(default_factory=list)  # (name, value, unit, samples)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # the first few reasons
    spans: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


class WorkerTimeout(RuntimeError):
    """A worker ran past its timeout and was killed."""


class Bench:
    """Paths, the child environment and process handling for one run."""

    def __init__(self, root: Path, work: Path, sizes: Sizes):
        self.root, self.work, self.sizes = root, work, sizes
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.python = sys.executable
        self._digest = hashlib.sha256()
        self._files = 0
        self.probes: list[float] = []  # every in-process calibration probe taken here
        self.process_probes: list[float] = []  # and every process probe
        self._last_process_probe = (float("-inf"), 0.0)  # (time.monotonic(), seconds)

    def probe(self) -> float:
        k = calib.probe()
        self.probes.append(k)
        return k

    def process_probe(self, fresh: bool) -> float:
        """A process probe; unless ``fresh``, one taken in the last 0.25 s serves."""
        taken, k = self._last_process_probe
        if fresh or time.monotonic() - taken > 0.25:
            k = calib.process_probe(self.python)
            self._last_process_probe = (time.monotonic(), k)
            self.process_probes.append(k)
        return k

    def scale_process(self, seconds: float, before: float) -> float:
        """Seconds of a child process timed after probe ``before``, at the reference speed."""
        after = self.process_probe(fresh=True)
        return calib.scale(seconds, before, after, calib.REFERENCE_PROCESS_S)

    def note_input(self, req: dict) -> None:
        self._digest.update(json.dumps(req, sort_keys=True).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def path(self, stem: str) -> Path:
        self._files += 1
        return self.work / f"{self._files:05d}-{stem}"

    def child(self, argv, *, timeout: float, stdout: Path | None = None) -> dict:
        """Run one process to completion or until ``timeout``; its own rusage included."""
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err_path = self.path("stderr.txt")
        err = open(err_path, "wb")
        spawn = time.monotonic()
        try:
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, preexec_fn=_limit_child)
        finally:
            err.close()
            if stdout:
                out.close()
        timed_out = False
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                os.close(fd)
            if not ready:
                timed_out = True
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")[-2000:]
        err_path.unlink()
        return {
            "spawn": spawn,
            "wall": wall,
            "code": proc.returncode,
            "timed_out": timed_out,
            "rss_mb": usage.ru_maxrss / 1024,
            "stderr": stderr,
        }

    def import_setup(self) -> float:
        """Wall time of one interpreter start plus ``import longrun.cli``."""
        return self.child([self.python, "-c", "import longrun.cli"], timeout=60)["wall"]

    def import_setups(self) -> list[tuple[float, float]]:
        """(raw, scaled) times of consecutive starts, a process probe between each two."""
        out = []
        for _ in range(self.sizes.setup_starts):
            before = self.process_probe(fresh=False)
            raw = self.import_setup()
            out.append((raw, self.scale_process(raw, before)))
        return out

    def worker(self, job: dict, timeout: float) -> tuple[dict, dict]:
        """Run worker.py on ``job``; returns (process record, worker result)."""
        job_path, out_path = self.path("job.json"), self.path("result.json")
        job_path.write_text(json.dumps(job))
        before = self.probe()
        proc = self.child([self.python, str(WORKER), str(job_path), str(out_path)], timeout=timeout)
        if proc["timed_out"]:
            raise WorkerTimeout(f"worker killed after {timeout:g} s")
        if proc["code"] != 0 or not out_path.exists():
            raise RuntimeError(f"worker failed (exit {proc['code']}): {proc['stderr'][-500:]}")
        result = json.loads(out_path.read_text())
        expected = (self.root / "src").resolve()
        if expected not in Path(result["module"]).resolve().parents:
            raise RuntimeError(f"worker imported {result['module']}, not the checkout's src/")
        start = result["entered"] - proc["spawn"]  # interpreter start, up to the worker's code
        result["setup"] = (start + result["setup_raw"],
                           calib.scale(start, before, result["first_probe"]) + result["setup_scaled"])
        return proc, result

    def cli_test(self, req: dict, timeout: float) -> tuple[dict, str | None]:
        """One ``longrun test`` process on the request's CSV file."""
        csv_path = self.path(f"n{req['n']}.csv")
        csv_path.write_text(req["csv"])
        out_path = self.path("out.json")
        argv = [self.python, "-m", "longrun.cli", "test", "-i", str(csv_path),
                "--alpha", req["alpha"], "--tail", req["tail"],
                "--convention", req["convention"], "--zero-policy", req["zero_policy"],
                "--format", "json"]
        before = self.process_probe(fresh=False)
        proc = self.child(argv, timeout=timeout, stdout=out_path)
        proc["scaled"] = self.scale_process(proc["wall"], before)
        text = out_path.read_text() if proc["code"] == 0 and not proc["timed_out"] else None
        csv_path.unlink()
        out_path.unlink()
        return proc, text


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    Unlike the plain sample quantile it does not jump from one cluster of
    similar requests to the next when the sample splits at the quantile.
    """
    xs = sorted(values)
    n = len(xs)
    # Beyond 200 values the weights keep the spread they have at 200, so a
    # large sample is averaged over the same share of its order statistics
    # (about +-4 points at q = 0.9): requests of a pass fall into clusters by
    # n and tail, and a narrower window moves with the values at one edge.
    m = min(n, 200)
    a, b = q * (m + 1), (1 - q) * (m + 1)
    if n <= 200:
        cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
        weights = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    else:
        # The Beta density at the middle of each of the n intervals, scaled
        # to sum to 1: the intervals are narrow against the Beta's spread,
        # and thousands of betainc calls would take seconds.
        logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                for x in ((i + 0.5) / n for i in range(n))]
        top = max(logs)
        weights = [math.exp(v - top) for v in logs]
        total = sum(weights)
        weights = [w / total for w in weights]
    return sum(w * x for w, x in zip(weights, xs))


def _latency_metrics(res: Result, runs: list, label: str, ops_name: str) -> None:
    """Throughput and latency percentiles from (request key, raw s, scaled s) triples.

    The metrics use the times scaled to the reference speed (calib.py);
    the raw ones are printed beside them.  Throughput is operations over
    busy time; the percentiles are taken over every request's latency.
    """
    def summary(col: int):
        lat = [run[col] for run in runs]
        return len(lat) / sum(lat), quantile(lat, 0.5), quantile(lat, 0.9)

    (rate, p50, p90), raw = summary(2), summary(1)
    res.generic.update(ops_per_s=(rate, "1/s"), latency_p50_s=(p50, "s"), latency_p90_s=(p90, "s"))
    distinct = len({r[0] for r in runs})
    samples = f"{len(runs)} {label}, {distinct} distinct"
    res.named += [
        (f"{ops_name}_per_s", rate, "1/s", f"{samples}; raw {raw[0]:.6g}"),
        ("latency_p50_s", p50, "s", f"{samples}; raw {raw[1]:.6g}"),
        ("latency_p90_s", p90, "s", f"{samples}; raw {raw[2]:.6g}"),
    ]


def _setup_metric(res: Result, setups: list, what: str) -> None:
    """Median of (raw, scaled) set-up times."""
    value = quantile([s for _, s in setups], 0.5)
    raw = quantile([r for r, _ in setups], 0.5)
    res.generic["setup_s"] = (value, "s")
    res.named.append(("setup_s", value, "s", f"median of {len(setups)} {what}; raw {raw:.6g}"))


def _import_setup_metric(res: Result, b: Bench) -> None:
    _setup_metric(res, b.import_setups(), "interpreter starts + import longrun.cli")


def _check_cli(res: Result, req: dict, proc: dict, text: str | None) -> bool:
    if proc["timed_out"]:
        res.fail(f"n={req['n']}: timed out after {proc['wall']:.1f} s")
        return False
    if proc["code"] != 0:
        res.fail(f"n={req['n']}: exit {proc['code']}: {proc['stderr'].strip()[-200:]}")
        return False
    problem = reference.check_test_output(req, text)
    if problem:
        res.fail(f"n={req['n']}: {problem}")
        return False
    return True


# ------------------------------------------------------------------ #
# Inputs: the same seed gives the same requests, traced or not
# ------------------------------------------------------------------ #


def cold_requests(b: Bench, rng: random.Random, p: int = 0) -> list:
    """Pass ``p`` of test-cold: the n grid moved up by p rows, shuffled.

    Slots run on across passes, so a run mixes every tail, convention,
    header form and zero policy (see gen.test_request).
    """
    grid = b.sizes.cold_ns
    reqs = [gen.test_request(rng, n + p, p * len(grid) + k) for k, n in enumerate(grid)]
    rng.shuffle(reqs)
    return reqs


def warm_job(b: Bench, rng: random.Random) -> dict:
    """test-warm: a pool of inputs at a few n, one shuffled cycle through it."""
    reqs = [gen.test_request(rng, n, slot) for n in b.sizes.warm_ns
            for slot in range(b.sizes.warm_pool)]
    order = list(range(len(reqs)))
    rng.shuffle(order)
    return {"tables": list(b.sizes.warm_ns), "requests": reqs, "order": order}


def power_job(b: Bench, rng: random.Random) -> dict:
    """alt-power: a power curve per n in both tails, then one convergence report."""
    reqs = gen.power_requests(rng, b.sizes.power_ns, shifts=b.sizes.shifts,
                              rational_ps=b.sizes.rational_ps)
    reqs.append(gen.converge_request(rng, b.sizes.converge_grid))
    return {"requests": reqs, "order": list(range(len(reqs)))}


def _check_request(req: dict, out) -> str | None:
    if req["kind"] == "test":
        return reference.check_test_output(req, out)
    if req["kind"] == "power":
        return reference.check_power(req, out)
    return reference.check_converge(req, out)


def _check_worker(res: Result, job: dict, result: dict, verdict: dict | None = None,
                  first: dict | None = None, bad: set | None = None) -> dict:
    """Count the worker's operations and fail the wrong ones.

    Each distinct request's output is checked once against reference.py
    (or looked up in ``verdict`` from an earlier pass); the worker already
    failed repeats that did not reproduce it, and outputs must also equal
    those of pass ``first``.  The indices of failed requests are added to
    ``bad``.  Returns the verdicts {request index: problem}.
    """
    reqs = job["requests"]
    if verdict is None:
        verdict = {int(i): _check_request(reqs[int(i)], out) for i, out in result["outputs"].items()}
    for i, _, problem, _ in result["runs"]:
        res.attempted += 1
        problem = problem or verdict.get(i)
        if not problem and first is not None and \
                result["outputs"].get(str(i)) != first["outputs"].get(str(i)):
            problem = "differs from the first pass"
        if problem:
            res.fail(f"request {i}: {problem}")
            if bad is not None:
                bad.add(i)
    return verdict


def _max_n(outcomes) -> int:
    """Largest n whose requests' outcomes (pairs n, passed) all passed; 0 if none."""
    by_n: dict = {}
    for n, passed in outcomes:
        by_n.setdefault(n, []).append(passed)
    return max((n for n, ok in by_n.items() if all(ok)), default=0)


def _worker_max_n(job: dict, runs: list, bad: set) -> int:
    """``_max_n`` over a worker's runs of requests that have an n."""
    reqs = job["requests"]
    return _max_n(((reqs[i]["n"], i not in bad) for i, *_ in runs if "n" in reqs[i]))


# ------------------------------------------------------------------ #
# Untraced runs: the end-to-end metrics
# ------------------------------------------------------------------ #


def test_cold(b: Bench, rng: random.Random, seconds: float) -> Result:
    """Passes over a fixed grid of n, one ``longrun test`` process per request.

    Pass p moves the grid up by p rows so every request of a run has its
    own n; passes repeat while another one fits in ``seconds``.
    """
    res = Result()
    _import_setup_metric(res, b)
    runs, rss, outcomes = [], [], []
    elapsed = last = 0.0
    p = 0
    while p == 0 or elapsed + last <= seconds:
        last = 0.0
        for req in cold_requests(b, rng, p):
            b.note_input(req)
            proc, text = b.cli_test(req, COLD_TIMEOUT_S)
            res.attempted += 1
            runs.append((req["n"] - p, proc["wall"], proc["scaled"]))  # keyed by grid point
            rss.append(proc["rss_mb"])
            last += proc["wall"]
            outcomes.append((req["n"] - p, _check_cli(res, req, proc, text)))
        elapsed += last
        p += 1
    _latency_metrics(res, runs, "requests", "decisions")
    res.generic["peak_rss_mb"] = (max(rss), "MB")
    res.generic["max_n_within_budget"] = (_max_n(outcomes), "count")
    res.named.append(("peak_rss_mb", max(rss), "MB", f"max over {len(rss)} processes"))
    return res


def test_warm(b: Bench, rng: random.Random, seconds: float) -> Result:
    """A library caller deciding many inputs at a few n, null tables built in set-up."""
    res = Result()
    job = warm_job(b, rng)
    for req in job["requests"]:
        b.note_input(req)
    setups = []
    for _ in range(WORKER_SETUPS - 1):
        _, result = b.worker({"tables": job["tables"], "setup_only": True}, timeout=300)
        setups.append(result["setup"])
    _, result = b.worker(dict(job, loop_seconds=seconds), timeout=seconds + 300)
    setups.append(result["setup"])
    _setup_metric(res, setups, "interpreter starts + import + null tables")
    bad: set = set()
    _check_worker(res, job, result, bad=bad)
    _latency_metrics(res, [(i, raw, scaled) for i, raw, _, scaled in result["runs"]],
                     "decisions", "decisions")
    res.generic["peak_rss_mb"] = (result["rss_mb"], "MB")
    res.generic["max_n_within_budget"] = (_worker_max_n(job, result["runs"], bad), "count")
    res.named.append(("peak_rss_mb", result["rss_mb"], "MB", "1 worker, at the end of the timed loop"))
    return res


def _default_dps_note(res: Result, job: dict, result: dict) -> None:
    """Print how many Gaussian-shift powers miss the digit check when the caller
    sets no precision.  A note, not a failed operation: the timed calls ask
    for 50 digits (worker.CALLER_DPS), as a caller wanting 45 has to today."""
    outs = result["default_dps_outputs"]
    misses = sum(reference.check_power(job["requests"][int(i)], out) is not None
                 for i, out in outs.items())
    res.named.append(("default_dps_power_misses", misses, "count",
                      f"of {len(outs)} Gaussian-shift powers called at the default "
                      f"{result['default_dps']} digits miss the {reference.MPF_DIGITS}-digit "
                      "check; untimed, not counted as failed"))


def alt_power(b: Bench, rng: random.Random, seconds: float) -> Result:
    """A power study, one fresh worker per pass so count building is paid every pass."""
    res = Result()
    _import_setup_metric(res, b)
    job = power_job(b, rng)
    for req in job["requests"]:
        b.note_input(req)
    rss, power_runs, converge_lat, all_runs = [], [], [], []
    bad: set = set()
    first = verdict = None
    elapsed = last = 0.0
    while first is None or elapsed + last <= seconds:
        proc, result = b.worker(dict(job, default_dps_check=first is None), timeout=600)
        rss.append(result["rss_mb"])
        verdict = _check_worker(res, job, result, verdict, first, bad)
        if first is None:
            _default_dps_note(res, job, result)
        first = first or result
        all_runs += result["runs"]
        for i, raw, _, scaled in result["runs"]:
            if job["requests"][i]["kind"] == "power":
                power_runs.append((i, raw, scaled))
            else:
                converge_lat.append(scaled)
        last = proc["wall"]
        elapsed += last
    _latency_metrics(res, power_runs, "power evaluations", "power_evals")
    res.generic["peak_rss_mb"] = (max(rss), "MB")
    res.generic["max_n_within_budget"] = (_worker_max_n(job, all_runs, bad), "count")
    res.named += [
        ("converge_s", statistics.median(converge_lat), "s", f"median of {len(converge_lat)} reports"),
        ("peak_rss_mb", max(rss), "MB", f"max over {len(rss)} workers"),
    ]
    return res


def _rung_stop(b: Bench, proc: dict) -> str | None:
    """Why a rung misses its budget (the ladder's stopping rule), or None."""
    if proc["timed_out"]:
        return f"over the {RUNG_BUDGET_S:g} s budget"
    if proc["rss_mb"] > RUNG_RSS_MB or "MemoryError" in proc["stderr"]:
        return f"over the {RUNG_RSS_MB:g} MB budget ({proc['rss_mb']:.0f} MB)"
    return None


def test_scale(b: Bench, rng: random.Random, seconds: float) -> Result:
    """A doubling ladder of rows; stops at the first rung over its time or memory budget.

    The climb is ``max_n_within_budget``.  Throughput, latency and memory
    come from the base rung (rung ``BASE_RUNG``, 250 rows), which every
    commit passes, so they compare like with like; one rung, so the
    percentiles do not straddle two sizes.  It is timed once more after
    every later rung, so its runs spread over the whole ladder, and then
    again until ``base_runs`` runs and ``seconds`` have passed.
    """
    res = Result()
    _import_setup_metric(res, b)
    top, stop = 0, "ladder complete"
    start = time.monotonic()
    base, runs = None, []

    def time_base():
        proc, text = b.cli_test(base, RUNG_BUDGET_S)
        res.attempted += 1
        _check_cli(res, base, proc, text)
        runs.append((base["n"], proc))

    for rung, n in enumerate(b.sizes.rungs):
        req = gen.scale_request(rng, n)
        b.note_input(req)
        proc, text = b.cli_test(req, RUNG_BUDGET_S)
        res.attempted += 1
        if rung == BASE_RUNG:
            base = req
            runs.append((n, proc))
        why = _rung_stop(b, proc) or (None if _check_cli(res, req, proc, text) else "failed")
        if rung > BASE_RUNG:
            time_base()
        if why:
            stop = f"{n} rows: {why}"
            break
        top = n
    base = base or req  # the ladder stopped below the base rung
    while len(runs) < b.sizes.base_runs or time.monotonic() - start < seconds:
        time_base()
    res.generic["max_n_within_budget"] = (top, "count")
    res.named.append(("max_n_within_budget", top, "rows", f"ladder stop: {stop}"))
    _latency_metrics(res, [(n, proc["wall"], proc["scaled"]) for n, proc in runs],
                     f"decisions of the {base['n']}-row rung", "decisions")
    rss = max(proc["rss_mb"] for _, proc in runs)
    res.generic["peak_rss_mb"] = (rss, "MB")
    res.named.append(("peak_rss_mb", rss, "MB", f"max over {len(runs)} runs of the base rung"))
    return res


# ------------------------------------------------------------------ #
# Traced runs: the per-layer metrics
# ------------------------------------------------------------------ #

# span name -> (per-layer metric, what it adds up)
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "cli.ingest": "cli.ingest_s",
    "cli.run_test": "cli.run_test_s",
    "cli.render": "cli.render_s",
    "run_stats.signs_from_residuals": "run_stats.signs_s",
    "run_stats.longest_runs": "run_stats.longest_runs_s",
    "exact_null.null_table_by_counting": "exact_null.null_table_s",
    "exact_null.p_value": "exact_null.decision_s",
    "exact_null.critical_value": "exact_null.decision_s",
    "conditional_counts.snk_dp": "conditional_counts.snk_dp_s",
    "alternative.alt_cdf": "alternative.mixture_s",
    "alternative.power": "alternative.power_s",
    "asymptotic.plus_run_counts": "asymptotic.plus_run_counts_s",
    "asymptotic.convergence_report": "asymptotic.convergence_s",
}
CALL_COUNTS = {
    "exact_null.null_table_by_counting": "exact_null.null_table_calls",
    "conditional_counts.snk_dp": "conditional_counts.snk_dp_calls",
}
LAYERS = ("cli", "run_stats", "exact_null", "conditional_counts", "alternative", "asymptotic")


def layer_metrics(spans: list, counts: dict, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the spans of a traced replay."""
    out = {name: (0.0, "s") for name in SPAN_METRICS.values()}
    out.update({name: (0, "count") for name in CALL_COUNTS.values()})
    out.update({f"{layer}.errors": (0, "count") for layer in LAYERS})
    for key in ("cli.ingest_rows", "exact_null.max_numerator_bits"):
        out[key] = (counts.get(key, 0), "count")
    summary = summarize(spans)
    for name, row in summary.items():
        if name in SPAN_METRICS:
            metric = SPAN_METRICS[name]
            out[metric] = (out[metric][0] + row["self_s"], "s")
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] = (row["calls"], "count")
        layer = name.split(".")[0]
        if layer in LAYERS and row["errors"]:
            key = f"{layer}.errors"
            out[key] = (out[key][0] + row["errors"], "count")
    in_requests = sum(s[2] - s[1] for s in spans if s[0] == "request")
    attributed = sum(own for s, own in zip(spans, self_times(spans))
                     if s[0] in SPAN_METRICS and not str(s[4]).endswith("setup"))
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    out["trace.layer_share"] = (attributed / in_requests, "ratio")
    return out


def _replay(b: Bench, res: Result, jobs, timeout: float) -> tuple[list, dict, float, float]:
    """Run each job untraced, then traced, in fresh workers, and check both.

    A job whose untraced run exceeds ``timeout`` ends the replay (the
    ladder's stopping rule); every job before it is replayed traced.
    Returns the spans, the counts, and the summed request times of the
    untraced and the traced replay, scaled to the reference speed.
    """
    spans, untraced_s, traced_s = [], 0.0, 0.0
    counts = {"cli.ingest_rows": 0, "exact_null.max_numerator_bits": 0}
    for j, job in enumerate(jobs):
        for req in job["requests"]:
            b.note_input(req)
        try:
            _, plain = b.worker(dict(job, trace=False), timeout)
        except WorkerTimeout:
            break
        untraced_s += sum(run[3] for run in plain["runs"])
        _, traced = b.worker(dict(job, trace=True), 600)
        traced_s += sum(run[3] for run in traced["runs"])
        verdict = _check_worker(res, job, plain)
        _check_worker(res, job, traced, verdict, first=plain)
        base = len(spans)
        for span in traced["spans"]:
            if span[3] is not None:
                span[3] += base
            span[4] = f"{j}:{span[4]}"
        spans += traced["spans"]
        counts["cli.ingest_rows"] += traced["counts"]["cli.ingest_rows"]
        counts["exact_null.max_numerator_bits"] = max(
            counts["exact_null.max_numerator_bits"], traced["counts"]["exact_null.max_numerator_bits"])
    return spans, counts, untraced_s, traced_s


def _traced_jobs(workload: str, b: Bench, rng: random.Random):
    """The requests of the workload's first untraced pass, as worker jobs."""
    if workload == "test-cold":
        reqs = cold_requests(b, rng)
        yield {"requests": reqs, "order": list(range(len(reqs)))}
    elif workload == "test-warm":
        job = warm_job(b, rng)
        yield dict(job, order=job["order"] * b.sizes.warm_traced_cycles)
    elif workload == "alt-power":
        yield power_job(b, rng)
    else:
        for n in b.sizes.rungs:  # one fresh worker per rung, generated only when reached
            yield {"requests": [gen.scale_request(rng, n)], "order": [0]}


def traced(workload: str, b: Bench, rng: random.Random) -> Result:
    """Replay the workload's requests in-process, untraced and then with spans."""
    res = Result()
    timeout = RUNG_BUDGET_S if workload == "test-scale" else 600
    spans, counts, untraced_s, traced_s = _replay(b, res, _traced_jobs(workload, b, rng), timeout)
    res.generic = layer_metrics(spans, counts, untraced_s, traced_s)
    res.spans = spans
    return res


UNTRACED = {
    "test-cold": test_cold,
    "test-warm": test_warm,
    "alt-power": alt_power,
    "test-scale": test_scale,
}
