"""Benchmark of the longrun package, run from the root of a checkout.

    python3 perfbench/run.py --workload test-cold --seed 1 --seconds 10 --trace 0

Workloads: test-cold, test-warm, alt-power, test-scale (see BENCHMARK.json
and perfbench/README.md).  The package is always imported from the
checkout's ``src/`` through PYTHONPATH, never from an installed copy.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it replays the workload's requests in-process, untraced and
then traced, and reports the per-layer metrics from the spans.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every size for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath.libmp

import calib
import workloads


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code."""
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            sha = "unknown (git unavailable)"
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "pythonpath": str(root / "src"),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.UNTRACED))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child handling, which kills and reaps


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    root = Path.cwd()
    if not (root / "src" / "longrun" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/longrun package under {root}; "
                         "run from the root of a longrun checkout\n")
        return 2
    # The checks enumerate small n with the checkout's own longrun.brute_oracle.
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = root / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = workloads.Bench(root, work, sizes)
        # An untimed first import compiles the package's bytecode, so no
        # timed set-up pays for it.
        bench.import_setup()
        rng = random.Random(args.seed)
        if args.trace:
            res = workloads.traced(args.workload, bench, rng)
        else:
            res = workloads.UNTRACED[args.workload](bench, rng, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256 {bench.digest}")
    for what, probes, ref in (("in-process", bench.probes, calib.REFERENCE_S),
                              ("process", bench.process_probes, calib.REFERENCE_PROCESS_S)):
        if probes:
            print(f"calibration kernel, {what}: median {statistics.median(probes):.5f} s over "
                  f"{len(probes)} probes by run.py, reference {ref} s")
    for name, value, unit, samples in res.named:
        print(f"metric {name} = {value!r} {unit} ({samples})")
    if args.trace:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request", "error"], "spans": res.spans}))
        print(f"spans {len(res.spans)} written to {spans_path.relative_to(root)}")
        for name, (value, unit) in res.generic.items():
            print(f"layer {name} = {value!r} {unit}")
        m = {name: value for name, (value, _) in res.generic.items()}
        print(f"accounting: requests took {m['trace.untraced_s']:.4f} s untraced and "
              f"{m['trace.traced_s']:.4f} s traced at the reference speed (overhead "
              f"{m['trace.overhead_ratio']:+.3f} of untraced); named layers' self times cover "
              f"{m['trace.layer_share']:.3f} of the traced request time, the rest is the "
              "worker's own code between calls")
    ratio = res.failed / res.attempted if res.attempted else 1.0
    print(f"metric failed_ops_ratio = {ratio!r} ratio ({res.failed} of {res.attempted} operations)")
    for message in res.failures:
        print(f"failure: {message}")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res.generic.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
