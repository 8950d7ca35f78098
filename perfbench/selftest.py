"""Self-test of the benchmark, at tiny sizes.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks the benchmark, not the package:
- every workload runs once untraced and once traced in ``--smoke`` mode, passes
  its own correctness check, and prints every metric of BENCHMARK.json by name
  with its declared unit;
- the checker fails a deliberately wrong p-value and a deliberately wrong
  power, and a wrong output counts as a failed operation;
- two runs with the same seed generate identical inputs, another seed
  different ones;
- without a ``src/`` package the benchmark exits nonzero and prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def smoke(workload: str, trace: int, seed: int = 7) -> tuple[dict, list[str]]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: {out.stderr}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"], f"{workload} trace={trace}: " + "; ".join(
        line for line in lines if line.startswith("failure: "))
    return result, lines


def check_metrics_printed(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, lines = smoke(workload, trace)
            got = result["metrics"]
            assert set(got) == {m["name"] for m in declared}, (workload, trace, set(got))
            for m in declared:
                assert got[m["name"]]["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(got[m["name"]]["value"], (int, float)), (workload, m["name"])
            if trace == 0:
                named = [line for line in lines if line.startswith("metric ")]
                assert any("failed_ops_ratio" in line for line in named), workload
                assert all(" = " in line and "(" in line for line in named), named
            print(f"ok  {workload} trace={trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} operations")


def check_checker_flags_wrong_answers() -> None:
    import longrun
    from longrun.cli import ingest, run_test

    req = gen.test_request(random.Random(3), 18, 1)
    series = ingest(io.StringIO(req["csv"]))[0]
    report = run_test(series, Fraction(req["alpha"]), req["tail"], req["convention"],
                      req["zero_policy"])
    good = json.dumps(report.to_dict(6))
    assert reference.check_test_output(req, good) is None, reference.check_test_output(req, good)
    wrong = json.loads(good)
    num, den = map(int, wrong["p_value"]["fraction"].split("/"))
    wrong["p_value"]["fraction"] = f"{num + 1}/{den}"
    assert reference.check_test_output(req, json.dumps(wrong)), "wrong p-value not flagged"

    preq = {"kind": "power", "n": 18, "alpha": "1/20", "tail": "bilateral",
            "convention": "paper", "p": "7/10"}
    value = longrun.power(18, Fraction(1, 20), "bilateral", "paper",
                          longrun.AlternativeSpec.direct("7/10")).power
    assert reference.check_power(preq, fraction_text(value)) is None
    assert reference.check_power(preq, fraction_text(value + Fraction(1, 2**300))), \
        "wrong power not flagged"
    greq = {"kind": "power", "n": 18, "alpha": "1/20", "tail": "unilateral",
            "convention": "paper", "shift": 0.3, "sigma": 1.0}
    exact = reference.exact_power(18, reference.gaussian_p(0.3, 1.0), Fraction(1, 20),
                                  "unilateral", "paper")
    assert reference.check_power(greq, mpf_text(exact * (1 + Fraction(1, 10**48)))) is None, \
        "power right to 48 digits rejected"
    assert reference.check_power(greq, mpf_text(exact * (1 + Fraction(1, 10**40)))), \
        "power wrong in the 40th digit not flagged"

    res = workloads.Result()
    job = {"requests": [req, preq]}
    result = {"outputs": {"0": json.dumps(wrong), "1": fraction_text(value)},
              "runs": [[0, 0.1, None, 0.1], [1, 0.1, None, 0.1], [0, 0.1, None, 0.1]]}
    workloads._check_worker(res, job, result)
    assert (res.attempted, res.failed) == (3, 2), (res.attempted, res.failed, res.failures)
    print("ok  the checker fails a wrong p-value and a wrong power; each counts as a failed operation")


def fraction_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def mpf_text(f: Fraction) -> list:
    """The worker's exact encoding of an mpf, for a value given as a Fraction."""
    return ["mpf", 0, hex(f.numerator * 2**400 // f.denominator), -400]


def check_same_seed_same_inputs() -> None:
    # Runs of test-cold and test-scale stop on time, so their input sets
    # differ in length; the fixed-input workloads are compared whole and
    # the others pass by pass.
    for workload in ("test-warm", "alt-power"):
        digests = []
        for seed in (5, 5, 6):
            _, lines = smoke(workload, 0, seed)
            digests += [line.split()[-1] for line in lines if line.startswith("inputs sha256 ")]
        assert digests[0] == digests[1], f"{workload}: same seed, different inputs"
        assert digests[0] != digests[2], f"{workload}: different seeds, same inputs"
    b = workloads.Bench.__new__(workloads.Bench)
    b.sizes = workloads.FULL

    def first_passes(seed):
        rng = random.Random(seed)
        return ([workloads.cold_requests(b, rng, p) for p in range(3)],
                [gen.scale_request(rng, n) for n in b.sizes.rungs[:4]])

    assert first_passes(5) == first_passes(5) != first_passes(6), "test-cold/test-scale inputs"
    print("ok  the same seed gives identical inputs, another seed different ones")


def check_refuses_without_package(spec: dict) -> None:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            for f in (ROOT / path).glob("*.py"):
                shutil.copy(f, bare / path)
        out = subprocess.run([*spec["command"], "--workload", "test-cold", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare,
                             capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without src/ the benchmark exits nonzero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checker_flags_wrong_answers()
    check_same_seed_same_inputs()
    check_refuses_without_package(spec)
    check_metrics_printed(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
