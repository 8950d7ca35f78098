"""The same-results corpus (``tests/golden``): every output as the digests record it."""

import json
from pathlib import Path

import pytest

from golden import corpus
from longrun import null_table_by_counting

DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())


def test_case_lists_match_the_digests():
    assert sorted(DIGESTS["cli"]) == sorted(case["name"] for case in corpus.CLI_CASES)
    assert sorted(DIGESTS["mpf"]) == sorted(corpus.mpf_key(*c) for c in corpus.MPF_CASES)
    assert sorted(DIGESTS["full_text"]) == sorted(corpus.FULL_TEXT)


def test_inputs_are_the_recorded_bytes():
    assert {name: corpus.sha256(data) for name, data in corpus.CSVS.items()} == DIGESTS["csv"]


def test_cli_outputs(tmp_path):
    changed = []
    for case in corpus.CLI_CASES:
        result = corpus.run_cli(case, tmp_path)
        if corpus.cli_digest(result) != DIGESTS["cli"][case["name"]]:
            changed.append(case["name"])
        if case["name"] in DIGESTS["full_text"]:
            assert result == DIGESTS["full_text"][case["name"]], case["name"]
    assert not changed


def test_every_subcommand_and_format_is_covered():
    from longrun.cli import build_parser

    offered = {
        (name, fmt)
        for name, sub in build_parser()._subparsers._group_actions[0].choices.items()
        for action in sub._actions if action.dest == "format" for fmt in action.choices
    }
    covered = set()
    for case in corpus.CLI_CASES:
        argv = case["argv"]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if not case["usage"] and DIGESTS["cli"][case["name"]]["exit"] in (0, 1):
            covered.add((argv[0], fmt))
    assert covered == offered


def test_library_fractions():
    got = corpus.library_digests()
    assert [key for key in DIGESTS["library"] if got[key] != DIGESTS["library"][key]] == []
    assert sorted(got) == sorted(DIGESTS["library"])


def test_large_case_list_matches_the_digests():
    assert sorted(DIGESTS["large"]) == sorted(
        f"{name} n={n}" for n in corpus.LARGE_NS
        for name in ("critical_value", "rejection_region", "p_value", "power")
        if name != "p_value" or n in corpus.LARGE_P_VALUE_NS
        if name != "power" or n in corpus.LARGE_POWER_CONFIGS)


@pytest.mark.parametrize("n", corpus.LARGE_NS)
def test_large_tier(n):
    built = null_table_by_counting.cache_info().misses
    got = corpus.large_digests((n,))
    assert [key for key in got if got[key] != DIGESTS["large"][key]] == []
    if n not in corpus.LARGE_P_VALUE_NS:  # decisions alone build no null table
        assert null_table_by_counting.cache_info().misses == built


@pytest.mark.parametrize("case", corpus.MPF_CASES, ids=lambda c: corpus.mpf_key(*c))
def test_mpf_within_1e_50_of_the_exact_value(case):
    spec, power = corpus.mpf_case(*case)
    want = DIGESTS["mpf"][corpus.mpf_key(*case)]
    assert corpus.within(spec.p, want["p"])
    assert corpus.within(power, want["power"])
