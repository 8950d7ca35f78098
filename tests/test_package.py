import importlib

import longrun

PUBLIC = [
    "AlternativeSpec", "ConvergenceReport", "CountTable", "CriticalValueResult",
    "DiscrepancyReport", "JointCountTable", "PowerResult", "ProbabilityTable",
    "ResidualSeries", "Resolution", "RunSummary", "SignSequence", "alt_cdf",
    "attained_size", "compositions_bounded", "convergence_report", "critical_value",
    "enumerate_joint", "longest_runs", "null_table_by_counting", "null_table_riordan",
    "oracle_null_pmf", "oracle_snk", "p_from_gaussian_shift", "p_value", "plus_run_cdf",
    "plus_run_counts", "power", "signs_from_residuals", "snk_dp", "snk_proposition1",
]


def test_public_names_are_pinned():
    assert longrun.__all__ == PUBLIC


def test_every_public_name_resolves_to_its_module():
    for module, names in longrun._EXPORTS.items():
        defining = importlib.import_module(f"longrun.{module}")
        for name in names:
            assert getattr(longrun, name) is getattr(defining, name)

