"""Exact longest-run lack-of-fit test for univariate regression.

The test statistic is the maximum length of consecutive same-sign
residuals (ordered by the covariate).  This package computes the
statistic, its exact null law, critical values, p-values, and exact
power under constant-shift alternatives, all in exact arithmetic.
"""

__version__ = "0.1.0"

from .conditional_counts import (
    CountTable,
    compositions_bounded,
    snk_dp,
    snk_proposition1,
)
from .discrepancy import DiscrepancyReport, Resolution
from .exact_null import (
    CriticalValueResult,
    ProbabilityTable,
    critical_value,
    null_table_by_counting,
    null_table_riordan,
    p_value,
)
from .run_stats import (
    ResidualSeries,
    RunSummary,
    SignSequence,
    longest_runs,
    signs_from_residuals,
)

__all__ = [
    "AlternativeSpec",
    "ConvergenceReport",
    "CountTable",
    "CriticalValueResult",
    "DiscrepancyReport",
    "JointCountTable",
    "PowerResult",
    "ProbabilityTable",
    "ResidualSeries",
    "Resolution",
    "RunSummary",
    "SignSequence",
    "alt_cdf",
    "attained_size",
    "compositions_bounded",
    "convergence_report",
    "critical_value",
    "enumerate_joint",
    "longest_runs",
    "null_table_by_counting",
    "null_table_riordan",
    "oracle_null_pmf",
    "oracle_snk",
    "p_from_gaussian_shift",
    "p_value",
    "plus_run_cdf",
    "plus_run_counts",
    "power",
    "signs_from_residuals",
    "snk_dp",
    "snk_proposition1",
]

# Names whose modules (and mpmath) load on first use (PEP 562), so that
# ``longrun test`` does not import the power and oracle engines.
_LAZY = {
    **dict.fromkeys(
        ("AlternativeSpec", "PowerResult", "alt_cdf", "attained_size",
         "p_from_gaussian_shift", "power"),
        "alternative",
    ),
    **dict.fromkeys(
        ("ConvergenceReport", "convergence_report", "plus_run_cdf", "plus_run_counts"),
        "asymptotic",
    ),
    **dict.fromkeys(
        ("JointCountTable", "enumerate_joint", "oracle_null_pmf", "oracle_snk"),
        "brute_oracle",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
