"""Exact longest-run lack-of-fit test for univariate regression.

The test statistic is the maximum length of consecutive same-sign
residuals (ordered by the covariate).  This package computes the
statistic, its exact null law, critical values, p-values, and exact
power under constant-shift alternatives, all in exact arithmetic.
"""

__version__ = "0.1.0"

# Each public name and its module, loaded on first use (PEP 562), so that
# ``longrun test`` imports neither the power and oracle engines (and
# mpmath) nor the published-recursion cross-checks.
_EXPORTS = {
    "alternative": ("AlternativeSpec", "PowerResult", "alt_cdf", "p_from_gaussian_shift",
                    "power"),
    "asymptotic": ("ConvergenceReport", "convergence_report", "plus_run_cdf",
                   "plus_run_counts"),
    "brute_oracle": ("JointCountTable", "enumerate_joint", "oracle_null_pmf", "oracle_snk"),
    "cli": ("TestReport", "run_test"),
    "conditional_counts": ("CountTable", "snk_dp"),
    "exact_null": ("CriticalValueResult", "ProbabilityTable", "attained_size",
                   "compositions_bounded", "critical_value", "null_table_by_counting", "p_value"),
    "published": ("DiscrepancyReport", "Resolution", "null_table_riordan", "snk_proposition1"),
    "run_stats": ("ResidualSeries", "RunSummary", "SignSequence", "longest_runs",
                  "signs_from_residuals"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
