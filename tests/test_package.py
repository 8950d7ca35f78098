import importlib
import pickle
from fractions import Fraction
from itertools import accumulate

import pytest

import longrun
from longrun.errors import EmptySequence

PUBLIC = [
    "AlternativeSpec", "ConvergenceReport", "CountTable", "CriticalValueResult",
    "DiscrepancyReport", "JointCountTable", "PowerResult", "ProbabilityTable",
    "ResidualSeries", "Resolution", "RunSummary", "SignSequence", "TestReport", "alt_cdf",
    "attained_size", "compositions_bounded", "convergence_report", "critical_value",
    "enumerate_joint", "longest_runs", "null_table_by_counting", "null_table_riordan",
    "oracle_null_pmf", "oracle_snk", "p_from_gaussian_shift", "p_value", "plus_run_cdf",
    "plus_run_counts", "power", "run_test", "signs_from_residuals", "snk_dp",
    "snk_proposition1",
]


def test_public_names_are_pinned():
    assert longrun.__all__ == PUBLIC


def test_every_public_name_resolves_to_its_module():
    for module, names in longrun._EXPORTS.items():
        defining = importlib.import_module(f"longrun.{module}")
        for name in names:
            assert getattr(longrun, name) is getattr(defining, name)


RECORDS = {
    "AlternativeSpec": lambda: longrun.AlternativeSpec.gaussian_shift(0.3, 1.0),
    "ConvergenceReport": lambda: longrun.convergence_report(3, "7/10", [8, 16]),
    "CountTable": lambda: longrun.snk_dp(6, 2),
    "CriticalValueResult": lambda: longrun.critical_value(20, Fraction(1, 20)),
    "DiscrepancyReport": lambda: longrun.DiscrepancyReport(
        "demo", longrun.null_table_riordan(6)[1].resolutions,
        ({"n": 6, "k": 2, "published": 3, "kernel": 4},),
    ),
    "JointCountTable": lambda: longrun.enumerate_joint(4),
    "PowerResult": lambda: longrun.power(
        20, Fraction(1, 20), "bilateral", "paper", longrun.AlternativeSpec.direct("7/10")
    ),
    "ProbabilityTable": lambda: longrun.null_table_by_counting(12),
    "ResidualSeries": lambda: longrun.ResidualSeries.from_raw([2, 1], [0.5, 1.0], [0.25, 1.5]),
    "Resolution": lambda: longrun.Resolution("loc", "literal", "corrected", "note"),
    "RunSummary": lambda: longrun.longest_runs([1, 1, 0]),
    "SignSequence": lambda: longrun.signs_from_residuals(
        longrun.ResidualSeries.from_residuals([0, 1, 2], [0.5, 0.0, -1.0]), "drop"
    ),
    "TestReport": lambda: longrun.run_test(
        longrun.ResidualSeries.from_residuals(range(6), [1, -1, 1, 1, 1, -1]), "1/20"
    ),
}


@pytest.mark.parametrize(
    "name", [n for n in longrun.__all__ if isinstance(getattr(longrun, n), type)]
)
def test_record_is_an_immutable_picklable_value(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls is getattr(longrun, name)
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    copy = pickle.loads(pickle.dumps(record))  # through the validating __new__, where there is one
    assert type(copy) is cls and copy == record
    assert cls(*record) == record == cls(**record._asdict())
    assert record == tuple(record) and record[0] is getattr(record, record._fields[0])


def test_validating_records_refuse_bad_fields():
    with pytest.raises(EmptySequence):
        longrun.ResidualSeries(points=())
    with pytest.raises(ValueError):
        longrun.AlternativeSpec(p=Fraction(3, 2))
    # unpickling, _make and _replace build through the same checks
    for cls, fields, error in (
        (longrun.ResidualSeries, ((),), EmptySequence),
        (longrun.AlternativeSpec, (Fraction(3, 2), None, None), ValueError),
    ):
        with pytest.raises(error):
            pickle.loads(pickle.dumps(tuple.__new__(cls, fields)))  # made without the check
        with pytest.raises(error):
            cls._make(fields)
    with pytest.raises(EmptySequence):
        longrun.ResidualSeries(((0, 1.0),))._replace(points=())
    with pytest.raises(ValueError):
        longrun.AlternativeSpec.direct("1/2")._replace(p=2)


@pytest.mark.parametrize("n", [1, 2, 17, 300])
def test_probability_table_lookups_agree_with_pmf(n):
    table = longrun.null_table_by_counting(n)
    pmf = table.pmf
    assert len(pmf) == n and sum(pmf) == 1
    assert table.as_dict() == {k: pmf[k - 1] for k in range(1, n + 1)}
    cumulative = (0, *accumulate(pmf))
    for k in range(-1, n + 2):
        assert table.p(k) == (pmf[k - 1] if 1 <= k <= n else 0)
        assert table.cdf(k) == cumulative[min(max(k, 0), n)]
