import io
import itertools
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longrun import ResidualSeries, SignSequence, cli, longest_runs, signs_from_residuals
from longrun.errors import EmptyAfterDrop, EmptySequence, ZeroResidual

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=64)


def window_longest(bits, symbol):
    """Longest run via the sliding-window definition (test oracle).

    The longest run of `symbol` is the largest K such that some window
    of length K contains K occurrences of the symbol.
    """
    n = len(bits)
    prefix = [0]
    for b in bits:
        prefix.append(prefix[-1] + (b == symbol))
    best = 0
    for K in range(1, n + 1):
        hit = max(prefix[l + K] - prefix[l] for l in range(n - K + 1))
        if hit == K:
            best = K
        else:
            break  # a longer all-symbol window would contain one of length K
    return best


def loop_signs(series, zero_policy):
    """``signs_from_residuals`` as a Python loop over the residuals (reference)."""
    bits, zeros = [], []
    for i, (_, r) in enumerate(series.points):
        if r == 0:
            if zero_policy == "error":
                raise ZeroResidual(f"residual at ordered index {i} is exactly zero")
            zeros.append(i)
        else:
            bits.append(1 if r > 0 else 0)
    if not bits:
        raise EmptyAfterDrop("all residuals are zero")
    return SignSequence(bits=tuple(bits), zero_positions=tuple(zeros))


def loop_runs(bits):
    """``longest_runs`` as a Python loop over the bits (reference)."""
    l_plus = l_minus = run = 0
    prev = None
    for b in bits:
        run = run + 1 if b == prev else 1
        prev = b
        if b:
            l_plus = max(l_plus, run)
        else:
            l_minus = max(l_minus, run)
    return l_plus, l_minus, max(l_plus, l_minus), sum(bits)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


residual_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0, Fraction(0)]),
    st.integers(-5, 5),
    st.fractions(Fraction(-3), Fraction(3), max_denominator=7),
)


class TestResidualSeries:
    def test_sorted_by_covariate(self):
        s = ResidualSeries.from_residuals([3.0, 1.0, 2.0], [0.3, 0.1, 0.2])
        assert s.residuals == (0.1, 0.2, 0.3)

    def test_ties_stable(self):
        s = ResidualSeries.from_residuals([1.0, 1.0, 0.0], [5.0, 6.0, 7.0])
        assert s.residuals == (7.0, 5.0, 6.0)

    def test_from_raw(self):
        s = ResidualSeries.from_raw([1.0, 0.0], [2.0, 0.0], [1.5, 0.2])
        assert s.residuals == (-0.2, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            ResidualSeries(points=())
        with pytest.raises(EmptySequence):
            ResidualSeries.from_residuals([], [])


def dropped_runs(series):
    return longest_runs(signs_from_residuals(series, "drop"))


covariates = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(float),
                       st.floats(-3, 3, allow_nan=False))
residual_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestEveryBuildOrders:
    """Each way of building a series sorts it by covariate, stably: the paper's order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(covariates, residual_floats), min_size=1, max_size=30))
    @example([(2, 1.0), (0, 1.0), (1, -1.0)])  # kept in input order, it read L = 2
    @example([(1, 1.0), (1.0, -1.0), (0.5, 1.0), (1, 1.0)])
    def test_every_route_gives_one_series(self, points):
        x, res = zip(*points)
        unordered = tuple.__new__(ResidualSeries, (tuple(points),))  # made without the check
        csv_residual = "x,residual\n" + "".join(f"{a!r},{r!r}\n" for a, r in points)
        csv_raw = "x,y,fitted\n" + "".join(f"{a!r},{r!r},0.0\n" for a, r in points)
        routes = {
            "direct": ResidualSeries(points),
            "iterator": ResidualSeries(iter(points)),
            "_make": ResidualSeries._make([points]),
            "_replace": ResidualSeries.from_residuals([0], [1.0])._replace(points=points),
            "unpickled": pickle.loads(pickle.dumps(unordered)),
            "from_residuals": ResidualSeries.from_residuals(x, res),
            "from_raw": ResidualSeries.from_raw(x, res, [0.0] * len(res)),
            "ingest residual": cli.ingest(io.StringIO(csv_residual))[0],
            "ingest raw": cli.ingest(io.StringIO(csv_raw))[0],
        }
        ordered = tuple(sorted(points, key=lambda point: point[0]))  # sorted is stable
        runs = outcome(dropped_runs, tuple.__new__(ResidualSeries, (ordered,)))
        for route, series in routes.items():
            assert type(series) is ResidualSeries, route
            assert series == (ordered,), route
            assert outcome(dropped_runs, series) == runs, route

    def test_points_is_a_tuple_after_a_list(self):
        points = [(1, 0.5), (0, -0.5)]
        series = ResidualSeries(points)
        assert type(series.points) is tuple and series.points == ((0, -0.5), (1, 0.5))
        points.append((2, 1.0))  # the caller's list is neither kept nor sorted in place
        assert series.n == 2 and points[0] == (1, 0.5)

    @pytest.mark.parametrize("points", [
        [(0,), (1,)],
        [(0, 1.0, 2.0), (1, -1.0, 0.0)],
        [(0, 1.0), (1,)],
        [(0, 1.0), (1, -1.0, 0.0)],  # a wider point after a pair was kept
    ])
    def test_points_not_pairs_refused(self, points):
        with pytest.raises(TypeError):
            ResidualSeries(points)
        with pytest.raises(TypeError):
            ResidualSeries._make([points])
        with pytest.raises(TypeError):
            ResidualSeries(((0, 1.0),))._replace(points=points)


NAN = math.nan
INF = math.inf


class TestNaNRefused:
    """A NaN has no sign and no order, so a series refuses it, named by its index."""

    @pytest.mark.parametrize("x, residuals, index", [
        ([1, 2, 3, 4], [0.5, NAN, -1, 2], 1),  # was read as a negative sign
        ([3, NAN, 1, 2], [0.5, 1, -1, 2], 1),  # was left unsorted
        ([0.0, 1.0], [Fraction(1, 3), Decimal("NaN")], 1),
        ([Decimal(0), Decimal(1)], [Decimal(1), Decimal("NaN")], 1),
        ([10**400, 0], [1.0, NAN], 1),  # an int past the float range
    ])
    def test_from_residuals(self, x, residuals, index):
        with pytest.raises(ValueError, match=f"^point {index} holds a NaN"):
            ResidualSeries.from_residuals(x, residuals)

    def test_from_raw_inf_minus_inf(self):
        with pytest.raises(ValueError, match="^point 2 holds a NaN"):
            ResidualSeries.from_raw([0, 1, 2], [1.0, -INF, INF], [0.0, 0.0, INF])

    def test_every_build_checks(self):
        good = ResidualSeries.from_residuals([0, 1], [1.0, -1.0])
        with pytest.raises(ValueError, match="^point 1 holds a NaN"):
            good._replace(points=((0, 1.0), (1, NAN)))
        with pytest.raises(ValueError, match="^point 0 holds a NaN"):
            pickle.loads(pickle.dumps(tuple.__new__(ResidualSeries, (((NAN, 1.0),),))))

    def test_numpy_nan(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="^point 2 holds a NaN"):
            ResidualSeries.from_residuals(np.arange(3.0), np.array([1.0, -1.0, np.nan]))

    def test_infinities_keep_their_sign_and_order(self):
        s = ResidualSeries.from_residuals([INF, -INF, 0.0], [-INF, INF, 1.0])
        assert s.points == ((-INF, INF), (0.0, 1.0), (INF, -INF))
        assert signs_from_residuals(s).bits == (1, 1, 0)
        # inf - inf in a column's sum is a false alarm, not a NaN
        assert ResidualSeries.from_residuals([1e308, 1e308, 0.0], [INF, -INF, 1.0]).n == 3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(), st.integers(-3, 3)),
        st.one_of(st.floats(), st.fractions(max_denominator=5)),
    ), min_size=1, max_size=30))
    def test_first_nan_named(self, points):
        x, res = zip(*points)
        first = next((i for i, (a, r) in enumerate(points) if a != a or r != r), None)
        if first is None:
            assert ResidualSeries.from_residuals(x, res).n == len(points)
        else:
            with pytest.raises(ValueError, match=f"^point {first} holds a NaN"):
                ResidualSeries.from_residuals(x, res)


class TestSigns:
    def test_basic(self):
        s = ResidualSeries.from_residuals([1, 2, 3], [0.3, -0.1, 0.2])
        assert signs_from_residuals(s).bits == (1, 0, 1)

    def test_drop_policy(self):
        s = ResidualSeries.from_residuals([1, 2], [0.0, 1.0])
        seq = signs_from_residuals(s, "drop")
        assert seq.bits == (1,)
        assert seq.zero_positions == (0,)

    def test_error_policy(self):
        s = ResidualSeries.from_residuals([1], [0.0])
        with pytest.raises(ZeroResidual):
            signs_from_residuals(s, "error")

    def test_all_zero_dropped(self):
        s = ResidualSeries.from_residuals([1, 2], [0.0, 0.0])
        with pytest.raises(EmptyAfterDrop):
            signs_from_residuals(s, "drop")

    def test_unknown_policy(self):
        s = ResidualSeries.from_residuals([1], [1.0])
        with pytest.raises(ValueError):
            signs_from_residuals(s, "coerce")


class TestLongestRuns:
    @pytest.mark.parametrize(
        "bits, l_plus, l_minus, l_n, k",
        [
            ([1, 1, 0, 1], 2, 1, 2, 3),
            ([1, 1, 1, 1], 4, 0, 4, 4),
            ([0, 1, 0, 1, 0], 1, 1, 1, 2),
            ([0], 0, 1, 1, 0),
            ([1], 1, 0, 1, 1),
        ],
    )
    def test_examples(self, bits, l_plus, l_minus, l_n, k):
        r = longest_runs(bits)
        assert (r.l_plus, r.l_minus, r.l_n, r.k) == (l_plus, l_minus, l_n, k)

    def test_empty(self):
        with pytest.raises(EmptySequence):
            longest_runs(SignSequence(bits=()))

    def test_window_definition_equivalence_exhaustive(self):
        # the I(n, K) window definition agrees with the block scan
        for n in range(1, 17):
            for bits in itertools.product((0, 1), repeat=n):
                r = longest_runs(bits)
                assert r.l_plus == window_longest(bits, 1)
                assert r.l_minus == window_longest(bits, 0)

    @given(bit_lists)
    def test_complement_symmetry(self, bits):
        r = longest_runs(bits)
        rc = longest_runs([1 - b for b in bits])
        assert (rc.l_plus, rc.l_minus) == (r.l_minus, r.l_plus)
        assert rc.l_n == r.l_n

    @given(bit_lists)
    def test_reversal_symmetry(self, bits):
        r = longest_runs(bits)
        rr = longest_runs(bits[::-1])
        assert (rr.l_plus, rr.l_minus, rr.l_n, rr.k) == (r.l_plus, r.l_minus, r.l_n, r.k)

    @given(bit_lists, st.integers(0, 1))
    def test_append_monotone(self, bits, extra):
        assert longest_runs(bits + [extra]).l_n >= longest_runs(bits).l_n


class TestAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), residual_values), min_size=1, max_size=40),
        st.sampled_from(["error", "drop"]),
    )
    @example([(0, 0.0), (1, -0.0)], "drop")
    @example([(1, -0.0), (0, 1)], "error")
    def test_signs_and_runs(self, points, zero_policy):
        x, res = zip(*points)
        series = ResidualSeries.from_residuals(x, res)
        got = outcome(signs_from_residuals, series, zero_policy)
        assert got == outcome(loop_signs, series, zero_policy)
        if isinstance(got, SignSequence):
            assert all(type(b) is int for b in got.bits)
            r = longest_runs(got)
            assert (r.l_plus, r.l_minus, r.l_n, r.k) == loop_runs(got.bits)

    @given(st.lists(st.sampled_from([0, 1, False, True, 0.0, 1.0]), min_size=1, max_size=64))
    @example([1] * 64)
    @example([0] * 64)
    @example([1])
    @example([0])
    @example([0] * 31 + [1] + [0] * 32)
    def test_runs_of_bit_like_values(self, bits):
        r = longest_runs(bits)
        assert (r.l_plus, r.l_minus, r.l_n, r.k) == loop_runs(bits)

    @pytest.mark.parametrize(
        "bits", [[2, 2, 0], [1, 2], [0, -1], [1, 256], [0.5, 1], ["1", "0"], [None]]
    )
    def test_non_binary_refused(self, bits):
        # the loop read [2, 2, 0] as L+ = 2 and [1, 2] as two runs of ones
        with pytest.raises(ValueError):
            longest_runs(bits)

    def test_numpy_scalars(self):
        # a NumPy scalar's > returns numpy.bool, which bytes() alone refuses
        np = pytest.importorskip("numpy")
        series = ResidualSeries.from_residuals(np.arange(5.0), np.array([1.0, -2.0, 0.0, 0.5, 3.0]))
        seq = signs_from_residuals(series, "drop")
        assert (seq.bits, seq.zero_positions) == ((1, 0, 1, 1), (2,))
        r = longest_runs(np.array([1.0, -1.0, 2.0, 4.0]) > 0)
        assert (r.l_plus, r.l_minus, r.l_n, r.k) == (2, 1, 2, 3)
