"""Contour membership and the lower-sup / upper-inf bound functions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordext.contours import (
    AnalyticFixture,
    ContourOracle,
    FiniteSampleOracle,
    PartialUtility,
    bound_text,
)
from ordext.orders import BOTTOM, TOP, FinitePreorder, ParetoSpace

from reference import lower_contour, upper_contour


def unit_interval_oracle():
    space = ParetoSpace(1)
    samples = PartialUtility({(0.0,): 0.0, (1.0,): 1.0})
    return FiniteSampleOracle(space, samples)


def test_partial_utility_rejects_non_finite_values():
    with pytest.raises(ValueError):
        PartialUtility({0: math.inf})
    with pytest.raises(ValueError):
        PartialUtility({0: math.nan})
    # an int or Fraction too large for any float passed the gap check and
    # then overflowed in evaluate
    for value in (10**400, -10**400, Fraction(10**400), Fraction(-10**400, 3)):
        with pytest.raises(ValueError, match="non-finite value"):
            PartialUtility({(0.0,): value})


@pytest.mark.parametrize("value, shown", [
    (10**5000, "<int of 16610 bits>"),
    (Fraction(-(10**5000), 3), "<negative Fraction of 16610 bits over 2 bits>"),
], ids=["int", "negative-fraction"])
def test_partial_utility_names_huge_values_by_size(value, shown):
    # repr of an int past the 4300-digit limit raises ValueError itself
    with pytest.raises(ValueError) as err:
        PartialUtility({0: value})
    assert str(err.value) == f"sample 0 has non-finite value {shown}"
    with pytest.raises(ValueError) as err:
        PartialUtility({(value,): math.inf})
    assert str(err.value) == f"sample ({shown},) has non-finite value inf"
    with pytest.raises(KeyError) as err:
        PartialUtility({0: 1.0}).value(value)
    assert err.value.args == (f"{shown} is not a sample point",)


@pytest.mark.parametrize("value", ["a", None, [1.0], complex(1, 0)])
def test_partial_utility_rejects_non_numeric_values(value):
    with pytest.raises(TypeError, match="non-numeric value"):
        PartialUtility({0: value})


def test_partial_utility_accepts_int_float_fraction_and_bool():
    values = {0: 1, 1: 2.5, 2: Fraction(1, 3), 3: True, 4: 2**1000, 5: Fraction(1, 10**400)}
    assert dict(PartialUtility(values).items()) == values


def test_partial_utility_lookup():
    samples = PartialUtility({3: 1.5})
    assert samples.value(3) == 1.5
    assert 3 in samples and 4 not in samples
    with pytest.raises(KeyError):
        samples.value(4)


def test_contours_on_unit_interval():
    space = ParetoSpace(1)
    points = [(0.0,), (1.0,)]
    assert lower_contour(space, points, (0.5,)) == [(0.0,)]
    assert upper_contour(space, points, (0.5,)) == [(1.0,)]


def test_contour_empty_below_everything():
    space = ParetoSpace(1)
    points = [(0.0,), (1.0,)]
    assert lower_contour(space, points, (-1.0,)) == []
    assert upper_contour(space, points, (2.0,)) == []


def test_sample_point_is_in_both_its_contours():
    space = ParetoSpace(1)
    points = [(0.0,), (1.0,)]
    assert (0.0,) in lower_contour(space, points, (0.0,))
    assert (0.0,) in upper_contour(space, points, (0.0,))


def test_bounds_between_samples():
    oracle = unit_interval_oracle()
    assert oracle.lower_sup((0.5,)) == 0.0
    assert oracle.upper_inf((0.5,)) == 1.0


def test_bounds_with_empty_contours():
    oracle = unit_interval_oracle()
    assert oracle.lower_sup((-1.0,)) == -math.inf
    assert oracle.upper_inf((2.0,)) == math.inf


def test_augmented_extremes():
    oracle = unit_interval_oracle()
    assert oracle.lower_sup(BOTTOM) == -math.inf
    assert oracle.upper_inf(TOP) == math.inf
    # the near-side bounds see the whole sample set
    assert oracle.upper_inf(BOTTOM) == 0.0
    assert oracle.lower_sup(TOP) == 1.0


def test_empty_contours_are_infinite():
    # sup of nothing is -inf and inf of nothing is +inf, on every index
    for rel, x in ((ParetoSpace(2), (0.0, 0.0)), (FinitePreorder.chain(3), 1)):
        oracle = FiniteSampleOracle(rel, PartialUtility({}))
        for q in (x, BOTTOM, TOP):
            assert oracle.lower_sup(q) == -math.inf
            assert oracle.upper_inf(q) == math.inf
            assert oracle.contour_occupancy(q) == (False, False)


def test_bounds_keep_exact_sample_values():
    # bounds are the sample values themselves, so a Fraction stays exact
    # and mixed int, float and Fraction values compare as numbers
    samples = PartialUtility({0: Fraction(1, 3), 1: 1, 2: 0.5})
    oracle = FiniteSampleOracle(FinitePreorder.antichain(3), samples)
    assert oracle.lower_sup(0) == Fraction(1, 3) == oracle.upper_inf(0)
    assert type(oracle.lower_sup(0)) is Fraction
    chain = FiniteSampleOracle(FinitePreorder.chain(3), PartialUtility({0: Fraction(1, 2), 2: 0.5}))
    assert chain.lower_sup(2) == 0.5 and chain.upper_inf(0) == Fraction(1, 2)
    assert type(chain.upper_inf(0)) is Fraction  # first of two equal values


def test_bound_text():
    cases = [(math.inf, "+inf"), (-math.inf, "-inf"), (0.0, "0.0"), (-0.0, "-0.0"),
             (2, "2"), (Fraction(1, 3), "1/3"), (1e300, "1e+300")]
    for value, text in cases:
        assert bound_text(value) == text, value


def _line_fixture(bound):
    return AnalyticFixture(
        name="line",
        ambient=ParetoSpace(1),
        record_fn=lambda x: (-math.inf if x is BOTTOM else bound(x),
                             math.inf if x is TOP else bound(x), True, True),
        probes=(),
        derivation="test",
        sample_membership_fn=lambda x: False,
        sample_value_fn=lambda x: 0.0,
    )


def test_fixture_bounds_reject_nan_and_keep_infinities():
    fx = _line_fixture(lambda x: math.inf if x is TOP else -math.inf)
    assert fx.lower_sup(TOP) == math.inf and fx.upper_inf(BOTTOM) == -math.inf
    assert fx.lower_sup((0.0,)) == -math.inf
    # a record is read whole, so the sentinels' records are kept free of NaN
    # for the fixture to be built
    nan = _line_fixture(lambda x: 0.0 if x is TOP or x is BOTTOM else math.nan)
    with pytest.raises(ValueError, match="NaN"):
        nan.lower_sup((0.0,))
    with pytest.raises(ValueError, match="NaN"):
        nan.upper_inf((0.0,))


def test_fixture_hands_each_query_itself_to_its_functions():
    seen = []

    def record(x):
        seen.append(x)
        return (-math.inf if x is BOTTOM else 0.0, math.inf if x is TOP else 0.0, True, True)

    fx = AnalyticFixture(
        name="spy",
        ambient=ParetoSpace(1),
        record_fn=record,
        probes=(),
        derivation="test",
        sample_membership_fn=lambda x: False,
        sample_value_fn=lambda x: 0.0,
    )
    for query in ((0.5,), TOP, BOTTOM):
        for read in (fx.record, fx.lower_sup, fx.upper_inf, fx.contour_occupancy):
            seen.clear()
            read(query)
            assert len(seen) == 1 and seen[0] is query, (read, query)


@pytest.mark.parametrize("missing", ["record_fn", "sample_membership_fn", "sample_value_fn"])
def test_fixture_without_a_declared_function_is_refused(missing):
    fields = dict(vars(_line_fixture(lambda x: 0.0)))
    del fields[missing]
    with pytest.raises(TypeError, match=missing):
        AnalyticFixture(**fields)


def test_an_oracle_answers_the_single_reads_from_its_record():
    class OneRecord(ContourOracle):
        rel = ParetoSpace(1)

        def record(self, x):
            return (-1.0, 2.0, True, False)

        def in_samples(self, x):
            return False

        def sample_value(self, x):
            raise KeyError(x)

    oracle = OneRecord()
    assert oracle.lower_sup((0.0,)) == -1.0
    assert oracle.upper_inf((0.0,)) == 2.0
    assert oracle.contour_occupancy((0.0,)) == (True, False)

    class NoRecord(ContourOracle):
        rel = ParetoSpace(1)
        in_samples, sample_value = OneRecord.in_samples, OneRecord.sample_value

    with pytest.raises(TypeError, match="record"):
        NoRecord()


def test_occupancy_and_membership():
    oracle = unit_interval_oracle()
    assert oracle.contour_occupancy((0.5,)) == (True, True)
    assert oracle.contour_occupancy((-1.0,)) == (False, True)
    assert oracle.contour_occupancy(BOTTOM) == (False, True)
    assert oracle.in_samples((1.0,))
    assert not oracle.in_samples((0.5,))
    assert oracle.sample_value((1.0,)) == 1.0


def finite_instances():
    return st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            st.integers(1, n),
        )
    )


@given(finite_instances())
def test_bound_functions_weakly_monotone(inst):
    n, pairs, values, psize = inst
    rel = FinitePreorder.closure(n, pairs)
    oracle = FiniteSampleOracle(
        rel, PartialUtility({i: float(values[i]) for i in range(psize)})
    )
    for x in range(n):
        for y in range(n):
            if rel.geq(y, x):
                assert oracle.lower_sup(y) >= oracle.lower_sup(x)
                assert oracle.upper_inf(y) >= oracle.upper_inf(x)


@given(finite_instances())
def test_bound_functions_constant_on_equivalence_classes(inst):
    n, pairs, values, psize = inst
    rel = FinitePreorder.closure(n, pairs)
    oracle = FiniteSampleOracle(
        rel, PartialUtility({i: float(values[i]) for i in range(psize)})
    )
    for cls in rel.equivalence_classes():
        ref = cls[0]
        for x in cls[1:]:
            assert oracle.lower_sup(x) == oracle.lower_sup(ref)
            assert oracle.upper_inf(x) == oracle.upper_inf(ref)


@given(finite_instances())
def test_sandwich_at_sample_points(inst):
    n, pairs, values, psize = inst
    rel = FinitePreorder.closure(n, pairs)
    samples = PartialUtility({i: float(values[i]) for i in range(psize)})
    oracle = FiniteSampleOracle(rel, samples)
    for p, v in samples.items():
        assert oracle.lower_sup(p) >= v >= oracle.upper_inf(p)


@given(finite_instances())
def test_inclusion_monotonicity_of_bounds(inst):
    n, pairs, values, psize = inst
    rel = FinitePreorder.closure(n, pairs)
    big = PartialUtility({i: float(values[i]) for i in range(psize)})
    small = PartialUtility({i: big.value(i) for i in range(max(0, psize - 1))})
    grown = FiniteSampleOracle(rel, big)
    shrunk = FiniteSampleOracle(rel, small)
    for x in range(n):
        assert grown.lower_sup(x) >= shrunk.lower_sup(x)
        assert grown.upper_inf(x) <= shrunk.upper_inf(x)
