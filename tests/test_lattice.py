"""The grid sweep of FiniteSampleOracle against per-point queries.

``FiniteSampleOracle.lattice`` answers every point of a 2-D grid from one
sweep and leaves each point's record in the oracle's memo.  Each record
must equal, as values and as text, what a fresh oracle's index and the
generic loop answer for that point alone, so ties between ``-0.0`` and
``0.0`` (or ``1``, ``1.0`` and ``Fraction(1)``) resolve to the same
sample on every path.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordext.cli import grid_axis
from ordext.contours import FiniteSampleOracle, PartialUtility
from ordext.extension import make_engine
from ordext.fixtures import get_fixture
from ordext.orders import FinitePreorder, ForeignElementError, ParetoSpace, UnsupportedQueryError

# tied values of every kind: -0.0/0.0/0, 1/1.0/Fraction(1), and repeats
VALUES = st.sampled_from(
    [-2, -0.0, 0.0, 0, 0.5, Fraction(1, 2), 1, 1.0, Fraction(1), 3, 3.0]
)
# the axis ends, and coordinates: on the nodes of the grids they span,
# between nodes, and outside every box
ENDS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
COORDS = st.sampled_from([-2, -1.0, -0.0, 0, 0.0, 0.25, 0.3, 0.5, 1, 1.0, 1.5, 3.0])


@st.composite
def lattices(draw):
    """(oracle, xs, ys): samples of any size, empty included, and two axes."""
    samples = draw(st.lists(st.tuples(st.tuples(COORDS, COORDS), VALUES), max_size=10))
    axes = []
    for _ in range(2):
        lo, hi = sorted([draw(ENDS), draw(ENDS)])  # lo == hi is drawn too
        axes.append(grid_axis(lo, hi, draw(st.integers(1, 5))))
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility(dict(samples)))
    return oracle, axes[0], axes[1]


def as_text(record):
    return [str(field) for field in record]


def assert_records_match_per_point_queries(oracle, xs, ys):
    alone = FiniteSampleOracle(oracle.rel, oracle.samples)
    points = []
    for x in oracle.lattice(xs, ys):
        points.append(x)
        got = oracle._last[1]
        assert oracle._last[0] is x
        assert oracle.record(x) is got  # the memo answers the yielded point
        alone._last = None  # read the index, not the last record
        for want in (alone.record(x), oracle._scan_generic(x)):
            assert got == want
            assert as_text(got) == as_text(want)
    assert points == [(v1, v2) for v1 in xs for v2 in ys]


@given(lattices())
def test_lattice_records_match_per_point_queries(case):
    assert_records_match_per_point_queries(*case)


@pytest.mark.parametrize(
    "shuffle_x, shuffle_y", [(True, False), (False, True), (True, True)],
    ids=["unsorted-x", "unsorted-y", "unsorted-both"],
)
@given(case=lattices(), data=st.data())
def test_lattice_takes_its_axes_in_any_order(shuffle_x, shuffle_y, case, data):
    # a point's masks are one AND of its row's and its column's, whatever
    # order the rows and the columns come in
    oracle, xs, ys = case
    if shuffle_x:
        xs = data.draw(st.permutations(xs))
    if shuffle_y:
        ys = data.draw(st.permutations(ys))
    assert_records_match_per_point_queries(oracle, xs, ys)


def test_lattice_of_no_samples_is_detached_everywhere():
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({}))
    records = {oracle.record(x) for x in oracle.lattice([0.0, 1.0], [0.5])}
    assert records == {(-float("inf"), float("inf"), False, False)}


def test_lattice_shares_one_record_per_pair_of_bounds():
    samples = PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
    oracle = FiniteSampleOracle(ParetoSpace(2), samples)
    axis = grid_axis(0.25, 0.75, 3)
    assert len({id(oracle.record(x)) for x in oracle.lattice(axis, axis)}) == 1


def test_memo_left_by_the_lattice_still_checks_types():
    # the yielded (1.0, 0.0) is in the memo; (True, 0.0) is equal to it but
    # no element, and a fresh oracle rejects it too
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0.0, 0.0): 0.0}))
    points = oracle.lattice([1.0], [0.0])
    assert next(points) == (1.0, 0.0)
    with pytest.raises(ForeignElementError):
        oracle.record((True, 0.0))
    assert oracle.record((1, 0)) == (0.0, float("inf"), True, False)


@pytest.mark.parametrize(
    "rel, samples",
    [(ParetoSpace(1), {(0.0,): 0.0}), (ParetoSpace(3), {(0.0, 0.0, 0.0): 0.0}),
     (FinitePreorder.chain(2), {0: 0.0})],
    ids=["pareto-1", "pareto-3", "finite"],
)
def test_lattice_needs_a_2d_pareto_space(rel, samples):
    oracle = FiniteSampleOracle(rel, PartialUtility(samples))
    with pytest.raises(UnsupportedQueryError):
        oracle.lattice([0.0], [0.0])


def test_only_sample_oracles_sweep_a_lattice():
    engine = make_engine(get_fixture("example-gap"))
    with pytest.raises(UnsupportedQueryError):
        engine.oracle.lattice([0.0], [0.0])


@pytest.mark.parametrize(
    "xs, ys",
    [([0.0, float("inf")], [0.0]), ([0.0], [float("nan")]), ([True], [0.0])],
    ids=["infinite", "nan", "bool"],
)
def test_lattice_rejects_bad_axes_before_the_first_point(xs, ys):
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0.0, 0.0): 0.0}))
    with pytest.raises(ForeignElementError):
        oracle.lattice(xs, ys)
    assert oracle._last is None


@given(lattices())
def test_evaluate_many_over_a_lattice_matches_per_point_reads(case):
    # finite samples never make a bound unbounded the wrong way, so both
    # paths evaluate every point, gap-safe or not; the reference reads each
    # point alone, with no sweep and no label cache
    oracle, xs, ys = case
    engine = make_engine(oracle)
    reference = make_engine(FiniteSampleOracle(oracle.rel, oracle.samples))
    points = [(v1, v2) for v1 in xs for v2 in ys]
    want = [(repr(reference.evaluate(x)), *reference.describe(x)[2:]) for x in points]
    got = [(repr(v), r, b) for v, r, b in engine.evaluate_many(oracle.lattice(xs, ys))]
    assert got == want
