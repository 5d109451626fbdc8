"""The grid sweep of FiniteSampleOracle against per-point queries.

``FiniteSampleOracle.lattice`` answers a 2-D grid row by row from one
sweep: each row's points, their records and their sample membership.
Each record must equal, as values and as text, what a fresh oracle and
the reference scan answer for that point alone, so ties between ``-0.0``
and ``0.0`` (or ``1``, ``1.0`` and ``Fraction(1)``) resolve to the same
sample on every path.  ``ExtensionEngine.evaluate_grid``, which
evaluates the rows, must match a fresh engine's per-point reads bit for
bit.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordext import contours
from ordext.cli import grid_axis
from ordext.contours import FiniteSampleOracle, PartialUtility
from ordext.extension import make_engine
from ordext.fixtures import get_fixture
from ordext.orders import FinitePreorder, ForeignElementError, ParetoSpace, UnsupportedQueryError

from reference import scan_record

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
    rows = []
    for points, records, members in oracle.lattice(xs, ys):
        rows.append(points)
        assert len(records) == len(members) == len(points)
        for x, got, member in zip(points, records, members):
            for want in (alone.record(x), scan_record(oracle.rel, oracle.samples, x)):
                assert got == want
                assert as_text(got) == as_text(want)
            assert member is alone.in_samples(x)
            # primed with the point and its record, as a record read primes
            # it, the memo answers both bound reads, and hits leave it as is
            oracle._last = (x, got)
            assert (oracle.lower_sup(x), oracle.upper_inf(x)) == got[:2]
            assert oracle._last[1] is got
    assert rows == [[(v1, v2) for v2 in ys] for v1 in xs]


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
    rows = list(oracle.lattice([0.0, 1.0], [0.5]))
    assert {record for _, records, _ in rows for record in records} == {
        (-float("inf"), float("inf"), False, False)}
    assert [members for _, _, members in rows] == [[False], [False]]


def test_lattice_shares_one_record_per_pair_of_bounds():
    samples = PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
    oracle = FiniteSampleOracle(ParetoSpace(2), samples)
    axis = grid_axis(0.25, 0.75, 3)
    rows = oracle.lattice(axis, axis)
    assert len({id(record) for _, records, _ in rows for record in records}) == 1


def test_memo_left_by_the_lattice_still_checks_types():
    # the last point of the row, (1.0, 0.0), is in the memo; (True, 0.0)
    # is equal to it but no element, and a fresh oracle rejects it too
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0.0, 0.0): 0.0}))
    rows = make_engine(oracle).evaluate_grid([1.0], [0.0])
    assert oracle._last is None  # nothing is evaluated before the first row
    next(rows)
    assert oracle._last[0] == (1.0, 0.0)
    for read in (oracle.record, oracle.lower_sup, oracle.upper_inf):
        with pytest.raises(ForeignElementError):
            read((True, 0.0))
    assert oracle.record((1, 0)) == (0.0, float("inf"), True, False)


def test_first_row_ranks_only_its_own_points(monkeypatch):
    # the sweep is lazy: no pair of masks is ranked before the first row
    # is taken, and that row ranks at most one pair per point
    ranked = []
    ranks = contours.SampleRanks.ranks

    def counted(self, down, up):
        ranked.append((down, up))
        return ranks(self, down, up)

    monkeypatch.setattr(contours.SampleRanks, "ranks", counted)
    samples = {(0.25 * i, 1.0 - 0.25 * i): float(i) for i in range(5)}
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility(samples))
    xs = ys = grid_axis(0.0, 1.0, 9)
    rows = oracle.lattice(xs, ys)
    assert ranked == []
    next(rows)
    assert 0 < len(ranked) <= len(ys)


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
    with pytest.raises(UnsupportedQueryError):
        engine.evaluate_grid([0.0], [0.0])


@pytest.mark.parametrize(
    "xs, ys",
    [([0.0, float("inf")], [0.0]), ([0.0], [float("nan")]), ([True], [0.0])],
    ids=["infinite", "nan", "bool"],
)
def test_lattice_rejects_bad_axes_before_the_first_point(xs, ys):
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0.0, 0.0): 0.0}))
    with pytest.raises(ForeignElementError):
        oracle.lattice(xs, ys)
    with pytest.raises(ForeignElementError):
        make_engine(oracle).evaluate_grid(xs, ys)
    assert oracle._last is None


@given(case=lattices(), data=st.data())
def test_evaluate_grid_matches_per_point_reads(case, data):
    # finite samples never make a bound unbounded the wrong way, so both
    # paths evaluate every point, gap-safe or not; the reference is a fresh
    # engine that reads each point alone, with no sweep and no label cache.
    # The axes come in any order
    oracle, xs, ys = case
    xs, ys = data.draw(st.permutations(xs)), data.draw(st.permutations(ys))
    engine = make_engine(oracle)
    reference = make_engine(FiniteSampleOracle(oracle.rel, oracle.samples))
    want = [[(repr(reference.evaluate((v1, v2))), *reference.describe((v1, v2))[2:])
             for v2 in ys] for v1 in xs]
    got = [[(repr(value), *labels) for value, labels in zip(*row)]
           for row in engine.evaluate_grid(xs, ys)]
    assert got == want


class RowSpy(FiniteSampleOracle):
    """A sample oracle that keeps the records list of each row its lattice
    sweep hands over, in ``handed``."""

    def lattice(self, xs, ys):
        rows = super().lattice(xs, ys)
        self.handed = []

        def tee():
            for row in rows:
                self.handed.append(row[1])
                yield row

        return tee()


def check_labels_follow_records(oracle, xs, ys):
    """Assert that ``evaluate_grid`` yields a row the labels list object of
    the row before iff the lattice handed it that row's records list, and a
    new list otherwise; return which rows were repeats."""
    spy = RowSpy(oracle.rel, oracle.samples)
    yielded, repeats = [], []
    for i, (_, labels) in enumerate(make_engine(spy).evaluate_grid(xs, ys)):
        repeats.append(i > 0 and spy.handed[i] is spy.handed[i - 1])
        if repeats[-1]:
            assert labels is yielded[-1]
        else:
            assert all(labels is not old for old in yielded)
        yielded.append(labels)
    assert len(yielded) == len(xs)
    return repeats


def test_evaluate_grid_yields_a_repeated_row_the_labels_list_before():
    samples = PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
    oracle = FiniteSampleOracle(ParetoSpace(2), samples)
    axis = grid_axis(0.0, 1.0, 5)
    # the rows 0.25, 0.5 and 0.75 have the same samples below and above
    assert check_labels_follow_records(oracle, axis, axis) == [False, False, True, True, False]


@given(lattices())
def test_evaluate_grid_shares_labels_as_the_lattice_shares_records(case):
    check_labels_follow_records(*case)
