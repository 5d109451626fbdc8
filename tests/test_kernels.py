"""Records of FiniteSampleOracle against the reference scan.

Every element query on a ParetoSpace or FinitePreorder reads the one
structure kept on the sample set, and ``TOP`` and ``BOTTOM`` are the max
and min of the sample values; ``reference.scan_record``, the
one-comparison-per-sample loop, is the reference for both, on empty
sample sets too.  Bounds are compared as values and as text, so ties
between ``-0.0`` and ``0.0`` (or ``1``, ``1.0`` and ``Fraction(1)``) must
resolve to the same sample in both.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordext.contours import FiniteSampleOracle, ParetoBounds, PartialUtility, bounds_of
from ordext.monotonicity import check_pareto_set_values
from ordext.orders import (
    BOTTOM,
    TOP,
    FinitePreorder,
    ForeignElementError,
    ParetoSpace,
    PrefixChains,
)

from reference import scan_record

# few distinct magnitudes, so duplicates and ties are common
NUMBERS = st.sampled_from(
    [-1e12, -2.5, Fraction(-5, 2), -1, -1.0, -0.0, 0, 0.0, Fraction(0), 0.5,
     Fraction(1, 2), 1, 1.0, Fraction(1), Fraction(1, 3), 3, 7.25, 1e12]
)


def assert_same_scan(oracle, x):
    got = oracle.record(x)
    want = scan_record(oracle.rel, oracle.samples, x)
    assert got == want
    assert [str(b) for b in got[:2]] == [str(b) for b in want[:2]]
    # the record read primes the bound reads of the same object: both are
    # memo hits, which leave the memo as they found it
    assert (oracle.lower_sup(x), oracle.upper_inf(x)) == got[:2]
    assert oracle._last[0] is x and oracle._last[1] is got


def with_repeats(draw, queries):
    """The queries, then a draw of them again: repeats after other queries."""
    again = draw(st.lists(st.sampled_from(queries), max_size=len(queries)))
    return queries + again


@st.composite
def pareto_oracles(draw):
    k = draw(st.integers(1, 3))
    points = st.tuples(*[NUMBERS] * k)
    samples = draw(st.lists(st.tuples(points, NUMBERS), max_size=12))
    queries = draw(st.lists(points, min_size=1, max_size=8))
    queries += [p for p, _ in samples] + [TOP, BOTTOM]
    oracle = FiniteSampleOracle(ParetoSpace(k), PartialUtility(dict(samples)))
    return oracle, with_repeats(draw, queries)


@given(pareto_oracles())
def test_pareto_kernel_matches_generic_loop(case):
    oracle, queries = case
    for x in queries:
        assert_same_scan(oracle, x)


@st.composite
def finite_oracles(draw):
    n = draw(st.integers(1, 9))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    rel = FinitePreorder.closure(n, pairs)
    samples = draw(st.dictionaries(index, NUMBERS))
    queries = [*range(n), TOP, BOTTOM]
    return FiniteSampleOracle(rel, PartialUtility(samples)), with_repeats(draw, queries)


@given(finite_oracles())
def test_finite_kernel_matches_generic_loop(case):
    oracle, queries = case
    for x in queries:
        assert_same_scan(oracle, x)


@settings(max_examples=10, deadline=None)
@given(samples=st.dictionaries(st.integers(0, 1999), NUMBERS, max_size=40),
       queries=st.lists(st.integers(0, 1999), min_size=1, max_size=20))
def test_kernel_on_2000_element_chain_and_antichain(big_chain, big_antichain, samples, queries):
    for rel in (big_chain, big_antichain):
        oracle = FiniteSampleOracle(rel, PartialUtility(samples))
        for x in queries + [0, 1999, TOP, BOTTOM] + sorted(samples)[:3]:
            assert_same_scan(oracle, x)


def test_augmented_extremes_are_the_max_and_min_of_the_values():
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0.0, 1.0): -0.0, (1.0, 0.0): 0.0}))
    assert str(oracle.upper_inf(BOTTOM)) == "-0.0"
    assert str(oracle.lower_sup(TOP)) == "-0.0"
    assert oracle.contour_occupancy(TOP) == (True, False)


def test_tie_keeps_the_first_sample_in_order():
    samples = PartialUtility({(1.0, 0.0): -0.0, (0.0, 1.0): 0.0, (-1.0, -1.0): -0.0})
    oracle = FiniteSampleOracle(ParetoSpace(2), samples)
    assert str(oracle.lower_sup((1.0, 1.0))) == "-0.0"
    assert str(oracle.upper_inf((-1.0, -1.0))) == "-0.0"
    reordered = PartialUtility({(0.0, 1.0): 0.0, (1.0, 0.0): -0.0})
    assert str(FiniteSampleOracle(ParetoSpace(2), reordered).lower_sup((1.0, 1.0))) == "0.0"


def test_int_and_float_coordinates_compare_as_numbers():
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(1, 2): 5, (1.0, 3.0): 6.0}))
    assert oracle.contour_occupancy((1.0, 2)) == (True, True)
    assert str(oracle.lower_sup((1.0, 3))) == "6.0"
    assert str(oracle.upper_inf((1.0, 2.0))) == "5"


@pytest.mark.parametrize(
    "query",
    [(0.0,), (0.0, 0.0, 0.0), (math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), [0.0, 0.0],
     (10**400, 0.0), (0.0, Fraction(-10**400))],
    ids=["short", "long", "inf", "-inf", "nan", "list", "int-beyond-float",
         "fraction-beyond-float"],
)
def test_pareto_kernel_rejects_foreign_queries(query):
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0.0, 0.0): 0.0}))
    with pytest.raises(ForeignElementError):
        oracle.lower_sup(query)


@pytest.mark.parametrize("query", [-1, 3, 1.0, "a"])
def test_finite_kernel_rejects_out_of_range_index(query):
    oracle = FiniteSampleOracle(FinitePreorder.chain(3), PartialUtility({0: 0.0}))
    with pytest.raises(ForeignElementError):
        oracle.upper_inf(query)


@pytest.mark.parametrize(
    "rel, bad_sample, query",
    [
        (ParetoSpace(2), (1.0,), (0.0, 0.0)),
        (ParetoSpace(2), (1.0, math.inf), (0.0, 0.0)),
        (FinitePreorder.chain(3), 5, 1),
    ],
    ids=["pareto-length", "pareto-inf", "finite-index"],
)
def test_malformed_sample_point_is_rejected_on_every_scan(rel, bad_sample, query):
    good = (0.0, 0.0) if isinstance(rel, ParetoSpace) else 0
    oracle = FiniteSampleOracle(rel, PartialUtility({good: 0.0, bad_sample: 1.0}))
    for _ in range(2):  # a failed validation is not remembered as done
        with pytest.raises(ForeignElementError):
            oracle.lower_sup(query)
    with pytest.raises(ForeignElementError):
        scan_record(rel, oracle.samples, query)


def peak_memory(build):
    """The tracemalloc peak of ``build()``, in bytes."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def front_of_10k():
    """10**4 points of the unit cube, each its own sum as its value."""
    rng = random.Random(8)
    points = [tuple(rng.random() for _ in range(3)) for _ in range(10**4)]
    return points, PartialUtility({p: sum(p) for p in points})


def test_pareto_index_memory_is_within_twice_the_dominance_masks(front_of_10k):
    # |P| = 10**4 and k = 3: the index stores k(|P|+1) prefix masks, the
    # dominance masks 2|P| masks of up to |P| bits each
    points, samples = front_of_10k
    masks = peak_memory(lambda: list(PrefixChains(points, range(len(points))).of_points()))
    oracle = FiniteSampleOracle(ParetoSpace(3), samples)
    index = peak_memory(lambda: oracle.lower_sup(points[0]))
    assert type(samples._bounds) is ParetoBounds and samples._bounds.rel is oracle.rel
    assert index <= 2 * masks


def test_pareto_set_check_holds_no_list_of_masks():
    # (a, b - a, 1 - b) for a <= b: a point weakly above another has the
    # same b, so distinct b make 10**4 mutually undominated points, and the
    # Pareto-set test and the strict check both read every point's masks.
    # With the chains kept, they read them as the chains make them; a
    # masks() that built a list would peak as high as the list below
    rng = random.Random(34)
    pairs = [sorted((rng.random(), rng.random())) for _ in range(10**4)]
    samples = PartialUtility({(a, b - a, 1 - b): rng.random() for a, b in pairs})
    space = ParetoSpace(3)
    bounds = bounds_of(space, samples)
    masks = peak_memory(lambda: list(bounds.masks()))
    verdicts = []
    check = peak_memory(lambda: verdicts.append(check_pareto_set_values(space, samples)))
    assert len(samples) == 10**4 and verdicts[0].holds
    assert bounds_of(space, samples) is bounds
    assert 8 * check <= masks


@pytest.mark.parametrize(
    "rel, valid, foreign",
    [(FinitePreorder.chain(3), 1, 1.0), (ParetoSpace(2), (1, 0), (True, 0))],
    ids=["finite-float-index", "pareto-bool-coordinate"],
)
def test_memo_hit_does_not_skip_validation(rel, valid, foreign):
    # each foreign query equals the valid one before it; the memo must not
    # answer it, or it would pass for an element
    good = (0, 0) if isinstance(rel, ParetoSpace) else 0
    oracle = FiniteSampleOracle(rel, PartialUtility({good: 0.0}))
    for read in (oracle.lower_sup, oracle.upper_inf, oracle.contour_occupancy, oracle.record):
        read(valid)
        with pytest.raises(ForeignElementError):
            read(foreign)


def count_structure_reads(monkeypatch):
    """The queries that read the Pareto structure, in order."""
    record, reads = ParetoBounds.record, []
    monkeypatch.setattr(ParetoBounds, "record", lambda self, q: reads.append(q) or record(self, q))
    return reads


def test_memo_matches_the_same_query_object_only(monkeypatch):
    # after a record read, the bound reads of the same object are memo hits;
    # an equal but distinct query reads the structure again
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0, 0): 0.0, (1, 1): 1.0}))
    x = (0.5, 0.5)
    first = oracle.record(x)
    reads = count_structure_reads(monkeypatch)
    assert (oracle.lower_sup(x), oracle.upper_inf(x)) == first[:2]
    assert reads == []
    twin = tuple([0.5, 0.5])
    assert twin == x and twin is not x
    assert oracle.lower_sup(twin) == first[0]
    assert len(reads) == 1 and reads[0] is twin
    assert oracle.upper_inf(twin) == first[1]
    assert len(reads) == 1


def test_record_reads_the_structure_every_time(monkeypatch):
    # record is a plain read: a second record of the same object reads the
    # structure again, and primes the memo with the new record
    oracle = FiniteSampleOracle(ParetoSpace(2), PartialUtility({(0, 0): 0.0, (1, 1): 1.0}))
    x = (0.5, 0.5)
    reads = count_structure_reads(monkeypatch)
    first = oracle.record(x)
    second = oracle.record(x)
    assert second == first
    assert len(reads) == 2 and reads[0] is x and reads[1] is x
    assert oracle._last[0] is x and oracle._last[1] is second


@pytest.mark.parametrize("index", [True, False])
def test_bool_is_no_finite_index(index):
    # bool is an int, yet no element: a finite space rejects it as a Pareto
    # space rejects a bool coordinate, and does not read it as 1 or 0
    chain = FinitePreorder.chain(3)
    with pytest.raises(ForeignElementError):
        chain.geq(2, index)
    oracle = FiniteSampleOracle(chain, PartialUtility({0: 0.0, 2: 1.0}))
    for read in (oracle.lower_sup, oracle.upper_inf):
        with pytest.raises(ForeignElementError):
            read(index)
