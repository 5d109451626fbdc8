"""Mask-based and condensation-based pairwise checks against the
pairwise reference loops.

``check_weakly_increasing``, ``check_strictly_increasing`` and
``check_pareto_set_values`` decide every sample pair with bitmask algebra
over value ranks, or on a ``FinitePreorder`` with passes over its
condensation.  The one-comparison-per-pair
loops they replaced live in the test tree's ``reference`` module and
must give the same verdict and the same witness: the same pair, the same
note, and context values that print the same (so a tie between ``-0.0``
and ``0.0``, or ``1`` and ``1.0``, must pick the same sample).

``check_gap_safe_finite`` decides gap-safety by strict increase on the
samples.  Its verdict must equal that of ``pairwise_gap_safe_finite``,
the definition read over every element pair; a gap it reports names the
pair the pairwise strict-increase loop reports first, with that pair's
two bounds.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordext import contours, monotonicity, orders
from ordext.contours import (
    FiniteSampleOracle,
    ParetoBounds,
    PartialUtility,
    SampleRanks,
    bound_text,
    bounds_of,
)
from ordext.monotonicity import (
    NotAParetoSetError,
    check_gap_safe_finite,
    check_pareto_set_values,
    check_strictly_increasing,
    check_weakly_increasing,
)
from ordext.orders import (
    BOTTOM,
    TOP,
    FinitePreorder,
    ForeignElementError,
    ParetoSpace,
    Preorder,
    PrefixChains,
)
from ordext.utility import finite_utility

from reference import (
    pairwise_gap_safe_finite,
    pairwise_is_pareto_set,
    pairwise_pareto_set_values,
    pairwise_strictly_increasing,
    pairwise_weakly_increasing,
    scan_record,
)

# the pool of tests/test_kernels.py without its Fractions: few magnitudes,
# so ties are common
NUMBERS = st.sampled_from(
    [-1e12, -2.5, -1, -1.0, -0.0, 0, 0.0, 0.5, 1, 1.0, 3, 7.25, 1e12]
)


def shown(x):
    return repr(x)


def assert_same_verdict(got, want):
    assert got.holds == want.holds
    if want.holds:
        assert got.witness is None
        return
    g, w = got.witness, want.witness
    assert (shown(g.lo), shown(g.hi), g.note) == (shown(w.lo), shown(w.hi), w.note)
    assert [label for label, _ in g.context] == [label for label, _ in w.context]
    assert [str(v) for _, v in g.context] == [str(v) for _, v in w.context]
    assert g.context == w.context


GAP_NOTE = "x' strictly dominates x but b(x') <= a(x)"


def assert_gap_rule(rel, samples, holds, got=None):
    """``check_gap_safe_finite`` gives the verdict ``holds`` and a re-checkable
    witness; ``got``, when given, is a verdict it already gave."""
    if got is None:
        got = check_gap_safe_finite(rel, samples)
    assert got.holds == holds
    if holds:
        assert got.witness is None
        return
    weak = pairwise_weakly_increasing(rel, samples)
    if not weak.holds:
        assert_same_verdict(got, weak)
        return
    w, strict = got.witness, pairwise_strictly_increasing(rel, samples).witness
    assert (shown(w.lo), shown(w.hi), w.note) == (shown(strict.lo), shown(strict.hi), GAP_NOTE)
    fresh = FiniteSampleOracle(rel, samples)
    a, b = fresh.lower_sup(w.lo), fresh.upper_inf(w.hi)
    assert w.context == (("a(x)", bound_text(a)), ("b(x')", bound_text(b)))
    assert rel.strictly_greater(w.hi, w.lo)
    assert not b > a


def assert_same_pareto_values(rel, samples):
    try:
        want = pairwise_pareto_set_values(rel, samples)
    except NotAParetoSetError as exc:
        with pytest.raises(NotAParetoSetError) as got:
            check_pareto_set_values(rel, samples)
        assert shown(got.value.pair) == shown(exc.pair)
        return
    assert_same_verdict(check_pareto_set_values(rel, samples), want)


def assert_same_sample_checks(rel, samples):
    assert_same_verdict(
        check_weakly_increasing(rel, samples), pairwise_weakly_increasing(rel, samples)
    )
    assert_same_verdict(
        check_strictly_increasing(rel, samples), pairwise_strictly_increasing(rel, samples)
    )
    assert_same_pareto_values(rel, samples)


def pairwise_masks(rel, points):
    n = len(points)
    up = [sum(1 << j for j in range(n) if rel.geq(points[j], points[i])) for i in range(n)]
    down = [sum(1 << j for j in range(n) if rel.geq(points[i], points[j])) for i in range(n)]
    return up, down


# ---- Pareto spaces --------------------------------------------------------


@st.composite
def pareto_cases(draw):
    k = draw(st.integers(1, 3))
    point = st.tuples(*[NUMBERS] * k)
    samples = draw(st.lists(st.tuples(point, NUMBERS), max_size=12))
    return ParetoSpace(k), PartialUtility(dict(samples)), draw(st.lists(point, max_size=10))


@given(pareto_cases())
def test_pareto_dominance_masks_match_pairwise_geq(case):
    space, samples, points = case
    for pts in (list(samples.points), points):
        up, down = pairwise_masks(space, pts)
        assert list(PrefixChains(pts, range(len(pts))).of_points()) == list(zip(down, up))


@given(pareto_cases())
def test_pareto_sample_checks_match_reference(case):
    space, samples, _ = case
    assert_same_sample_checks(space, samples)


def test_pareto_masks_reject_foreign_points_like_the_reference():
    space = ParetoSpace(2)
    for bad in [(0.0,), (0.0, float("inf")), ("a", "b")]:
        samples = PartialUtility({(0.0, 0.0): 0.0, bad: 1.0})
        with pytest.raises(ForeignElementError):
            pairwise_weakly_increasing(space, samples)
        with pytest.raises(ForeignElementError):
            check_weakly_increasing(space, samples)
        with pytest.raises(ForeignElementError):
            check_strictly_increasing(space, samples)


# ---- finite preorders -----------------------------------------------------


@st.composite
def finite_cases(draw):
    n = draw(st.integers(1, 9))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    # reversing a prefix of the pairs makes equivalence classes common
    pairs += [(j, i) for i, j in pairs[: draw(st.integers(0, len(pairs)))]]
    rel = FinitePreorder.closure(n, pairs)
    # dictionary order is sample order, so positions are not element order
    keys = draw(st.lists(index, unique=True, min_size=min(n, 2)))
    return rel, PartialUtility({p: draw(NUMBERS) for p in keys})


def test_finite_pareto_checks_build_no_rows(monkeypatch):
    # no code builds rows; nor does the check ask a pair by geq, which
    # walks the condensation per pair
    asked = []
    geq = orders.FinitePreorder.geq

    def counted(rel, x, y):
        asked.append((x, y))
        return geq(rel, x, y)

    monkeypatch.setattr(orders.FinitePreorder, "geq", counted)
    # 0 ~ 1, both above 2, and 3 apart
    rel = FinitePreorder.closure(4, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(NotAParetoSetError) as err:
        check_pareto_set_values(rel, PartialUtility({3: 0.0, 2: 1.0, 1: 2.0}))
    assert err.value.pair == (1, 2)
    with pytest.raises(NotAParetoSetError) as err:
        check_pareto_set_values(rel, PartialUtility({2: 0.0, 0: 1.0, 3: 5.0}))
    assert err.value.pair == (0, 2)
    verdict = check_pareto_set_values(rel, PartialUtility({1: 1.0, 3: 0.0, 0: 2.0}))
    assert (verdict.holds, verdict.witness.lo, verdict.witness.hi) == (False, 1, 0)
    assert asked == []


def test_finite_pareto_set_check_reads_only_the_kept_structure(monkeypatch):
    # the Pareto-set test reads the ComponentBounds the strict check kept:
    # no further pass over the condensation
    rel = FinitePreorder.closure(4, [(0, 1), (1, 0), (1, 2)])
    samples = PartialUtility({3: 0.0, 1: 1.0, 0: 1.0})
    assert check_strictly_increasing(rel, samples).holds
    passes = []

    def counted(name):
        fold = getattr(FinitePreorder, name)

        def folded(self, *args):
            passes.append(name)
            return fold(self, *args)
        return folded

    for name in ("down_min", "up_min"):
        monkeypatch.setattr(FinitePreorder, name, counted(name))
    assert check_pareto_set_values(rel, samples) is bounds_of(rel, samples).verdicts[0]
    assert passes == []


@settings(max_examples=300)
@given(finite_cases())
def test_finite_checks_match_reference(case):
    rel, samples = case
    assert_same_sample_checks(rel, samples)
    assert_gap_rule(rel, samples, pairwise_gap_safe_finite(rel, samples).holds)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 200), shape=st.sampled_from(["random", "chain"]))
def test_gap_check_matches_reference_on_larger_relations(seed, n, shape):
    rng = random.Random(seed)
    if shape == "chain":
        order = rng.sample(range(n), n)
        pairs = list(zip(order[1:], order))
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    rel = FinitePreorder.closure(n, pairs)
    points = rng.sample(range(n), rng.randint(0, n // 4))
    level = finite_utility(rel)
    levels = {x: level(x) for x in points}
    # mostly increasing values with occasional ties and dips
    samples = PartialUtility({p: levels[p] + rng.choice([0, 0, 0, -1, 0.5]) for p in points})
    assert_gap_rule(rel, samples, pairwise_gap_safe_finite(rel, samples).holds)
    assert_same_pareto_values(rel, samples)


def test_gap_check_reads_no_bounds_when_it_passes(monkeypatch):
    rng = random.Random(600)
    n = 600
    rel = FinitePreorder.closure(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
    level = finite_utility(rel)
    samples = PartialUtility({p: level(p) for p in rng.sample(range(n), n // 4)})

    def no_bounds(oracle, x):
        raise AssertionError("a passing gap check read a contour bound")

    monkeypatch.setattr(FiniteSampleOracle, "lower_sup", no_bounds)
    monkeypatch.setattr(FiniteSampleOracle, "upper_inf", no_bounds)
    assert check_gap_safe_finite(rel, samples).holds


# ---- 2000-element chain and antichain --------------------------------------


@settings(max_examples=10, deadline=None)
@given(samples=st.dictionaries(st.integers(0, 1999), NUMBERS, max_size=40))
def test_sample_checks_on_2000_element_chain_and_antichain(big_chain, big_antichain, samples):
    samples = PartialUtility(samples)
    for rel in (big_chain, big_antichain):
        assert_same_sample_checks(rel, samples)


@settings(max_examples=10, deadline=None)
@given(samples=st.dictionaries(st.integers(0, 1999), NUMBERS, max_size=40))
def test_gap_check_on_2000_element_chain_and_antichain(big_chain, big_antichain, samples):
    # the pairwise reference costs 4,000,000 comparisons per instance here,
    # so the verdicts are checked against closed forms: on a finite chain
    # gap-safety is strict increase of the samples, checked pairwise over
    # at most 40 samples; an antichain has no strict pairs and is always
    # gap-safe
    samples = PartialUtility(samples)
    assert_gap_rule(big_antichain, samples, True)
    assert_gap_rule(big_chain, samples, pairwise_strictly_increasing(big_chain, samples).holds)


# ---- verdicts kept on the sample set ----------------------------------------


def count_pareto_builds(monkeypatch):
    """Wrap the build of a :class:`ParetoBounds`; returns the relation of each build."""
    builds = []
    init = ParetoBounds.__init__

    def counted(self, rel, samples):
        builds.append(rel)
        init(self, rel, samples)

    monkeypatch.setattr(ParetoBounds, "__init__", counted)
    return builds


def test_interleaved_sample_sets_make_one_mask_pass_each(monkeypatch):
    # A fails weak increase; B only strict increase, by a tie on a strict
    # pair, so its gap verdict is a bound witness
    space = ParetoSpace(2)
    a = PartialUtility({(0.0, 0.0): 1.0, (2.0, 0.5): 3.0, (1.0, 1.0): 0.0, (0.0, 3.0): 4.0})
    b = PartialUtility({(0.0, 2.0): 5.0, (0.0, 0.0): 1.0, (3.0, 0.0): 2.0, (1.0, 1.0): 1.0})
    passes = count_pareto_builds(monkeypatch)
    strict = {"a": check_strictly_increasing(space, a), "b": check_strictly_increasing(space, b)}
    weak = {"a": check_weakly_increasing(space, a), "b": check_weakly_increasing(space, b)}
    gap = {"a": check_gap_safe_finite(space, a), "b": check_gap_safe_finite(space, b)}
    assert len(passes) == 2
    monkeypatch.undo()
    for name, samples in (("a", a), ("b", b)):
        assert_same_verdict(strict[name], pairwise_strictly_increasing(space, samples))
        assert_same_verdict(weak[name], pairwise_weakly_increasing(space, samples))
        assert_gap_rule(space, samples, False, gap[name])
    assert not weak["a"].holds and weak["b"].holds


def test_failing_check_keeps_no_masks_past_its_sample_set():
    # 2,000 points: the masks of one pass take megabytes, the kept verdicts
    # a few objects, and both go with the sample set
    space = ParetoSpace(2)
    rng = random.Random(22)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        points = [(rng.random(), rng.random()) for _ in range(2000)]
        values = {p: p[0] + p[1] for p in points}
        values[max(values, key=values.get)] = -1.0
        del points
        samples = PartialUtility(values)
        del values
        assert not check_strictly_increasing(space, samples).holds
        del samples
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024


def test_kept_verdicts_follow_the_relation_asked():
    # one sample set under a chain, where its falling values fail, and an
    # antichain, where no pair is strict, in turn
    n = 6
    chain, antichain = FinitePreorder.chain(n), FinitePreorder.antichain(n)
    samples = PartialUtility({i: float(n - i) for i in range(0, n, 2)})
    for rel in (chain, antichain, chain, antichain):
        assert_same_verdict(
            check_strictly_increasing(rel, samples), pairwise_strictly_increasing(rel, samples)
        )
        assert_same_verdict(
            check_weakly_increasing(rel, samples), pairwise_weakly_increasing(rel, samples)
        )
        assert_gap_rule(rel, samples, pairwise_gap_safe_finite(rel, samples).holds)
    assert not check_strictly_increasing(chain, samples).holds
    assert check_strictly_increasing(antichain, samples).holds


def test_kept_pareto_bounds_follow_the_relation_asked(monkeypatch):
    # two equal spaces are two relations: asking the other one rebuilds,
    # asking the same one again reuses, and the checks and the index of
    # one relation share the one kept
    first, second = ParetoSpace(2), ParetoSpace(2)
    samples = PartialUtility({(0.0, 0.0): 1.0, (1.0, 1.0): 0.0, (2.0, 0.0): 3.0})
    builds = count_pareto_builds(monkeypatch)
    for rel in (first, first, second, second, first):
        bounds = bounds_of(rel, samples)
        assert bounds.rel is rel and samples._bounds is bounds
    assert builds == [first, second, first]
    for rel in (second, first):
        assert_same_verdict(
            check_strictly_increasing(rel, samples), pairwise_strictly_increasing(rel, samples)
        )
        assert_gap_rule(rel, samples, False)
        FiniteSampleOracle(rel, samples).record((1.0, 0.5))
    assert builds == [first, second, first, second, first]


def test_alternating_relations_leave_one_structure_per_sample_set():
    # an oracle reads the structure kept on the sample set at each query and
    # holds none itself, so oracles of relations A, B and A asked in turn
    # leave only the structure of the last one live (the third query is a
    # new object, so it is no memo hit)
    first, second = ParetoSpace(2), ParetoSpace(2)
    samples = PartialUtility({(0.0, 0.0): 1.0, (1.0, 1.0): 0.0, (2.0, 0.0): 3.0})
    a, b = FiniteSampleOracle(first, samples), FiniteSampleOracle(second, samples)
    for oracle, x in ((a, (1.0, 0.5)), (b, (1.0, 0.5)), (a, (0.5, 0.5))):
        oracle.record(x)
    gc.collect()
    live = [o for o in gc.get_objects()
            if type(o) is ParetoBounds and (o.rel is first or o.rel is second)]
    assert live == [samples._bounds]
    assert live[0].rel is first


def test_kept_pareto_bounds_die_with_their_sample_set():
    # 2,000 points: the kept chains take about a megabyte, and they go with
    # the sample set once the checks and the index have both read them
    space = ParetoSpace(2)
    rng = random.Random(23)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        samples = PartialUtility({(rng.random(), rng.random()): rng.random() for _ in range(2000)})
        oracle = FiniteSampleOracle(space, samples)
        check_gap_safe_finite(space, samples)
        oracle.record((0.5, 0.5))
        assert isinstance(samples._bounds, ParetoBounds)
        held = tracemalloc.get_traced_memory()[0] - start
        del samples, oracle
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held > 512 * 1024
    assert left < 64 * 1024


@given(pareto_cases())
def test_pareto_bounds_record_matches_the_reference_scan(case):
    # str tells -0.0 from 0.0 and 1 from 1.0: of equal values the record
    # names the first in sample order, as max and min do in the scan
    space, samples, points = case
    bounds = bounds_of(space, samples)
    assert type(bounds) is ParetoBounds
    for x in [*samples.points, *points]:
        want = scan_record(space, samples, x)
        assert [str(v) for v in bounds.record(x)] == [str(v) for v in want]


def test_pareto_set_value_check_builds_one_structure(monkeypatch):
    # the points (i, j, 10 - i - j) are mutually undominated, and (0, 0, 0)
    # lies strictly below each of them.  The Pareto-set test and the strict
    # check read one ParetoBounds per sample set and make no pairwise pass
    space = ParetoSpace(3)
    rng = random.Random(21)
    values = [-1.0, -0.0, 0, 0.0, 1, 1.0, 2.5]
    front = {(i, j, 10 - i - j): rng.choice(values) for i in range(11) for j in range(11 - i)}
    sets = [PartialUtility(front), PartialUtility({**front, (0, 0, 0): 5.0}),
            PartialUtility({(0, 0, 0): 5.0, **front})]
    builds = count_pareto_builds(monkeypatch)
    masks = []
    monkeypatch.setattr(contours, "_pairwise_masks", lambda *args: masks.append(args))
    got = []
    for samples in sets:
        try:
            got.append(check_pareto_set_values(space, samples))
        except NotAParetoSetError as exc:
            got.append(exc)
    assert builds == [space] * 3
    assert masks == []
    monkeypatch.undo()
    assert_same_pareto_values(space, sets[0])
    assert got[0].holds
    for samples, exc in zip(sets[1:], got[1:]):
        assert_same_pareto_values(space, samples)
        assert exc.pair == pairwise_is_pareto_set(space, samples.points)[1]
    # the first front point in sample order, and the lowest-placed one
    assert got[1].pair == ((0, 0, 10), (0, 0, 0))
    assert got[2].pair == ((0, 0, 10), (0, 0, 0))


# ---- other preorders -------------------------------------------------------


class Divisibility(Preorder):
    """Positive integers; x is at least y iff y divides x."""

    def geq(self, x, y):
        if not (isinstance(x, int) and isinstance(y, int) and x > 0 and y > 0):
            raise ForeignElementError(f"{x!r} or {y!r} is not a positive integer")
        return x % y == 0


@given(
    samples=st.dictionaries(st.integers(1, 24), NUMBERS, max_size=10),
    points=st.lists(st.integers(1, 24), max_size=10),
)
def test_generic_preorder_takes_the_pairwise_masks(samples, points):
    rel = Divisibility()
    up, down = pairwise_masks(rel, points)
    assert contours._pairwise_masks(rel, points, range(len(points))) == list(zip(down, up))
    samples = PartialUtility(samples)
    assert type(bounds_of(rel, samples)) is SampleRanks
    assert_same_sample_checks(rel, samples)
    # the oracle reads its two masks of a query point by geq, and its bounds
    # by the tie rule of every ranked structure; TOP and BOTTOM read none
    oracle = FiniteSampleOracle(rel, samples)
    for x in [*samples.points, *points, TOP, BOTTOM]:
        oracle._last = None
        want = scan_record(rel, samples, x)
        assert [str(v) for v in oracle.record(x)] == [str(v) for v in want]


def test_pareto_set_error_names_huge_integers_by_size():
    # repr of an int past the interpreter's 4300-digit limit raises
    # ValueError; the error names it by size and keeps the object itself
    huge = 10**5000
    with pytest.raises(NotAParetoSetError) as exc:
        check_pareto_set_values(Divisibility(), PartialUtility({huge: 1.0, 1: 0.0}))
    assert exc.value.pair[0] is huge and exc.value.pair[1] == 1
    assert str(exc.value) == "not a Pareto set: <int of 16610 bits> strictly dominates 1"


class Residues(Preorder):
    """Integers by their residue mod 3: x is at least y iff x % 3 >= y % 3,
    so distinct integers with the same residue are equivalent."""

    def geq(self, x, y):
        if not (type(x) is int and type(y) is int):
            raise ForeignElementError(f"{x!r} or {y!r} is not an integer")
        return x % 3 >= y % 3


@pytest.mark.parametrize(
    "values, witness",
    [({0: 0.0, 1: 1.0, 3: 0.5, 2: 2.0},
      "x=0, x'=3, f_P(x)=0.0, f_P(x')=0.5 (equivalent points with different values)"),
     ({0: 0.0, 1: 1.0, 3: 0.0, 4: 1.0, 2: 2.0}, None)],
    ids=["unequal-equivalents", "constant-on-classes"],
)
def test_generic_strict_check_names_equivalent_samples_with_different_values(values, witness):
    rel, samples = Residues(), PartialUtility(values)
    assert type(bounds_of(rel, samples)) is SampleRanks
    got = check_strictly_increasing(rel, samples)
    assert_same_verdict(got, pairwise_strictly_increasing(rel, samples))
    assert (None if got.holds else got.witness.describe()) == witness


@given(st.dictionaries(st.integers(-6, 6), NUMBERS, max_size=10))
def test_generic_checks_on_equivalent_samples_match_the_pairwise_reference(values):
    assert_same_sample_checks(Residues(), PartialUtility(values))


class CountedDivisibility(Divisibility):
    """:class:`Divisibility` that counts its ``geq`` calls."""

    def __init__(self):
        self.calls = 0

    def geq(self, x, y):
        self.calls += 1
        return super().geq(x, y)


@pytest.mark.parametrize(
    "values, pair, weak, witness",
    [({2: 1.0, 3: 0.0, 5: 2.0, 7: 2.0, 11: -1.0, 13: 0.5}, None, True, None),
     ({2: 1.0, 3: 0.0, 5: 2.0, 6: 0.5, 11: -1.0, 13: 0.5}, (6, 2), False,
      "x=2, x'=6, f_P(x)=1.0, f_P(x')=0.5 (strict domination without a strictly larger value)"),
     # 6 is above 3 and tied with it: weakly increasing, not strictly
     ({3: 2.0, 4: 1.0, 6: 2.0, 12: 5.0, 5: 0.0, 10: 3.0}, (6, 3), True,
      "x=3, x'=6, f_P(x)=2.0, f_P(x')=2.0 (strict domination without a strictly larger value)")],
    ids=["primes", "strict-pair", "tied-strict-pair"],
)
def test_generic_pareto_set_checks_make_one_pairwise_pass(values, pair, weak, witness):
    # the Pareto-set test, then the weak, strict and gap checks, read the
    # one set of masks kept on the sample set: one geq per ordered pair
    rel = CountedDivisibility()
    samples = PartialUtility(values)
    if pair is None:
        assert check_pareto_set_values(rel, samples).holds
    else:
        with pytest.raises(NotAParetoSetError) as exc:
            check_pareto_set_values(rel, samples)
        assert exc.value.pair == pair
    assert check_weakly_increasing(rel, samples).holds == weak
    strict = check_strictly_increasing(rel, samples)
    assert strict.holds == (pair is None)
    assert (None if strict.holds else strict.witness.describe()) == witness
    assert rel.calls == len(values) ** 2
    # the gap witness of a tie on a strict pair names the bounds of its two
    # points, which the oracle reads by one geq per sample each way
    assert check_gap_safe_finite(rel, samples).holds == (pair is None)
    assert rel.calls == len(values) ** 2 + (2 * 2 * len(values) if weak and pair else 0)


@pytest.mark.parametrize("kind", ["pareto", "generic"])
def test_kept_verdicts_follow_the_relation_asked_on_ranked_samples(monkeypatch, kind):
    # two equal relations A and B in turn: each change of relation decides
    # the verdicts again, and asking the same relation again makes no pass
    if kind == "pareto":
        first, second = ParetoSpace(2), ParetoSpace(2)
        samples = PartialUtility({(0.0, 0.0): 1.0, (1.0, 1.0): 0.0, (2.0, 0.0): 3.0})
    else:
        first, second = Divisibility(), Divisibility()
        samples = PartialUtility({2: 1.0, 4: 0.0, 3: 3.0})
    strict = monotonicity._strict_verdict
    passes = []

    def counted(samples, ranks):
        passes.append(ranks.rel)
        return strict(samples, ranks)

    monkeypatch.setattr(monotonicity, "_strict_verdict", counted)
    for rel in (first, first, second, second, first):
        got = check_strictly_increasing(rel, samples)
        assert check_weakly_increasing(rel, samples) is bounds_of(rel, samples).verdicts[1]
        assert_same_verdict(got, pairwise_strictly_increasing(rel, samples))
    assert passes == [first, second, first]

