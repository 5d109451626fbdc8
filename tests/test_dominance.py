"""Mask-based and condensation-based pairwise checks against the
pairwise reference loops.

``check_weakly_increasing``, ``check_strictly_increasing``,
``is_pareto_set`` and ``check_pareto_set_values`` decide every sample
pair with bitmask algebra over positions, or on a ``FinitePreorder``
with passes over its condensation.  The one-comparison-per-pair
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

from ordext import orders
from ordext.contours import FiniteSampleOracle, PartialUtility, bound_text
from ordext.monotonicity import (
    NotAParetoSetError,
    check_gap_safe_finite,
    check_pareto_set_values,
    check_strictly_increasing,
    check_weakly_increasing,
)
from ordext.orders import (
    FinitePreorder,
    ForeignElementError,
    ParetoSpace,
    Preorder,
    is_pareto_set,
    rank_masks,
)
from ordext.utility import finite_utility

from reference import (
    pairwise_gap_safe_finite,
    pairwise_is_pareto_set,
    pairwise_pareto_set_values,
    pairwise_strictly_increasing,
    pairwise_weakly_increasing,
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


def assert_same_pareto_set(rel, points):
    got = is_pareto_set(rel, points)
    want = pairwise_is_pareto_set(rel, points)
    assert got[0] == want[0]
    assert shown(got[1]) == shown(want[1])


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
    assert_same_pareto_set(rel, samples.points)
    assert_same_pareto_values(rel, samples)


def pairwise_masks(rel, points):
    n = len(points)
    up = [sum(1 << j for j in range(n) if rel.geq(points[j], points[i])) for i in range(n)]
    down = [sum(1 << j for j in range(n) if rel.geq(points[i], points[j])) for i in range(n)]
    return up, down


# ---- rank masks -----------------------------------------------------------


@given(st.lists(NUMBERS, max_size=12))
def test_rank_masks_match_pairwise_comparison(keys):
    ge, gt = rank_masks(keys)
    n = len(keys)
    for i in range(n):
        assert ge[i] == sum(1 << j for j in range(n) if keys[j] >= keys[i])
        assert gt[i] == sum(1 << j for j in range(n) if keys[j] > keys[i])


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
        assert space.dominance_masks(pts) == pairwise_masks(space, pts)


@given(pareto_cases())
def test_pareto_sample_checks_match_reference(case):
    space, samples, points = case
    assert_same_sample_checks(space, samples)
    # repeated and equal-but-distinct points (1 and 1.0, -0.0 and 0.0)
    assert_same_pareto_set(space, points)


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
    samples = PartialUtility({p: draw(NUMBERS) for p in keys})
    return rel, samples, draw(st.lists(index, max_size=12))


@given(finite_cases())
def test_finite_is_pareto_set_matches_reference(case):
    rel, samples, points = case
    # the points list repeats elements
    for pts in (list(samples.points), points, list(range(rel.n))):
        assert_same_pareto_set(rel, pts)


def test_finite_pareto_checks_build_no_rows(monkeypatch):
    builds = []
    fold = orders._fold_rows

    def counted(*args):
        builds.append(args)
        return fold(*args)

    monkeypatch.setattr(orders, "_fold_rows", counted)
    # 0 ~ 1, both above 2, and 3 apart
    rel = FinitePreorder.closure(4, [(0, 1), (1, 0), (1, 2)])
    assert is_pareto_set(rel, [2, 0, 3]) == (False, (0, 2))
    assert is_pareto_set(rel, [3, 1, 0, 1]) == (True, None)
    with pytest.raises(NotAParetoSetError) as err:
        check_pareto_set_values(rel, PartialUtility({3: 0.0, 2: 1.0, 1: 2.0}))
    assert err.value.pair == (1, 2)
    verdict = check_pareto_set_values(rel, PartialUtility({1: 1.0, 3: 0.0, 0: 2.0}))
    assert (verdict.holds, verdict.witness.lo, verdict.witness.hi) == (False, 1, 0)
    assert builds == []


@settings(max_examples=300)
@given(finite_cases())
def test_finite_checks_match_reference(case):
    rel, samples, _ = case
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
    assert_same_pareto_set(rel, points)
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


def test_interleaved_sample_sets_make_one_mask_pass_each(monkeypatch):
    # A fails weak increase; B only strict increase, by a tie on a strict
    # pair, so its gap verdict is a bound witness
    space = ParetoSpace(2)
    a = PartialUtility({(0.0, 0.0): 1.0, (2.0, 0.5): 3.0, (1.0, 1.0): 0.0, (0.0, 3.0): 4.0})
    b = PartialUtility({(0.0, 2.0): 5.0, (0.0, 0.0): 1.0, (3.0, 0.0): 2.0, (1.0, 1.0): 1.0})
    passes = []
    masks = ParetoSpace.dominance_masks

    def counted(self, points):
        passes.append(points)
        return masks(self, points)

    monkeypatch.setattr(ParetoSpace, "dominance_masks", counted)
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
    assert rel.dominance_masks(points) == pairwise_masks(rel, points)
    assert_same_sample_checks(rel, PartialUtility(samples))
