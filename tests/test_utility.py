"""Utility construction, squashing, and normalization laws."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordext.orders import FinitePreorder, ParetoSpace
from ordext.utility import (
    UtilityFn,
    finite_utility,
    normalize01,
    pareto_base_utility,
    squash,
)


def closed_relations(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        ).map(lambda pairs: FinitePreorder.closure(n, pairs))
    )


def test_finite_utility_on_antichain():
    u = finite_utility(FinitePreorder.antichain(3))
    assert [u(i) for i in range(3)] == [0.0, 0.0, 0.0]


def test_finite_utility_on_chain():
    u = finite_utility(FinitePreorder.chain(3))
    assert [u(i) for i in range(3)] == [0.0, 1.0, 2.0]


def test_finite_utility_collapses_two_cycle():
    rel = FinitePreorder.closure(3, [(0, 1), (1, 0), (2, 0)])
    u = finite_utility(rel)
    assert u(0) == u(1) == 0.0
    assert u(2) == 1.0


@given(closed_relations())
def test_finite_utility_strictly_increasing(rel):
    u = finite_utility(rel)
    for x in range(rel.n):
        for y in range(rel.n):
            if rel.equivalent(x, y):
                assert u(x) == u(y)
            elif rel.strictly_greater(x, y):
                assert u(x) > u(y)


def longest_chain_below(rel, x):
    """Brute-force level: longest chain of strict dominations ending at x."""
    below = [y for y in range(rel.n) if rel.strictly_greater(x, y)]
    return max((1 + longest_chain_below(rel, y) for y in below), default=0)


@given(closed_relations(max_n=7))
def test_finite_utility_is_the_longest_strict_chain(rel):
    u = finite_utility(rel)
    assert [u(x) for x in range(rel.n)] == [
        float(longest_chain_below(rel, x)) for x in range(rel.n)
    ]


def test_pareto_base_utility_sums_coordinates():
    u = pareto_base_utility(ParetoSpace(2))
    assert u((1.0, 2.0)) == 3.0
    assert u((0.0, 0.0)) == 0.0


def test_pareto_base_utility_weighted():
    u = pareto_base_utility(ParetoSpace(2), weights=[2.0, 0.5])
    assert u((1.0, 2.0)) == 3.0


def test_pareto_base_utility_rejects_bad_weights():
    with pytest.raises(ValueError):
        pareto_base_utility(ParetoSpace(2), weights=[1.0])
    with pytest.raises(ValueError):
        pareto_base_utility(ParetoSpace(2), weights=[1.0, 0.0])


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_pareto_base_utility_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError):
        pareto_base_utility(ParetoSpace(2), weights=[1.0, weight])


@pytest.mark.parametrize("weights, message", [
    ([1.0, 0.0], "weights must be finite and strictly positive"),
    ([1.0, -0.0], "weights must be finite and strictly positive"),
    ([-2.0, 1.0], "weights must be finite and strictly positive"),
    ([1.0, math.inf], "weights must be finite and strictly positive"),
    ([math.nan, 1.0], "weights must be finite and strictly positive"),
    ([1.0], "expected 2 weights, got 1"),
    ([1.0, 1.0, 1.0], "expected 2 weights, got 3"),
])
def test_pareto_base_utility_rejection_messages(weights, message):
    with pytest.raises(ValueError) as err:
        pareto_base_utility(ParetoSpace(2), weights=weights)
    assert str(err.value) == message


@pytest.mark.parametrize("weights", [None, [1.0] * 10**5], ids=["default", "given"])
def test_weights_are_checked_without_a_python_step_per_coordinate(weights):
    # a generator over the weights would resume once per coordinate, and
    # each resumption is a call event of the profiler
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        u = pareto_base_utility(ParetoSpace(10**5), weights=weights)
    finally:
        sys.setprofile(None)
    assert len(calls) < 10
    assert u((1.0,) * 10**5) == 10**5


@pytest.mark.parametrize(
    "weights, x, want",
    [((2.0, 3.0), (1e308, -1.5e308), -math.inf), ((3.0, 2.0), (1.5e308, -1e308), math.inf)],
    ids=["below-max", "above-max"],
)
def test_pareto_base_utility_rounds_an_overflowed_sum_to_an_infinity(weights, x, want):
    # the terms overflow to inf and -inf, whose float sum is nan; the exact
    # sum, 2.5e308 from the larger term's side, is past the largest float
    assert [w * c for w, c in zip(weights, x)] in ([math.inf, -math.inf], [-math.inf, math.inf])
    assert pareto_base_utility(ParetoSpace(2), weights)(x) == want


@given(
    st.tuples(
        st.floats(-50, 50).map(lambda a: (a, a)),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
)
def test_pareto_base_utility_strict_on_dominating_pairs(args):
    (x1, x2), d1, d2 = args
    u = pareto_base_utility(ParetoSpace(2))
    hi = (x1 + abs(d1) + 1e-6, x2 + abs(d2))
    assert u(hi) > u((x1, x2))


def test_squash_midpoint():
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, 0.0, 1.0)
    assert s((0.0,)) == 0.5


def test_squash_known_value():
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, 0.0, 1.0)
    assert math.isclose(s((1.0,)), 0.75, rel_tol=0, abs_tol=1e-15)


def test_squash_rejects_bad_interval():
    u = pareto_base_utility(ParetoSpace(1))
    with pytest.raises(ValueError):
        squash(u, 1.0, 1.0)


@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(-5, 5),
    st.floats(0.25, 8),
)
def test_squash_preserves_weak_order_and_bounds(v1, v2, alpha, width):
    beta = alpha + width
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, alpha, beta)
    y1, y2 = s((v1,)), s((v2,))
    assert alpha < y1 < beta
    if v1 <= v2:
        assert y1 <= y2


@given(st.floats(-50, 50), st.floats(1e-6, 10), st.floats(-5, 5), st.floats(0.25, 8))
def test_squash_strict_at_resolvable_spacing(v, gap, alpha, width):
    # inputs further apart than the local arctan resolution must not collide
    beta = alpha + width
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, alpha, beta)
    assert s((v,)) < s((v + gap,))


def test_squash_saturation_stays_inside_open_interval():
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, 0.0, 1.0)
    assert s((1e300,)) < 1.0
    assert s((-1e300,)) > 0.0


def test_normalize01_identity_when_already_unit():
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, 0.0, 1.0)
    n = normalize01(s, 0.0, 1.0)
    for v in (-2.0, 0.0, 3.5):
        assert n((v,)) == s((v,))


def test_normalize01_affine_example():
    # a squashed value of 0 inside (-2, 6) sits a quarter of the way up
    s = UtilityFn(lambda x: 0.0)
    n = normalize01(s, -2.0, 6.0)
    assert n(None) == 0.25


@given(st.floats(-20, 20), st.floats(-4, 4), st.floats(0.5, 9))
def test_round_trip_scaled_from_normalized(v, alpha, width):
    beta = alpha + width
    u = pareto_base_utility(ParetoSpace(1))
    s = squash(u, alpha, beta)
    n = normalize01(s, alpha, beta)
    x = (v,)
    assert abs(s(x) - (alpha + (beta - alpha) * n(x))) <= 1e-12
    assert 0.0 < n(x) < 1.0


@given(st.floats(-20, 20), st.floats(-4, 4), st.floats(0.5, 9))
def test_normalized_matches_direct_unit_squash(v, alpha, width):
    beta = alpha + width
    u = pareto_base_utility(ParetoSpace(1))
    n = normalize01(squash(u, alpha, beta), alpha, beta)
    direct = squash(u, 0.0, 1.0)
    assert abs(n((v,)) - direct((v,))) <= 1e-12
