"""The bundled analytic fixtures and their declared closed forms."""

import math
import re
from dataclasses import replace

import pytest

from ordext.contours import FiniteSampleOracle, PartialUtility
from ordext.fixtures import example_gap, example_nin, get_fixture
from ordext.monotonicity import check_gap_safe_probes
from ordext.orders import BOTTOM, TOP, ForeignElementError


def test_registry_lookup():
    assert get_fixture("example-gap").name == "example-gap"
    with pytest.raises(KeyError, match="unknown fixture"):
        get_fixture("nope")


def test_gap_fixture_bound_values():
    fx = example_gap()
    assert fx.lower_sup((0.0,)) == 0.0
    assert fx.upper_inf((1.0,)) == 0.0
    assert fx.lower_sup((-2.5,)) == -2.5
    assert fx.upper_inf((3.0,)) == 2.0
    assert fx.lower_sup((0.5,)) == 0.0
    assert fx.lower_sup(BOTTOM) == -math.inf
    assert fx.upper_inf(TOP) == math.inf
    assert fx.upper_inf(BOTTOM) == -math.inf
    assert fx.lower_sup(TOP) == math.inf


def test_gap_fixture_is_refuted_at_the_gap_pair():
    fx = example_gap()
    verdict = check_gap_safe_probes(fx, fx.probes)
    assert not verdict.holds
    assert verdict.witness.lo == (0.0,)
    assert verdict.witness.hi == (1.0,)


def test_gap_fixture_closed_form_matches_sampled_enumeration():
    # truncate the infinite sample set and compare against enumeration;
    # inside the sampled range the closed form must agree exactly
    fx = example_gap()
    pts = [(-3.0 + 0.25 * i,) for i in range(25) if -3.0 + 0.25 * i <= 0.0]
    pts += [(1.0 + 0.25 * i,) for i in range(1, 17)]
    samples = PartialUtility({p: fx.sample_value(p) for p in pts})
    oracle = FiniteSampleOracle(fx.ambient, samples)
    for q in [(-2.0,), (-0.5,), (0.0,), (0.25,), (0.5,), (1.25,), (2.0,), (3.5,)]:
        assert oracle.lower_sup(q) == fx.lower_sup(q)


def test_gap_fixture_sample_membership_and_values():
    fx = example_gap()
    assert fx.in_samples((-1.0,)) and fx.in_samples((2.0,))
    assert not fx.in_samples((0.5,))
    assert fx.sample_value((-1.0,)) == -1.0
    assert fx.sample_value((2.0,)) == 1.0
    with pytest.raises(KeyError):
        fx.sample_value((0.5,))


def test_nin_fixture_bound_values():
    fx = example_nin()
    assert fx.lower_sup(0) == math.inf
    assert fx.upper_inf(0) == math.inf
    assert fx.lower_sup(-4) == 4.0
    assert fx.upper_inf(-4) == 4.0
    assert fx.upper_inf(BOTTOM) == 1.0
    assert fx.lower_sup(BOTTOM) == -math.inf
    assert fx.upper_inf(TOP) == math.inf
    assert fx.lower_sup(TOP) == math.inf


def test_nin_fixture_refuted_only_at_the_top_pair():
    fx = example_nin()
    verdict = check_gap_safe_probes(fx, fx.probes)
    assert not verdict.holds
    assert verdict.witness.lo == 0
    assert verdict.witness.hi == TOP
    # interior strict pairs alone do not refute
    interior_probes = [(x, y) for x, y in fx.probes if y != TOP]
    assert check_gap_safe_probes(fx, interior_probes).holds


def test_nin_order_shape():
    fx = example_nin()
    rel = fx.ambient
    assert rel.geq(0, -7)
    assert not rel.geq(-7, 0)
    assert not rel.geq(-1, -2)
    assert rel.geq(-3, -3)


def test_nin_closed_form_matches_sampled_enumeration():
    fx = example_nin()
    pts = list(range(-1, -30, -1))
    samples = PartialUtility({p: fx.sample_value(p) for p in pts})
    oracle = FiniteSampleOracle(fx.ambient, samples)
    for q in (-1, -10, -29):
        assert oracle.lower_sup(q) == fx.lower_sup(q)
        assert oracle.upper_inf(q) == fx.upper_inf(q)
    # at zero the truncated sup is finite but grows with the truncation;
    # the upper contour is genuinely empty at every truncation
    assert oracle.lower_sup(0) == 29.0
    assert oracle.upper_inf(0) == math.inf


def test_fixture_occupancy():
    fx = example_nin()
    assert fx.contour_occupancy(0) == (True, False)
    assert fx.contour_occupancy(-3) == (True, True)
    assert fx.contour_occupancy(BOTTOM) == (False, True)
    gap = example_gap()
    assert gap.contour_occupancy((0.5,)) == (True, True)


def test_foreign_points_name_huge_ints_by_size():
    # repr of an int past the 4300-digit limit raises ValueError itself
    with pytest.raises(ForeignElementError, match=r"^<int of 16610 bits> is not a nonpositive"):
        example_nin().ambient.geq(10**5000, 0)
    with pytest.raises(ForeignElementError, match=r"^<int of 16610 bits> is not a 1-vector"):
        example_gap().in_samples(10**5000)


def test_nin_refuses_an_int_too_large_for_a_float():
    # a nonpositive int that no float holds has no value, so it is no element
    fx = get_fixture("example-nin")
    reads = [fx.in_samples, fx.sample_value, fx.lower_sup, fx.upper_inf,
             fx.contour_occupancy, fx.record, lambda x: fx.ambient.geq(x, 0)]
    for huge, shown in [(-(10**5000), "<negative int of 16610 bits>"),
                        (-(2**1024), str(-(2**1024)))]:
        for read in reads:
            with pytest.raises(ForeignElementError,
                               match=f"^{re.escape(shown)} is too large for a float$"):
                read(huge)
    # the largest magnitude a float holds is still a sample
    assert fx.in_samples(-(2**1023)) and fx.sample_value(-(2**1023)) == 2.0**1023
    assert fx.record(-(2**1023)) == (2.0**1023, 2.0**1023, True, True)


@pytest.mark.parametrize("probe", [(TOP, TOP), (BOTTOM, BOTTOM), ((0.0,), BOTTOM),
                                   (TOP, (0.0,)), ((0.0,), (0.0,)), ((1.0,), (0.0,))],
                         ids=["top-top", "bottom-bottom", "to-bottom", "from-top",
                              "same-point", "downward"])
def test_fixture_refuses_a_probe_that_is_not_strict(probe):
    x, x_prime = probe
    with pytest.raises(ValueError, match=re.escape(
            f"fixture 'example-gap': probe ({x}, {x_prime}) is not a strict pair")):
        replace(example_gap(), probes=(probe,))


def test_fixture_refuses_a_finite_bound_at_a_sentinel():
    gap = example_gap()
    with pytest.raises(ValueError, match=r"^fixture 'example-gap': lower_sup\(Bottom\) must be -inf$"):
        replace(gap, lower_sup_fn=lambda x: 0.0 if x is BOTTOM else gap.lower_sup_fn(x))
    with pytest.raises(ValueError, match=r"^fixture 'example-gap': upper_inf\(Top\) must be \+inf$"):
        replace(gap, upper_inf_fn=lambda x: 0.0 if x is TOP else gap.upper_inf_fn(x))
