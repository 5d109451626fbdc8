"""Bundled analytic fixtures with infinite ground or sample sets.

Closed forms are derived by hand and recorded in each fixture's
``derivation``; the probe lists carry the strict pairs that refute
gap-safety where applicable.  Each bound function gets an element of the
fixture's ground set, or the sentinel ``TOP`` or ``BOTTOM``.
"""

from __future__ import annotations

import math

from ordext.contours import AnalyticFixture
from ordext.orders import (
    BOTTOM,
    TOP,
    Element,
    ForeignElementError,
    ParetoSpace,
    Preorder,
    is_finite_real,
    safe_repr,
)

__all__ = ["FIXTURE_NAMES", "example_gap", "example_nin", "get_fixture"]


def _line_bound(x) -> float:
    """Shared bound for the split-line instance; both bounds coincide.

    Samples are the reals <= 0 valued identically and the reals > 1
    valued shifted down by one.  Sweeping the sup of values below v:
    v for v <= 0, frozen at 0 across the gap (0, 1], and v - 1 past it.
    The inf of values above v traces the same three cases, because the
    value ranges below and above any v share their endpoint.
    """
    if x is BOTTOM:
        return -math.inf
    if x is TOP:
        return math.inf
    (v,) = x
    if v <= 0.0:
        return v
    if v <= 1.0:
        return 0.0
    return v - 1.0


def _line_in_samples(p: Element) -> bool:
    if not (isinstance(p, tuple) and len(p) == 1):
        raise ForeignElementError(f"{safe_repr(p)} is not a 1-vector")
    return p[0] <= 0.0 or p[0] > 1.0


def _line_value(p: Element) -> float:
    (v,) = p
    return v if v <= 0.0 else v - 1.0


def _line_occupancy(x):
    if x is BOTTOM:
        return (False, True)
    if x is TOP:
        return (True, False)
    # samples reach below and above every real point
    return (True, True)


def example_gap() -> AnalyticFixture:
    """Strictly increasing on both half-lines, yet not extendable.

    The sample set splits the real line into two rays, and the value
    ranges of the rays meet: the sup of values at 0 equals the inf of
    values at 1 while 1 strictly dominates 0, so strict monotonicity
    cannot bridge the gap.
    """
    return AnalyticFixture(
        name="example-gap",
        ambient=ParetoSpace(1),
        lower_sup_fn=_line_bound,
        upper_inf_fn=_line_bound,
        probes=(
            ((-2.0,), (-1.0,)),
            ((1.5,), (2.5,)),
            ((0.0,), (1.0,)),
        ),
        derivation=(
            "Samples: v on the ray v <= 0, v - 1 on the ray v > 1. "
            "Lower bound at v: sup over samples <= v gives v (v <= 0), "
            "0 (0 < v <= 1, sup of the left ray), v - 1 (v > 1). "
            "Upper bound at v: inf over samples >= v gives v (v <= 0, "
            "attained at v itself), 0 (0 < v <= 1, inf of the right "
            "ray), v - 1 (v > 1).  The probe (0, 1) has equal bounds 0."
        ),
        occupancy_fn=_line_occupancy,
        sample_membership_fn=_line_in_samples,
        sample_value_fn=_line_value,
    )


def _nin_check(x: Element) -> int:
    """``x`` if it is an element of the nin ground set: a nonpositive
    integer that a float can hold, so that it has a value."""
    if not isinstance(x, int) or x > 0:
        raise ForeignElementError(f"{safe_repr(x)} is not a nonpositive integer")
    if not is_finite_real(x):
        raise ForeignElementError(f"{safe_repr(x)} is too large for a float")
    return x


class _DominantZeroOrder(Preorder):
    """Nonpositive integers; zero dominates everything, the rest only themselves."""

    def geq(self, x: Element, y: Element) -> bool:
        x = _nin_check(x)
        y = _nin_check(y)
        return x == y or x == 0


def _nin_lower_sup(x) -> float:
    if x is BOTTOM:
        return -math.inf
    if x is TOP:
        # sup of sample values over the whole sample set, which is unbounded
        return math.inf
    if _nin_check(x) == 0:
        # every sample sits below zero, so the sup again diverges
        return math.inf
    return float(-x)


def _nin_upper_inf(x) -> float:
    if x is BOTTOM:
        # inf over the whole sample set: values are 1, 2, 3, ...
        return 1.0
    if x is TOP:
        return math.inf
    if _nin_check(x) == 0:
        # no sample dominates zero
        return math.inf
    return float(-x)


def _nin_occupancy(x):
    if x is BOTTOM:
        return (False, True)
    if x is TOP:
        return (True, False)
    if _nin_check(x) == 0:
        return (True, False)
    return (True, True)


def example_nin() -> AnalyticFixture:
    """A maximal element over unboundedly valued samples.

    Samples are the negative integers valued by their magnitude; the
    extra point zero dominates all of them.  Any strictly increasing
    total map would need a real value at zero above every sample value,
    which is impossible.  All strict pairs of elements still satisfy the
    gap condition; only the pair (zero, Top) refutes it.
    """
    return AnalyticFixture(
        name="example-nin",
        ambient=_DominantZeroOrder(),
        lower_sup_fn=_nin_lower_sup,
        upper_inf_fn=_nin_upper_inf,
        probes=(
            (BOTTOM, -5),
            (-1, 0),
            (0, TOP),
        ),
        derivation=(
            "Samples: value -p at each negative integer p.  At a "
            "negative integer the only comparable sample is the point "
            "itself, so both bounds equal its value.  At zero the lower "
            "contour is the whole sample set (sup diverges) and the "
            "upper contour is empty (inf is +inf).  Bottom sees the "
            "whole set from below: inf of {1, 2, 3, ...} is 1."
        ),
        occupancy_fn=_nin_occupancy,
        sample_membership_fn=lambda p: _nin_check(p) < 0,
        sample_value_fn=lambda p: float(-p),
    )


_BUILDERS = {"example-gap": example_gap, "example-nin": example_nin}
FIXTURE_NAMES = tuple(_BUILDERS)


def get_fixture(name: str) -> AnalyticFixture:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
