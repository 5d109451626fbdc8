"""Monotonicity checks: weak and strict increase, their bound-function
restatements, and the gap-safety criterion that decides extendability.

Every check returns a :class:`Verdict`.  A failing verdict carries a
:class:`Witness` naming the offending pair together with the numeric
context needed to re-verify the violation from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Tuple

from ordext.contours import (
    ContourOracle,
    FiniteSampleOracle,
    PartialUtility,
    as_augmented,
)
from ordext.extreal import NEG_INF, POS_INF, ExtReal
from ordext.orders import (
    BOTTOM,
    TOP,
    Augmented,
    Comparison,
    FinitePreorder,
    Preorder,
    compare_augmented,
    interior,
    is_pareto_set,
)

__all__ = [
    "NotAParetoSetError",
    "Verdict",
    "WeakIncreaseForm",
    "Witness",
    "check_gap_safe_finite",
    "check_gap_safe_pareto",
    "check_gap_safe_probes",
    "check_pareto_set_values",
    "check_strictly_increasing",
    "check_weak_increase_form",
    "check_weakly_increasing",
]


@dataclass(frozen=True)
class Witness:
    """A re-checkable counterexample.

    ``lo`` and ``hi`` are the offending elements (possibly augmented),
    oriented so that ``hi`` is the dominating side of the violated
    condition.  ``context`` holds labelled numeric evidence.
    """

    lo: object
    hi: object
    context: Tuple[Tuple[str, object], ...] = ()
    note: str = ""

    def describe(self) -> str:
        parts = [f"x={self.lo}", f"x'={self.hi}"]
        parts.extend(f"{label}={value}" for label, value in self.context)
        text = ", ".join(parts)
        return f"{text} ({self.note})" if self.note else text


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.holds


_PASS = Verdict(True)


def check_weakly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Dominating sample points must not have smaller values."""
    pts = samples.points
    for p in pts:
        for q in pts:
            if rel.geq(q, p) and samples.value(q) < samples.value(p):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=q,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("f_P(x')", samples.value(q)),
                        ),
                        note="x' dominates x but has a smaller value",
                    ),
                )
    return _PASS


def check_strictly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Equivalent points share a value; strict domination means a larger value."""
    pts = samples.points
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            cmp = rel.compare(q, p)
            if cmp is Comparison.EQUIVALENT and samples.value(q) != samples.value(p):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=q,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("f_P(x')", samples.value(q)),
                        ),
                        note="equivalent points with different values",
                    ),
                )
            if cmp is Comparison.STRICTLY_GREATER and not (
                samples.value(q) > samples.value(p)
            ):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=q,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("f_P(x')", samples.value(q)),
                        ),
                        note="strict domination without a strictly larger value",
                    ),
                )
            if cmp is Comparison.STRICTLY_LESS and not (
                samples.value(p) > samples.value(q)
            ):
                return Verdict(
                    False,
                    Witness(
                        lo=q,
                        hi=p,
                        context=(
                            ("f_P(x)", samples.value(q)),
                            ("f_P(x')", samples.value(p)),
                        ),
                        note="strict domination without a strictly larger value",
                    ),
                )
    return _PASS


class WeakIncreaseForm(Enum):
    """Equivalent restatements of weak increase via the bound functions."""

    PAIRWISE = "pairwise"
    BOUNDS_EVERYWHERE = "bounds_everywhere"
    BOUNDS_COMPARABLE = "bounds_comparable"
    VALUE_ABOVE_LOWER_SUP = "value_above_lower_sup"
    UPPER_INF_ABOVE_VALUE = "upper_inf_above_value"
    BOUNDS_AT_SAMPLES = "bounds_at_samples"


def check_weak_increase_form(
    rel: Preorder, samples: PartialUtility, form: WeakIncreaseForm
) -> Verdict:
    """Evaluate one restatement of weak increase literally.

    The bound-function forms quantifying over the whole ground set
    (``BOUNDS_EVERYWHERE``, ``BOUNDS_COMPARABLE``) need an enumerable
    ground set and raise ``UnsupportedQueryError`` otherwise.
    """
    oracle = FiniteSampleOracle(rel, samples)
    if form is WeakIncreaseForm.PAIRWISE:
        return check_weakly_increasing(rel, samples)

    if form is WeakIncreaseForm.BOUNDS_EVERYWHERE:
        for x in rel.iter_elements():
            if not (oracle.upper_inf(x) >= oracle.lower_sup(x)):
                return _bound_witness(oracle, x, x, "b(x) < a(x)")
        return _PASS

    if form is WeakIncreaseForm.BOUNDS_COMPARABLE:
        for x in rel.iter_elements():
            for y in rel.iter_elements():
                if rel.geq(y, x) and not (
                    oracle.upper_inf(y) >= oracle.lower_sup(x)
                ):
                    return _bound_witness(oracle, x, y, "x' >= x but b(x') < a(x)")
        return _PASS

    if form is WeakIncreaseForm.VALUE_ABOVE_LOWER_SUP:
        for p in samples.points:
            if not (ExtReal(samples.value(p)) >= oracle.lower_sup(p)):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=p,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("a(x)", str(oracle.lower_sup(p))),
                        ),
                        note="sample value below its lower supremum",
                    ),
                )
        return _PASS

    if form is WeakIncreaseForm.UPPER_INF_ABOVE_VALUE:
        for p in samples.points:
            if not (oracle.upper_inf(p) >= ExtReal(samples.value(p))):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=p,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("b(x)", str(oracle.upper_inf(p))),
                        ),
                        note="sample value above its upper infimum",
                    ),
                )
        return _PASS

    if form is WeakIncreaseForm.BOUNDS_AT_SAMPLES:
        for p in samples.points:
            if not (oracle.upper_inf(p) >= oracle.lower_sup(p)):
                return _bound_witness(oracle, p, p, "b(p) < a(p) at a sample point")
        return _PASS

    raise ValueError(f"unknown form {form!r}")


def _bound_witness(oracle: ContourOracle, lo, hi, note: str) -> Verdict:
    return Verdict(
        False,
        Witness(
            lo=lo,
            hi=hi,
            context=(
                ("a(x)", str(oracle.lower_sup(lo))),
                ("b(x')", str(oracle.upper_inf(hi))),
            ),
            note=note,
        ),
    )


def check_gap_safe_finite(rel: FinitePreorder, samples: PartialUtility) -> Verdict:
    """Decide gap-safety over a finite ground set.

    Gap-safety quantifies over strict pairs of the augmented ground set.
    That reduces exactly to three parts: (1) weak increase; (2) the
    augmented pairs (x, Top) and (Bottom, x), which amount to
    ``a(x) < +inf`` and ``b(x) > -inf`` for every interior x (automatic
    for a finite sample set, kept for fidelity); (3) all interior strict
    pairs, which need ``b(x') > a(x)``.  The remaining augmented pair
    (Bottom, Top) is always safe since ``+inf > -inf``.
    """
    weak = check_weakly_increasing(rel, samples)
    if not weak.holds:
        return weak

    oracle = FiniteSampleOracle(rel, samples)
    for x in rel.iter_elements():
        if not (oracle.lower_sup(x) < POS_INF):
            return _bound_witness(oracle, interior(x), TOP, "a(x) is not below +inf")
        if not (oracle.upper_inf(x) > NEG_INF):
            return _bound_witness(oracle, BOTTOM, interior(x), "b(x) is not above -inf")

    for x in rel.iter_elements():
        for y in rel.iter_elements():
            if rel.strictly_greater(y, x) and not (
                oracle.upper_inf(y) > oracle.lower_sup(x)
            ):
                return _bound_witness(
                    oracle, x, y, "x' strictly dominates x but b(x') <= a(x)"
                )
    return _PASS


def check_gap_safe_probes(
    oracle: ContourOracle,
    probes: Iterable[Tuple[Augmented, Augmented]],
) -> Verdict:
    """Probe-driven refuter for ground sets that cannot be enumerated.

    Each probe is a pair ``(x, x_prime)`` with ``x_prime`` strictly above
    ``x`` in the augmented order; a probe with ``b(x') <= a(x)`` refutes
    gap-safety.  A passing verdict only means no supplied probe refutes.
    """
    for x, x_prime in probes:
        x = as_augmented(x)
        x_prime = as_augmented(x_prime)
        if compare_augmented(oracle.rel, x_prime, x) is not Comparison.STRICTLY_GREATER:
            raise ValueError(f"probe ({x}, {x_prime}) is not a strict pair")
        if not (oracle.upper_inf(x_prime) > oracle.lower_sup(x)):
            return _bound_witness(
                oracle, x, x_prime, "x' strictly dominates x but b(x') <= a(x)"
            )
    return _PASS


def check_gap_safe_pareto(
    space: Preorder, samples: PartialUtility, strict: Optional[Verdict] = None
) -> Verdict:
    """Gap-safety for a finite sample set in a Pareto space.

    With finitely many samples both bound functions are automatically
    finite, and gap-safety collapses to strict increase on the samples:
    a strict grid pair x' > x with occupied contours yields sample
    points q >= x' > x >= p, so strict increase forces
    f_P(q) > f_P(p), i.e. b(x') > a(x).  The grid refuter in the
    verification layer re-validates this reduction by sampling.

    ``strict``, when given, is the :func:`check_strictly_increasing`
    verdict on the same space and samples, and is returned as is.
    """
    if strict is not None:
        return strict
    return check_strictly_increasing(space, samples)


class NotAParetoSetError(ValueError):
    """The sample set contains a strictly dominating pair."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"not a Pareto set: {pair[0]!r} strictly dominates {pair[1]!r}"
        )


def check_pareto_set_values(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Extendability test for values on a Pareto set.

    Requires the sample points to be mutually undominated (raises
    :class:`NotAParetoSetError` otherwise).  With finitely many samples
    the contour-boundedness half of the criterion is automatic, so the
    check reduces to value constancy on equivalence classes.
    """
    ok, pair = is_pareto_set(rel, samples.points)
    if not ok:
        raise NotAParetoSetError(pair)
    pts = samples.points
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if rel.equivalent(p, q) and samples.value(p) != samples.value(q):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=q,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("f_P(x')", samples.value(q)),
                        ),
                        note="equivalent sample points with different values",
                    ),
                )
    return _PASS
