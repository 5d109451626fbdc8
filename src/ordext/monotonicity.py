"""Monotonicity checks: weak and strict increase, and the gap-safety
criterion that decides extendability.

Every check returns a :class:`Verdict`.  A failing verdict carries a
:class:`Witness` naming the offending pair together with the numeric
context needed to re-verify the violation from scratch.

Each check reads the one structure :func:`~ordext.contours.bounds_of`
keeps on the sample set.  On a :class:`FinitePreorder` that is
per-component aggregates of the relation's condensation
(:class:`ComponentBounds`), O(n + m) in all; see the comment above
:func:`_weak_on_components`.  Elsewhere it is the samples ranked by value
(:class:`SampleRanks`), and the checks run on bitmasks over the ranks
instead of one order comparison per pair, so a value test is a bit range.
Each sample's weak up-set and down-set among the samples comes from the
prefix chains of a :class:`ParetoSpace`, computed per sample inside the
pass, or on any other preorder from one ``geq`` per ordered pair, kept
with the ranks.  Each check is then one pass over i with a few mask
operations; the witness is the first i with a violation and the lowest
position in its violation mask, which is the first pair in position
order.  Where the reference loops look at unordered pairs (j > i only),
the violation is symmetric in i and j, so the first i with a violation
has no violating partner below it and the masks need no j > i cut.
Gap-safety with finitely many samples is strict increase on the
samples, for any preorder.  So one pass per sample set
(:func:`_verdicts`) runs the strict check, and the weak check only when
strict fails; both verdicts are kept in the structure's ``verdicts``, and
all three checks read them.  The gap check reads a bound only to name a
violation.  The one-comparison-per-pair loops are kept beside the tests,
in ``tests/reference.py``, as the references these are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from ordext.contours import (
    ComponentBounds,
    ContourOracle,
    FiniteSampleOracle,
    PartialUtility,
    SampleRanks,
    bound_text,
    bounds_of,
)
from ordext.orders import (
    Comparison,
    Preorder,
    compare_augmented,
    first_violation,
    is_pareto_set,
    strict_pair,
)

__all__ = [
    "NotAParetoSetError",
    "Verdict",
    "Witness",
    "check_gap_safe_finite",
    "check_gap_safe_pareto",
    "check_gap_safe_probes",
    "check_pareto_set_values",
    "check_strictly_increasing",
    "check_weakly_increasing",
]


@dataclass(frozen=True)
class Witness:
    """A re-checkable counterexample.

    ``lo`` and ``hi`` are the offending elements (or ``TOP``/``BOTTOM``),
    oriented so that ``hi`` is the dominating side of the violated
    condition.  ``context`` holds labelled numeric evidence.
    """

    lo: object
    hi: object
    context: Tuple[Tuple[str, object], ...] = ()
    note: str = ""

    def describe(self, label: Callable[[object], str] = str) -> str:
        """One line: both elements through ``label``, then the context."""
        parts = [f"x={label(self.lo)}", f"x'={label(self.hi)}"]
        parts.extend(f"{name}={value}" for name, value in self.context)
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


def _pair_witness(samples: PartialUtility, lo, hi, note: str) -> Verdict:
    return Verdict(
        False,
        Witness(
            lo=lo,
            hi=hi,
            context=(
                ("f_P(x)", samples.value(lo)),
                ("f_P(x')", samples.value(hi)),
            ),
            note=note,
        ),
    )


def _weak_verdict(samples: PartialUtility, ranks: SampleRanks) -> Verdict:
    end = ranks.end  # the ranks from end[r] on hold the smaller values
    found = first_violation(samples.points, ranks.rank, ranks.masks(),
                            lambda r, down, up: up >> end[r] << end[r])
    return _PASS if found is None else _pair_witness(
        samples, *found[:2], "x' dominates x but has a smaller value")


def _strict_verdict(samples: PartialUtility, ranks: SampleRanks) -> Verdict:
    # above and not larger (ranks from first[r] on), or below and not smaller
    # (below end[r]): every rank is one or both, so XOR keeps unequal equivalents
    first, end = ranks.first, ranks.end
    found = first_violation(samples.points, ranks.rank, ranks.masks(), lambda r, down, up:
                            (up >> first[r] << first[r]) ^ (down & (1 << end[r]) - 1))
    if found is None:
        return _PASS
    p, q, above, below = found
    if above and below:
        return _pair_witness(samples, p, q, "equivalent points with different values")
    lo, hi = (p, q) if above else (q, p)
    return _pair_witness(samples, lo, hi, "strict domination without a strictly larger value")


# On a FinitePreorder the checks read per-component aggregates
# (ComponentBounds) instead of masks.  A sample has a violating partner
# iff a value of its own component differs from its own, or the largest
# value strictly below it is not smaller, or the smallest strictly above
# is not larger (weak: the smallest weakly above is smaller): O(1) per
# sample.  The first such sample is the i of the mask loops; one walk down
# and one up from its component then give the lowest partner j.


def _weak_on_components(samples: PartialUtility, bounds: ComponentBounds) -> Verdict:
    rel, highs, b = bounds.rel, bounds.highs, bounds.b
    comp = rel.component_index
    for i, (e, v) in enumerate(zip(bounds.elems, bounds.values)):
        if highs[b[comp[e]]] < v:
            above = rel.up_set(comp[e])
            j = next(j for j, (f, w) in enumerate(zip(bounds.elems, bounds.values))
                     if w < v and comp[f] in above)
            pts = samples.points
            return _pair_witness(
                samples, pts[i], pts[j], "x' dominates x but has a smaller value"
            )
    return _PASS


def _strict_on_components(samples: PartialUtility, bounds: ComponentBounds) -> Verdict:
    rel, lows, highs = bounds.rel, bounds.lows, bounds.highs
    comp, top, bottom = rel.component_index, bounds.top, bounds.bottom
    a_strict, b_strict = bounds.a_strict, bounds.b_strict
    for i, (e, v) in enumerate(zip(bounds.elems, bounds.values)):
        c = comp[e]
        if (lows[top[c]] != highs[bottom[c]] or lows[a_strict[c]] >= v
                or highs[b_strict[c]] <= v):
            return _strict_witness(samples, bounds, i, c, v)
    return _PASS


def _strict_witness(
    samples: PartialUtility, bounds: ComponentBounds, i: int, c: int, v
) -> Verdict:
    """The strict witness of sample i, in component c: its lowest violating partner."""
    rel, pts = bounds.rel, samples.points
    comp = rel.component_index
    below, above = rel.down_set(c), rel.up_set(c)
    note = "strict domination without a strictly larger value"
    for j, (f, w) in enumerate(zip(bounds.elems, bounds.values)):
        d = comp[f]
        if d == c:
            if w != v:
                return _pair_witness(
                    samples, pts[i], pts[j], "equivalent points with different values"
                )
        elif d in above:
            if w <= v:
                return _pair_witness(samples, pts[i], pts[j], note)
        elif d in below and w >= v:
            return _pair_witness(samples, pts[j], pts[i], note)
    raise AssertionError("a violating sample without a violating partner")


def _verdicts(rel: Preorder, samples: PartialUtility) -> Tuple[Verdict, Verdict]:
    """``(strict, weak)`` of ``samples`` in ``rel``, kept on the structure
    :func:`bounds_of` keeps.  Strict increase implies weak increase, so the
    weak pass runs only when strict fails."""
    bounds = bounds_of(rel, samples)
    if bounds.verdicts is None:
        ranked = isinstance(bounds, SampleRanks)
        strict = (_strict_verdict if ranked else _strict_on_components)(samples, bounds)
        weak = strict if strict.holds else (
            _weak_verdict if ranked else _weak_on_components)(samples, bounds)
        bounds.verdicts = strict, weak
    return bounds.verdicts


def check_weakly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Dominating sample points must not have smaller values."""
    return _verdicts(rel, samples)[1]


def check_strictly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Equivalent points share a value; strict domination means a larger value."""
    return _verdicts(rel, samples)[0]


def _bound_witness(oracle: ContourOracle, lo, hi, note: str) -> Verdict:
    return Verdict(
        False,
        Witness(
            lo=lo,
            hi=hi,
            context=(
                ("a(x)", bound_text(oracle.lower_sup(lo))),
                ("b(x')", bound_text(oracle.upper_inf(hi))),
            ),
            note=note,
        ),
    )


def check_gap_safe_finite(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Decide gap-safety of a finite sample set, in any preorder.

    Gap-safety quantifies over strict pairs of the augmented ground set.
    With finitely many samples it is exactly strict increase on the
    samples, decided in three parts.  (1) Strict increase; when it holds,
    every strict pair x' > x with occupied contours has samples
    q >= x' > x >= p, so b(x') = f_P(q) > f_P(p) = a(x), and the pairs
    with Top and Bottom are safe because finitely many samples keep both
    bounds finite.  (2) When it fails, weak increase; a failing weak
    verdict is returned as it is.  (3) Otherwise the strict witness is a
    strict sample pair q > p with f_P(q) <= f_P(p); weak increase gives
    a(p) = f_P(p) and b(q) = f_P(q), so the pair is a gap, and it is
    returned with those two bounds, the only ones this check reads.
    """
    strict, weak = _verdicts(rel, samples)
    if strict.holds:
        return _PASS
    if not weak.holds:
        return weak
    # under weak increase equivalent samples share a value, so the strict
    # witness is a strict pair with hi above lo
    w = strict.witness
    return _bound_witness(
        FiniteSampleOracle(rel, samples), w.lo, w.hi, "x' strictly dominates x but b(x') <= a(x)"
    )


# a second name of the one gap check, kept for callers of the Pareto name
check_gap_safe_pareto = check_gap_safe_finite


def check_gap_safe_probes(
    oracle: ContourOracle,
    probes: Iterable[Tuple[object, object]],
) -> Verdict:
    """Probe-driven refuter for ground sets that cannot be enumerated.

    Each probe is a pair ``(x, x_prime)`` with ``x_prime`` strictly above
    ``x`` in the augmented order; a probe with ``b(x') <= a(x)`` refutes
    gap-safety.  A passing verdict only means no supplied probe refutes.
    """
    for x, x_prime in probes:
        if compare_augmented(oracle.rel, x_prime, x) is not Comparison.STRICTLY_GREATER:
            raise ValueError(f"probe ({x}, {x_prime}) is not a strict pair")
        if not (oracle.upper_inf(x_prime) > oracle.lower_sup(x)):
            return _bound_witness(
                oracle, x, x_prime, "x' strictly dominates x but b(x') <= a(x)"
            )
    return _PASS


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
    check reduces to value constancy on equivalence classes: strict
    increase, on samples with no strict pair.  Both halves read the one
    structure :func:`bounds_of` keeps: its masks, on every preorder but a
    :class:`FinitePreorder`, whose test is a pass over the condensation.
    """
    bounds = bounds_of(rel, samples)
    if isinstance(bounds, SampleRanks):
        pair = strict_pair(samples.points, bounds.rank, bounds.masks())
    else:
        pair = is_pareto_set(rel, samples.points)[1]
    if pair:
        raise NotAParetoSetError(pair)
    return check_strictly_increasing(rel, samples)
