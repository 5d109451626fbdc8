"""Monotonicity checks: weak and strict increase, and the gap-safety
criterion that decides extendability.

Every check returns a :class:`Verdict`.  A failing verdict carries a
:class:`Witness` naming the offending pair together with the numeric
context needed to re-verify the violation from scratch.

Each check reads the one structure :func:`~ordext.contours.bounds_of`
keeps on the sample set, and finds its pair through the one finder of
that structure's kind.  On a :class:`FinitePreorder` the structure is
per-component aggregates of the relation's condensation
(:class:`ComponentBounds`), O(n + m) in all, and the finder is
:func:`_first_on_components`.  Elsewhere it is the samples ranked by
value (:class:`SampleRanks`), and the finder is
:func:`first_violation` on bitmasks over the ranks instead
of one order comparison per pair, so a value test is a bit range.  Each
sample's weak up-set and down-set among the samples comes from the
prefix chains of a :class:`ParetoSpace`, computed per sample inside the
pass, or on any other preorder from one ``geq`` per ordered pair, kept
with the ranks.  Both finders return the first i with a violation and
its lowest-placed partner, which is the first pair in position order.
Where the reference loops look at unordered pairs (j > i only), the
violation is symmetric in i and j, so the first i with a violation has
no violating partner below it and no j > i cut is needed.  The weak,
strict and Pareto-set checks orient that pair by one rule
(:func:`_oriented`), and every failing verdict is built in one place
(:func:`_refuted`).
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
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ordext.contours import (
    ComponentBounds,
    ContourOracle,
    FiniteSampleOracle,
    PartialUtility,
    bound_text,
    bounds_of,
)
from ordext.orders import Element, Preorder, safe_repr, strictly_above

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


def _refuted(lo, hi, note: str, *context: Tuple[str, object]) -> Verdict:
    """The one constructor of a failing verdict: the pair, x' = ``hi``, and its evidence."""
    return Verdict(False, Witness(lo, hi, context, note))


def _pair_witness(samples: PartialUtility, lo, hi, note: str) -> Verdict:
    return _refuted(lo, hi, note, ("f_P(x)", samples.value(lo)), ("f_P(x')", samples.value(hi)))


def _oriented(found) -> Tuple[object, object]:
    """A finder's ``(p, q, above, below)`` as ``(x, x')``, x' the point weakly above."""
    p, q, above, _ = found
    return (p, q) if above else (q, p)


def first_violation(points: Sequence[Element], bits: Sequence[int],
                    masks: Iterable[Tuple[int, int]], bad_of: Callable):
    """``(p, q, above, below)``: the first point p, of bit b, whose violation
    mask ``bad_of(b, down, up)`` over its ``masks`` entry, the bits of the
    points weakly below and above it, is not 0; the lowest-placed point q
    in that mask, by one walk over the bits; and whether q is weakly above
    and weakly below p.  None when no point has one."""
    for i, (b, (down, up)) in enumerate(zip(bits, masks)):
        if bad := bad_of(b, down, up):
            j = next(j for j, s in enumerate(bits) if bad >> s & 1)
            return points[i], points[j], up >> bits[j] & 1, down >> bits[j] & 1
    return None


def _first_on_components(samples: PartialUtility, bounds: ComponentBounds,
                         violates: Callable, bad: Callable):
    """``(p, q, above, below)`` on a :class:`ComponentBounds`, as
    :func:`first_violation` gives it on masks.

    A sample of value v in component c has a violating partner iff
    ``violates(c, v)``, an O(1) test of the component's aggregates: strict
    increase fails iff a value of its own component differs from v, or the
    largest value strictly below is not smaller, or the smallest strictly
    above is not larger; weak increase iff the smallest weakly above is
    smaller.  The first such sample is p; one walk down and one up from c
    then give q, the lowest-placed sample of value w with
    ``bad(v, w, above, below)``, and whether it is weakly above and weakly
    below p.  None when no sample has one.
    """
    rel, elems, values = bounds.rel, bounds.elems, bounds.values
    comp = rel.component_index
    for i, (e, v) in enumerate(zip(elems, values)):
        c = comp[e]
        if violates(c, v):
            down, up = rel.down_set(c), rel.up_set(c)
            for j, (f, w) in enumerate(zip(elems, values)):
                above, below = comp[f] in up, comp[f] in down
                if bad(v, w, above, below):
                    return samples.points[i], samples.points[j], above, below
            raise AssertionError("a violating sample without a violating partner")
    return None


def _weak_verdict(samples: PartialUtility, bounds) -> Verdict:
    if isinstance(bounds, ComponentBounds):
        highs, b = bounds.highs, bounds.b
        found = _first_on_components(samples, bounds, lambda c, v: highs[b[c]] < v,
                                     lambda v, w, above, below: above and w < v)
    else:
        end = bounds.end  # the ranks from end[r] on hold the smaller values
        found = first_violation(samples.points, bounds.rank, bounds.masks(),
                                lambda r, down, up: up >> end[r] << end[r])
    return _PASS if found is None else _pair_witness(
        samples, *_oriented(found), "x' dominates x but has a smaller value")


def _strict_verdict(samples: PartialUtility, bounds) -> Verdict:
    # a partner violates when above and not larger, or below and not smaller:
    # an equivalent one is both, so XOR keeps it only with an unequal value
    if isinstance(bounds, ComponentBounds):
        lows, highs, top, bottom = bounds.lows, bounds.highs, bounds.top, bounds.bottom
        a_strict, b_strict = bounds.a_strict, bounds.b_strict
        found = _first_on_components(
            samples, bounds,
            lambda c, v: (lows[top[c]] != highs[bottom[c]] or lows[a_strict[c]] >= v
                          or highs[b_strict[c]] <= v),
            lambda v, w, above, below: (above and w <= v) != (below and w >= v))
    else:
        # not larger: ranks from first[r] on; not smaller: ranks below end[r]
        first, end = bounds.first, bounds.end
        found = first_violation(samples.points, bounds.rank, bounds.masks(), lambda r, down, up:
                                (up >> first[r] << first[r]) ^ (down & (1 << end[r]) - 1))
    if found is None:
        return _PASS
    note = ("equivalent points with different values" if found[2] and found[3]
            else "strict domination without a strictly larger value")
    return _pair_witness(samples, *_oriented(found), note)


def _verdicts(rel: Preorder, samples: PartialUtility) -> Tuple[Verdict, Verdict]:
    """``(strict, weak)`` of ``samples`` in ``rel``, kept on the structure
    :func:`bounds_of` keeps.  Strict increase implies weak increase, so the
    weak pass runs only when strict fails."""
    bounds = bounds_of(rel, samples)
    if bounds.verdicts is None:
        strict = _strict_verdict(samples, bounds)
        bounds.verdicts = strict, strict if strict.holds else _weak_verdict(samples, bounds)
    return bounds.verdicts


def check_weakly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Dominating sample points must not have smaller values."""
    return _verdicts(rel, samples)[1]


def check_strictly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Equivalent points share a value; strict domination means a larger value."""
    return _verdicts(rel, samples)[0]


def _bound_witness(oracle: ContourOracle, lo, hi, note: str) -> Verdict:
    return _refuted(lo, hi, note, ("a(x)", bound_text(oracle.lower_sup(lo))),
                    ("b(x')", bound_text(oracle.upper_inf(hi))))


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
        if not strictly_above(oracle.rel, x_prime, x):
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
            f"not a Pareto set: {safe_repr(pair[0])} strictly dominates {safe_repr(pair[1])}"
        )


def check_pareto_set_values(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Extendability test for values on a Pareto set.

    Requires the sample points to be mutually undominated, and otherwise
    raises :class:`NotAParetoSetError` whose ``pair`` is (winner, loser) of
    the first strict pair in sample order: the first sample with a
    strictly comparable partner, and its lowest-placed one.  With finitely
    many samples the contour-boundedness half of the criterion is
    automatic, so the check reduces to value constancy on equivalence
    classes: strict increase, on samples with no strict pair.  Both halves
    read the one structure :func:`bounds_of` keeps: the Pareto-set test is
    its finder with a partner weakly on exactly one side, a strictly
    comparable one.
    """
    bounds = bounds_of(rel, samples)
    if isinstance(bounds, ComponentBounds):
        empty = len(bounds.values)
        a_strict, b_strict = bounds.a_strict, bounds.b_strict
        found = _first_on_components(
            samples, bounds, lambda c, v: a_strict[c] < empty or b_strict[c] < empty,
            lambda v, w, above, below: above != below)
    else:
        found = first_violation(samples.points, bounds.rank, bounds.masks(),
                                lambda r, down, up: up ^ down)
    if found is not None:
        lo, hi = _oriented(found)
        raise NotAParetoSetError((hi, lo))
    return check_strictly_increasing(rel, samples)
