"""The strictly increasing extension and its equivalent evaluation forms.

Given contour bounds a(x) (lower supremum) and b(x) (upper infimum), an
interval (alpha, beta), and a utility representation of the preorder,
the engine squashes the utility into (alpha, beta) and blends the bounds
with it so that the result restricts to the sample values and increases
strictly with the preorder.

:meth:`ExtensionEngine.evaluate`, the capped blend of the defining
formula, is the one production evaluator: the CLI calls nothing else
for a value.  Per point it reads the two bounds and one scaled utility
value; the unit value is the scaled one mapped affinely, with the float
alpha and beta :func:`normalize01` was given.  Its four caps are written
as the comparisons builtin ``max`` and ``min`` make, which keep the first
operand on a tie, so every value is bit-identical to the formula's and
no builtin call is paid per point.
:meth:`ExtensionEngine.evaluate_many` evaluates a sequence of points:
per point it reads the oracle record once, which primes the two bound
reads of the one ``evaluate`` call that follows, and takes the region and
band labels from that record and the point's sample membership.
:meth:`ExtensionEngine.evaluate_grid` evaluates a 2-D grid one row at a
time from :meth:`FiniteSampleOracle.lattice`, which reads each row's and
column's sample masks once, ANDs one pair per point and hands over each
row's records and sample memberships: per point it primes the oracle's
bound reads with the point and its record, as a record read would, and
calls ``evaluate`` once.  Both derive the labels once per distinct record
and membership (``functools.cache``), with one helper that
:meth:`ExtensionEngine.describe` and the two ``classify_*`` methods share
and that takes them from one table by a small int, hashing no Enum; the
grid derives a row's labels once per distinct row, so a row the lattice
hands the records list of the row before yields that row's labels list.
The paper's three algebraically equivalent routes (an offset form, routing
by contour region, routing by band) and ``evaluate_all_forms`` stay on the
engine as the reference that the acceptance gate and the tests check
``evaluate`` against.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ordext.contours import ContourOracle, FiniteSampleOracle, PartialUtility, Record
from ordext.monotonicity import check_pareto_set_values
from ordext.orders import (
    Element, FinitePreorder, ParetoSpace, Preorder, UnsupportedQueryError, safe_repr,
)
from ordext.utility import UtilityFn, finite_utility, normalize01, pareto_base_utility, squash

__all__ = [
    "Band",
    "ContourRegion",
    "DiscordantFormsError",
    "ExtensionEngine",
    "UnboundedContourError",
    "make_engine",
]

AGREEMENT_TOL = 1e-9


class UnboundedContourError(ArithmeticError):
    """A capped term met an unbounded contour value.

    The defining formula is only well formed when ``a(x) < +inf`` and
    ``b(x) > -inf``; gap-safe inputs guarantee that, so hitting this
    error means the instance was not gap-safe.
    """


class DiscordantFormsError(AssertionError):
    """Overlapping band branches disagreed beyond tolerance."""


class ContourRegion(Enum):
    """Partition of the ground set by sample membership and contour emptiness."""

    SAMPLE = "P"
    BRACKETED = "A"  # samples both below and above
    BELOW = "L"      # no sample below, some above
    ABOVE = "U"      # some sample below, none above
    DETACHED = "N"   # no comparable sample at all


class Band(Enum):
    """Overlapping cover of the ground set by bound-gap geometry."""

    NARROW = "S1"     # b - a <= beta - alpha
    WIDE_LOW = "S2"   # wide gap with b <= beta
    WIDE_HIGH = "S3"  # wide gap with a >= alpha
    SPANNING = "S4"   # a <= alpha and b >= beta


# the labels of a point, one object per region and set of bands, by one
# small int, which hashes no Enum: entry 16 × the region's position plus one
# bit per band whose rule above holds, in Band order, is the region and the
# bands whose bit is set, in Band order
_LABEL_TABLE = [
    (region, tuple(band for i, band in enumerate(Band) if bits >> i & 1))
    for region in ContourRegion for bits in range(1 << len(Band))
]


class ExtensionEngine:
    """Evaluator bundle for one extension instance.

    The oracle, the range and the two derived utilities are fixed at
    construction.  The one state the engine keeps is
    ``_pareto_set_checked``, set once :meth:`evaluate_pareto_set` has found
    the samples a Pareto set constant on equivalence classes, so the check
    runs once per engine; the oracle keeps its own last record.  ``utility``
    is a utility representation of the preorder (see :func:`finite_utility`,
    :func:`pareto_base_utility`); the engine squashes it into (alpha, beta)
    with :func:`squash`, which rejects a bad range, and normalizes that to
    (0, 1) with :func:`normalize01`.
    """

    def __init__(self, oracle: ContourOracle, alpha: float, beta: float, utility: UtilityFn):
        alpha, beta = float(alpha), float(beta)
        self._oracle = oracle
        self._alpha = alpha
        self._beta = beta
        self._scaled = squash(utility, alpha, beta)
        self._unit = normalize01(self._scaled, alpha, beta)
        self._pareto_set_checked = False

    @property
    def oracle(self) -> ContourOracle:
        return self._oracle

    @property
    def rel(self) -> Preorder:
        return self._oracle.rel

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def beta(self) -> float:
        return self._beta

    @property
    def unit_utility(self) -> UtilityFn:
        return self._unit

    @property
    def scaled_utility(self) -> UtilityFn:
        return self._scaled

    def bounds(self, x) -> Tuple[float, float]:
        return self._oracle.lower_sup(x), self._oracle.upper_inf(x)

    def _bounded_floats(self, x) -> Tuple[float, float]:
        a, b = self._oracle.lower_sup(x), self._oracle.upper_inf(x)
        if not a < math.inf:
            raise UnboundedContourError(
                f"lower supremum at {safe_repr(x)} is +inf; instance is not gap-safe"
            )
        if not b > -math.inf:
            raise UnboundedContourError(
                f"upper infimum at {safe_repr(x)} is -inf; instance is not gap-safe"
            )
        return float(a), float(b)

    # Evaluation forms.  All compute convex blends as lo + (hi - lo)*t
    # rather than lo*(1-t) + hi*t: the two are algebraically equal, but
    # only the first returns lo exactly when lo == hi, which the
    # restriction guarantee relies on.  The one exception is the sign of
    # zero: for lo == hi == -0.0 it returns -0.0 + 0.0, that is 0.0.

    def evaluate(self, x: Element) -> float:
        """The defining capped blend; the production evaluator.

        Each ``max(p, q)`` of the formula is written ``q if q > p else p``
        and each ``min(p, q)`` ``q if q < p else p``: the comparison the
        builtin makes, keeping the first operand on a tie, so ``-0.0``
        against ``0.0`` resolves as in the formula and every value is
        bit-identical to it (``reference.capped_blend``).  A builtin call
        costs several times the comparison, and this runs once per point.
        """
        # _bounded_floats, inlined: this runs once per point of every command
        oracle = self._oracle
        a, b = oracle.lower_sup(x), oracle.upper_inf(x)
        if not a < math.inf:
            raise UnboundedContourError(
                f"lower supremum at {safe_repr(x)} is +inf; instance is not gap-safe"
            )
        if not b > -math.inf:
            raise UnboundedContourError(
                f"upper infimum at {safe_repr(x)} is -inf; instance is not gap-safe"
            )
        a, b = float(a), float(b)
        alpha, beta = self._alpha, self._beta
        u = (self._scaled(x) - alpha) / (beta - alpha)
        # lo = max(a, min(b, beta) - beta + alpha)
        # hi = min(b, max(a, alpha) - alpha + beta)
        cap = (beta if beta < b else b) - beta + alpha
        lo = cap if cap > a else a
        cap = (alpha if alpha > a else a) - alpha + beta
        hi = cap if cap < b else b
        return lo + (hi - lo) * u

    def evaluate_many(
        self, points: Iterable[Element]
    ) -> Iterator[Tuple[float, ContourRegion, Tuple[Band, ...]]]:
        """``(value, region, bands)`` per point, lazily and in order.

        Each point costs one oracle record read, one :meth:`evaluate` call,
        whose two bound reads that record primes, and one sample membership
        test, so an error the record read raises comes before the point is
        evaluated; ``evaluate`` raises :class:`UnboundedContourError` here
        as it does alone.  Labels are derived once per distinct record and
        membership.  A 2-D grid goes through :meth:`evaluate_grid`
        instead, which has the records and memberships from its sweep.
        """
        oracle = self._oracle
        evaluate = self.evaluate
        labels = cache(self._labels)
        for x in points:
            record = oracle.record(x)
            yield (evaluate(x), *labels(record, oracle.in_samples(x)))

    def evaluate_grid(
        self, xs: Sequence[float], ys: Sequence[float]
    ) -> Iterator[Tuple[List[float], List[Tuple[ContourRegion, Tuple[Band, ...]]]]]:
        """The grid ``xs × ys`` row by row: for each ``v1`` of ``xs``, the
        values and the ``(region, bands)`` labels of the points ``(v1, v2)``
        for ``v2`` in ``ys``.

        The rows are those of ``oracle.lattice(xs, ys)``, which validates
        the axes before the first row.  Each point costs one
        :meth:`evaluate` call, whose two bound reads are primed with the
        point and its record from the sweep just before, as a record read
        would prime them; ``evaluate`` raises :class:`UnboundedContourError`
        here as it does alone.  Labels are derived once per distinct record
        and membership, and each is one object that lives as long as the
        module, so a caller may key text by its ``id``.  A row's labels list
        is built once per distinct row: a row whose records list is the very
        list of the row before (the lattice hands a repeated row its lists
        again) yields the labels list object of that row again, so a caller
        may derive a row's text from it once as well.
        """
        oracle = self._oracle
        rows = oracle.lattice(xs, ys)
        labels = cache(self._labels)

        def sweep():
            evaluate = self.evaluate
            last = row_labels = None
            for points, records, members in rows:
                values = []
                append = values.append
                for entry in zip(points, records):
                    oracle._last = entry
                    append(evaluate(entry[0]))
                # a repeated row comes with the records and members lists of
                # the row before, so its labels are that row's list
                if records is not last:
                    last = records
                    row_labels = list(map(labels, records, members))
                yield values, row_labels

        return sweep()

    def describe(self, x: Element) -> Tuple[float, float, ContourRegion, Tuple[Band, ...]]:
        """``(a, b, region, bands)`` at ``x`` from one oracle record.

        Never evaluates, so it answers on instances that are not gap-safe.
        """
        oracle = self._oracle
        record = oracle.record(x)
        return (record[0], record[1], *self._labels(record, oracle.in_samples(x)))

    def _labels(
        self, record: Record, in_sample: bool
    ) -> Tuple[ContourRegion, Tuple[Band, ...]]:
        """The contour region and the bands of a point with this record.

        Total: unbounded bounds are allowed here even though evaluation
        refuses them.  The gap width b - a counts as +inf whenever
        a = -inf or b = +inf, so detached points land in the spanning band
        only.
        """
        a, b, has_lower, has_upper = record
        # the region's position in ContourRegion, times 16
        if in_sample:
            region = 0
        elif has_lower and has_upper:
            region = 16
        elif has_upper:
            region = 32
        elif has_lower:
            region = 48
        else:
            region = 64
        a = float(a)
        b = float(b)
        alpha, beta = self._alpha, self._beta
        span = beta - alpha
        width = math.inf if (a == -math.inf or b == math.inf) else b - a
        wide = width >= span
        held = ((width <= span) | (wide and b <= beta) << 1 | (wide and a >= alpha) << 2
                | (a <= alpha and b >= beta) << 3)
        if not held:
            raise AssertionError(f"band cover failed: a={a}, b={b}")
        return _LABEL_TABLE[region + held]

    def evaluate_offset_form(self, x: Element) -> float:
        """Equivalent form organized around the scaled utility."""
        a, b = self._bounded_floats(x)
        u = self._scaled(x)
        alpha, beta = self._alpha, self._beta
        low_part = max(a - alpha, min(b - beta, 0.0))
        high_part = min(b - beta, max(a - alpha, 0.0))
        return (low_part * (beta - u) + high_part * (u - alpha)) / (beta - alpha) + u

    def classify_contour_region(self, x: Element) -> ContourRegion:
        return self.describe(x)[2]

    def evaluate_by_contour_region(self, x: Element) -> float:
        """Route by contour region; bracketed points fall back to the offset form."""
        region = self.classify_contour_region(x)
        if region is ContourRegion.SAMPLE:
            return self._oracle.sample_value(x)
        if region is ContourRegion.BRACKETED:
            return self.evaluate_offset_form(x)
        u = self._scaled(x)
        if region is ContourRegion.BELOW:
            _, b = self._bounded_floats(x)
            return min(b - self._beta, 0.0) + u
        if region is ContourRegion.ABOVE:
            a, _ = self._bounded_floats(x)
            return max(a - self._alpha, 0.0) + u
        return u

    def classify_bands(self, x: Element) -> Tuple[Band, ...]:
        """All bands containing ``x``; never empty (bands cover the space)."""
        return self.describe(x)[3]

    def _band_value(self, x: Element, band: Band) -> float:
        a, b = self._bounded_floats(x)
        if band is Band.NARROW:
            return a + (b - a) * self._unit(x)
        if band is Band.WIDE_LOW:
            return b + self._scaled(x) - self._beta
        if band is Band.WIDE_HIGH:
            return a + self._scaled(x) - self._alpha
        return self._scaled(x)

    def evaluate_by_band(self, x: Element) -> float:
        """Route by band; overlapping branches are cross-checked."""
        bands = self.classify_bands(x)
        values = [self._band_value(x, band) for band in bands]
        first = values[0]
        for band, value in zip(bands[1:], values[1:]):
            if abs(value - first) > AGREEMENT_TOL:
                raise DiscordantFormsError(
                    f"bands {bands[0].value} and {band.value} disagree at {x!r}: "
                    f"{first} vs {value}"
                )
        return first

    def evaluate_all_forms(self, x: Element) -> Tuple[float, float, float, float]:
        """All four routes at once, cross-checked against each other."""
        results = (
            self.evaluate(x),
            self.evaluate_offset_form(x),
            self.evaluate_by_contour_region(x),
            self.evaluate_by_band(x),
        )
        first = results[0]
        for value in results[1:]:
            if abs(value - first) > AGREEMENT_TOL:
                raise DiscordantFormsError(
                    f"evaluation forms disagree at {x!r}: {results}"
                )
        return results

    # Pareto-set route.

    def _ensure_pareto_set(self) -> PartialUtility:
        if not isinstance(self._oracle, FiniteSampleOracle):
            raise UnsupportedQueryError(
                "the Pareto-set path needs an enumerable sample set"
            )
        samples = self._oracle.samples
        if not self._pareto_set_checked:
            verdict = check_pareto_set_values(self.rel, samples)
            if not verdict.holds:
                raise ValueError(
                    f"sample values are not extendable from a Pareto set: "
                    f"{verdict.witness.describe()}"
                )
            self._pareto_set_checked = True
        return samples

    def _equivalent_sample(self, samples: PartialUtility, x: Element) -> Optional[Element]:
        if self._oracle.in_samples(x):
            return x
        if type(self.rel) is ParetoSpace:
            # coordinatewise order is antisymmetric: equivalence is equality;
            # a subclass may redefine the order
            return None
        for p in samples.points:
            if self.rel.equivalent(p, x):
                return p
        return None

    def evaluate_pareto_set(self, x: Element) -> float:
        """Route for samples that form a Pareto set.

        Checks once that the samples are mutually undominated and
        constant on equivalence classes.  Points equivalent to a sample
        copy that sample's value; everything else goes through band
        routing.  Agrees with the offset form.
        """
        samples = self._ensure_pareto_set()
        p = self._equivalent_sample(samples, x)
        if p is not None:
            return samples.value(p)
        return self.evaluate_by_band(x)


def make_engine(
    oracle: ContourOracle,
    alpha: float = 0.0,
    beta: float = 1.0,
    base_utility: Optional[UtilityFn] = None,
) -> ExtensionEngine:
    """Assemble an engine, deriving its utility from the oracle's preorder.

    Without an explicit base utility, a finite preorder gets the layered
    integer utility and a Pareto space the coordinate sum.  By the exact
    type of the preorder, as in ``bounds_of``, since a subclass may
    redefine the order.  The engine squashes the base into (alpha, beta)
    itself.
    """
    rel = oracle.rel
    if base_utility is None:
        default = {FinitePreorder: finite_utility, ParetoSpace: pareto_base_utility}.get(type(rel))
        if default is None:
            raise ValueError(
                f"no default base utility for {type(rel).__name__}; pass one"
            )
        base_utility = default(rel)
    return ExtensionEngine(oracle, alpha, beta, base_utility)
