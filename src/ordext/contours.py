"""Sample-set contours and the two bound functions.

For a partial function on samples ``P``, every query point ``x`` has a
lower contour (samples weakly below ``x``) and an upper contour (samples
weakly above).  The bound functions return the supremum of the sample
values over the lower contour (``lower_sup``) and the infimum over the
upper contour (``upper_inf``), with ``sup empty = -inf`` and
``inf empty = +inf``.  A bound is the sample value itself (an ``int``,
``float`` or ``Fraction``) or ``-math.inf``/``math.inf``: Python orders
all of these correctly against each other, so no wrapper type is needed;
nor is one for a query point, which is an element or ``TOP``/``BOTTOM``.
:func:`bound_text` prints a bound as ``-inf``, ``+inf`` or ``str(v)``.

Oracles hide how the bounds are produced.  :class:`AnalyticFixture`
carries closed forms supplied by a fixture author, which is the only
honest way to represent infinite sample sets.  :class:`FiniteSampleOracle`
reads the bounds of a finite sample set, its max and min isotonic
envelopes, from one structure per sample set picked by the exact type of
the preorder, which the sample checks read too: on a :class:`FinitePreorder`,
both bounds per component of its condensation (:class:`ComponentBounds`);
on a :class:`ParetoSpace`, the samples ranked by value and per-coordinate
prefix bitmasks (:class:`ParetoBounds`).  The augmented
extremes ``TOP``/``BOTTOM`` and every other preorder go through the
reference scan, the max and min of the values over :func:`lower_contour`
and :func:`upper_contour`, which ask the preorder's ``compare`` (on a
Pareto space, two ``geq`` calls) once per sample and contour; the index
tests compare against it.  :meth:`FiniteSampleOracle.lattice` reads a
whole 2-D grid from the same Pareto structure, one prefix read per row
and per column, and leaves each point's record in the memo as it yields
the point.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ordext.orders import (
    Augmented,
    Comparison,
    Element,
    FinitePreorder,
    ParetoSpace,
    Preorder,
    PrefixChains,
    UnsupportedQueryError,
    all_finite_floats,
    compare_augmented,
    is_finite_real,
    lowest_bit,
    safe_repr,
)

__all__ = [
    "AnalyticFixture",
    "ContourOracle",
    "FiniteSampleOracle",
    "PartialUtility",
    "bound_text",
    "lower_contour",
    "upper_contour",
]


def bound_text(v: float) -> str:
    """A bound as the CLI and witnesses print it: ``+inf``, ``-inf`` or ``str(v)``."""
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return str(v)


def _check_values(values: Mapping[Element, float]) -> None:
    """The sample values one by one; raises on the first that is not a finite real."""
    for p, v in values.items():
        if not isinstance(v, (float, int, Fraction)):
            raise TypeError(f"sample {safe_repr(p)} has non-numeric value {safe_repr(v)}")
        if not is_finite_real(v):
            raise ValueError(f"sample {safe_repr(p)} has non-finite value {safe_repr(v)}")


class PartialUtility:
    """Finite sample set with one finite real value per sample.

    Values must be ``int`` (``bool`` included), ``float`` or ``Fraction``
    (``TypeError`` otherwise), and finite: a non-finite float, or an
    ``int`` or ``Fraction`` too large for any float, raises ``ValueError``.
    All-float values are checked in bulk (:func:`all_finite_floats`), and
    any others one by one, so the first bad value is the one named.
    """

    __slots__ = ("_points", "_values", "_bounds", "_verdicts")

    def __init__(self, values: Mapping[Element, float]):
        if not all_finite_floats(values.values()):
            _check_values(values)
        self._points = tuple(values)
        self._values = dict(values)
        self._bounds = None  # see ComponentBounds.of, shared by ParetoBounds
        self._verdicts: Optional[tuple] = None  # see monotonicity._verdicts

    @property
    def points(self) -> Tuple[Element, ...]:
        return self._points

    def value(self, p: Element) -> float:
        try:
            return self._values[p]
        except KeyError:
            raise KeyError(f"{safe_repr(p)} is not a sample point") from None

    def __contains__(self, p: Element) -> bool:
        return p in self._values

    def __len__(self) -> int:
        return len(self._points)

    def items(self) -> Iterator[Tuple[Element, float]]:
        return iter(self._values.items())

    def __repr__(self) -> str:
        return f"PartialUtility({self._values!r})"


def _dominates(rel: Preorder, hi, lo) -> bool:
    return compare_augmented(rel, hi, lo) in (
        Comparison.EQUIVALENT,
        Comparison.STRICTLY_GREATER,
    )


def lower_contour(rel: Preorder, points: Iterable[Element], x) -> list:
    """Sample points weakly below ``x`` (an element, ``TOP`` or ``BOTTOM``)."""
    return [p for p in points if _dominates(rel, x, p)]


def upper_contour(rel: Preorder, points: Iterable[Element], x) -> list:
    """Sample points weakly above ``x`` (an element, ``TOP`` or ``BOTTOM``)."""
    return [p for p in points if _dominates(rel, p, x)]


class ContourOracle(ABC):
    """Supplier of the two bound functions over the augmented ground set.

    Implementations must satisfy ``lower_sup(BOTTOM) = -inf`` and
    ``upper_inf(TOP) = +inf`` (the contours of the artificial extremes
    on their far side are empty by construction).
    """

    @property
    @abstractmethod
    def rel(self) -> Preorder:
        """The ambient preorder the contours are taken in."""

    @abstractmethod
    def lower_sup(self, x) -> float:
        """Supremum of sample values weakly below ``x``; ``-math.inf`` when none."""

    @abstractmethod
    def upper_inf(self, x) -> float:
        """Infimum of sample values weakly above ``x``; ``math.inf`` when none."""

    @abstractmethod
    def contour_occupancy(self, x) -> Tuple[bool, bool]:
        """(lower contour non-empty, upper contour non-empty) at ``x``.

        Infinite bounds do not determine this: an infinite sample set can
        fill a contour while its value bound still diverges.
        """

    @abstractmethod
    def in_samples(self, x: Element) -> bool:
        """True iff ``x`` is one of the sample points."""

    def record(self, x) -> Tuple[float, float, bool, bool]:
        """``(lower_sup, upper_inf, *contour_occupancy)`` at ``x``.

        Oracles that hold all four in one record override this to read it once.
        """
        return (self.lower_sup(x), self.upper_inf(x), *self.contour_occupancy(x))

    @abstractmethod
    def sample_value(self, x: Element) -> float:
        """Value at a sample point; ``KeyError`` otherwise."""

    def lattice(self, xs: Sequence[float], ys: Sequence[float]) -> Iterator[Tuple[float, float]]:
        """The points of the grid ``xs × ys``, each record memoized as it is
        yielded; only :meth:`FiniteSampleOracle.lattice` sweeps one."""
        raise UnsupportedQueryError(f"{type(self).__name__} sweeps no lattice")


class ComponentBounds:
    """The sample bounds of every component of a :class:`FinitePreorder`.

    Four passes over the condensation (:meth:`FinitePreorder.down_min`
    and :meth:`FinitePreorder.up_min`), O(n + m) in all, on sample ranks:
    rank r is the r-th sample by falling value in ``lows`` and by rising
    value in ``highs``, equal values in sample order (stable sorts), and
    rank ``len(values)`` is the empty contour, ``-inf`` and ``+inf``.  Per
    component c, ``a[c]`` is the rank of a(x) for its elements, the
    largest sample value weakly below, and ``a_strict[c]`` that of the
    largest strictly below; ``b[c]`` and ``b_strict[c]`` those of the
    smallest weakly and strictly above; ``top[c]`` and ``bottom[c]`` those
    of its own largest and smallest sample value.  The least rank wins, so
    of equal values the first in sample order is the one kept.

    Build it with :meth:`of`, which keeps the last one on the sample set,
    so the gap check and the bound index of one command share it.
    """

    __slots__ = ("rel", "elems", "values", "lows", "highs",
                 "top", "bottom", "a", "a_strict", "b", "b_strict")

    def __init__(self, rel: FinitePreorder, samples: PartialUtility):
        self.rel = rel
        self.elems = elems = rel._check_points(samples.points)
        self.values = values = [v for _, v in samples.items()]
        empty = len(values)
        falling = sorted(range(empty), key=values.__getitem__, reverse=True)
        rising = sorted(range(empty), key=values.__getitem__)
        self.lows = [*map(values.__getitem__, falling), -math.inf]
        self.highs = [*map(values.__getitem__, rising), math.inf]
        comp = rel.component_index
        top = [empty] * len(rel.condensation)
        bottom = top.copy()
        # walked from the last rank down, so each component keeps its least
        for r in reversed(range(empty)):
            top[comp[elems[falling[r]]]] = r
            bottom[comp[elems[rising[r]]]] = r
        self.top, self.bottom = top, bottom
        self.a, self.a_strict = rel.down_min(top, empty)
        self.b, self.b_strict = rel.up_min(bottom, empty)

    @classmethod
    def of(cls, rel: Preorder, samples: PartialUtility):
        """The bounds of ``samples`` in ``rel``, reused while ``rel`` is the last asked."""
        bounds = samples._bounds
        if bounds is None or bounds.rel is not rel:
            bounds = samples._bounds = cls(rel, samples)
        return bounds

    def record(self, x) -> Tuple[float, float, bool, bool]:
        """Both bounds of the element ``x``; an infinite one marks an empty contour."""
        c = self.rel.component_index[self.rel._check(x)]
        a, b, empty = self.a[c], self.b[c], len(self.values)
        return self.lows[a], self.highs[b], a < empty, b < empty


class SampleRanks:
    """The samples by falling value, ties (by ``==``) in sample order: rank r
    has value ``values[r]`` and position ``pos[r]``, position i rank
    ``rank[i]``; the ranks below ``end[r]`` hold the values ``>=``
    ``values[r]``, and those from ``first[r]`` on the values ``<=`` it.
    ``masks()``, set where the samples' dominance is known, yields each
    sample's rank bits weakly below and above it, in sample order."""

    __slots__ = ("values", "pos", "rank", "first", "end", "masks")

    def __init__(self, samples: PartialUtility):
        values = [v for _, v in samples.items()]
        n = len(values)
        self.pos = pos = sorted(range(n), key=values.__getitem__, reverse=True)
        self.values = ranked = list(map(values.__getitem__, pos))
        self.rank = sorted(range(n), key=pos.__getitem__)
        self.first, self.end = first, end = list(range(n)), list(range(1, n + 1))
        for r in range(1, n):
            if ranked[r] == ranked[r - 1]:
                first[r] = first[r - 1]
        for r in reversed(range(n - 1)):
            if ranked[r] == ranked[r + 1]:
                end[r] = end[r + 1]


class ParetoBounds(SampleRanks):
    """The ranked samples of a :class:`ParetoSpace` and their :class:`PrefixChains`
    over rank bits, kept on the sample set by :meth:`of`: the sample checks read
    ``masks()``, each sample's in turn, and the index and the lattice the chains."""

    __slots__ = ("rel", "chains")

    def __init__(self, rel: ParetoSpace, samples: PartialUtility):
        self.rel = rel
        points = rel._check_points(samples.points)  # before any sort
        super().__init__(samples)
        self.chains = PrefixChains(points, self.rank)
        self.masks = self.chains.of_points

    of = classmethod(ComponentBounds.of.__func__)

    def record(self, x) -> Tuple[float, float, bool, bool]:
        """``(a, b, lower contour non-empty, upper contour non-empty)`` at ``x``:
        ``a`` at the lowest rank below, ``b`` at the lowest rank above in the
        tie run of the highest, so of equal values the first in sample order."""
        down, up = self.chains.contours(self.rel._check(x))
        values = self.values
        a = values[lowest_bit(down)] if down else -math.inf
        if not up:
            return a, math.inf, bool(down), False
        tie = self.first[up.bit_length() - 1]
        return a, values[tie + lowest_bit(up >> tie)], bool(down), True


# by exact preorder type: subclasses may redefine the order
_MAKE_INDEX = {FinitePreorder: ComponentBounds.of, ParetoSpace: ParetoBounds.of}


class FiniteSampleOracle(ContourOracle):
    """Bounds computed from a finite sample set.

    The index is built on the first element query that needs it, and only
    the last query and its record are memoized.  A query hits the memo only
    when it is the same object, as every re-read by the engine and the
    lattice sweep is, so the memo never skips a validation; an equal but
    distinct query reads the index again.  Of equal values (``-0.0`` and
    ``0.0``, ``1`` and ``1.0``) every path keeps the first in sample order,
    as ``max`` and ``min`` do in the reference scan.
    """

    def __init__(self, rel: Preorder, samples: PartialUtility):
        self._rel = rel
        self._samples = samples
        self._make_index = _MAKE_INDEX.get(type(rel))
        self._index: Optional[Callable] = None
        self._last: Optional[tuple] = None  # (query, record) of the last scan

    @property
    def rel(self) -> Preorder:
        return self._rel

    @property
    def samples(self) -> PartialUtility:
        return self._samples

    def record(self, x) -> Tuple[float, float, bool, bool]:
        """``(a, b, lower contour non-empty, upper contour non-empty)`` at ``x``."""
        last = self._last
        if last is not None and last[0] is x:
            return last[1]
        if self._make_index is None or isinstance(x, Augmented):
            entry = self._scan_generic(x)
        else:
            self._index = self._index or self._make_index(self._rel, self._samples).record
            entry = self._index(x)
        self._last = (x, entry)
        return entry

    def _scan_generic(self, x) -> Tuple[float, float, bool, bool]:
        """Reference scan: max and min of the values over the two contour sets."""
        points, value = self._samples.points, self._samples.value
        below = [value(p) for p in lower_contour(self._rel, points, x)]
        above = [value(p) for p in upper_contour(self._rel, points, x)]
        return (
            max(below, default=-math.inf),
            min(above, default=math.inf),
            bool(below),
            bool(above),
        )

    def lower_sup(self, x) -> float:
        return self.record(x)[0]

    def upper_inf(self, x) -> float:
        return self.record(x)[1]

    def contour_occupancy(self, x) -> Tuple[bool, bool]:
        return self.record(x)[2:]

    def lattice(
        self, xs: Sequence[float], ys: Sequence[float]
    ) -> Iterator[Tuple[float, float]]:
        """Every point ``(v1, v2)`` of the grid ``xs × ys``, row by row.

        Each point's record goes into the memo before the point is yielded,
        so the bound queries on it that follow read the memo.  Only a 2-D
        :class:`ParetoSpace` is swept (:class:`UnsupportedQueryError`
        otherwise), on axes sorted non-decreasing (``ValueError``
        otherwise).  Each axis value is validated once, which validates
        every grid point; all of this happens before the first point.

        A sample is weakly below or above a grid point iff it is on both
        coordinates, so each row's and each column's prefix reads of the
        :class:`ParetoBounds` chains are taken once, and a point's two masks
        are one AND of its row's and its column's: its record then follows
        as :meth:`ParetoBounds.record` derives it, and points that share
        both bounds share one record tuple.  Cost O(R log |P|) reads for R
        points per axis, then two ANDs of |P|-bit integers per point, in
        O(R) memory besides the chains.
        """
        rel = self._rel
        if type(rel) is not ParetoSpace or rel.k != 2:
            raise UnsupportedQueryError("a lattice sweep needs a 2-D Pareto space")
        for axis in (xs, ys):
            for v in axis:
                rel._check((v, v))
            if any(lo > hi for lo, hi in zip(axis, axis[1:])):
                raise ValueError("lattice axes must be sorted non-decreasing")
        bounds = ParetoBounds.of(rel, self._samples)
        values, first = bounds.values, bounds.first
        n = len(values)
        width = n + 1  # a record key a * width + b per pair of ranks
        # the samples whose first coordinate is at most (at least) v are those
        # weakly below (v, +inf) (above (v, -inf)); likewise per column
        contours, inf = bounds.chains.contours, math.inf
        rows = [(contours((v, inf))[0], contours((v, -inf))[1]) for v in xs]
        cols = [(contours((inf, v))[0], contours((-inf, v))[1]) for v in ys]

        def points() -> Iterator[Tuple[float, float]]:
            records = {}
            for v1, (row_down, row_up) in zip(xs, rows):
                for v2, (down, up) in zip(ys, cols):
                    down &= row_down
                    up &= row_up
                    # the ranks of a and b, as record reads them
                    a, b = lowest_bit(down) if down else n, n
                    if up:
                        tie = first[up.bit_length() - 1]
                        b = tie + lowest_bit(up >> tie)
                    key = a * width + b
                    entry = records.get(key)
                    if entry is None:
                        entry = records[key] = (values[a] if down else -math.inf,
                                                values[b] if up else math.inf, bool(down), bool(up))
                    x = (v1, v2)
                    self._last = (x, entry)
                    yield x

        return points()

    def in_samples(self, x: Element) -> bool:
        return x in self._samples

    def sample_value(self, x: Element) -> float:
        return self._samples.value(x)


@dataclass(frozen=True)
class AnalyticFixture(ContourOracle):
    """Closed-form bounds for ground sets too large to enumerate.

    The fixture author supplies the bound functions over the augmented
    ground set, a derivation note, and refuting probe pairs ``(x, x_prime)``
    with ``x_prime`` strictly above ``x``.  The bound and occupancy
    functions get the query itself: an element of ``ambient``, ``TOP`` or
    ``BOTTOM``.  Probes are re-validated at construction time.  The bound functions return plain numbers, with
    ``-math.inf``/``math.inf`` for the infinities; a NaN bound raises
    ``ValueError`` when it is read.
    """

    name: str
    ambient: Preorder
    lower_sup_fn: Callable[[object], float]  # an element, TOP or BOTTOM
    upper_inf_fn: Callable[[object], float]
    probes: Tuple[Tuple[object, object], ...]
    derivation: str
    occupancy_fn: Optional[Callable[[object], Tuple[bool, bool]]] = None
    sample_membership_fn: Optional[Callable[[Element], bool]] = None
    sample_value_fn: Optional[Callable[[Element], float]] = None

    def __post_init__(self):
        from ordext.orders import BOTTOM, TOP

        for x, x_prime in self.probes:
            if compare_augmented(self.ambient, x_prime, x) is not Comparison.STRICTLY_GREATER:
                raise ValueError(
                    f"fixture {self.name!r}: probe ({x}, {x_prime}) is not a strict pair"
                )
        if self.lower_sup(BOTTOM) != -math.inf:
            raise ValueError(f"fixture {self.name!r}: lower_sup(Bottom) must be -inf")
        if self.upper_inf(TOP) != math.inf:
            raise ValueError(f"fixture {self.name!r}: upper_inf(Top) must be +inf")

    @property
    def rel(self) -> Preorder:
        return self.ambient

    def _bound(self, fn: Callable[[object], float], x) -> float:
        v = fn(x)
        if isinstance(v, float) and math.isnan(v):
            raise ValueError(f"fixture {self.name!r}: bound at {x!r} is NaN")
        return v

    def lower_sup(self, x) -> float:
        return self._bound(self.lower_sup_fn, x)

    def upper_inf(self, x) -> float:
        return self._bound(self.upper_inf_fn, x)

    def contour_occupancy(self, x) -> Tuple[bool, bool]:
        if self.occupancy_fn is None:
            raise UnsupportedQueryError(
                f"fixture {self.name!r} declares no contour occupancy"
            )
        return self.occupancy_fn(x)

    def in_samples(self, x: Element) -> bool:
        if self.sample_membership_fn is None:
            raise UnsupportedQueryError(
                f"fixture {self.name!r} declares no sample membership test"
            )
        return self.sample_membership_fn(x)

    def sample_value(self, x: Element) -> float:
        if not self.in_samples(x):
            raise KeyError(f"{x!r} is not a sample point of fixture {self.name!r}")
        if self.sample_value_fn is None:
            raise UnsupportedQueryError(
                f"fixture {self.name!r} declares no sample values"
            )
        return self.sample_value_fn(x)
