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
envelopes, from one index per sample set picked by the exact type of the
preorder: on a :class:`FinitePreorder`, a table of both bounds per
component of its condensation, from the passes of
:class:`ComponentBounds` (which the finite sample checks read too); on a
:class:`ParetoSpace`, per-coordinate prefix bitmasks.  The augmented
extremes ``TOP``/``BOTTOM`` and every other preorder go through the
reference scan, the max and min of the values over :func:`lower_contour`
and :func:`upper_contour`, which ask the preorder's ``compare`` (on a
Pareto space, two ``geq`` calls) once per sample and contour; the index
tests compare against it.  A whole 2-D grid needs no index:
:meth:`FiniteSampleOracle.lattice` sweeps it once, by 2-D prefix and
suffix minima over the sample ranks, in O(|P| log R + R²) for R points per
axis with one R×R integer table, and leaves each point's record in the
memo as it yields the point.  The Pareto index and the sweep take their
sample ranks, and with them the tie rule of ``b``, from one helper.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ordext.orders import (
    Augmented,
    Comparison,
    Element,
    FinitePreorder,
    ParetoSpace,
    Preorder,
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
        self._bounds: Optional["ComponentBounds"] = None  # see ComponentBounds.of
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
    def of(cls, rel: FinitePreorder, samples: PartialUtility) -> "ComponentBounds":
        """The bounds of ``samples`` in ``rel``, reused while ``rel`` is the last asked."""
        bounds = samples._bounds
        if bounds is None or bounds.rel is not rel:
            bounds = samples._bounds = cls(rel, samples)
        return bounds


def _finite_index(rel: FinitePreorder, samples: PartialUtility) -> Callable:
    """Both bounds of every element: one record per component, from
    :class:`ComponentBounds`.  An infinite bound marks an empty contour."""
    bounds = ComponentBounds.of(rel, samples)
    lows, highs, empty = bounds.lows, bounds.highs, len(bounds.values)
    table = [(lows[a], highs[b], a < empty, b < empty) for a, b in zip(bounds.a, bounds.b)]
    comp = rel.component_index
    return lambda x: table[comp[rel._check(x)]]


def _ranked(rel: ParetoSpace, samples: PartialUtility) -> Tuple[list, list, list]:
    """Validated points and their values by falling value, ties in sample order,
    and ``first[r]``, the first rank of the run of ``==`` values holding rank r."""
    ranked = sorted(samples.items(), key=itemgetter(1), reverse=True)
    values = [v for _, v in ranked]
    first = []
    for r, v in enumerate(values):
        first.append(first[-1] if r and v == values[r - 1] else r)
    return rel._check_points([p for p, _ in ranked]), values, first


def _pareto_index(rel: ParetoSpace, samples: PartialUtility) -> Callable:
    """Per-coordinate prefix masks; bit r is the sample of rank r (:func:`_ranked`).

    ``prefix[i]`` holds the samples with the i smallest keys: a query ANDs
    the prefixes at ``bisect_right`` (lower contour) and their complements
    at ``bisect_left`` (upper contour).  ``a`` is at the lowest bit of the
    lower contour, ``b`` at the lowest bit of the upper one in the tie group
    of its highest bit.
    """
    points, values, first = _ranked(rel, samples)
    axes = []
    for d in range(rel.k):
        order = sorted(range(len(points)), key=lambda r: points[r][d])
        prefix = [0]
        for r in order:
            prefix.append(prefix[-1] | 1 << r)
        axes.append(([points[r][d] for r in order], prefix))
    full = (1 << len(points)) - 1

    def query(x) -> Tuple[float, float, bool, bool]:
        down = up = full
        for xi, (keys, prefix) in zip(rel._check(x), axes):
            down &= prefix[bisect_right(keys, xi)]
            up &= ~prefix[bisect_left(keys, xi)]
        a = values[lowest_bit(down)] if down else -math.inf
        if not up:
            return a, math.inf, bool(down), False
        tie = first[up.bit_length() - 1]
        return a, values[tie + lowest_bit(up >> tie)], bool(down), True

    return query


# by exact preorder type: subclasses may redefine the order
_MAKE_INDEX = {FinitePreorder: _finite_index, ParetoSpace: _pareto_index}


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
            self._index = self._index or self._make_index(self._rel, self._samples)
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

        One sweep answers the whole grid.  A sample is weakly below grid
        point ``(i, j)`` iff its lower cell, ``(bisect_left(xs, p1),
        bisect_left(ys, p2))``, is at most ``(i, j)`` in both indexes, and
        weakly above iff its upper cell, ``(bisect_right(xs, p1) - 1,
        bisect_right(ys, p2) - 1)``, is at least ``(i, j)``.  With the
        samples ranked by :func:`_ranked`, as :func:`_pareto_index` ranks
        them, ``a`` is at the 2-D prefix minimum of rank over the lower
        cells, and ``b`` at the 2-D suffix minimum over the upper cells of
        the key ``(n - 1 - first[rank]) * n + rank``: the lowest rank in the
        tie group of the upper contour's highest rank, the sample
        :func:`_pareto_index` reports.  Cost O(|P| log R + R²) for R points
        per axis.  Memory: one R×R integer table, the ``b`` keys; the rows
        of ``a`` are computed on the fly, and points that share both minima
        share one record tuple.
        """
        rel = self._rel
        if type(rel) is not ParetoSpace or rel.k != 2:
            raise UnsupportedQueryError("a lattice sweep needs a 2-D Pareto space")
        for axis in (xs, ys):
            for v in axis:
                rel._check((v, v))
            if any(lo > hi for lo, hi in zip(axis, axis[1:])):
                raise ValueError("lattice axes must be sorted non-decreasing")
        points, values, first = _ranked(rel, self._samples)
        n = len(values)
        no_a = n                  # no sample below
        no_b = n * n              # no sample above; above every b key
        width, cols = no_b + 1, len(ys)
        lower = [[] for _ in xs]  # per row: (column, rank)
        upper = [[] for _ in xs]  # per row: (column, b key)
        for r, (p1, p2) in enumerate(points):
            i, j = bisect_left(xs, p1), bisect_left(ys, p2)
            if i < len(xs) and j < cols:
                lower[i].append((j, r))
            i, j = bisect_right(xs, p1) - 1, bisect_right(ys, p2) - 1
            if i >= 0 and j >= 0:
                upper[i].append((j, (n - 1 - first[r]) * n + r))

        def cell_row(hits, empty):
            row = [empty] * cols
            for j, key in hits:
                row[j] = min(row[j], key)
            return row

        # b keys, swept up from the last row: suffix minima along each row,
        # then along the columns; rows that hold no upper cell share the
        # row below them
        b_rows = [None] * len(xs)
        b_row = array("q", [no_b]) * cols
        for i in reversed(range(len(xs))):
            if upper[i]:
                run = list(accumulate(reversed(cell_row(upper[i], no_b)), min))
                b_row = array("q", map(min, b_row, reversed(run)))
            b_rows[i] = b_row

        def points() -> Iterator[Tuple[float, float]]:
            records = {}
            a_row = [no_a] * cols
            for i, v1 in enumerate(xs):
                if lower[i]:
                    a_row = list(map(min, a_row, accumulate(cell_row(lower[i], no_a), min)))
                for v2, ka, kb in zip(ys, a_row, b_rows[i]):
                    key = ka * width + kb
                    entry = records.get(key)
                    if entry is None:
                        entry = records[key] = (
                            values[ka] if ka < no_a else -math.inf,
                            values[kb % n] if kb < no_b else math.inf,
                            ka < no_a,
                            kb < no_b,
                        )
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
