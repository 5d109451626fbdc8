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

Oracles hide how the bounds are produced.  Each reads one record per
point, both bounds and whether each contour holds a sample, and
:class:`ContourOracle` derives the three single reads from it.
:class:`AnalyticFixture` carries one closed-form record function supplied
by a fixture author, which is the only honest way to represent infinite
sample sets.  :class:`FiniteSampleOracle`
reads the bounds of a finite sample set, its max and min isotonic
envelopes, from the one structure per sample set that :func:`bounds_of`
picks by the exact type of the preorder and keeps, which the sample
checks read and keep their verdicts on too: on a :class:`FinitePreorder`,
both bounds per component of its condensation (:class:`ComponentBounds`);
elsewhere the samples ranked by value, whose bounds at a point follow
from its two masks by one tie rule (:class:`SampleRanks`), with
per-coordinate prefix bitmasks on a :class:`ParetoSpace`
(:class:`ParetoBounds`); on any other preorder each sample's two masks
take one ``geq`` per ordered pair (:func:`_pairwise_masks`) and are kept
with the ranks.  ``TOP`` and ``BOTTOM`` need no structure: every sample
lies strictly below ``TOP`` and strictly above ``BOTTOM``, so a(Top) is
the largest sample value and b(Bottom) the smallest.
:meth:`FiniteSampleOracle.lattice` reads a whole 2-D grid from the same
Pareto structure, one prefix read per row and per column, and yields it
row by row with each point's record and sample membership.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat, starmap
from operator import and_
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ordext.orders import (
    BOTTOM,
    TOP,
    Element,
    FinitePreorder,
    ParetoSpace,
    Preorder,
    PrefixChains,
    UnsupportedQueryError,
    all_finite_floats,
    is_finite_real,
    safe_repr,
    strictly_above,
)

__all__ = [
    "AnalyticFixture",
    "ContourOracle",
    "FiniteSampleOracle",
    "PartialUtility",
    "bound_text",
]


# a point's (lower_sup, upper_inf, lower contour non-empty, upper contour
# non-empty), and one row of a lattice sweep: its points, their records and
# whether each is a sample point
Record = Tuple[float, float, bool, bool]
Row = Tuple[List[Tuple[float, float]], List[Record], List[bool]]


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

    __slots__ = ("_points", "_values", "_bounds")

    def __init__(self, values: Mapping[Element, float]):
        if not all_finite_floats(values.values()):
            _check_values(values)
        self._points = tuple(values)
        self._values = dict(values)
        self._bounds = None  # see bounds_of

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


class ContourOracle(ABC):
    """Supplier of the bounds over the augmented ground set.

    An oracle reads one :meth:`record` per point, and the base derives
    ``lower_sup``, ``upper_inf`` and ``contour_occupancy`` from it; an
    oracle may answer one of them otherwise, as :class:`FiniteSampleOracle`
    does from its last record.  Implementations must satisfy
    ``lower_sup(BOTTOM) = -inf`` and ``upper_inf(TOP) = +inf`` (the
    contours of the artificial extremes on their far side are empty by
    construction).
    """

    @property
    @abstractmethod
    def rel(self) -> Preorder:
        """The ambient preorder the contours are taken in."""

    @abstractmethod
    def record(self, x) -> Record:
        """``(lower_sup, upper_inf, *contour_occupancy)`` at ``x``, read once."""

    def lower_sup(self, x) -> float:
        """Supremum of sample values weakly below ``x``; ``-math.inf`` when none."""
        return self.record(x)[0]

    def upper_inf(self, x) -> float:
        """Infimum of sample values weakly above ``x``; ``math.inf`` when none."""
        return self.record(x)[1]

    def contour_occupancy(self, x) -> Tuple[bool, bool]:
        """(lower contour non-empty, upper contour non-empty) at ``x``.

        Infinite bounds do not determine this: an infinite sample set can
        fill a contour while its value bound still diverges.
        """
        return self.record(x)[2:]

    @abstractmethod
    def in_samples(self, x: Element) -> bool:
        """True iff ``x`` is one of the sample points."""

    @abstractmethod
    def sample_value(self, x: Element) -> float:
        """Value at a sample point; ``KeyError`` otherwise."""

    def lattice(self, xs: Sequence[float], ys: Sequence[float]) -> Iterator[Row]:
        """The rows of the grid ``xs × ys`` with their records; only
        :meth:`FiniteSampleOracle.lattice` sweeps one."""
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
    """

    __slots__ = ("rel", "elems", "values", "lows", "highs", "top", "bottom",
                 "a", "a_strict", "b", "b_strict", "verdicts")

    def __init__(self, rel: FinitePreorder, samples: PartialUtility):
        self.rel = rel
        self.verdicts = None
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

    def record(self, x) -> Record:
        """Both bounds of the element ``x``; an infinite one marks an empty contour."""
        c = self.rel.component_index[self.rel._check(x)]
        a, b, empty = self.a[c], self.b[c], len(self.values)
        return self.lows[a], self.highs[b], a < empty, b < empty


def _pairwise_masks(rel: Preorder, points: Sequence[Element],
                    bits: Sequence[int]) -> List[Tuple[int, int]]:
    """Per point, the bits of the points weakly below and weakly above it,
    point j having bit ``bits[j]``, by one ``geq`` per ordered pair.  Not a
    method, so no preorder with a faster structure inherits it."""
    n = len(points)
    down = [0] * n
    up = [0] * n
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if rel.geq(q, p):
                up[i] |= 1 << bits[j]
                down[j] |= 1 << bits[i]
    return list(zip(down, up))


class SampleRanks:
    """The samples by falling value, ties (by ``==``) in sample order: rank
    r has value ``lows[r]`` and ``highs[r]``, rank n (none) ``-inf`` and
    ``+inf``, position i rank ``rank[i]``; the ranks below ``end[r]`` hold
    the values ``>=`` rank r's, and those from ``first[r]`` on those ``<=``
    it.  Here the masks and contours ask ``geq``; the masks are kept."""

    __slots__ = ("rel", "points", "lows", "highs", "rank", "first", "end", "verdicts", "_masks")

    def __init__(self, rel: Preorder, samples: PartialUtility):
        self.rel, self.points = rel, samples.points
        self.verdicts = self._masks = None
        values = [v for _, v in samples.items()]
        n = len(values)
        pos = sorted(range(n), key=values.__getitem__, reverse=True)
        ranked = list(map(values.__getitem__, pos))
        self.lows, self.highs = [*ranked, -math.inf], [*ranked, math.inf]
        self.rank = sorted(range(n), key=pos.__getitem__)
        self.first, self.end = first, end = list(range(n)), list(range(1, n + 1))
        for r in range(1, n):
            if ranked[r] == ranked[r - 1]:
                first[r] = first[r - 1]
        for r in reversed(range(n - 1)):
            if ranked[r] == ranked[r + 1]:
                end[r] = end[r + 1]

    def masks(self) -> Iterator[Tuple[int, int]]:
        """Each sample's rank bits weakly below and above it, in sample order."""
        if self._masks is None:
            self._masks = _pairwise_masks(self.rel, self.points, self.rank)
        return iter(self._masks)

    def contours(self, x) -> Tuple[int, int]:
        """The rank bits of the samples weakly below and weakly above ``x``."""
        geq, ranked = self.rel.geq, list(zip(self.points, self.rank))
        return (sum(1 << r for p, r in ranked if geq(x, p)),
                sum(1 << r for p, r in ranked if geq(p, x)))

    def ranks(self, down: int, up: int) -> Tuple[int, int]:
        """The ranks of a and b from a point's two masks: a the lowest below, b
        the lowest above in the tie run of the highest, so of equal values the
        first in sample order; n for an empty contour.  Runs once per grid
        point, so the lowest set bit of a mask m is taken inline, as
        ``(m & -m).bit_length() - 1``."""
        n = len(self.rank)
        a = (down & -down).bit_length() - 1 if down else n
        if not up:
            return a, n
        tie = self.first[up.bit_length() - 1]
        up >>= tie
        return a, tie + (up & -up).bit_length() - 1

    def record(self, x) -> Record:
        """``(a, b, lower contour non-empty, upper contour non-empty)`` at ``x``."""
        down, up = self.contours(x)
        a, b = self.ranks(down, up)
        return self.lows[a], self.highs[b], bool(down), bool(up)


class ParetoBounds(SampleRanks):
    """The ranked samples of a :class:`ParetoSpace` and their :class:`PrefixChains`
    over rank bits, which give the masks and contours with no ``geq``."""

    __slots__ = ("chains",)

    def __init__(self, rel: ParetoSpace, samples: PartialUtility):
        points = rel._check_points(samples.points)  # before any sort
        super().__init__(rel, samples)
        self.chains = PrefixChains(points, self.rank)

    def masks(self) -> Iterator[Tuple[int, int]]:
        return self.chains.of_points()

    def contours(self, x) -> Tuple[int, int]:
        return self.chains.contours(self.rel._check(x))


def bounds_of(rel: Preorder, samples: PartialUtility):
    """The structure the checks and the index of ``samples`` in ``rel`` read,
    and the checks keep their ``verdicts`` on, kept on the sample set while
    ``rel`` is the last relation asked.  By the exact type of ``rel``, since
    a subclass may redefine the order."""
    bounds = samples._bounds
    if bounds is None or bounds.rel is not rel:
        kind = type(rel)
        make = (ComponentBounds if kind is FinitePreorder
                else ParetoBounds if kind is ParetoSpace else SampleRanks)
        bounds = samples._bounds = make(rel, samples)
    return bounds


class FiniteSampleOracle(ContourOracle):
    """Bounds computed from a finite sample set.

    An element query reads the structure :func:`bounds_of` keeps on the
    sample set; ``TOP`` and ``BOTTOM`` read none, as their records are the
    max and the min of the values.  :meth:`record` always reads, and keeps
    the query and its record, ``_last``: a record read primes the two bound
    reads.  :meth:`lower_sup` and :meth:`upper_inf` answer from ``_last``
    only a query that is the same object, as the engine's reads of a point
    after its record are, so ``_last`` never skips a validation; an equal
    but distinct query reads the structure again.  A grid's records come
    from :meth:`lattice`, and whoever evaluates its points sets ``_last`` to
    each point and its record before reading the point's bounds.  Of equal
    values (``-0.0`` and ``0.0``, ``1`` and ``1.0``) every path keeps the
    first in sample order, as ``max`` and ``min`` do.
    """

    def __init__(self, rel: Preorder, samples: PartialUtility):
        self._rel = rel
        self._samples = samples
        self._last: Optional[tuple] = None  # (query, record) of the last read

    @property
    def rel(self) -> Preorder:
        return self._rel

    @property
    def samples(self) -> PartialUtility:
        return self._samples

    def record(self, x) -> Record:
        """``(a, b, lower contour non-empty, upper contour non-empty)`` at ``x``,
        read afresh and kept for the bound reads of ``x`` that follow."""
        if x is TOP:
            values = self._samples._values.values()
            entry = (max(values, default=-math.inf), math.inf, bool(values), False)
        elif x is BOTTOM:
            values = self._samples._values.values()
            entry = (-math.inf, min(values, default=math.inf), False, bool(values))
        else:
            entry = bounds_of(self._rel, self._samples).record(x)
        self._last = (x, entry)
        return entry

    # a record read primes these two: the bounds of the same query object
    # are answered here, with no call of record
    def lower_sup(self, x) -> float:
        last = self._last
        if last is not None and last[0] is x:
            return last[1][0]
        return self.record(x)[0]

    def upper_inf(self, x) -> float:
        last = self._last
        if last is not None and last[0] is x:
            return last[1][1]
        return self.record(x)[1]

    def contour_occupancy(self, x) -> Tuple[bool, bool]:
        return self.record(x)[2:]

    def lattice(self, xs: Sequence[float], ys: Sequence[float]) -> Iterator[Row]:
        """The grid ``xs × ys`` row by row: for each ``v1`` of ``xs``, the
        points ``(v1, v2)`` for ``v2`` in ``ys``, their records and whether
        each is a sample point.

        ``_last`` is left alone: a caller that reads a point's bounds
        primes it with the point and its record first, as
        :meth:`~ordext.extension.ExtensionEngine.evaluate_grid` does.  Only
        a 2-D :class:`ParetoSpace` is swept (:class:`UnsupportedQueryError`
        otherwise), on axes in any order.  Each axis value is validated
        once, which validates every grid point; all of this happens before
        the first row.

        A sample is weakly below or above a grid point iff it is on both
        coordinates, so a row's two masks are read once, from the first
        coordinate's :class:`ParetoBounds` chain alone, a column's from the
        second's, and a point's two masks are one AND of its row's and its
        column's.  Columns with the same two masks therefore share both
        masks in every row, so a row ranks one column of each such class,
        by :meth:`SampleRanks.ranks` as for any query, and points that share
        both ranks share one record tuple; a point is a sample iff a sample
        is both below and above it, since the order is antisymmetric.  A
        row whose masks are those of the row before it is handed the very
        list objects of records and memberships of that row, so none of its
        points is read again and a caller may derive what follows from them
        once per distinct row.  Cost O(R log |P|) reads for R points per
        axis, then three ANDs of |P|-bit integers per column class of each
        new row, in O(R) memory besides the chains and the records.
        """
        rel = self._rel
        if type(rel) is not ParetoSpace or rel.k != 2:
            raise UnsupportedQueryError("a lattice sweep needs a 2-D Pareto space")
        for v in (*xs, *ys):
            rel._check((v, v))
        bounds = bounds_of(rel, self._samples)
        lows, highs, ranks = bounds.lows, bounds.highs, bounds.ranks
        n = len(bounds.rank)
        # a row's masks are the samples whose first coordinate is at most and
        # at least v1, one read of the first coordinate's chain each, for
        # every sample lies between -inf and +inf on the second; a column's
        # come likewise from the second coordinate's chain alone
        along = bounds.chains.along
        rows = [along(0, v) for v in xs]
        # columns with the same two masks give their points the same masks
        # in every row, so each new row ranks one column of each such class
        classes = {}
        col_class = [classes.setdefault(along(1, v), len(classes)) for v in ys]
        class_downs = [down for down, _ in classes]
        class_ups = [up for _, up in classes]

        @cache  # the whole sweep's records, one per rank pair
        def by_ranks(a: int, b: int) -> Record:
            return (lows[a], highs[b], a < n, b < n)

        def sweep() -> Iterator[Row]:
            last = None
            for v1, masks in zip(xs, rows):
                if masks != last:
                    row_down, row_up = last = masks
                    downs = list(map(row_down.__and__, class_downs))
                    ups = list(map(row_up.__and__, class_ups))
                    class_records = list(starmap(by_ranks, map(ranks, downs, ups)))
                    class_members = list(map(bool, map(and_, downs, ups)))
                    records = list(map(class_records.__getitem__, col_class))
                    members = list(map(class_members.__getitem__, col_class))
                yield list(zip(repeat(v1), ys)), records, members

        return sweep()

    def in_samples(self, x: Element) -> bool:
        return x in self._samples

    def sample_value(self, x: Element) -> float:
        return self._samples.value(x)


@dataclass(frozen=True)
class AnalyticFixture(ContourOracle):
    """Closed-form bounds for ground sets too large to enumerate.

    The fixture author supplies one record function over the augmented
    ground set, returning ``(a, b, lower occupied, upper occupied)`` as
    :meth:`ContourOracle.record` does, the sample membership test and the
    sample values, a derivation note, and refuting probe pairs
    ``(x, x_prime)`` with ``x_prime`` strictly above ``x``; every one is
    required.  Every query that is not ``TOP`` or ``BOTTOM`` is checked
    once, by ``ambient._check``, before a fixture function sees it, so the
    record function gets ``TOP``, ``BOTTOM`` or a checked element, and the
    membership and value functions a checked element; a foreign query
    raises ``ForeignElementError``.  Probes are re-validated at
    construction time.  The bounds are plain numbers, with
    ``-math.inf``/``math.inf`` for the infinities; a NaN bound raises
    ``ValueError`` when it is read.
    """

    name: str
    ambient: Preorder
    record_fn: Callable[[object], Record]  # an element, TOP or BOTTOM
    probes: Tuple[Tuple[object, object], ...]
    derivation: str
    sample_membership_fn: Callable[[Element], bool]
    sample_value_fn: Callable[[Element], float]

    def __post_init__(self):
        for x, x_prime in self.probes:
            if not strictly_above(self.ambient, x_prime, x):
                raise ValueError(f"fixture {self.name!r}: probe ({safe_repr(x)}, "
                                 f"{safe_repr(x_prime)}) is not a strict pair")
        if self.lower_sup(BOTTOM) != -math.inf:
            raise ValueError(f"fixture {self.name!r}: lower_sup(Bottom) must be -inf")
        if self.upper_inf(TOP) != math.inf:
            raise ValueError(f"fixture {self.name!r}: upper_inf(Top) must be +inf")

    @property
    def rel(self) -> Preorder:
        return self.ambient

    def record(self, x) -> Record:
        entry = self.record_fn(x if x is TOP or x is BOTTOM else self.ambient._check(x))
        for v in entry[:2]:
            if isinstance(v, float) and math.isnan(v):
                raise ValueError(f"fixture {self.name!r}: bound at {safe_repr(x)} is NaN")
        return entry

    def in_samples(self, x: Element) -> bool:
        return self.sample_membership_fn(self.ambient._check(x))

    def sample_value(self, x: Element) -> float:
        if not self.in_samples(x):
            raise KeyError(f"{safe_repr(x)} is not a sample point of fixture {self.name!r}")
        return self.sample_value_fn(x)
