"""Sample-set contours and the two bound functions.

For a partial function on samples ``P``, every query point ``x`` has a
lower contour (samples weakly below ``x``) and an upper contour (samples
weakly above).  The bound functions return the supremum of the sample
values over the lower contour (``lower_sup``) and the infimum over the
upper contour (``upper_inf``), with ``sup empty = -inf`` and
``inf empty = +inf``.  A bound is the sample value itself (an ``int``,
``float`` or ``Fraction``) or ``-math.inf``/``math.inf``: Python orders
all of these correctly against each other, so no wrapper type is needed.
:func:`bound_text` prints a bound as ``-inf``, ``+inf`` or ``str(v)``.

Oracles hide how the bounds are produced: :class:`FiniteSampleOracle`
enumerates a finite sample set, while :class:`AnalyticFixture` carries
closed forms supplied by a fixture author, which is the only honest way
to represent infinite sample sets.

:class:`FiniteSampleOracle` scans its samples with a kernel chosen from
the exact type of its preorder.  The two bounds are the max and min
isotonic envelopes of the samples, so a scan is one pass that keeps a
running max and min of the values in sample order.

* On a :class:`ParetoSpace` the sample points are validated once per
  oracle, on its first interior scan, and each query once per scan; the
  loop then compares raw coordinate tuples.
* On a :class:`FinitePreorder` the query's down-set and up-set bitmasks
  (``geq_mask``/``leq_mask``, which validate it) are tested against each
  sample's bit; sample indices are validated once per oracle.
* The augmented extremes ``TOP``/``BOTTOM`` and every other preorder go
  through the generic loop (one :func:`compare_augmented` per sample),
  which is also the reference the kernels are tested against.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ordext.orders import (
    Augmented,
    Comparison,
    Element,
    FinitePreorder,
    ParetoSpace,
    Preorder,
    UnsupportedQueryError,
    compare_augmented,
    interior,
)

__all__ = [
    "AnalyticFixture",
    "ContourOracle",
    "FiniteSampleOracle",
    "PartialUtility",
    "as_augmented",
    "bound_text",
    "lower_contour",
    "upper_contour",
]


def as_augmented(x) -> Augmented:
    return x if isinstance(x, Augmented) else interior(x)


def bound_text(v: float) -> str:
    """A bound as the CLI and witnesses print it: ``+inf``, ``-inf`` or ``str(v)``."""
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return str(v)


class PartialUtility:
    """Finite sample set with one finite real value per sample.

    Values must be ``int`` (``bool`` included), ``float`` or ``Fraction``
    (``TypeError`` otherwise), and finite (``ValueError`` otherwise).
    """

    __slots__ = ("_points", "_values")

    def __init__(self, values: Mapping[Element, float]):
        for p, v in values.items():
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"sample {p!r} has non-finite value {v!r}")
            elif not isinstance(v, (int, Fraction)):
                raise TypeError(f"sample {p!r} has non-numeric value {v!r}")
        self._points = tuple(values)
        self._values = dict(values)

    @property
    def points(self) -> Tuple[Element, ...]:
        return self._points

    def value(self, p: Element) -> float:
        try:
            return self._values[p]
        except KeyError:
            raise KeyError(f"{p!r} is not a sample point") from None

    def __contains__(self, p: Element) -> bool:
        return p in self._values

    def __len__(self) -> int:
        return len(self._points)

    def items(self) -> Iterator[Tuple[Element, float]]:
        return iter(self._values.items())

    def restrict(self, points: Iterable[Element]) -> "PartialUtility":
        return PartialUtility({p: self._values[p] for p in points})

    def __repr__(self) -> str:
        return f"PartialUtility({self._values!r})"


def _dominates(rel: Preorder, hi: Augmented, lo: Augmented) -> bool:
    return compare_augmented(rel, hi, lo) in (
        Comparison.EQUIVALENT,
        Comparison.STRICTLY_GREATER,
    )


def lower_contour(rel: Preorder, points: Iterable[Element], x) -> list:
    """Sample points weakly below ``x`` (which may be augmented)."""
    x = as_augmented(x)
    return [p for p in points if _dominates(rel, x, interior(p))]


def upper_contour(rel: Preorder, points: Iterable[Element], x) -> list:
    """Sample points weakly above ``x`` (which may be augmented)."""
    x = as_augmented(x)
    return [p for p in points if _dominates(rel, interior(p), x)]


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

    @abstractmethod
    def sample_value(self, x: Element) -> float:
        """Value at a sample point; ``KeyError`` otherwise."""


def _bounds_entry(lo, hi) -> Tuple[float, float, bool, bool]:
    """Memo entry from a running max and min; ``None`` marks an empty contour."""
    return (
        -math.inf if lo is None else lo,
        math.inf if hi is None else hi,
        lo is not None,
        hi is not None,
    )


class FiniteSampleOracle(ContourOracle):
    """Bounds computed by enumerating a finite sample set.

    Queries are memoized per point; the cache never changes observable
    behaviour because the oracle is immutable.  Interior queries on a
    :class:`FinitePreorder` or :class:`ParetoSpace` use that space's
    kernel (see the module docstring); the running max and min use
    strict ``>`` and ``<`` in sample order, so of several equal values
    (``-0.0`` against ``0.0``, ``1`` against ``1.0``) the first is kept,
    as ``max`` and ``min`` keep it in the generic loop.
    """

    def __init__(self, rel: Preorder, samples: PartialUtility):
        self._rel = rel
        self._samples = samples
        self._cache: Dict[Augmented, Tuple[float, float, bool, bool]] = {}
        self._kernel = _KERNELS.get(type(rel))
        # (validated point or sample bit, value) in sample order, built on
        # the first kernel scan
        self._validated: Optional[list] = None

    @property
    def rel(self) -> Preorder:
        return self._rel

    @property
    def samples(self) -> PartialUtility:
        return self._samples

    def _scan(self, x) -> Tuple[float, float, bool, bool]:
        # cache keyed by the raw element: interior wrappers unwrap, the
        # two extremes key by their singletons
        if isinstance(x, Augmented) and x.is_interior:
            x = x.element
        entry = self._cache.get(x)
        if entry is None:
            if self._kernel is None or isinstance(x, Augmented):
                entry = self._scan_generic(x)
            else:
                entry = self._kernel(self, x)
            self._cache[x] = entry
        return entry

    def _scan_generic(self, x) -> Tuple[float, float, bool, bool]:
        """Reference scan: one augmented comparison per sample."""
        aug = as_augmented(x)
        below = []
        above = []
        for p, v in self._samples.items():
            cmp = compare_augmented(self._rel, aug, interior(p))
            if cmp is Comparison.EQUIVALENT:
                below.append(v)
                above.append(v)
            elif cmp is Comparison.STRICTLY_GREATER:
                below.append(v)
            elif cmp is Comparison.STRICTLY_LESS:
                above.append(v)
        return (
            max(below, default=-math.inf),
            min(above, default=math.inf),
            bool(below),
            bool(above),
        )

    def _scan_finite(self, x: int) -> Tuple[float, float, bool, bool]:
        down = self._rel.geq_mask(x)
        up = self._rel.leq_mask(x)
        if self._validated is None:
            check = self._rel._check
            self._validated = [(1 << check(p), v) for p, v in self._samples.items()]
        lo = hi = None
        for bit, v in self._validated:
            if down & bit and (lo is None or v > lo):
                lo = v
            if up & bit and (hi is None or v < hi):
                hi = v
        return _bounds_entry(lo, hi)

    def _scan_pareto(self, x: Tuple) -> Tuple[float, float, bool, bool]:
        check = self._rel._check
        x = check(x)
        if self._validated is None:
            self._validated = [(check(p), v) for p, v in self._samples.items()]
        # p is weakly below x iff no coordinate has x_i < p_i, and weakly
        # above iff none has x_i > p_i: the tests ParetoSpace.compare makes
        lo = hi = None
        for p, v in self._validated:
            below = above = True
            for xi, pi in zip(x, p):
                if xi < pi:
                    below = False
                elif xi > pi:
                    above = False
            if below and (lo is None or v > lo):
                lo = v
            if above and (hi is None or v < hi):
                hi = v
        return _bounds_entry(lo, hi)

    def lower_sup(self, x) -> float:
        return self._scan(x)[0]

    def upper_inf(self, x) -> float:
        return self._scan(x)[1]

    def contour_occupancy(self, x) -> Tuple[bool, bool]:
        entry = self._scan(x)
        return entry[2], entry[3]

    def in_samples(self, x: Element) -> bool:
        return x in self._samples

    def sample_value(self, x: Element) -> float:
        return self._samples.value(x)


# interior-query kernels by exact preorder type; subclasses may redefine
# the order, so they take the generic loop
_KERNELS = {
    FinitePreorder: FiniteSampleOracle._scan_finite,
    ParetoSpace: FiniteSampleOracle._scan_pareto,
}


@dataclass(frozen=True)
class AnalyticFixture(ContourOracle):
    """Closed-form bounds for ground sets too large to enumerate.

    The fixture author supplies the bound functions over augmented
    inputs, a derivation note, and refuting probe pairs ``(x, x_prime)``
    with ``x_prime`` strictly above ``x``.  Probes are re-validated at
    construction time.  The bound functions return plain numbers, with
    ``-math.inf``/``math.inf`` for the infinities; a NaN bound raises
    ``ValueError`` when it is read.
    """

    name: str
    ambient: Preorder
    lower_sup_fn: Callable[[Augmented], float]
    upper_inf_fn: Callable[[Augmented], float]
    probes: Tuple[Tuple[Augmented, Augmented], ...]
    derivation: str
    occupancy_fn: Optional[Callable[[Augmented], Tuple[bool, bool]]] = None
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

    def _bound(self, fn: Callable[[Augmented], float], x) -> float:
        v = fn(as_augmented(x))
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
        return self.occupancy_fn(as_augmented(x))

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
