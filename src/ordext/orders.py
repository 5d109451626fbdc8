"""Ground sets and preorders.

Two concrete ground-set flavours are supported:

* :class:`FinitePreorder` holds a relation on indices ``0..n-1`` as the
  condensation of its pairs; ``geq(i, j)`` means ``i`` is at least as good
  as ``j``.
* :class:`ParetoSpace` compares k-vectors of finite reals coordinatewise.

A finite relation is condensed, never closed, when it is built.  One
Tarjan walk over its pairs (:func:`_tarjan`) gives the strongly connected
components in the order they close, a reverse topological order, and
:func:`_condense` checks them in O(n + m): every element in exactly one
component, every pair into its own component or an earlier one, every
component strongly connected.  A failed check raises
:class:`CertificateError`, a fault in this module.  Every bound, level
and verdict the CLI prints is then a pass over the components in that
order or its reverse (:meth:`FinitePreorder.down_min`, ``up_min``,
``down_set``, ``up_set``), and so is ``geq``: a walk down from one
component that never enters a component closed before the other's.
``FinitePreorder(n, pairs)`` condenses a list of pairs, and ``closure``,
``chain`` and ``antichain`` call it.  No matrix is kept: a relation holds
O(n + m) and compares by identity, the rule by which
``contours.bounds_of`` keys the structure it keeps.

Both expose the same query surface through :class:`Preorder`: ``geq``,
and the strict part ``strictly_greater`` and the equivalence
``equivalent`` derived from it.  The augmented ground set adds two
artificial extremes, one strictly above and one strictly below
everything: the sentinels ``TOP`` and ``BOTTOM``, the only instances of
:class:`Augmented`.  Its other points are the elements themselves, and
:func:`strictly_above` is its one strict test.

Pairwise questions about a list of Pareto points (which point dominates
which) are answered word-parallel: :class:`PrefixChains` sorts and chains
each coordinate once and ANDs the k prefix reads of each point, after the
points are checked in bulk (``_check_points``, below), so the bitmasks of
the points weakly below and weakly above each point cost O(k n log n)
comparisons plus O(k n) operations on n-bit integers in all.  No preorder
has a method for such masks, so none inherits a slow one: on any other
preorder, the one ``geq`` per ordered pair is ``contours._pairwise_masks``,
and the finite checks read the condensation instead.

A list of points or values, from a file or a caller, is checked in bulk
where it can be: :func:`all_finite_floats` and :func:`all_float_vectors`
accept a list only when every entry is an exact, finite ``float`` (or a
fixed-length container of them), by a few C-level passes (``map``,
``set``, ``all``, ``math.isfinite``) instead of one Python call per
coordinate.  Any other list (an ``int``, ``bool``, ``Fraction``, NaN, an
infinity, a wrong length) goes through the per-entry check, which names
the first bad entry.  The parser, :class:`~ordext.contours.PartialUtility`
and ``contours.ParetoBounds`` each check the lists they are handed this way.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from functools import partial, reduce
from itertools import chain
from numbers import Rational, Real
from operator import and_, or_
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

Element = Any  # int for finite ground sets, tuple of floats for Pareto spaces

__all__ = [
    "Augmented",
    "BOTTOM",
    "CertificateError",
    "Element",
    "FinitePreorder",
    "ForeignElementError",
    "ParetoSpace",
    "Preorder",
    "PrefixChains",
    "TOP",
    "UnsupportedQueryError",
    "all_finite_floats",
    "all_float_vectors",
    "is_finite_real",
    "safe_repr",
    "strictly_above",
]


class ForeignElementError(ValueError):
    """An element does not belong to the queried ground set."""


class UnsupportedQueryError(RuntimeError):
    """The query needs an enumerable ground set and got an infinite one."""


class CertificateError(RuntimeError):
    """The relation build failed its own certificate: a fault in ordext, not in the input."""


def is_finite_real(value) -> bool:
    """``math.isfinite``, but False for a number too large for any float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def all_finite_floats(values: Iterable) -> bool:
    """True iff every value is an exact ``float`` and finite (True for none).

    Two C-level passes over ``values``, which must be re-iterable: a list,
    tuple or dict view.  False says only that the fast check declined.
    """
    return set(map(type, values)) <= {float} and all(map(math.isfinite, values))


def all_float_vectors(rows: Sequence, kind: type, k: int) -> bool:
    """True iff every row is exactly a ``kind`` (``list`` or ``tuple``) of
    length ``k`` whose entries pass :func:`all_finite_floats` (True for no rows).

    The flattened entries are a list local to the call.
    """
    return (
        set(map(type, rows)) <= {kind}
        and set(map(len, rows)) <= {k}
        and all_finite_floats(list(chain.from_iterable(rows)))
    )


def safe_repr(value) -> str:
    """``repr(value)``, safe for error messages about huge numbers.

    An ``int`` or ``Fraction`` with more digits than ``repr`` will write
    (``sys.get_int_max_str_digits``) shows as its type and bit length,
    inside a tuple too, where ``repr`` itself would raise ``ValueError``.
    """
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            parts = [safe_repr(v) for v in value]
            return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
        if not isinstance(value, Rational):
            raise
        num, den = value.numerator, value.denominator
        size = f"{abs(num).bit_length()} bits"
        if den != 1:
            size += f" over {den.bit_length()} bits"
        sign = "negative " if num < 0 else ""
        return f"<{sign}{type(value).__name__} of {size}>"


class Preorder(ABC):
    """A reflexive, transitive relation ``geq`` on some ground set."""

    @abstractmethod
    def geq(self, x: Element, y: Element) -> bool:
        """True iff ``x`` is at least as good as ``y``."""

    def strictly_greater(self, x: Element, y: Element) -> bool:
        return self.geq(x, y) and not self.geq(y, x)

    def equivalent(self, x: Element, y: Element) -> bool:
        return self.geq(x, y) and self.geq(y, x)

    def _check(self, x: Element) -> Element:
        """``x`` if it is an element; an order that knows its ground set
        raises ``ForeignElementError`` for anything else."""
        return x

    def iter_elements(self) -> Iterator[Element]:
        """Enumerate the ground set; only finite ground sets support this."""
        raise UnsupportedQueryError(
            f"{type(self).__name__} has no enumerable ground set"
        )


def _prefix_chain(keys: Sequence, bits: Sequence[int]) -> Tuple[list, List[int], List[int]]:
    """One coordinate of the points j, of key ``keys[j]`` and bit ``bits[j]``:
    the distinct keys sorted (``-0.0`` and ``0.0`` are one key, as are ``1``
    and ``1.0``), the chain whose t-th mask ORs the bits of the points whose
    key is among the t smallest, and each point's run, the index of its key."""
    distinct, prefix, run = [], [], [0] * len(keys)
    mask, t, last = 0, -1, None
    for j in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[j]
        if t < 0 or key != last:
            distinct.append(key)
            prefix.append(mask)
            t, last = t + 1, key
        mask |= 1 << bits[j]
        run[j] = t
    prefix.append(mask)
    return distinct, prefix, run


class PrefixChains:
    """The :func:`_prefix_chain` of each coordinate of checked Pareto points
    (none for no points): the points weakly below x are the AND of the
    prefixes up to x's keys, and those weakly above the AND of the
    complements of the prefixes before them."""

    __slots__ = ("axes", "full")

    def __init__(self, points: Sequence[Tuple[float, ...]], bits: Sequence[int]):
        self.axes = [_prefix_chain(keys, bits) for keys in zip(*points)]
        self.full = (1 << len(points)) - 1

    def contours(self, x: Tuple[float, ...]) -> Tuple[int, int]:
        """The bits weakly below and weakly above the checked point ``x``."""
        down = up = self.full
        for xi, (keys, prefix, _) in zip(x, self.axes):
            down &= prefix[bisect_right(keys, xi)]
            up &= ~prefix[bisect_left(keys, xi)]
        return down, up

    def along(self, i: int, v: float) -> Tuple[int, int]:
        """The bits of the points whose ``i``-th key is at most ``v``, and of
        those whose ``i``-th key is at least ``v``: :meth:`contours` of a
        point at ``v`` on coordinate ``i`` and unbounded on the others, read
        from that coordinate's chain alone (both 0 for no points)."""
        if not self.axes:
            return 0, 0
        keys, prefix, _ = self.axes[i]
        return prefix[bisect_right(keys, v)], self.full ^ prefix[bisect_left(keys, v)]

    def of_points(self) -> Iterator[Tuple[int, int]]:
        """:meth:`contours` of each chained point in turn, from its runs."""
        if not self.axes:
            return iter(())
        downs = [map(prefix[1:].__getitem__, run) for _, prefix, run in self.axes]
        ups = [map(prefix.__getitem__, run) for _, prefix, run in self.axes]
        return zip(reduce(partial(map, and_), downs),
                   map(self.full.__xor__, reduce(partial(map, or_), ups)))


def _is_index(x: Element, n: int) -> bool:
    """True iff ``x`` is an element index below n."""
    # bool is an int subclass, yet True and False are no element indices
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _check_size(n) -> None:
    """Raise ``ValueError`` unless ``n`` is an exact ``int`` (not ``bool``), at least 0."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {safe_repr(n)}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def _tarjan(succ: Sequence[Sequence[int]]) -> List[List[int]]:
    """The strongly connected components of the pairs ``succ``, in the order they close.

    One iterative Tarjan walk; it closes the components in reverse
    topological order, so every pair leads into its own component or
    into one closed earlier.  A closed element's index is set to n, above
    every lowlink, so it is never read as an ancestor again; an element
    with no pairs closes at once, without a frame of its own.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    components: List[List[int]] = []
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        if not succ[root]:
            index[root] = n
            components.append([root])
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, it = calls[-1]
            for w in it:
                iw = index[w]
                if iw < 0:
                    if not succ[w]:
                        index[w] = n
                        components.append([w])
                        continue
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                if iw < low[v]:
                    low[v] = iw
            else:
                calls.pop()
                lv = low[v]
                if calls and lv < low[calls[-1][0]]:
                    low[calls[-1][0]] = lv
                if lv == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for m in members:
                        index[m] = n
                    components.append(members)
    return components


def _strongly_connected(
    members: Sequence[int],
    c: int,
    comp: Sequence[int],
    succ: Sequence[Sequence[int]],
    pred: Sequence[Optional[Sequence[int]]],
    seen: List[int],
) -> bool:
    """True iff the pairs inside component ``c`` connect ``members`` both
    ways from the first: a walk along ``succ`` and one against it, along
    ``pred`` (read only at members), each kept to the component by
    ``comp``, reach every member.

    ``seen`` is shared by every walk of one :func:`_condense`; a walk marks
    the members it reaches with a stamp no other walk uses, so no walk
    builds a set.  O(size + pairs leaving the members).
    """
    first = members[0]
    for stamp, adj in ((2 * c, succ), (2 * c + 1, pred)):
        seen[first] = stamp
        todo = [first]
        left = len(members) - 1
        while todo:
            for w in adj[todo.pop()]:
                if comp[w] == c and seen[w] != stamp:
                    seen[w] = stamp
                    left -= 1
                    todo.append(w)
        if left:
            return False
    return True


def _condense(
    succ: Sequence[Sequence[int]], components: Sequence[Sequence[int]]
) -> Tuple[List[int], List[List[int]]]:
    """Each element's component, and per component the earlier ones its pairs reach.

    Raises :class:`CertificateError` unless ``components``, listed in the
    order a walk closed them, pass three checks, O(n + m) in all:

    1. every element is in exactly one component;
    2. every pair leads to its own component or to an earlier one;
    3. each component of more than one member is strongly connected.

    By 2 and 3 the components are the strongly connected components in
    reverse topological order.  The lists returned are the edges of the
    condensation DAG, one per pair between components (so a component
    may be listed more than once), each to an earlier component.
    """
    comp = [-1] * len(succ)
    for c, members in enumerate(components):
        for m in members:
            if comp[m] >= 0:
                raise CertificateError(f"element {m} is in components {comp[m]} and {c}")
            comp[m] = c
    if -1 in comp:
        raise CertificateError(f"element {comp.index(-1)} is in no component")
    # per member of a component of more than one member, the members with
    # a pair into it: the pairs inside the component, reversed
    pred: List[Optional[List[int]]] = [None] * len(succ)
    seen = [-1] * len(succ)
    below = []
    for c, members in enumerate(components):
        down = []
        several = len(members) > 1
        if several:
            for m in members:
                pred[m] = []
        for m in members:
            for w in succ[m]:
                d = comp[w]
                if d == c:
                    if several:
                        pred[w].append(m)
                elif d < c:
                    down.append(d)
                else:
                    raise CertificateError(f"pair ({m}, {w}) leads into a later component")
        if several and not _strongly_connected(members, c, comp, succ, pred, seen):
            raise CertificateError(f"component {c} is not strongly connected")
        below.append(down)
    return comp, below


class FinitePreorder(Preorder):
    """A preorder on ``{0, .., n-1}``, held as the condensation of its pairs.

    The condensation is the strongly connected components of one Tarjan
    walk over the pairs (checked by :func:`_condense`), each element's
    component, and the condensation DAG's edges; the pairs themselves are
    not kept.  ``geq`` and the passes :meth:`down_min`, :meth:`up_min`,
    :meth:`down_set` and :meth:`up_set` answer from it in O(n + m) time
    and O(n) memory.  Two relations are equal only if they are the same
    object.
    """

    __slots__ = ("_n", "_components", "_comp", "_below")

    def __init__(self, n: int, pairs: Iterable[Tuple[int, int]]):
        """The smallest reflexive-transitive relation on ``n`` elements that
        contains the pairs.

        Each endpoint must be an index below n by the rule of ``_check``;
        a pair of exact ``int`` in range passes by one test of type and
        range beside its append.  One Tarjan walk over the pairs yields
        the components in reverse topological order; :func:`_condense`
        checks them in O(n + m) and a failed check raises
        :class:`CertificateError`.
        """
        _check_size(n)
        succ: List[List[int]] = [[] for _ in range(n)]
        for i, j in pairs:
            if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n) and not (
                _is_index(i, n) and _is_index(j, n)
            ):
                raise ForeignElementError(
                    f"pair ({safe_repr(i)}, {safe_repr(j)}) out of range for n={n}"
                )
            succ[i].append(j)
        self._n = n
        self._components = _tarjan(succ)
        self._comp, self._below = _condense(succ, self._components)

    @classmethod
    def closure(cls, n: int, pairs: Iterable[Tuple[int, int]]) -> "FinitePreorder":
        """``FinitePreorder(n, pairs)``."""
        return cls(n, pairs)

    @classmethod
    def chain(cls, n: int) -> "FinitePreorder":
        """Total order 0 < 1 < .. < n-1."""
        _check_size(n)
        return cls.closure(n, [(i + 1, i) for i in range(n - 1)])

    @classmethod
    def antichain(cls, n: int) -> "FinitePreorder":
        """Discrete order: only reflexive pairs."""
        return cls.closure(n, [])

    @property
    def n(self) -> int:
        return self._n

    def _check(self, x: Element) -> int:
        if not _is_index(x, self._n):
            raise ForeignElementError(f"{safe_repr(x)} is not an index below {self._n}")
        return x

    def _check_points(self, points: Sequence[Element]) -> List[int]:
        """``[self._check(p) for p in points]``, by two C-level passes when every
        point is an exact ``int`` in range; otherwise point by point, so the
        first foreign point is the one named."""
        if set(map(type, points)) <= {int} and (
            not points or (min(points) >= 0 and max(points) < self._n)
        ):
            return list(points)
        return [self._check(p) for p in points]

    # ---- the condensation ------------------------------------------------

    @property
    def component_index(self) -> List[int]:
        """Per element, its component: the position of its equivalence class
        in the order the walk closed them, a reverse topological order."""
        return self._comp

    @property
    def condensation(self) -> List[List[int]]:
        """Per component, the components its pairs lead to directly, all earlier."""
        return self._below

    def down_min(self, own: Sequence, empty) -> Tuple[list, list]:
        """Per component, the least of ``own`` weakly below it and strictly below it.

        ``own[c]`` is the component's own entry; ``empty`` is the result of
        no entry at all and must not be below any of them.  One fold in the
        order the components closed.
        """
        weak = list(own)
        strict = [empty] * len(weak)
        for c, down in enumerate(self.condensation):
            s = empty
            for d in down:
                if weak[d] < s:
                    s = weak[d]
            strict[c] = s
            if s < weak[c]:
                weak[c] = s
        return weak, strict

    def up_min(self, own: Sequence, empty) -> Tuple[list, list]:
        """Per component, the least of ``own`` weakly above it and strictly above it.

        One fold in the reverse order, which pushes each component's weak
        entry into the components below it.
        """
        below = self.condensation
        weak = [empty] * len(below)
        strict = [empty] * len(below)
        for c in reversed(range(len(below))):
            o, s = own[c], strict[c]
            w = weak[c] = o if o < s else s
            for d in below[c]:
                if w < strict[d]:
                    strict[d] = w
        return weak, strict

    def down_set(self, c: int) -> set:
        """The components weakly below component ``c``: one walk down from it."""
        below = self.condensation
        seen = {c}
        todo = [c]
        while todo:
            for d in below[todo.pop()]:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return seen

    def up_set(self, c: int) -> set:
        """The components weakly above component ``c``: one pass over the later ones."""
        below = self.condensation
        seen = {c}
        for d in range(c + 1, len(below)):
            if not seen.isdisjoint(below[d]):
                seen.add(d)
        return seen

    def geq(self, x: Element, y: Element) -> bool:
        """True iff ``x``'s component reaches ``y``'s: one walk down from
        ``x``'s component that skips every component closed before ``y``'s,
        since none of them reaches it.  O(n) memory, and no walk at all when
        the two share a component or ``x``'s closed first."""
        cx = self._comp[self._check(x)]
        cy = self._comp[self._check(y)]
        if cx <= cy:
            return cx == cy
        below = self._below
        seen = bytearray(cx)  # the components below cx that the walk reached
        todo = [cx]
        while todo:
            for d in below[todo.pop()]:
                if d == cy:
                    return True
                if d > cy and not seen[d]:
                    seen[d] = 1
                    todo.append(d)
        return False

    def iter_elements(self) -> Iterator[int]:
        return iter(range(self._n))

    def equivalence_classes(self) -> list[Tuple[int, ...]]:
        """Classes of mutual domination, each sorted, ordered by least member."""
        return sorted(tuple(sorted(members)) for members in self._components)

    def __repr__(self) -> str:
        return f"FinitePreorder(n={self._n})"


class ParetoSpace(Preorder):
    """Coordinatewise ``>=`` on k-vectors of finite reals.

    Coordinates must be real numbers: ``int`` and ``float`` (tested by
    exact type first), or any other :class:`numbers.Real` except
    ``bool``.  Strings and other orderable objects are foreign, and so is
    a coordinate too large for any float.
    """

    __slots__ = ("_k",)

    def __init__(self, k: int):
        if type(k) is not int:
            raise ValueError(f"dimension must be an int, got {safe_repr(k)}")
        if k < 1:
            raise ValueError("dimension must be positive")
        self._k = k

    @property
    def k(self) -> int:
        return self._k

    def _check(self, x: Element) -> Tuple[float, ...]:
        if not isinstance(x, tuple) or len(x) != self._k:
            raise ForeignElementError(f"{safe_repr(x)} is not a {self._k}-vector")
        for coord in x:
            kind = type(coord)
            if kind is float:
                if not math.isfinite(coord):
                    raise ForeignElementError(f"{safe_repr(x)} has a non-finite coordinate")
            elif kind is not int and (kind is bool or not isinstance(coord, Real)):
                raise ForeignElementError(f"{safe_repr(x)} has a non-numeric coordinate")
            elif not is_finite_real(coord):
                raise ForeignElementError(f"{safe_repr(x)} has a non-finite coordinate")
        return x

    def _check_points(self, points: Sequence[Element]) -> List[Tuple[float, ...]]:
        """``[self._check(p) for p in points]``, by :func:`all_float_vectors`
        when every point is a tuple of finite floats; any other list is
        checked point by point, so the first foreign point is the one named."""
        if all_float_vectors(points, tuple, self._k):
            return list(points)
        return [self._check(p) for p in points]

    def geq(self, x: Element, y: Element) -> bool:
        x = self._check(x)
        y = self._check(y)
        return all(xi >= yi for xi, yi in zip(x, y))

    def __repr__(self) -> str:
        return f"ParetoSpace(k={self._k})"


class Augmented:
    """One of the two artificial extremes of the augmented ground set.

    Only ``TOP`` and ``BOTTOM`` exist; every other point of the augmented
    set is an element itself.
    """

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name

    __repr__ = __str__


TOP = Augmented("Top")
BOTTOM = Augmented("Bottom")


def strictly_above(rel: Preorder, x, y) -> bool:
    """True iff ``x`` is strictly above ``y`` in the augmented order: ``TOP``
    above all else, all else above ``BOTTOM``, and two elements by
    ``rel.strictly_greater``."""
    if x is TOP or y is BOTTOM:
        return x is not y
    if x is BOTTOM or y is TOP:
        return False
    return rel.strictly_greater(x, y)
