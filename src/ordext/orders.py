"""Ground sets and preorders.

Two concrete ground-set flavours are supported:

* :class:`FinitePreorder` stores a closed boolean relation on indices
  ``0..n-1`` as per-row bitmasks; ``geq(i, j)`` means ``i`` is at least
  as good as ``j``.
* :class:`ParetoSpace` compares k-vectors of finite reals coordinatewise.

A finite relation is built one of two ways.  ``FinitePreorder.closure``
closes a list of pairs by one Tarjan walk and checks the walk's rows
with a certificate from the same walk (:func:`_certify`, O(n + m)), so
it never re-proves transitivity; a failed certificate raises
:class:`CertificateError`, a fault in this module.
``FinitePreorder(rows)`` takes rows from its caller and checks them:
reflexive, and transitive by byte-table ORs (:func:`_check_transitive`).

Both expose the same query surface through :class:`Preorder`.  The
augmented ground set adds two artificial extremes, one strictly above
and one strictly below everything: the sentinels ``TOP`` and ``BOTTOM``,
the only instances of :class:`Augmented`.  Its other points are the
elements themselves.

Pairwise questions about a list of points (which sample dominates
which) are answered word-parallel: :meth:`Preorder.dominance_masks`
returns, per position, the bitmask of positions weakly above and weakly
below it, so a caller tests all partners of a point with a few integer
operations instead of one comparison per pair.

* :class:`ParetoSpace` checks the points in bulk (``_check_points``,
  below), ranks them on each coordinate with :func:`rank_masks` (one
  sort, ties grouped by ``==``) and ANDs the k per-coordinate masks:
  O(k n log n) comparisons plus O(k n) operations on n-bit integers.
* :class:`FinitePreorder` remaps each point's stored up-set and
  down-set bitmask from element bits onto position bits.
* Any other preorder falls back to one ``geq`` per ordered pair.

A list of points or values, from a file or a caller, is checked in bulk
where it can be: :func:`all_finite_floats` and :func:`all_float_vectors`
accept a list only when every entry is an exact, finite ``float`` (or a
fixed-length container of them), by a few C-level passes (``map``,
``set``, ``all``, ``math.isfinite``) instead of one Python call per
coordinate.  Any other list (an ``int``, ``bool``, ``Fraction``, NaN, an
infinity, a wrong length) goes through the per-entry check, which names
the first bad entry.  The parser, :class:`~ordext.contours.PartialUtility`,
``ParetoSpace.dominance_masks`` and the Pareto bound index each check
the lists they are handed this way.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from enum import Enum
from itertools import chain, compress
from numbers import Rational, Real
from operator import eq, itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

Element = Any  # int for finite ground sets, tuple of floats for Pareto spaces

__all__ = [
    "Augmented",
    "BOTTOM",
    "CertificateError",
    "Comparison",
    "Element",
    "FinitePreorder",
    "ForeignElementError",
    "ParetoSpace",
    "Preorder",
    "TOP",
    "UnsupportedQueryError",
    "all_finite_floats",
    "all_float_vectors",
    "is_finite_real",
    "is_pareto_set",
    "lowest_bit",
    "rank_masks",
    "safe_repr",
    "strict_pair",
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


class Comparison(Enum):
    """Outcome of comparing two elements under a preorder."""

    EQUIVALENT = "equivalent"
    STRICTLY_GREATER = "strictly_greater"
    STRICTLY_LESS = "strictly_less"
    INCOMPARABLE = "incomparable"


class Preorder(ABC):
    """A reflexive, transitive relation ``geq`` on some ground set."""

    @abstractmethod
    def geq(self, x: Element, y: Element) -> bool:
        """True iff ``x`` is at least as good as ``y``."""

    def compare(self, x: Element, y: Element) -> Comparison:
        fwd = self.geq(x, y)
        back = self.geq(y, x)
        if fwd and back:
            return Comparison.EQUIVALENT
        if fwd:
            return Comparison.STRICTLY_GREATER
        if back:
            return Comparison.STRICTLY_LESS
        return Comparison.INCOMPARABLE

    def strictly_greater(self, x: Element, y: Element) -> bool:
        return self.geq(x, y) and not self.geq(y, x)

    def equivalent(self, x: Element, y: Element) -> bool:
        return self.geq(x, y) and self.geq(y, x)

    def iter_elements(self) -> Iterator[Element]:
        """Enumerate the ground set; only finite ground sets support this."""
        raise UnsupportedQueryError(
            f"{type(self).__name__} has no enumerable ground set"
        )

    def dominance_masks(self, points: Sequence[Element]) -> Tuple[List[int], List[int]]:
        """Per position i, the positions weakly above and weakly below ``points[i]``.

        Bit j of ``up[i]`` is set iff ``geq(points[j], points[i])``, and
        bit j of ``down[i]`` iff ``geq(points[i], points[j])``.  This
        generic version asks ``geq`` once per ordered pair; the concrete
        spaces override it with word-parallel constructions.
        """
        n = len(points)
        up = [0] * n
        down = [0] * n
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                if self.geq(q, p):
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        return up, down


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of a positive integer."""
    return (mask & -mask).bit_length() - 1


def rank_masks(keys: Sequence) -> Tuple[List[int], List[int]]:
    """Per position i, the positions whose key is ``>=`` and ``>`` ``keys[i]``.

    The keys must be totally ordered (finite reals).  One sort, largest
    key first, and one walk that ORs each position's bit into the running
    mask, as if no two keys tied.  Then the runs of keys equal by ``==``
    (so ``-0.0`` ties ``0.0`` and ``1`` ties ``1.0``), found by one C-level
    pass over the sorted keys, are mended: every member of a run takes the
    ``gt`` of its first member and the ``ge`` of its last, so positions
    with equal keys share their mask objects.
    """
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__, reverse=True)
    ge = [0] * n
    gt = [0] * n
    above = 0
    for i in order:
        gt[i] = above
        above |= 1 << i
        ge[i] = above
    ranked = list(map(keys.__getitem__, order))
    tied = list(compress(range(1, n), map(eq, ranked, ranked[1:])))
    for r in tied:
        gt[order[r]] = gt[order[r - 1]]
    for r in reversed(tied):
        ge[order[r - 1]] = ge[order[r]]
    return ge, gt


def _check_reflexive(rows: Sequence[int]) -> Optional[int]:
    for i, row in enumerate(rows):
        if not (row >> i) & 1:
            return i
    return None


# A row i is transitive iff the OR of the rows it contains adds no bit to
# it.  The OR is taken a byte of row i at a time, one 8-element block
# after another: a block's table, filled on first use and dropped after
# the block, maps a byte to the OR of the rows its set bits name, so a
# row costs n/8 lookups and ORs, not one per bit, and at most one table
# (256 ORs of n bits) is alive at once.
_BLOCK_BITS = 8
_BYTE_MEMBERS = [
    tuple(k for k in range(_BLOCK_BITS) if (byte >> k) & 1) for byte in range(1 << _BLOCK_BITS)
]


def _absorbed(rows: Sequence[int]) -> List[int]:
    """Per row i, the OR of ``rows[j]`` over the set bits j of ``rows[i]``."""
    n = len(rows)
    size = (n + _BLOCK_BITS - 1) // _BLOCK_BITS
    # row i's bytes sit at text[i * size:(i + 1) * size], so block b of
    # every row is the strided slice text[b::size]
    text = b"".join([row.to_bytes(size, "little") for row in rows])
    reach = [0] * n
    for block in range(size):
        base = block * _BLOCK_BITS
        table: dict = {}
        for i, byte in enumerate(text[block::size]):
            if byte:
                ored = table.get(byte)
                if ored is None:
                    ored = 0
                    for k in _BYTE_MEMBERS[byte]:
                        ored |= rows[base + k]
                    table[byte] = ored
                reach[i] |= ored
    return reach


def _check_transitive(rows: Sequence[int]) -> Optional[Tuple[int, int]]:
    for i, (row, reach) in enumerate(zip(rows, _absorbed(rows))):
        if reach & ~row:
            # i >= j forces row(i) to absorb row(j); name the first j missed
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if rows[j] & ~row:
                    return (i, j)
    return None


# The transpose formats a block of rows as bit strings, bit j of each row
# at text offset j, and joins them last row first: then column j of the
# block is the strided slice text[j::n], most significant row first.
_TRANSPOSE_BLOCK = 64


def _transpose(rows: Sequence[int]) -> List[int]:
    """Columns of a square bit matrix: bit i of ``cols[j]`` is bit j of ``rows[i]``."""
    n = len(rows)
    cols = [0] * n
    width = f"0{n}b"
    for base in range(0, n, _TRANSPOSE_BLOCK):
        block = rows[base:base + _TRANSPOSE_BLOCK]
        text = "".join([format(row, width)[::-1] for row in reversed(block)])
        for j in range(n):
            cols[j] |= int(text[j::n], 2) << base
    return cols


def _tarjan(succ: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """The strongly connected components in the order they close, and each row.

    An iterative Tarjan walk finds the strongly connected components in
    reverse topological order, so every successor outside a component
    already holds its final row when the component closes; its members
    share the OR of their own bits and those rows.  A member's successor
    inside the component still reads 0 then, and adds nothing.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    rows = [0] * n
    components: List[List[int]] = []
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, it = calls[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                # rows[w] stays 0 while w's component is open on the stack
                if not rows[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    row = 0
                    for m in members:
                        row |= 1 << m
                    for m in members:
                        for w in succ[m]:
                            row |= rows[w]
                    for m in members:
                        rows[m] = row
                    components.append(members)
    return components, rows


def _certify(
    succ: Sequence[Sequence[int]],
    pred: Sequence[Sequence[int]],
    components: Sequence[Sequence[int]],
    rows: Sequence[int],
) -> None:
    """Raise :class:`CertificateError` unless ``rows`` close the pairs ``succ``.

    ``components`` are listed in the order they closed and ``pred`` holds
    the reversed pairs.  Four checks, O(n + m) operations on rows:

    1. every element is in exactly one component;
    2. every pair leads to its own component or to an earlier one;
    3. each member's row is its component's bits ORed with the rows of
       the earlier components that the component's pairs reach;
    4. each component of more than one member is strongly connected.

    By 2 and 4 the components are the strongly connected components in
    reverse topological order, and then by induction over that order 3
    says each row is the set of elements reachable from its element.
    """
    n = len(succ)
    comp = [-1] * n
    for c, members in enumerate(components):
        for m in members:
            if comp[m] >= 0:
                raise CertificateError(f"element {m} is in components {comp[m]} and {c}")
            comp[m] = c
    if -1 in comp:
        raise CertificateError(f"element {comp.index(-1)} is in no component")
    for c, members in enumerate(components):
        row = 0
        for m in members:
            row |= 1 << m
        for m in members:
            for w in succ[m]:
                if comp[w] > c:
                    raise CertificateError(f"pair ({m}, {w}) leads into a later component")
                if comp[w] < c:
                    row |= rows[w]
        for m in members:
            if rows[m] != row:
                raise CertificateError(f"row {m} is not the closure of its pairs")
        if len(members) > 1:
            for adj in (succ, pred):
                seen = {members[0]}
                todo = [members[0]]
                while todo:
                    for w in adj[todo.pop()]:
                        if comp[w] == c and w not in seen:
                            seen.add(w)
                            todo.append(w)
                if len(seen) < len(members):
                    raise CertificateError(f"component {c} is not strongly connected")


def _fold_columns(pred: Sequence[Sequence[int]], components: Sequence[Sequence[int]]) -> List[int]:
    """Per element, the bitmask of elements that reach it, itself included.

    The components are taken last closed first, which is topological
    order once :func:`_certify` has passed, so every predecessor outside
    a component already holds its final column; one inside it still
    reads 0 and adds nothing.
    """
    cols = [0] * len(pred)
    for members in reversed(components):
        col = 0
        for m in members:
            col |= 1 << m
        for m in members:
            for u in pred[m]:
                col |= cols[u]
        for m in members:
            cols[m] = col
    return cols


class FinitePreorder(Preorder):
    """A preorder on ``{0, .., n-1}`` stored as a closed bitmask matrix.

    ``_rows[i]`` has bit ``j`` set iff ``geq(i, j)``; ``_cols`` is the
    transpose, used for upper-contour queries.
    """

    __slots__ = ("_n", "_rows", "_cols")

    def __init__(self, rows: Sequence[int]):
        n = len(rows)
        limit = 1 << n
        for i, row in enumerate(rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} is not a bitmask over elements 0..{n - 1}")
        bad = _check_reflexive(rows)
        if bad is not None:
            raise ValueError(f"relation is not reflexive at element {bad}")
        bad = _check_transitive(rows)
        if bad is not None:
            raise ValueError(f"relation is not transitive through pair {bad}")
        self._n = n
        self._rows = tuple(rows)
        self._cols = tuple(_transpose(self._rows))

    @classmethod
    def closure(cls, n: int, pairs: Iterable[Tuple[int, int]]) -> "FinitePreorder":
        """Smallest reflexive-transitive relation containing the pairs.

        One Tarjan walk over the pairs yields the components and the rows;
        :func:`_certify` proves the rows are the closure of the pairs,
        in O(n + m), so the transitivity check of ``FinitePreorder(rows)``
        is not run.  The columns are one fold over the same components,
        in topological order over the reversed pairs.  A failed
        certificate raises :class:`CertificateError`.
        """
        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ForeignElementError(
                    f"pair ({safe_repr(i)}, {safe_repr(j)}) out of range for n={n}"
                )
            succ[i].append(j)
            pred[j].append(i)
        components, rows = _tarjan(succ)
        _certify(succ, pred, components, rows)
        rel = cls.__new__(cls)
        rel._n = n
        rel._rows = tuple(rows)
        rel._cols = tuple(_fold_columns(pred, components))
        return rel

    @classmethod
    def from_geq_matrix(cls, matrix: Sequence[Sequence[bool]]) -> "FinitePreorder":
        """Validate an explicit boolean matrix (must already be closed)."""
        n = len(matrix)
        rows = []
        for row in matrix:
            if len(row) != n:
                raise ValueError("matrix is not square")
            mask = 0
            for j, cell in enumerate(row):
                if cell:
                    mask |= 1 << j
            rows.append(mask)
        return cls(rows)

    @classmethod
    def chain(cls, n: int) -> "FinitePreorder":
        """Total order 0 < 1 < .. < n-1."""
        return cls([((1 << (i + 1)) - 1) for i in range(n)])

    @classmethod
    def antichain(cls, n: int) -> "FinitePreorder":
        """Discrete order: only reflexive pairs."""
        return cls([1 << i for i in range(n)])

    @property
    def n(self) -> int:
        return self._n

    def _check(self, x: Element) -> int:
        # bool is an int subclass, yet True and False are no element indices
        if not (isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self._n):
            raise ForeignElementError(f"{safe_repr(x)} is not an index below {self._n}")
        return x

    def geq(self, x: Element, y: Element) -> bool:
        return bool((self._rows[self._check(x)] >> self._check(y)) & 1)

    def iter_elements(self) -> Iterator[int]:
        return iter(range(self._n))

    def geq_mask(self, x: int) -> int:
        """Bitmask of ``{y | x geq y}`` (the weak down-set of ``x``)."""
        return self._rows[self._check(x)]

    def leq_mask(self, x: int) -> int:
        """Bitmask of ``{y | y geq x}`` (the weak up-set of ``x``)."""
        return self._cols[self._check(x)]

    def dominance_masks(self, points: Sequence[Element]) -> Tuple[List[int], List[int]]:
        """Each point's ``leq_mask``/``geq_mask``, remapped onto point positions."""
        elems = [self._check(p) for p in points]
        if not elems:
            return [], []
        # format() writes element bit e at text offset n-1-e; picking the
        # offsets of the positions from last to first spells the remapped
        # mask most significant bit first
        width = f"0{self._n}b"
        pick = itemgetter(*[self._n - 1 - e for e in reversed(elems)])

        def remap(mask: int) -> int:
            return int("".join(pick(format(mask, width))), 2)

        return (
            [remap(self._cols[e]) for e in elems],
            [remap(self._rows[e]) for e in elems],
        )

    def equivalence_classes(self) -> list[Tuple[int, ...]]:
        """Classes of mutual domination, each sorted, ordered by least member."""
        seen = 0
        classes = []
        for i in range(self._n):
            if (seen >> i) & 1:
                continue
            mutual = self._rows[i] & self._cols[i]
            seen |= mutual
            members = tuple(j for j in range(self._n) if (mutual >> j) & 1)
            classes.append(members)
        return classes

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePreorder):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

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

    def dominance_masks(self, points: Sequence[Element]) -> Tuple[List[int], List[int]]:
        """Intersect, over the coordinates, the rank masks of ``>=`` and ``<=``."""
        pts = self._check_points(points)
        if not pts:
            return [], []
        n = len(pts)
        full = (1 << n) - 1
        up = [full] * n
        down = [full] * n
        for d in range(self._k):
            ge, gt = rank_masks([p[d] for p in pts])
            for i in range(n):
                up[i] &= ge[i]
                down[i] &= ~gt[i]
        return up, down

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


def compare_augmented(rel: Preorder, x, y) -> Comparison:
    """Comparison on the augmented set: Top above all, Bottom below all."""
    if x is y and isinstance(x, Augmented):
        return Comparison.EQUIVALENT
    if x is TOP or y is BOTTOM:
        return Comparison.STRICTLY_GREATER
    if x is BOTTOM or y is TOP:
        return Comparison.STRICTLY_LESS
    return rel.compare(x, y)


def is_pareto_set(
    rel: Preorder, points: Iterable[Element]
) -> Tuple[bool, Optional[Tuple[Element, Element]]]:
    """True iff no point strictly dominates another; else (False, (winner, loser)).

    The pair reported is the first in position order (i, then j > i).
    """
    pts = list(points)
    pair = strict_pair(pts, *rel.dominance_masks(pts))
    return (True, None) if pair is None else (False, pair)


def strict_pair(
    points: Sequence[Element], up: Sequence[int], down: Sequence[int]
) -> Optional[Tuple[Element, Element]]:
    """First (winner, loser) with one point strictly above the other, or None.

    ``up``/``down`` are :meth:`Preorder.dominance_masks` of ``points``.
    The pair is the first (i, j) with j > i in position order: strict
    comparability is symmetric, so the first i that has a strict partner
    has none below it.
    """
    for i, p in enumerate(points):
        above = up[i] & ~down[i]
        below = down[i] & ~up[i]
        if above | below:
            j = lowest_bit(above | below)
            return (p, points[j]) if (below >> j) & 1 else (points[j], p)
    return None
