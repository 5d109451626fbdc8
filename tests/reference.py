"""Independent verification machinery for the tests: seeded generators, a
brute-force extendability oracle, exhaustive preorder enumeration at desk
scale, the pairwise reference checks, the paper's restatements of weak
increase through the bound functions, and a problem-file serializer for
round trips.  It sits beside the tests, not in the installed package; the
tests import it as ``reference``.

Everything here deliberately avoids the contour-bound machinery it is
meant to validate; the brute oracle decides extendability by explicit
value construction over the equivalence-class condensation, then audits
its own construction.

The ``pairwise_*`` functions are the one-comparison-per-pair loops that
the sample checks of :mod:`ordext.monotonicity` replaced.  They return the
same verdicts, witnesses and ``NotAParetoSetError`` pairs and serve as the
differential-test reference.
``pairwise_gap_safe_finite`` is the exception: it reads the definition
of gap-safety over every element pair, and may name another gap pair.
:func:`scan_record` is the one-comparison-per-sample reference for the
records of ``FiniteSampleOracle``, ``TOP`` and ``BOTTOM`` included.
``warshall_closure`` and ``pairwise_check_transitive`` are per-bit
references for the relation build of :class:`ordext.orders.FinitePreorder`:
its rows and the witness of its transitivity error.  The relation audit
``is_transitive`` runs ``pairwise_check_transitive`` and ``is_reflexive``
tests the diagonal bit by bit, so neither calls the check it audits; the
other audits read the rows beside their ``bitwise_transpose``.
:func:`strict_extension_fault` is an output certificate: it checks values at
every element of a finite relation against its declared pairs and samples,
with components from :func:`kosaraju_components`, not ordext's Tarjan walk.
:func:`capped_blend` is the defining formula of the extension written with
builtin ``max`` and ``min``, the bit-exact reference for the production
evaluator.  :func:`grid_increase_fault` is the output certificate of a
``grid`` CSV: strict increase along both axes and the sample values at the
nodes that are samples.  :func:`pareto_increase_fault` is the output
certificate of Pareto ``extend`` values: strict increase over every pair of
points in strict domination, and the sample values at the samples.
:func:`sample_order` is the sample order of a parsed problem file as one
sort over every sample key's ``repr``.
:class:`WeakIncreaseForm` and :func:`check_weak_increase_form` state weak
increase six ways; the acceptance gate checks that all six agree.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ordext.contours import FiniteSampleOracle, PartialUtility, bound_text
from ordext.monotonicity import (
    NotAParetoSetError,
    Verdict,
    Witness,
    _bound_witness,
    check_gap_safe_finite,
    check_weakly_increasing,
)
from ordext.orders import (
    BOTTOM,
    TOP,
    Element,
    FinitePreorder,
    ForeignElementError,
    Preorder,
)
from ordext.problemfile import ProblemInstance
from ordext.utility import finite_utility

__all__ = [
    "InstanceSpec",
    "WeakIncreaseForm",
    "bitwise_transpose",
    "brute_extendability",
    "build_instance",
    "capped_blend",
    "check_weak_increase_form",
    "grid_increase_fault",
    "is_antisymmetric",
    "is_connected",
    "is_maximal",
    "is_minimal",
    "is_reflexive",
    "is_symmetric",
    "is_transitive",
    "iter_all_preorders",
    "kosaraju_components",
    "lower_contour",
    "pairwise_bounds_comparable",
    "pairwise_check_transitive",
    "pairwise_gap_safe_finite",
    "pairwise_is_pareto_set",
    "pairwise_pareto_set_values",
    "pairwise_strictly_increasing",
    "pairwise_weakly_increasing",
    "pareto_increase_fault",
    "pm_one_assignments",
    "random_adversarial_samples",
    "random_finite_preorder",
    "random_gap_safe_samples",
    "sample_order",
    "scan_record",
    "serialize_problem",
    "strict_extension_fault",
    "upper_contour",
    "warshall_closure",
    "weakly_above",
]

MAX_BRUTE_SIZE = 8


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded recipe for one random test instance."""

    seed: int
    n: int
    density: float
    sample_count: int
    mode: str = "utility"  # "utility" (gap-safe) or "adversarial"

    def __post_init__(self):
        if not (1 <= self.n <= MAX_BRUTE_SIZE):
            raise ValueError(f"ground-set size must be in 1..{MAX_BRUTE_SIZE}")
        if not (0.0 <= self.density <= 1.0):
            raise ValueError("density must be in [0, 1]")
        if not (0 <= self.sample_count <= self.n):
            raise ValueError("sample count must be in 0..n")
        if self.mode not in ("utility", "adversarial"):
            raise ValueError(f"unknown mode {self.mode!r}")


def random_finite_preorder(spec: InstanceSpec) -> FinitePreorder:
    """Closure of a seeded random digraph; identical per seed."""
    rng = random.Random(spec.seed)
    pairs = [
        (i, j)
        for i in range(spec.n)
        for j in range(spec.n)
        if i != j and rng.random() < spec.density
    ]
    return FinitePreorder.closure(spec.n, pairs)


def random_gap_safe_samples(
    rel: FinitePreorder, points: Sequence[int], seed: int
) -> PartialUtility:
    """Values guaranteed gap-safe: utility levels plus class-shared jitter.

    Levels of distinct comparable classes differ by at least one, so a
    jitter bounded by 1/4 keeps every strict inequality; equivalent
    points share their class jitter and stay equal.
    """
    rng = random.Random(seed)
    u = finite_utility(rel)
    offsets = {}
    for members in rel.equivalence_classes():
        offsets[members] = rng.uniform(-0.25, 0.25)
    class_of = {}
    for members in rel.equivalence_classes():
        for x in members:
            class_of[x] = members
    samples = PartialUtility(
        {p: u(p) + offsets[class_of[p]] for p in points}
    )
    verdict = check_gap_safe_finite(rel, samples)
    assert verdict.holds, "generator invariant broken: output not gap-safe"
    return samples


def random_adversarial_samples(
    rel: FinitePreorder, points: Sequence[int], seed: int
) -> PartialUtility:
    """Unconstrained small-integer values; frequently not even weakly increasing."""
    rng = random.Random(seed)
    return PartialUtility({p: float(rng.randint(-2, 2)) for p in points})


def build_instance(spec: InstanceSpec) -> Tuple[FinitePreorder, PartialUtility]:
    rel = random_finite_preorder(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    points = sorted(rng.sample(range(spec.n), spec.sample_count))
    if spec.mode == "utility":
        samples = random_gap_safe_samples(rel, points, spec.seed ^ 0xA11CE)
    else:
        samples = random_adversarial_samples(rel, points, spec.seed ^ 0xA11CE)
    return rel, samples


def brute_extendability(rel: FinitePreorder, samples: PartialUtility) -> bool:
    """Decide strict-extension existence by explicit construction.

    Works on the equivalence-class condensation: each class pinned by a
    sample must be pinned consistently, and a concrete rational value is
    assigned to every class between the values already placed below and
    the pinned values above.  The resulting total assignment is audited
    from scratch; any failure along the way means no extension exists.
    """
    if rel.n > MAX_BRUTE_SIZE:
        raise ValueError(f"brute oracle capped at {MAX_BRUTE_SIZE} elements")

    classes = rel.equivalence_classes()
    class_of = {}
    for idx, members in enumerate(classes):
        for x in members:
            class_of[x] = idx

    pinned: dict[int, Fraction] = {}
    for p, v in samples.items():
        idx = class_of[p]
        fv = Fraction(v)
        if idx in pinned and pinned[idx] != fv:
            return False
        pinned[idx] = fv

    reps = [members[0] for members in classes]
    k = len(classes)
    strictly_below: List[List[int]] = [[] for _ in range(k)]
    strictly_above_pinned: List[List[Fraction]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j and rel.strictly_greater(reps[i], reps[j]):
                strictly_below[i].append(j)
                if i in pinned:
                    strictly_above_pinned[j].append(pinned[i])

    # topological order of the condensation: fewer classes below first
    order = sorted(range(k), key=lambda i: len(strictly_below[i]))

    value: List[Optional[Fraction]] = [None] * k
    for i in order:
        floor = None
        for j in strictly_below[i]:
            assert value[j] is not None, "condensation order broken"
            if floor is None or value[j] > floor:
                floor = value[j]
        ceil = min(strictly_above_pinned[i], default=None)
        if i in pinned:
            v = pinned[i]
            if floor is not None and not (v > floor):
                return False
            value[i] = v
            continue
        if floor is None and ceil is None:
            value[i] = Fraction(0)
        elif floor is None:
            value[i] = ceil - 1
        elif ceil is None:
            value[i] = floor + 1
        else:
            if not (floor < ceil):
                return False
            value[i] = (floor + ceil) / 2

    # independent audit of the constructed assignment
    total = {x: value[class_of[x]] for x in range(rel.n)}
    for p, v in samples.items():
        if total[p] != Fraction(v):
            return False
    for x in range(rel.n):
        for y in range(rel.n):
            if rel.strictly_greater(y, x) and not (total[y] > total[x]):
                return False
            if rel.equivalent(y, x) and total[y] != total[x]:
                return False
    return True


def pm_one_assignments(points: Sequence[Element]) -> Iterator[PartialUtility]:
    """Every assignment of +1/-1 values to the given sample points."""
    for combo in itertools.product((-1.0, 1.0), repeat=len(points)):
        yield PartialUtility(dict(zip(points, combo)))


def iter_all_preorders(n: int) -> Iterator[FinitePreorder]:
    """All preorders on {0..n-1}, by filtering every off-diagonal edge set.

    Feasible up to n = 5 (about a million candidate masks); the yield
    counts match the finite-topology sequence 1, 4, 29, 355, 6942.
    """
    if not (1 <= n <= 5):
        raise ValueError("exhaustive enumeration supported for n in 1..5")
    chunk_bits = n - 1
    # per-row table: chunk of off-diagonal bits -> full row bitmask
    tables = []
    for i in range(n):
        cols = [j for j in range(n) if j != i]
        table = []
        for chunk in range(1 << chunk_bits):
            row = 1 << i
            for pos, j in enumerate(cols):
                if (chunk >> pos) & 1:
                    row |= 1 << j
            table.append(row)
        tables.append(table)

    mask_limit = 1 << (chunk_bits * n)
    chunk_mask = (1 << chunk_bits) - 1
    for mask in range(mask_limit):
        rows = [
            tables[i][(mask >> (chunk_bits * i)) & chunk_mask] for i in range(n)
        ]
        if pairwise_check_transitive(rows) is None:
            yield FinitePreorder(rows)


def warshall_closure(n: int, pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """Reference for ``FinitePreorder.closure``: rows of the Warshall sweep."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        # an index is an int in range, not a bool
        if not all(type(x) is not bool and isinstance(x, int) and 0 <= x < n for x in (i, j)):
            raise ForeignElementError(f"pair ({i}, {j}) out of range for n={n}")
        rows[i] |= 1 << j
    # Warshall sweep on bitmask rows: after step k, row i holds every j
    # reachable from i through intermediates <= k.
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def bitwise_transpose(rows: Sequence[int]) -> List[int]:
    """The columns of bitmask rows: one test per bit."""
    n = len(rows)
    cols = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in range(n):
            if (row >> j) & 1:
                cols[j] |= bit
    return cols


def pairwise_check_transitive(rows: Sequence[int]) -> Optional[Tuple[int, int]]:
    """Reference for the transitivity error of ``FinitePreorder(rows)``: the
    first row that misses a bit of a row it contains, and the first such
    member, found by one test per set bit."""
    # i >= j forces row(i) to absorb row(j); a missing bit is a witness.
    for i, row in enumerate(rows):
        rest = row
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[j] & ~row:
                return (i, j)
    return None


def kosaraju_components(n: int, pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """The strongly connected component of each element of the digraph on
    ``range(n)`` with an edge x -> y per pair (x, y): Kosaraju's two passes,
    written apart from ordext's Tarjan walk.  A depth-first pass over the
    edges lists the elements by finishing time; a pass over the reversed
    edges, from the last finished, collects one component per root.
    Iterative, so a long chain does not recurse."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for x, y in pairs:
        succ[x].append(y)
        pred[y].append(x)
    finished, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            x, edges = stack[-1]
            for y in edges:
                if not seen[y]:
                    seen[y] = True
                    stack.append((y, iter(succ[y])))
                    break
            else:
                stack.pop()
                finished.append(x)
    comp = [-1] * n
    count = 0
    for root in reversed(finished):
        if comp[root] >= 0:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            for x in pred[stack.pop()]:
                if comp[x] < 0:
                    comp[x] = count
                    stack.append(x)
        count += 1
    return comp


def strict_extension_fault(
    n: int, pairs: Sequence[Tuple[int, int]], values: Sequence[float], samples: PartialUtility
) -> Optional[str]:
    """Why ``values``, one per element of ``range(n)``, is not a strictly
    increasing extension of ``samples`` over the preorder that the declared
    ``pairs`` (x, y), read x >= y, generate; None when it is one.

    An output certificate, independent of ordext's checks: on each declared
    pair the values are equal when x and y are mutually reachable and
    strictly ordered otherwise, and on each sample they are its value.  A
    derived pair follows by transitivity: a path between two components
    crosses a strict pair and never comes back.  One Kosaraju pass plus
    O(n + m)."""
    comp = kosaraju_components(n, pairs)
    for x, y in pairs:
        if comp[x] == comp[y]:
            if values[x] != values[y]:
                return f"{x} ~ {y}, yet {values[x]!r} != {values[y]!r}"
        elif not values[x] > values[y]:
            return f"{x} > {y}, yet {values[x]!r} is not above {values[y]!r}"
    for p, v in samples.items():
        if values[p] != v:
            return f"sample {p} is valued {v!r}, yet {values[p]!r}"
    return None


def capped_blend(a: float, b: float, alpha: float, beta: float, u: float) -> float:
    """The defining capped blend of bounds ``a`` and ``b`` at unit utility
    ``u``, with builtin ``max`` and ``min``: the bit-exact reference for
    ``ExtensionEngine.evaluate``."""
    lo = max(a, min(b, beta) - beta + alpha)
    hi = min(b, max(a, alpha) - alpha + beta)
    return lo + (hi - lo) * u


def grid_increase_fault(csv_text: str, samples) -> Optional[str]:
    """Why the CSV of ``ordext grid`` is not strictly increasing over its
    grid, or misses a value of ``samples`` (anything with ``items()`` of 2-D
    points and values); None when it is neither.

    An output certificate, independent of ordext: the rows are the nodes of
    an n × n grid, ``x1`` major.  Between neighbours along either axis, a
    larger coordinate must carry a strictly larger value and an equal one
    the same value, so by transitivity every pair of nodes ordered
    coordinatewise is ordered by value.  A node at a sample point must carry
    the sample's value, compared as numbers."""
    rows = list(csv.reader(csv_text.splitlines()))[1:]
    n = math.isqrt(len(rows))
    if n * n != len(rows):
        return f"{len(rows)} rows do not make a square grid"
    nodes = [[tuple(map(float, row[:3])) for row in rows[i * n:(i + 1) * n]] for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        x1, x2, f = nodes[i][j]
        if (x1, x2) != (nodes[i][0][0], nodes[0][j][1]):
            return f"node ({x1!r}, {x2!r}) is off the grid of its row and column"
        for p in (nodes[i - 1][j] if i else None, nodes[i][j - 1] if j else None):
            if p is None:
                continue
            if (x1, x2) < p[:2]:
                return f"node ({x1!r}, {x2!r}) comes after ({p[0]!r}, {p[1]!r})"
            if (x1, x2) == p[:2] and f != p[2]:
                return f"node ({x1!r}, {x2!r}) is valued both {p[2]!r} and {f!r}"
            if (x1, x2) != p[:2] and not f > p[2]:
                return (f"({x1!r}, {x2!r}) is above ({p[0]!r}, {p[1]!r}), yet "
                        f"{f!r} is not above {p[2]!r}")
    values = {(x1, x2): f for line in nodes for x1, x2, f in line}
    for p, v in samples.items():
        if tuple(p) in values and values[tuple(p)] != v:
            return f"sample {tuple(p)} is valued {v!r}, yet {values[tuple(p)]!r}"
    return None


def pareto_increase_fault(samples, points: Sequence[tuple], values: Sequence[float]
                          ) -> Optional[str]:
    """Why ``values``, one per point of ``points`` (coordinate tuples of one
    Pareto space), is not strictly increasing over those points or misses a
    value of ``samples`` (anything with ``items()`` of points and values);
    None when it is neither.

    An output certificate, independent of ordext: a point that is a sample
    must carry the sample's value, a point listed twice must carry one
    value, and of two points where one strictly dominates the other
    coordinatewise, the dominating one must carry the strictly larger value.
    Coordinates and values compare as numbers, so ``-0.0`` and ``0.0`` are
    one coordinate.  One comparison per ordered pair of points."""
    sample_values = dict(samples.items())
    for p, f in zip(points, values):
        if p in sample_values and f != sample_values[p]:
            return f"sample {p!r} is valued {sample_values[p]!r}, yet {f!r}"
    for (p, f), (q, g) in itertools.permutations(zip(points, values), 2):
        if p == q:
            if f != g:
                return f"point {p!r} is valued both {f!r} and {g!r}"
        elif all(map(operator.ge, p, q)) and not f > g:
            return f"{p!r} is above {q!r}, yet {f!r} is not above {g!r}"
    return None


def weakly_above(rel: Preorder, x, y) -> bool:
    """``x`` weakly above ``y`` in the augmented order: ``TOP`` above all,
    all above ``BOTTOM``, and two elements by ``geq``."""
    if x is TOP or y is BOTTOM:
        return True
    if x is BOTTOM or y is TOP:
        return False
    return rel.geq(x, y)


def lower_contour(rel: Preorder, points: Iterable[Element], x) -> list:
    """Sample points weakly below ``x`` (an element, ``TOP`` or ``BOTTOM``)."""
    return [p for p in points if weakly_above(rel, x, p)]


def upper_contour(rel: Preorder, points: Iterable[Element], x) -> list:
    """Sample points weakly above ``x`` (an element, ``TOP`` or ``BOTTOM``)."""
    return [p for p in points if weakly_above(rel, p, x)]


def scan_record(rel: Preorder, samples: PartialUtility, x) -> tuple:
    """Reference for ``FiniteSampleOracle.record``: the max and min of the
    values over the two contour sets, and whether each is non-empty."""
    below = [samples.value(p) for p in lower_contour(rel, samples.points, x)]
    above = [samples.value(p) for p in upper_contour(rel, samples.points, x)]
    return max(below, default=-math.inf), min(above, default=math.inf), bool(below), bool(above)


_PASS = Verdict(True)


def pairwise_weakly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Reference for ``check_weakly_increasing``: one ``geq`` per ordered pair."""
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


def pairwise_strictly_increasing(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Reference for ``check_strictly_increasing``: ``geq`` both ways per pair."""
    pts = samples.points
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            fwd, back = rel.geq(q, p), rel.geq(p, q)
            if fwd and back and samples.value(q) != samples.value(p):
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
            if fwd and not back and not (
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
            if back and not fwd and not (
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


def pairwise_is_pareto_set(
    rel: Preorder, points: Iterable[Element]
) -> Tuple[bool, Optional[Tuple[Element, Element]]]:
    """The Pareto-set test of ``check_pareto_set_values``, by two
    ``strictly_greater`` per pair: ``(True, None)``, or ``(False, (winner,
    loser))`` for the first strict pair in position order (i, then j > i)."""
    pts = list(points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if rel.strictly_greater(p, q):
                return False, (p, q)
            if rel.strictly_greater(q, p):
                return False, (q, p)
    return True, None


def pairwise_pareto_set_values(rel: Preorder, samples: PartialUtility) -> Verdict:
    """Reference for ``check_pareto_set_values``: one ``equivalent`` per pair."""
    ok, pair = pairwise_is_pareto_set(rel, samples.points)
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
                        note="equivalent points with different values",
                    ),
                )
    return _PASS


def pairwise_gap_safe_finite(rel: FinitePreorder, samples: PartialUtility) -> Verdict:
    """Gap-safety by its definition: bounds finite, and every strict element pair.

    The literal reference for ``check_gap_safe_finite``: the verdicts agree,
    and so do the witnesses when weak increase fails.  A gap is named
    here as the first colliding pair in element order, whereas the
    checker names the first strict-increase violation among the samples.
    """
    weak = pairwise_weakly_increasing(rel, samples)
    if not weak.holds:
        return weak

    oracle = FiniteSampleOracle(rel, samples)
    for x in rel.iter_elements():
        if not (oracle.lower_sup(x) < math.inf):
            return _bound_witness(oracle, x, TOP, "a(x) is not below +inf")
        if not (oracle.upper_inf(x) > -math.inf):
            return _bound_witness(oracle, BOTTOM, x, "b(x) is not above -inf")

    for x in rel.iter_elements():
        for y in rel.iter_elements():
            if rel.strictly_greater(y, x) and not (
                oracle.upper_inf(y) > oracle.lower_sup(x)
            ):
                return _bound_witness(
                    oracle, x, y, "x' strictly dominates x but b(x') <= a(x)"
                )
    return _PASS


def pairwise_bounds_comparable(rel: Preorder, samples: PartialUtility) -> Verdict:
    """The ``BOUNDS_COMPARABLE`` form of weak increase: every ordered element pair."""
    oracle = FiniteSampleOracle(rel, samples)
    for x in rel.iter_elements():
        for y in rel.iter_elements():
            if rel.geq(y, x) and not (
                oracle.upper_inf(y) >= oracle.lower_sup(x)
            ):
                return _bound_witness(oracle, x, y, "x' >= x but b(x') < a(x)")
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
        return pairwise_bounds_comparable(rel, samples)

    if form is WeakIncreaseForm.VALUE_ABOVE_LOWER_SUP:
        for p in samples.points:
            if not (samples.value(p) >= oracle.lower_sup(p)):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=p,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("a(x)", bound_text(oracle.lower_sup(p))),
                        ),
                        note="sample value below its lower supremum",
                    ),
                )
        return _PASS

    if form is WeakIncreaseForm.UPPER_INF_ABOVE_VALUE:
        for p in samples.points:
            if not (oracle.upper_inf(p) >= samples.value(p)):
                return Verdict(
                    False,
                    Witness(
                        lo=p,
                        hi=p,
                        context=(
                            ("f_P(x)", samples.value(p)),
                            ("b(x)", bound_text(oracle.upper_inf(p))),
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


def is_maximal(rel: Preorder, x: Element) -> bool:
    """No element of the (finite) ground set strictly dominates ``x``."""
    return not any(rel.strictly_greater(y, x) for y in rel.iter_elements())


def is_minimal(rel: Preorder, x: Element) -> bool:
    """No element of the (finite) ground set is strictly below ``x``."""
    return not any(rel.strictly_greater(x, y) for y in rel.iter_elements())


# Relation audits.  A validated FinitePreorder passes the first two by
# construction; the rest classify the relation further.

def is_reflexive(rel: FinitePreorder) -> bool:
    return all((row >> i) & 1 for i, row in enumerate(rel._rows))


def is_transitive(rel: FinitePreorder) -> bool:
    return pairwise_check_transitive(rel._rows) is None


def is_symmetric(rel: FinitePreorder) -> bool:
    return list(rel._rows) == bitwise_transpose(rel._rows)


def is_antisymmetric(rel: FinitePreorder) -> bool:
    cols = bitwise_transpose(rel._rows)
    return all(row & col == 1 << i for i, (row, col) in enumerate(zip(rel._rows, cols)))


def is_connected(rel: FinitePreorder) -> bool:
    full = (1 << rel.n) - 1
    return all(row | col == full for row, col in zip(rel._rows, bitwise_transpose(rel._rows)))


def serialize_problem(inst: ProblemInstance) -> str:
    """Canonical JSON; parsing it back yields an equal instance."""
    if inst.kind == "fixture":
        doc = {"space": {"kind": "fixture", "name": inst.fixture_name}}
        return json.dumps(doc, indent=2, sort_keys=True)
    if inst.kind == "finite":
        space = {
            "kind": "finite",
            "elements": list(inst.element_names),
            "geq": [[inst.element_names[i] for i in p] for p in inst.geq_pairs],
        }
        samples = [
            {"element": name, "value": value} for name, value in inst.samples
        ]
    else:
        space = {"kind": "pareto", "dimension": inst.dimension}
        samples = [
            {"point": list(point), "value": value} for point, value in inst.samples
        ]
    doc = {
        "space": space,
        "samples": samples,
        "alpha": inst.alpha,
        "beta": inst.beta,
    }
    if inst.base_utility is not None:
        if inst.base_utility[0] == "levels":
            doc["base_utility"] = {"kind": "levels"}
        else:
            doc["base_utility"] = {
                "kind": "weighted-sum",
                "weights": list(inst.base_utility[1]),
            }
    return json.dumps(doc, indent=2, sort_keys=True)


def sample_order(samples) -> list:
    """``(key, value)`` pairs in sample order: sorted by the ``repr`` of each
    key, whole, whatever the listing order.  The reference for the order in
    which ``parse_problem`` keeps samples."""
    return sorted(samples, key=lambda kv: repr(kv[0]))
