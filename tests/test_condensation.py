"""The passes over the condensation against the per-pair references.

A finite relation's bounds, levels and sample verdicts come from passes
over the strongly connected components of one Tarjan walk
(``FinitePreorder.down_min``/``up_min``, ``contours.ComponentBounds``,
``utility.finite_utility`` and the finite verdicts of
``monotonicity``), never from rows.  Here they are compared with loops
that only read the Warshall closure of the same pairs
(``reference.warshall_closure``): the reference scan of the oracle's
records (``reference.scan_record``), the ``reference.pairwise_*``
verdicts and a level count over strict down-sets.  Bounds are compared
by ``str`` and type, so ``-0.0`` against ``0.0`` and ``1`` against
``1.0`` count as different, and witnesses by their full text.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordext.cli import main
from ordext.contours import FiniteSampleOracle, PartialUtility, bound_text
from ordext.monotonicity import (
    check_gap_safe_finite,
    check_strictly_increasing,
    check_weakly_increasing,
)
from ordext.orders import FinitePreorder
from ordext.utility import finite_utility

from reference import (
    pairwise_strictly_increasing,
    pairwise_weakly_increasing,
    preorder_from_rows,
    scan_record,
    warshall_closure,
)

# ties across types and signs: 0, 0.0 and -0.0; 1 and 1.0; 1/2 and 0.5
VALUES = st.sampled_from([0, 0.0, -0.0, 1, 1.0, Fraction(1, 2), 0.5, 2.0])


@st.composite
def instances(draw, max_n=10):
    """Pairs with cycles, self-loops and duplicates, and samples valued with ties."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if n > 1 and draw(st.booleans()):
        cycle = draw(st.lists(node, min_size=2, unique=True))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    points = draw(st.lists(node, unique=True, max_size=n))
    samples = PartialUtility({p: draw(VALUES) for p in points})
    return n, draw(st.permutations(pairs)), samples


def text(verdict):
    return "yes" if verdict.holds else verdict.witness.describe()


def typed(value):
    return type(value).__name__, str(value)


def reference_levels(rows):
    """Longest chain of strict dominations below each element, from the rows."""
    n = len(rows)
    strictly_below = [
        [j for j in range(n) if (rows[i] >> j) & 1 and not (rows[j] >> i) & 1]
        for i in range(n)
    ]
    level = [None] * n
    for i in sorted(range(n), key=lambda i: len(strictly_below[i])):
        level[i] = max((level[j] + 1 for j in strictly_below[i]), default=0)
    return level


@settings(max_examples=400, deadline=None)
@given(instances())
# the first violating sample, 0, has its partner strictly above it with an
# equal value, while sample 1 violates against the same partner
@example((3, [(2, 0), (2, 1)], PartialUtility({0: 1.0, 1: 5.0, 2: 1.0})))
def test_passes_match_the_closure_references(case):
    n, pairs, samples = case
    rel = FinitePreorder.closure(n, pairs)
    rows = warshall_closure(n, pairs)
    ref = preorder_from_rows(rows)
    fast, slow = FiniteSampleOracle(rel, samples), FiniteSampleOracle(ref, samples)
    for x in range(n):
        a, b, has_lower, has_upper = fast.record(x)
        ra, rb, ref_lower, ref_upper = scan_record(ref, samples, x)
        assert (typed(a), typed(b), has_lower, has_upper) == (
            typed(ra), typed(rb), ref_lower, ref_upper)
        # a relation built from rows condenses the pairs its rows name
        assert slow.record(x) == fast.record(x)
    levels = finite_utility(rel)
    assert [levels(x) for x in range(n)] == reference_levels(rows)
    assert [finite_utility(ref)(x) for x in range(n)] == reference_levels(rows)

    weak = pairwise_weakly_increasing(ref, samples)
    strict = pairwise_strictly_increasing(ref, samples)
    assert text(check_weakly_increasing(rel, samples)) == text(weak)
    assert text(check_strictly_increasing(rel, samples)) == text(strict)
    if strict.holds:
        gap = "yes"
    elif not weak.holds:
        gap = text(weak)
    else:
        lo, hi = strict.witness.lo, strict.witness.hi
        gap = (f"x={lo}, x'={hi}, a(x)={bound_text(scan_record(ref, samples, lo)[0])}, "
               f"b(x')={bound_text(scan_record(ref, samples, hi)[1])} "
               "(x' strictly dominates x but b(x') <= a(x))")
    assert text(check_gap_safe_finite(rel, samples)) == gap


@settings(max_examples=100, deadline=None)
@given(instances(max_n=30))
def test_down_and_up_sets_are_the_closure(case):
    n, pairs, _ = case
    rel = FinitePreorder.closure(n, pairs)
    rows = warshall_closure(n, pairs)
    comp = rel.component_index
    for x in range(n):
        down = {comp[y] for y in range(n) if (rows[x] >> y) & 1}
        up = {comp[y] for y in range(n) if (rows[y] >> x) & 1}
        assert rel.down_set(comp[x]) == down
        assert rel.up_set(comp[x]) == up


# check at n = 100000 with 3n pairs: the closure's rows alone would take
# n^2 bits, 1.25 GB; the passes hold O(n + m) and peak near
# 120 MB, most of it the parsed JSON document
@pytest.mark.slow
def test_check_at_n_100000_holds_no_closure(tmp_path, capsys):
    n = 100_000
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for _ in range(3 * n):
        lo, hi = sorted(rng.sample(range(n), 2))
        pairs.append([f"e{order[hi]}", f"e{order[lo]}"])
    samples = [
        {"element": f"e{order[r]}", "value": float(r)} for r in rng.sample(range(n), n // 5)
    ]
    names = [f"e{x}" for x in range(n)]
    doc = {"space": {"kind": "finite", "elements": names, "geq": pairs}, "samples": samples}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    del doc, names, pairs, samples
    tracemalloc.start()
    try:
        assert main(["check", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert out.endswith("extendable: a strictly increasing total extension exists\n")
    assert peak <= 500 * (n + 3 * n)
