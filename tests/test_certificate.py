"""The output certificate: is what the engine evaluates strictly increasing?

``reference.strict_extension_fault`` takes the engine's value at every
element of a finite relation, the declared pairs and the samples, and
accepts exactly when the values are equal across each pair inside one
component, strictly ordered across every other pair, and the sample values
on the samples.  Its components come from Kosaraju's algorithm
(``reference.kosaraju_components``), not from ordext's Tarjan walk.

It runs on every finite ``extend`` entry of the golden corpus and on random
relations with cycles, self-loops and duplicate pairs: the engine's values
pass exactly when the samples are gap-safe, since no values at all pass on
samples that are not.  A strict pair that the float extension collides on
is pinned as an expected failure that names ROADMAP item 4.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordext.cli import build_parser
from ordext.contours import FiniteSampleOracle, PartialUtility
from ordext.extension import make_engine
from ordext.orders import FinitePreorder
from ordext.problemfile import parse_base_utility_flag, parse_problem

from golden.make_golden import CASES, expand, load_manifest
from reference import (
    kosaraju_components,
    pairwise_gap_safe_finite,
    random_gap_safe_samples,
    strict_extension_fault,
    warshall_closure,
)


def fault_of_engine(rel, pairs, samples, alpha=0.0, beta=1.0):
    engine = make_engine(FiniteSampleOracle(rel, samples), alpha, beta)
    return strict_extension_fault(rel.n, pairs, [engine.evaluate(x) for x in range(rel.n)],
                                  samples)


# 2 >= 1 >= 0 and 3 ~ 4 above 2, with a self-loop and a repeated pair;
# 5 stands apart
PAIRS = [(1, 0), (2, 1), (3, 4), (4, 3), (3, 2), (5, 5), (2, 1)]
SAMPLES = PartialUtility({0: -1.0, 3: 2.0})
VALUES = [-1.0, 0.0, 1.0, 2.0, 2.0, 7.0]


@pytest.mark.parametrize("element, value, fault", [
    (None, None, None),
    (1, -1.0, "1 > 0, yet -1.0 is not above -1.0"),
    (2, 2.0, "3 > 2, yet 2.0 is not above 2.0"),
    (4, 2.5, "3 ~ 4, yet 2.0 != 2.5"),
    (0, -2.0, "sample 0 is valued -1.0, yet -2.0"),
], ids=["holds", "tie-on-a-strict-pair", "tie-below-a-cycle", "cycle-split", "off-a-sample"])
def test_certificate_names_the_first_fault(element, value, fault):
    values = list(VALUES)
    if element is not None:
        values[element] = value
    assert strict_extension_fault(6, PAIRS, values, SAMPLES) == fault


FINITE_EXTENDS = [
    entry for entry in load_manifest() if entry["argv"][0] == "extend"
    and json.loads(Path(expand(entry["argv"])[1]).read_text())["space"]["kind"] == "finite"
]


@pytest.mark.parametrize("entry", FINITE_EXTENDS, ids=[entry["id"] for entry in FINITE_EXTENDS])
def test_extension_of_every_finite_golden_case_is_certified(entry):
    # the problem file under the argv's flags, as `extend` reads it; the
    # engine is asked at every element, also where `extend` refuses
    args = build_parser().parse_args(expand(entry["argv"]))
    inst = parse_problem(Path(args.file).read_text()).with_range(args.alpha, args.beta)
    if args.base_utility is not None:
        inst = parse_base_utility_flag(args.base_utility, inst)
    engine = inst.to_engine()
    n = len(inst.element_names)
    fault = strict_extension_fault(n, inst.geq_pairs, [engine.evaluate(x) for x in range(n)],
                                   inst.sample_utility())
    assert (fault is None) == (entry["exit"] == 0), fault


def test_every_finite_golden_case_is_certified():
    finite = {path for path in CASES.glob("*.json") if not path.name.endswith(".queries.json")
              and json.loads(path.read_text())["space"]["kind"] == "finite"}
    assert {Path(expand(entry["argv"])[1]) for entry in FINITE_EXTENDS} == finite
    assert {entry["exit"] for entry in FINITE_EXTENDS} == {0, 1}


@st.composite
def declared_pairs(draw, max_n=10):
    """n and pairs with self-loops, duplicates, 2-cycles and longer cycles."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if n > 1 and draw(st.booleans()):
        cycle = draw(st.lists(node, min_size=2, unique=True))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(declared_pairs())
def test_kosaraju_components_are_the_mutually_reachable_classes(case):
    n, pairs = case
    comp = kosaraju_components(n, pairs)
    rows = warshall_closure(n, pairs)
    for x in range(n):
        for y in range(n):
            assert (comp[x] == comp[y]) == bool(rows[x] >> y & 1 and rows[y] >> x & 1)


RANGES = [(0.0, 1.0), (-2.0, 3.0), (0.25, 0.5), (-1e6, 1e6)]
NUMBERS = st.sampled_from([-1e12, -2.5, -1, -1.0, -0.0, 0, 0.0, 0.5, 1, 1.0, 3, 7.25, 1e12])


@settings(max_examples=200, deadline=None)
@given(declared_pairs(), st.data(), st.sampled_from(RANGES))
def test_engine_values_on_gap_safe_samples_are_certified(case, data, limits):
    # utility levels plus a class-shared jitter: gap-safe by construction
    n, pairs = case
    rel = FinitePreorder.closure(n, pairs)
    points = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    samples = random_gap_safe_samples(rel, points, data.draw(st.integers(0, 2**32 - 1)))
    assert fault_of_engine(rel, pairs, samples, *limits) is None


@settings(max_examples=200, deadline=None)
@given(declared_pairs(), st.data(), st.sampled_from(RANGES))
def test_engine_values_are_certified_exactly_on_gap_safe_samples(case, data, limits):
    n, pairs = case
    rel = FinitePreorder.closure(n, pairs)
    samples = PartialUtility(data.draw(st.dictionaries(st.integers(0, n - 1), NUMBERS)))
    fault = fault_of_engine(rel, pairs, samples, *limits)
    assert (fault is None) == pairwise_gap_safe_finite(rel, samples).holds, fault


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: no double lies strictly between "
                                       "1e16 and the next double, so b, c and d collide")
def test_five_element_chain_with_adjacent_sample_values_is_certified():
    # a < b < c < d < e with a and e valued one ulp apart: the float
    # extension gives b, c and d exactly a's value
    pairs = [(1, 0), (2, 1), (3, 2), (4, 3)]
    samples = PartialUtility({0: 1e16, 4: 1.0000000000000002e16})
    assert fault_of_engine(FinitePreorder.closure(5, pairs), pairs, samples) is None
