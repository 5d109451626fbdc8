"""The bulk input checks against the per-entry checks they stand in front of.

A list of Pareto sample entries, queries, sample values or points is first
checked in bulk (``problemfile._float_samples``, ``orders.all_float_vectors``
and ``all_finite_floats``), which accepts only exact, finite floats in
containers of the right type and length.  A finite space's element names
and ``geq`` pairs are too (``problemfile._names_in_bulk`` and
``_pairs_in_bulk``), which accept only unique, non-empty, UTF-8-encodable
names and two-name pairs of known names.  Whatever it declines goes to the
per-entry check, which names the first bad entry.  Each test draws lists
that mix plain floats with every input class that must decline (``int``,
``bool``, ``Fraction``, NaN, infinities, huge ints, wrong types and lengths,
unknown or missing keys, repeated points with ``-0.0`` against ``0.0``) and
requires the public entry point to return what the per-entry path returns,
or to raise the same exception type with the same message.
"""

import json
import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ordext import problemfile
from ordext.contours import PartialUtility, _check_values
from ordext.orders import ParetoSpace
from ordext.problemfile import parse_problem, parse_queries

FLOATS = st.sampled_from([0.0, -0.0, 0.5, -2.5, 1.0, 7.25, 1e300, -1e-300])
# what a JSON document can carry besides a finite float
JSON_ODD = st.sampled_from(
    [0, 1, -3, True, False, math.nan, math.inf, -math.inf, 10**400, None, "1.0", [1.0]]
)
# what a library caller can pass besides
ODD = st.one_of(JSON_ODD, st.sampled_from([Fraction(1, 3), Fraction(10**400), (1.0,)]))
# each spoiler kind is drawn in about one example in twenty, so each test
# runs enough examples to meet every kind many times
MANY = settings(max_examples=400)


def outcome(call):
    """``("ok", repr(result))``, or the exception's type and message.

    ``repr`` tells ``-0.0`` from ``0.0`` and ``1`` from ``1.0``, where ``==``
    would not.
    """
    try:
        return "ok", repr(call())
    except Exception as exc:
        return type(exc), str(exc)


def spoil(draw, items, spoilers):
    """Apply a spoiler to each of up to two distinct entries of ``items``.

    A list left unspoiled is the all-float case, which the bulk check
    accepts; one spoiler makes a list that it must decline.
    """
    if items:
        for i in draw(st.lists(st.integers(0, len(items) - 1), max_size=2, unique=True)):
            items[i] = draw(st.sampled_from(spoilers))(draw, items[i])
    return items


def odd_coordinate(odd):
    def spoiler(draw, vector):
        coords = list(vector)
        if coords:
            coords[draw(st.integers(0, len(coords) - 1))] = draw(odd)
        return type(vector)(coords)
    return spoiler


def negated_zeros(draw, vector):
    return type(vector)(-c if c == 0.0 else c for c in vector)


VECTOR_SPOILERS = [
    lambda draw, v: v[:-1],
    lambda draw, v: v + type(v)([0.0]),
    lambda draw, v: draw(st.sampled_from([None, 1.0, "p", {"point": list(v)}])),
]


def vector_spoilers(odd):
    return [odd_coordinate(odd), *VECTOR_SPOILERS]


def vectors(k, container):
    return st.lists(FLOATS, min_size=k, max_size=k).map(container)


def spoiled_point(draw, entry):
    spoiler = draw(st.sampled_from([*vector_spoilers(JSON_ODD), negated_zeros]))
    return {**entry, "point": spoiler(draw, entry["point"])}


SAMPLE_SPOILERS = [
    spoiled_point,
    lambda draw, e: {**e, "value": draw(JSON_ODD)},
    lambda draw, e: {key: v for key, v in e.items() if key != "point"},
    lambda draw, e: {key: v for key, v in e.items() if key != "value"},
    lambda draw, e: {**e, "note": 1.0},
    lambda draw, e: [e.get("point"), e.get("value")],
]


@st.composite
def pareto_documents(draw):
    k = draw(st.integers(1, 3))
    entries = [
        {"point": point, "value": value}
        for point, value in draw(st.lists(st.tuples(vectors(k, list), FLOATS), max_size=6))
    ]
    if entries and draw(st.booleans()):
        # one point twice, as it is or with its zeros negated
        entries.append({"point": negated_zeros(draw, entries[0]["point"]), "value": 0.5})
    entries = spoil(draw, entries, SAMPLE_SPOILERS)
    return k, {"space": {"kind": "pareto", "dimension": k}, "samples": entries}


@st.composite
def vector_lists(draw, container, odd):
    k = draw(st.integers(1, 3))
    items = draw(st.lists(vectors(k, container), max_size=6))
    return k, spoil(draw, items, vector_spoilers(odd))


@MANY
@given(pareto_documents())
def test_parse_problem_matches_the_per_entry_path(case):
    k, doc = case
    text = json.dumps(doc)
    got = outcome(lambda: parse_problem(text))
    with mock.patch.object(problemfile, "_float_samples", return_value=None):
        want = outcome(lambda: parse_problem(text))
    assert got == want
    # where the bulk check accepts, it returns what the per-entry path does
    raw = json.loads(text)["samples"]
    bulk = problemfile._float_samples(raw, k)
    if bulk is not None:
        assert repr(bulk) == repr(problemfile._each_sample(raw, "pareto", None, k))


@MANY
@given(vector_lists(list, JSON_ODD))
def test_parse_queries_matches_the_per_entry_path(case):
    k, queries = case
    inst = parse_problem(json.dumps({"space": {"kind": "pareto", "dimension": k}}))
    text = json.dumps(queries)
    got = outcome(lambda: parse_queries(text, inst))
    want = outcome(lambda: problemfile._each_query(json.loads(text), inst))
    assert got == want


@MANY
@given(st.lists(st.tuples(st.tuples(FLOATS), st.one_of(FLOATS, FLOATS, ODD)), max_size=6))
def test_partial_utility_matches_the_per_entry_path(items):
    values = dict(items)
    got = outcome(lambda: dict(PartialUtility(values).items()))

    def per_entry():
        _check_values(values)
        return dict(values)

    assert got == outcome(per_entry)


@MANY
@given(vector_lists(tuple, ODD))
def test_pareto_point_check_matches_the_per_entry_path(case):
    k, points = case
    rel = ParetoSpace(k)
    got = outcome(lambda: rel._check_points(points))
    want = outcome(lambda: [rel._check(p) for p in points])
    assert got == want


NAMES = st.sampled_from(["a", "b", "c", "d", "é", "long name"])
# what a JSON document can carry in place of an element name
ODD_NAME = st.sampled_from(["", "\ud800", "zz", 0, 1.5, True, None, ["a"], {"a": 1}])


def spoiled_pair(draw, pair):
    return draw(st.sampled_from([
        [pair[0]], [*pair, pair[0]], "a", None, {"pair": pair},
        [draw(ODD_NAME), pair[1]], [pair[0], draw(ODD_NAME)],
    ]))


@st.composite
def finite_documents(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    pairs = draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=2), max_size=8))
    if draw(st.booleans()):
        names = spoil(draw, names, [lambda draw, name: draw(ODD_NAME | NAMES)])
    pairs = spoil(draw, pairs, [spoiled_pair])
    samples = [{"element": name, "value": 0.5} for name in names[:1] if isinstance(name, str)]
    return {"space": {"kind": "finite", "elements": names, "geq": pairs}, "samples": samples}


@MANY
@given(finite_documents())
def test_finite_space_matches_the_per_entry_path(doc):
    text = json.dumps(doc)
    got = outcome(lambda: parse_problem(text))
    with mock.patch.object(problemfile, "_names_in_bulk", return_value=None), \
            mock.patch.object(problemfile, "_pairs_in_bulk", return_value=None):
        want = outcome(lambda: parse_problem(text))
    assert got == want
    # where the bulk checks accept, they return what the per-entry loops do
    space = json.loads(text)["space"]
    index = problemfile._names_in_bulk(space["elements"])
    if index is not None:
        assert index == problemfile._each_name(space["elements"])
        pairs = problemfile._pairs_in_bulk(space["geq"], index)
        if pairs is not None:
            assert pairs == problemfile._each_pair(space["geq"], index)
