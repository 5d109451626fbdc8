import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordext.orders import FinitePreorder, ParetoSpace, UnsupportedQueryError
from ordext.problemfile import (
    ProblemFileError,
    ProblemInstance,
    _float_samples,
    parse_base_utility_flag,
    parse_problem,
    parse_queries,
)

from reference import sample_order, serialize_problem

ROOT = Path(__file__).resolve().parents[1]

FINITE_DOC = {
    "space": {
        "kind": "finite",
        "elements": ["low", "mid", "high"],
        "geq": [["mid", "low"], ["high", "mid"]],
    },
    "samples": [
        {"element": "low", "value": 0.0},
        {"element": "high", "value": 1.0},
    ],
    "alpha": 0.0,
    "beta": 1.0,
}

PARETO_DOC = {
    "space": {"kind": "pareto", "dimension": 2},
    "samples": [
        {"point": [0.0, 0.0], "value": 0.0},
        {"point": [1.0, 1.0], "value": 1.0},
    ],
    "alpha": -1.0,
    "beta": 2.0,
    "base_utility": {"kind": "weighted-sum", "weights": [1.0, 0.5]},
}


def text(doc):
    return json.dumps(doc)


def test_finite_round_trip():
    inst = parse_problem(text(FINITE_DOC))
    again = parse_problem(serialize_problem(inst))
    assert again == inst


def test_pareto_round_trip():
    inst = parse_problem(text(PARETO_DOC))
    again = parse_problem(serialize_problem(inst))
    assert again == inst
    assert again.base_utility == ("weighted-sum", (1.0, 0.5))


def test_fixture_round_trip():
    inst = parse_problem(text({"space": {"kind": "fixture", "name": "example-gap"}}))
    assert inst.kind == "fixture"
    assert parse_problem(serialize_problem(inst)) == inst
    assert inst.fixture().name == "example-gap"


def test_finite_relation_closure():
    inst = parse_problem(text(FINITE_DOC))
    rel = inst.relation()
    assert isinstance(rel, FinitePreorder)
    low, mid, high = 0, 1, 2
    assert rel.geq(high, low)  # through the closure
    assert not rel.geq(low, high)
    samples = inst.sample_utility()
    assert samples.value(low) == 0.0
    assert samples.value(high) == 1.0


def test_names_map_by_element_names_of_each_instance():
    # the name -> index map is derived from element_names, so an instance
    # built directly or through replace() cannot carry a stale one.  The
    # geq pairs are positions in element_names, resolved once by the
    # parser, so they stay with the positions: what was listed third is
    # still on top, under its new name
    inst = parse_problem(text(FINITE_DOC))
    flipped = replace(inst, element_names=("high", "mid", "low"))
    low, mid, high = 2, 1, 0
    rel = flipped.relation()
    assert rel.geq(low, high) and not rel.geq(high, low)
    assert flipped.sample_utility().value(high) == 1.0
    assert parse_queries('["mid", "low"]', flipped) == [mid, low]
    direct = ProblemInstance(
        kind="finite", element_names=inst.element_names, geq_pairs=inst.geq_pairs,
        samples=inst.samples,
    )
    assert direct == inst
    assert direct.relation() == inst.relation()


def test_finite_engine_restricts():
    inst = parse_problem(text(FINITE_DOC))
    engine = inst.to_engine()
    assert engine.evaluate(0) == 0.0
    assert engine.evaluate(2) == 1.0
    assert 0.0 < engine.evaluate(1) < 1.0


def test_pareto_engine_uses_weights():
    inst = parse_problem(text(PARETO_DOC))
    engine = inst.to_engine()
    assert isinstance(inst.relation(), ParetoSpace)
    # base weighted sum at (2, 0) is 2, at (0, 4) also 2: same utility
    assert engine.scaled_utility((2.0, 0.0)) == engine.scaled_utility((0.0, 4.0))


def test_fixture_has_no_engine_or_samples():
    inst = parse_problem(text({"space": {"kind": "fixture", "name": "example-nin"}}))
    with pytest.raises(UnsupportedQueryError):
        inst.to_engine()
    with pytest.raises(UnsupportedQueryError):
        inst.sample_utility()


def test_defaults_applied():
    doc = {"space": {"kind": "pareto", "dimension": 1}}
    inst = parse_problem(text(doc))
    assert (inst.alpha, inst.beta) == (0.0, 1.0)
    assert inst.samples == ()
    assert inst.base_utility is None


@pytest.mark.parametrize(
    "mangle, location",
    [
        (lambda d: d.pop("space"), "space"),
        (lambda d: d.update(extra=1), "$.extra"),
        (lambda d: d["space"].update(kind="mystery"), "space.kind"),
        (lambda d: d["space"].update(elements=["a", "a"]), "space.elements"),
        (lambda d: d["space"]["geq"].append(["ghost", "low"]), "space.geq[2]"),
        (lambda d: d["samples"].append({"element": "ghost", "value": 0.0}),
         "samples[2].element"),
        (lambda d: d["samples"].append({"element": "mid", "value": "x"}),
         "samples[2].value"),
        (lambda d: d["samples"].append(dict(d["samples"][0])), "samples[2]"),
        (lambda d: d.update(alpha=2.0), "alpha"),
        (lambda d: d.update(base_utility={"kind": "weighted-sum", "weights": [1.0]}),
         "base_utility"),
    ],
)
def test_finite_rejections(mangle, location):
    doc = json.loads(text(FINITE_DOC))
    mangle(doc)
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text(doc))
    assert err.value.location == location


@pytest.mark.parametrize(
    "mangle, location",
    [
        (lambda d: d["space"].update(dimension=0), "space.dimension"),
        (lambda d: d["samples"].append({"point": [1.0], "value": 0.0}),
         "samples[2].point"),
        (lambda d: d["samples"].append({"point": [1.0, None], "value": 0.0}),
         "samples[2].point[1]"),
        (lambda d: d["base_utility"].update(weights=[1.0, -2.0]),
         "base_utility.weights"),
        (lambda d: d.update(base_utility={"kind": "levels"}), "base_utility"),
    ],
)
def test_pareto_rejections(mangle, location):
    doc = json.loads(text(PARETO_DOC))
    mangle(doc)
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text(doc))
    assert err.value.location == location


def test_not_json_rejected():
    with pytest.raises(ProblemFileError) as err:
        parse_problem("{nope")
    assert err.value.location == "$"


def test_infinite_value_rejected():
    doc = json.loads(text(FINITE_DOC))
    doc["samples"][0]["value"] = math.inf
    with pytest.raises(ProblemFileError):
        parse_problem(json.dumps(doc))


def test_unknown_fixture_rejected():
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text({"space": {"kind": "fixture", "name": "mystery"}}))
    assert err.value.location == "space.name"


def test_fixture_rejects_samples_key():
    doc = {"space": {"kind": "fixture", "name": "example-gap"}, "samples": []}
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text(doc))
    assert err.value.location == "$.samples"


def test_parse_queries_finite():
    inst = parse_problem(text(FINITE_DOC))
    assert parse_queries('["mid", "low"]', inst) == [1, 0]
    with pytest.raises(ProblemFileError):
        parse_queries('["ghost"]', inst)


def test_parse_queries_pareto():
    inst = parse_problem(text(PARETO_DOC))
    assert parse_queries("[[0.5, 2.0]]", inst) == [(0.5, 2.0)]
    with pytest.raises(ProblemFileError):
        parse_queries("[[0.5]]", inst)


def test_parse_queries_fixture():
    inst = parse_problem(text({"space": {"kind": "fixture", "name": "example-gap"}}))
    with pytest.raises(ProblemFileError):
        parse_queries("[[0.0]]", inst)


def test_with_range_override():
    inst = parse_problem(text(FINITE_DOC))
    wider = inst.with_range(-2.0, None)
    assert (wider.alpha, wider.beta) == (-2.0, 1.0)
    with pytest.raises(ProblemFileError):
        inst.with_range(5.0, None)


@pytest.mark.parametrize(
    "alpha, beta", [(-1e308, 1e308), (-1.7e308, 0.5e308), (-1e300, 1.7976931348623157e308)]
)
def test_overflowing_range_rejected(alpha, beta):
    doc = json.loads(text(FINITE_DOC))
    doc.update(alpha=alpha, beta=beta)
    with pytest.raises(ProblemFileError) as err:
        parse_problem(json.dumps(doc))
    assert err.value.location == "beta"
    inst = parse_problem(text(FINITE_DOC))
    with pytest.raises(ProblemFileError):
        inst.with_range(alpha, beta)
    with pytest.raises(ProblemFileError):
        inst.with_range(-math.inf, None)


def test_wide_finite_range_accepted():
    inst = parse_problem(text(FINITE_DOC)).with_range(-0.8e308, 0.8e308)
    assert inst.beta - inst.alpha == 1.6e308


def test_base_utility_flag():
    finite = parse_problem(text(FINITE_DOC))
    assert parse_base_utility_flag("levels", finite).base_utility == ("levels",)
    pareto = parse_problem(text(PARETO_DOC))
    swapped = parse_base_utility_flag("weighted-sum:2,3", pareto)
    assert swapped.base_utility == ("weighted-sum", (2.0, 3.0))
    with pytest.raises(ProblemFileError):
        parse_base_utility_flag("weighted-sum:2,3", finite)
    with pytest.raises(ProblemFileError):
        parse_base_utility_flag("sideways", finite)
    with pytest.raises(ProblemFileError):
        parse_base_utility_flag("weighted-sum:a,b", pareto)


@pytest.mark.parametrize("weights", ["nan,1", "1,inf", "1e400,1", "1,-inf"])
def test_base_utility_flag_rejects_non_finite_weights(weights):
    pareto = parse_problem(text(PARETO_DOC))
    with pytest.raises(ProblemFileError) as err:
        parse_base_utility_flag(f"weighted-sum:{weights}", pareto)
    bad = [i for i, w in enumerate(weights.split(",")) if w != "1"][0]
    assert err.value.location == f"base_utility.weights[{bad}]"
    assert err.value.message == "expected a finite number"


def test_element_label():
    inst = parse_problem(text(FINITE_DOC))
    assert inst.element_label(2) == "high"
    pareto = parse_problem(text(PARETO_DOC))
    assert pareto.element_label((0.5, 1.0)) == "(0.5,1.0)"


# Coordinates whose reprs meet each way one float repr can be a proper
# prefix of another (1.5 / 1.55, 5e-32 / 5e-324, 1.5 / 1.5e+16,
# 1e+16 / 1e+160), zeros of both signs, and pairs whose repr order is not
# their numeric order (-1.0 / -1.05, 1e-05 / 0.0001, 2.0 / 10.0).  An int
# is read as the float it equals, and sends the file through the checks
# entry by entry.
ORDER_FLOATS = [1.5, 1.55, 5e-32, 5e-324, 1.5e16, 1e16, 1e160, -0.0, 0.0,
                -1.0, -1.05, 1e-05, 0.0001, 2.0, 10.0]
ORDER_INTS = [0, -1, 2, 10, 10**16]


@st.composite
def pareto_samples(draw):
    """(dimension, [(point, value), ...]) with distinct points, many of them
    sharing a first coordinate; with ints somewhere, or all floats."""
    k = draw(st.integers(1, 3))
    with_ints = draw(st.booleans())
    pool = ORDER_FLOATS + ORDER_INTS if with_ints else ORDER_FLOATS
    heads = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    point = st.tuples(st.sampled_from(heads), *[st.sampled_from(pool)] * (k - 1))
    points = draw(st.lists(point, min_size=1, max_size=30,
                           unique_by=lambda p: tuple(map(float, p))))
    values = draw(st.lists(st.sampled_from(pool), min_size=len(points),
                           max_size=len(points)))
    if with_ints:
        values[0] = draw(st.sampled_from(ORDER_INTS))
    return k, list(zip(points, values))


def as_parsed(listed):
    """The (point, value) pairs of a file as the parser reads them."""
    return [(tuple(map(float, p)), float(v)) for p, v in listed]


@settings(max_examples=300, deadline=None)
@given(pareto_samples())
def test_pareto_samples_are_kept_in_the_order_of_their_reprs(drawn):
    k, listed = drawn
    doc = {"space": {"kind": "pareto", "dimension": k},
           "samples": [{"point": list(p), "value": v} for p, v in listed]}
    with_ints = any(type(c) is int for p, v in listed for c in (*p, v))
    # an int makes the bulk checks decline, so each path is drawn
    assert (_float_samples(doc["samples"], k) is None) == with_ints
    inst = parse_problem(text(doc))
    assert list(map(repr, inst.samples)) == list(map(repr, sample_order(as_parsed(listed))))


def load_corpus():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["pareto-diagnose", "pareto-grid"])
def test_benchmark_corpus_samples_are_kept_in_the_order_of_their_reprs(workload, seed):
    for case in load_corpus().generate(workload, seed):
        listed = [(s["point"], s["value"]) for s in case.problem["samples"]]
        inst = parse_problem(text(case.problem))
        assert list(map(repr, inst.samples)) == list(map(repr, sample_order(as_parsed(listed))))
