"""The CLI's promises on generated problem files, run through ``cli.main``.

Finite files (DAGs, equivalent elements, tied values) and Pareto files
with k from 1 to 3, with values and coordinates of every magnitude, under
the default range and under ranges near the float limits, given in the
file or as flags.  On every file:

- each command exits 0, 1 or 2, never 3;
- ``check`` exits 0 exactly when ``extend`` does, unless ``extend``
  rejects the range of its flags;
- on exit 1 every witness ``check`` prints re-verifies from the relation
  and the samples, and the refusal witness of ``extend`` (and of ``grid``
  at k = 2) is the gap-safe witness ``check`` prints, byte for byte;
- every value ``extend`` prints is finite;
- ``extend`` at a sample point prints that sample's value.

Strictness under float rounding is not asserted here: the arctan squash
collides from about 1e8, and narrow ranges collide sooner (ROADMAP item 4,
pinned by xfail tests).
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordext.cli import main
from ordext.problemfile import parse_problem

from reference import scan_record

# every magnitude, with ties of every kind: -0.0/0.0/0, 1/1.0, and repeats
NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0, 1, 1.0, 2, 0.5, -1e300, 1e300, 5e-324, 1e8, 1e8 + 1]),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
)
NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f", "é", "名", "x\U0001F600", "\ud800"])


@st.composite
def finite_files(draw):
    """(file, queries, sample values by query position): every name is queried."""
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    n = len(names)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # mostly a DAG (higher index above lower), plus a few edges back down,
    # which make equivalent elements
    dag = [(max(i, j), min(i, j)) for i, j in draw(st.lists(pairs, max_size=2 * n))]
    back = draw(st.lists(pairs, max_size=2))
    geq = [[names[hi], names[lo]] for hi, lo in dag + back]
    sampled = draw(st.lists(st.sampled_from(names), unique=True, max_size=n))
    samples = [{"element": e, "value": draw(NUMBERS)} for e in sampled]
    doc = {"space": {"kind": "finite", "elements": names, "geq": geq}, "samples": samples}
    values = {e["element"]: e["value"] for e in samples}
    return doc, names, {i: values[e] for i, e in enumerate(names) if e in values}


@st.composite
def pareto_files(draw):
    """(file, queries, sample values by query position): the sample points
    are queried first, then other points."""
    k = draw(st.integers(1, 3))
    coordinates = st.one_of(st.sampled_from([-0.0, 0.0, 0, 1, 1.0, 0.5]), NUMBERS)
    point = st.lists(coordinates, min_size=k, max_size=k)
    samples = [{"point": p, "value": draw(NUMBERS)}
               for p in draw(st.lists(point, max_size=6))]
    doc = {"space": {"kind": "pareto", "dimension": k}, "samples": samples}
    queries = [s["point"] for s in samples] + draw(st.lists(point, max_size=3))
    return doc, queries, {i: s["value"] for i, s in enumerate(samples)}


MAX = sys.float_info.max
# ends of ranges whose span is near the largest float, or beyond it
HALVES = [MAX / 2, MAX / 2 * (1 - 2**-40), 8.98e307, 4e307, 1e307, 1e300]
HUGE = [-MAX, -1e308, -1e300, 1e300, 1e308, MAX / 2, MAX]


def _ulps_above(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def ranges(draw):
    """``(alpha, beta, where)`` near the float limits, ``where`` naming the
    file or the flags of ``extend`` and ``grid``: spans of a few ulps at
    every magnitude, spans near the largest float, and huge ends."""
    alpha, beta = draw(st.one_of(
        st.builds(lambda lo, n: (lo, _ulps_above(lo, n)),
                  st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 3)),
        st.builds(lambda lo, hi: (-lo, hi), st.sampled_from(HALVES), st.sampled_from(HALVES)),
        st.tuples(st.sampled_from(HUGE), st.sampled_from(HUGE)).filter(lambda r: r[0] < r[1]),
    ))
    return alpha, beta, draw(st.sampled_from(["file", "flags"]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    return code, out.getvalue(), err.getvalue()


# one witness line: the two elements, two labelled values and the note
WITNESS = re.compile(r"  witness: x=(.*?), x'=(.*?), (?:f_P\(x\)|a\(x\))=(\S+), "
                     r"(?:f_P\(x'\)|b\(x'\))=(\S+) \((.*)\)")


def _reverify_witnesses(doc, check_out):
    """Each witness ``check`` printed, checked against ``geq``, the sample
    values and the reference scan of the contour bounds."""
    inst = parse_problem(json.dumps(doc))
    rel, samples = inst.relation(), inst.sample_utility()
    element = {inst.element_label(p): p for p in samples.points}
    witnesses = [WITNESS.fullmatch(line) for line in check_out.splitlines()
                 if line.startswith("  witness: ")]
    assert witnesses
    for match in witnesses:
        assert match, check_out
        lo_label, hi_label, first, second, note = match.groups()
        x, x_prime = element[lo_label], element[hi_label]
        above, below = rel.geq(x_prime, x), rel.geq(x, x_prime)
        if note == "x' strictly dominates x but b(x') <= a(x)":
            a, b = scan_record(rel, samples, x)[0], scan_record(rel, samples, x_prime)[1]
            assert above and not below and a >= b
        else:
            a, b = samples.value(x), samples.value(x_prime)
            assert {
                "x' dominates x but has a smaller value": above and b < a,
                "strict domination without a strictly larger value": above and not below and b <= a,
                "equivalent points with different values": above and below and a != b,
            }[note]
        assert (first, second) == (str(a), str(b))


def _check_promises(doc, queries, values, grid, limits=None):
    flags = []
    if limits is not None:
        alpha, beta, where = limits
        if where == "file":
            doc = {**doc, "alpha": alpha, "beta": beta}
        else:
            flags = [f"--alpha={alpha!r}", f"--beta={beta!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        problem, query_file = Path(tmp, "p.json"), Path(tmp, "q.json")
        problem.write_text(json.dumps(doc))
        query_file.write_text(json.dumps(queries))
        check, check_out, _ = _run(["check", str(problem)])
        extend, extend_out, extend_err = _run(
            ["extend", str(problem), "--queries", str(query_file), *flags])
        refusals = [extend_err]
        if grid:
            code, _, grid_err = _run(["grid", str(problem), "--bbox=-1,-1,1,1", *flags,
                                      "--resolution=3", f"--out={Path(tmp, 'g.csv')}"])
            assert code == extend
            refusals.append(grid_err)
    if flags and check != 2 and extend == 2:
        # the flags name a range the file does not; only it may be rejected
        assert extend_err.startswith(("error: alpha: ", "error: beta: ")), extend_err
        return
    assert (check == 0) == (extend == 0)
    if check == 1:
        _reverify_witnesses(doc, check_out)
        witness = check_out.split("gap-safe increasing: NO\n")[1].splitlines()[0]
        for err in refusals:
            assert err == f"refusing: instance is not gap-safe increasing\n{witness}\n"
    if extend == 0:
        # one row per query, in order: x, f, region, bands; no label holds
        # a blank.  -0.0 may print as 0, so the cells compare as numbers
        rows = extend_out.splitlines()[1:]
        assert len(rows) == len(queries)
        assert all(math.isfinite(float(row.split()[1])) for row in rows), rows
        for i, value in values.items():
            assert float(rows[i].split()[1]) == float(format(float(value), ".12g")), rows[i]


@settings(max_examples=60, deadline=None)
@given(finite_files())
def test_cli_promises_on_finite_files(case):
    _check_promises(*case, grid=False)


@settings(max_examples=60, deadline=None)
@given(pareto_files())
def test_cli_promises_on_pareto_files(case):
    doc, queries, values = case
    _check_promises(doc, queries, values, grid=doc["space"]["dimension"] == 2)


@settings(max_examples=60, deadline=None)
@given(finite_files(), ranges())
def test_cli_promises_on_finite_files_under_ranges_near_the_float_limits(case, limits):
    _check_promises(*case, grid=False, limits=limits)


@settings(max_examples=60, deadline=None)
@given(pareto_files(), ranges())
def test_cli_promises_on_pareto_files_under_ranges_near_the_float_limits(case, limits):
    doc, queries, values = case
    _check_promises(doc, queries, values, grid=doc["space"]["dimension"] == 2, limits=limits)


ITEM_4 = "ROADMAP item 4: float rounding merges strict pairs in a narrow range"
CHAIN = {
    "space": {"kind": "finite", "elements": ["a", "b", "c", "d"],
              "geq": [["b", "a"], ["c", "b"], ["d", "c"]]},
    "samples": [{"element": "b", "value": 0.5}],
}


@pytest.mark.xfail(strict=True, reason=ITEM_4)
@pytest.mark.parametrize(
    "alpha, beta",
    [(0.0, 5e-324), (0.49999999999999994, 0.5000000000000001)],
    ids=["subnormal-span", "two-ulp-span-around-the-value"],
)
def test_a_chain_stays_strictly_ordered_in_a_narrow_range(alpha, beta):
    # a < b < c < d with f(b) = 0.5, as `extend --alpha --beta` evaluates it:
    # in (0, 5e-324) b, c and d all get 0.5; in the two-ulp range around 0.5,
    # c and d both get 0.5000000000000001
    engine = parse_problem(json.dumps(CHAIN)).with_range(alpha, beta).to_engine()
    values = [engine.evaluate(x) for x in range(4)]
    assert values[1] == 0.5
    assert values[0] < values[1] < values[2] < values[3], values
