"""The CLI's promises on generated problem files, run through ``cli.main``.

Finite files (DAGs, equivalent elements, tied values) and Pareto files
with k from 1 to 3, with values and coordinates of every magnitude.  On
every file:

- each command exits 0, 1 or 2, never 3;
- ``check`` exits 0 exactly when ``extend`` does;
- on exit 1 the refusal witness of ``extend`` (and of ``grid`` at k = 2)
  is the gap-safe witness ``check`` prints, byte for byte;
- ``extend`` at a sample point prints that sample's value.

Strictness under float rounding is not asserted here: the arctan squash
collides from about 1e8 (ROADMAP item 4, pinned by xfail tests).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ordext.cli import main

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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _check_promises(doc, queries, values, grid):
    with tempfile.TemporaryDirectory() as tmp:
        problem, query_file = Path(tmp, "p.json"), Path(tmp, "q.json")
        problem.write_text(json.dumps(doc))
        query_file.write_text(json.dumps(queries))
        check, check_out, _ = _run(["check", str(problem)])
        extend, extend_out, extend_err = _run(
            ["extend", str(problem), "--queries", str(query_file)])
        refusals = [extend_err]
        if grid:
            code, _, grid_err = _run(["grid", str(problem), "--bbox=-1,-1,1,1",
                                      "--resolution=3", f"--out={Path(tmp, 'g.csv')}"])
            assert code == extend
            refusals.append(grid_err)
    assert (check == 0) == (extend == 0)
    if check == 1:
        witness = check_out.split("gap-safe increasing: NO\n")[1].splitlines()[0]
        for err in refusals:
            assert err == f"refusing: instance is not gap-safe increasing\n{witness}\n"
    if extend == 0:
        # one row per query, in order: x, f, region, bands; no label holds
        # a blank.  -0.0 may print as 0, so the cells compare as numbers
        rows = extend_out.splitlines()[1:]
        assert len(rows) == len(queries)
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
