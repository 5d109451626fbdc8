"""Independent checks of ordext's command output.

Each function returns ``None`` when the output is right and a one-line
reason when it is not.  The checks use only the generator's ground truth
(points, values, ``geq`` pairs, planted verdicts) and never call ordext.

* The exit code equals the planted verdict.
* ``check`` prints three verdict lines and a conclusion that agree with
  the verdict; a failing verdict's witness pair really is ordered the
  way the witness claims, with values that violate strict increase.
* ``extend`` prints one row per query.  Rows at sample points equal the
  sample value; values never decrease along a dominating pair of answered
  points.  The test is weak because the table prints ``.12g``.
* ``grid`` writes ``resolution**2`` rows on the requested axes whose
  values strictly increase along both grid directions.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Optional, Sequence

from corpus import Case, reachable_below

REGIONS = {"P", "A", "L", "U", "N"}
BANDS = {"S1", "S2", "S3", "S4"}


def label(case: Case, x) -> str:
    """The text the CLI prints for an element: its name, or a compact tuple."""
    if case.kind == "finite":
        return x
    return "(" + ",".join(repr(float(c)) for c in x) + ")"


def _parse_point(text: str):
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a point label: {text!r}")
    return tuple(float(c) for c in text[1:-1].split(","))


def finite_below(case: Case) -> Dict[str, int]:
    """Name -> bitmask (over listing positions) of elements weakly below it."""
    index = {name: i for i, name in enumerate(case.elements)}
    masks = reachable_below(len(index), [(index[hi], index[lo]) for hi, lo in case.geq])
    return dict(zip(case.elements, masks))


def check_check(case: Case, code: int, stdout: str) -> Optional[str]:
    if code != case.verdict:
        return f"check exit {code}, planted {case.verdict}"
    lines = stdout.splitlines()
    verdicts = {}
    witnesses = {}
    for i, line in enumerate(lines):
        title, sep, answer = line.partition(": ")
        if sep and answer in ("yes", "NO"):
            verdicts[title] = answer
            if answer == "NO" and i + 1 < len(lines):
                witnesses[title] = lines[i + 1].strip()
    expected = {"weakly increasing", "strictly increasing", "gap-safe increasing"}
    if set(verdicts) != expected:
        return f"check printed verdicts {sorted(verdicts)}"
    conclusion = lines[-1] if lines else ""
    if case.verdict == 0:
        if set(verdicts.values()) != {"yes"}:
            return f"check verdicts {verdicts} on a gap-safe file"
        if not conclusion.startswith("extendable:"):
            return f"check conclusion {conclusion!r} on a gap-safe file"
        return None
    if verdicts["gap-safe increasing"] != "NO":
        return "check found a planted violation gap-safe"
    if not conclusion.startswith("not extendable:"):
        return f"check conclusion {conclusion!r} on a violating file"
    return _check_witness(case, witnesses.get("gap-safe increasing", ""))


def _check_witness(case: Case, line: str) -> Optional[str]:
    if not line.startswith("witness: "):
        return f"no witness after the failing gap-safe verdict: {line!r}"
    fields = dict(
        part.split("=", 1) for part in line[len("witness: "):].split(" (")[0].split(", ")
    )
    try:
        if case.kind == "finite":
            lo, hi = fields["x"], fields["x'"]
            known = set(case.elements)
            if lo not in known or hi not in known:
                return f"witness names unknown elements {lo!r}, {hi!r}"
            below = finite_below(case)
            index = {name: i for i, name in enumerate(case.elements)}
            hi_above = (below[hi] >> index[lo]) & 1
            lo_above = (below[lo] >> index[hi]) & 1
        else:
            lo, hi = _parse_point(fields["x"]), _parse_point(fields["x'"])
            hi_above = all(h >= l for h, l in zip(hi, lo))
            lo_above = all(l >= h for h, l in zip(hi, lo))
    except (KeyError, ValueError) as exc:
        return f"unreadable witness {line!r}: {exc}"
    if not hi_above:
        return f"witness x'={hi} does not dominate x={lo}"
    values = case.sample_values
    if lo in values and hi in values:
        strict = not lo_above
        ok = values[hi] > values[lo] if strict else values[hi] == values[lo]
        if ok:
            return f"witness pair {lo}, {hi} does not violate strict increase"
    return None


def check_extend(case: Case, code: int, stdout: str) -> Optional[str]:
    if code != case.verdict:
        return f"extend exit {code}, planted {case.verdict}"
    rows = stdout.splitlines()
    if case.verdict:
        return "extend printed rows while refusing" if rows else None
    if not rows or rows[0].split() != ["x", "f", "region", "bands"]:
        return "extend table header missing"
    rows = [row.split() for row in rows[1:]]
    if len(rows) != len(case.queries):
        return f"extend printed {len(rows)} rows for {len(case.queries)} queries"
    values = []
    for i, (query, row) in enumerate(zip(case.queries, rows)):
        if len(row) != 4 or row[0] != label(case, query):
            return f"extend row {i} is {row!r} for query {label(case, query)}"
        if row[2] not in REGIONS or not set(row[3].split("|")) <= BANDS:
            return f"extend row {i} has labels {row[2]!r}, {row[3]!r}"
        if query in case.sample_values:
            if row[1] != format(case.sample_values[query], ".12g") or row[2] != "P":
                return f"extend row {i} at sample {row[0]} reads {row[1]} {row[2]}"
        values.append(float(row[1]))
    return _check_weak_increase(case, values)


def _check_weak_increase(case: Case, values: Sequence[float]) -> Optional[str]:
    if case.kind == "finite":
        # Every element is answered, so the closure's pairs hold exactly
        # when each declared pair does.
        answered = dict(zip(case.queries, values))
        if len(answered) != len(case.elements):
            return "finite extend did not answer every element"
        for hi, lo in case.geq:
            if answered[hi] < answered[lo]:
                return f"extend decreases from {lo} to {hi}"
        return None
    pts = [tuple(q) for q in case.queries]
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if values[j] < values[i] and all(a >= b for a, b in zip(q, p)):
                return f"extend decreases from {label(case, p)} to {label(case, q)}"
    return None


def axis(lo: float, hi: float, resolution: int) -> List[float]:
    if resolution == 1:
        return [lo]
    step = (hi - lo) / (resolution - 1)
    return [lo + step * i for i in range(resolution)]


def check_grid(case: Case, code: int, stdout: str, csv_text: str) -> Optional[str]:
    if code != case.verdict:
        return f"grid exit {code}, planted {case.verdict}"
    if case.verdict:
        return None
    res = case.resolution
    if not stdout.startswith(f"wrote {res * res} rows to "):
        return f"grid printed {stdout.strip()!r}"
    rows = list(csv.reader(csv_text.splitlines()))
    if not rows or rows[0] != ["x1", "x2", "f", "alun", "s_labels"]:
        return "grid CSV header missing"
    rows = rows[1:]
    if len(rows) != res * res:
        return f"grid CSV has {len(rows)} rows, expected {res * res}"
    xs = axis(case.bbox[0], case.bbox[2], res)
    ys = axis(case.bbox[1], case.bbox[3], res)
    grid = []
    try:
        for k, row in enumerate(rows):
            x, y = xs[k // res], ys[k % res]
            if len(row) != 5 or abs(float(row[0]) - x) > 1e-9 or abs(float(row[1]) - y) > 1e-9:
                return f"grid row {k + 2} is {row!r}, expected point ({x}, {y})"
            if row[3] not in REGIONS or not set(row[4].split("|")) <= BANDS:
                return f"grid row {k + 2} has labels {row[3]!r}, {row[4]!r}"
            grid.append(float(row[2]))
    except ValueError as exc:
        return f"grid CSV unreadable: {exc}"
    for k, f in enumerate(grid):
        i, j = divmod(k, res)
        if j + 1 < res and not grid[k + 1] > f:
            return f"grid not increasing from row {k + 2} to {k + 3}"
        if i + 1 < res and not grid[k + res] > f:
            return f"grid not increasing from row {k + 2} to {k + res + 2}"
    return None
