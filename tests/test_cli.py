import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import ordext
import reference
from ordext import cli, contours, monotonicity, orders
from ordext.cli import grid_axis, main
from ordext.extension import (
    _LABEL_TABLE,
    Band,
    ContourRegion,
    DiscordantFormsError,
    ExtensionEngine,
    UnboundedContourError,
)
from ordext.orders import FinitePreorder, ParetoSpace
from ordext.problemfile import parse_problem
from ordext.utility import UtilityFn

GAP_FIXTURE = {"space": {"kind": "fixture", "name": "example-gap"}}
NIN_FIXTURE = {"space": {"kind": "fixture", "name": "example-nin"}}

FINITE_OK = {
    "space": {
        "kind": "finite",
        "elements": ["low", "mid", "high"],
        "geq": [["mid", "low"], ["high", "mid"]],
    },
    "samples": [
        {"element": "low", "value": 0.0},
        {"element": "high", "value": 1.0},
    ],
}

FINITE_STUCK = {
    "space": {
        "kind": "finite",
        "elements": ["low", "high"],
        "geq": [["high", "low"]],
    },
    "samples": [
        {"element": "low", "value": 0.5},
        {"element": "high", "value": 0.5},
    ],
}

PARETO_OK = {
    "space": {"kind": "pareto", "dimension": 2},
    "samples": [
        {"point": [0.0, 0.0], "value": 0.0},
        {"point": [1.0, 1.0], "value": 1.0},
    ],
}

UNIT_LINE = {
    "space": {"kind": "pareto", "dimension": 1},
    "samples": [
        {"point": [0.0], "value": 0.0},
        {"point": [1.0], "value": 1.0},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_example_gap(tmp_path, capsys):
    code = main(["check", write(tmp_path, "p.json", GAP_FIXTURE)])
    out = capsys.readouterr().out
    assert code == 1
    assert "gap-safe increasing: NO" in out
    assert "a(x)=0.0" in out and "b(x')=0.0" in out
    assert "x=(0.0)" in out and "x'=(1.0)" in out


def test_check_example_nin(tmp_path, capsys):
    code = main(["check", write(tmp_path, "p.json", NIN_FIXTURE)])
    out = capsys.readouterr().out
    assert code == 1
    assert "x'=Top" in out
    assert "a(x)=+inf" in out


def test_check_finite_extendable(tmp_path, capsys):
    code = main(["check", write(tmp_path, "p.json", FINITE_OK)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("yes") == 3
    assert "extendable" in out


def test_check_finite_stuck_names_elements(tmp_path, capsys):
    code = main(["check", write(tmp_path, "p.json", FINITE_STUCK)])
    out = capsys.readouterr().out
    assert code == 1
    assert "weakly increasing: yes" in out
    assert "strictly increasing: NO" in out
    assert "gap-safe increasing: NO" in out
    assert "x=low" in out and "x'=high" in out


def test_check_pareto_two_point_increasing(tmp_path, capsys):
    assert main(["check", write(tmp_path, "p.json", PARETO_OK)]) == 0
    assert "extendable" in capsys.readouterr().out


def test_check_bad_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("{nope")
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_extend_table(tmp_path, capsys):
    problem = write(tmp_path, "p.json", FINITE_OK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(["low", "mid", "high"]))
    code = main(["extend", problem, "--queries", str(queries)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["x", "f", "region", "bands"]
    table = {row.split()[0]: row.split()[1:] for row in lines[1:]}
    assert table["low"][0] == "0" and table["low"][1] == "P"
    assert table["high"][0] == "1" and table["high"][1] == "P"
    assert 0.0 < float(table["mid"][0]) < 1.0
    assert table["mid"][1] == "A"


def test_extend_refuses_non_gap_safe(tmp_path, capsys):
    problem = write(tmp_path, "p.json", FINITE_STUCK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(["low"]))
    code = main(["extend", problem, "--queries", str(queries)])
    captured = capsys.readouterr()
    assert code == 1
    assert "refusing" in captured.err
    assert "witness" in captured.err


def test_extend_midpoint_value(tmp_path, capsys):
    problem = write(tmp_path, "p.json", UNIT_LINE)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[0.5]]))
    code = main(["extend", problem, "--queries", str(queries)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.6475836" in out


def test_extend_detached_query(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[2.0, -1.0]]))
    code = main(["extend", problem, "--queries", str(queries)])
    out = capsys.readouterr().out
    assert code == 0
    tokens = out.splitlines()[1].split()
    # a detached point takes the scaled utility value: squash of sum 1.0
    assert tokens == ["(2.0,-1.0)", "0.75", "N", "S4"]


def test_regions_report(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[0.0, 0.0], [2.0, -1.0], [0.5, 0.5]]))
    code = main(["regions", problem, "--queries", str(queries)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["x", "a", "b", "region", "bands"]
    assert "+inf" in out and "-inf" in out  # detached point bounds
    assert " P " in lines[1]


def test_regions_allowed_without_gap_safety(tmp_path, capsys):
    problem = write(tmp_path, "p.json", FINITE_STUCK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(["low", "high"]))
    assert main(["regions", problem, "--queries", str(queries)]) == 0
    assert "0.5" in capsys.readouterr().out


def test_grid_csv(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    out_path = tmp_path / "grid.csv"
    code = main(
        [
            "grid",
            problem,
            "--bbox",
            "0,0,1,1",
            "--resolution",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x1", "x2", "f", "alun", "s_labels"]
    assert len(rows) == 5
    by_point = {(float(r[0]), float(r[1])): r for r in rows[1:]}
    # grid value at a sample point equals the sample value
    assert float(by_point[(0.0, 0.0)][2]) == 0.0
    assert float(by_point[(1.0, 1.0)][2]) == 1.0
    assert by_point[(0.0, 0.0)][3] == "P"
    for row in rows[1:]:
        assert set(row[4].split("|")) <= {"S1", "S2", "S3", "S4"}


def test_grid_monotone_along_rows_and_columns(tmp_path):
    problem = write(tmp_path, "p.json", PARETO_OK)
    out_path = tmp_path / "grid.csv"
    # negative corners need the equals form or argparse reads them as flags
    assert (
        main(
            [
                "grid",
                problem,
                "--bbox=-0.5,-0.5,1.5,1.5",
                "--resolution",
                "6",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    xs = sorted({p[0] for p in values})
    ys = sorted({p[1] for p in values})
    for x in xs:
        column = [values[(x, y)] for y in ys]
        assert all(lo < hi for lo, hi in zip(column, column[1:]))
    for y in ys:
        row = [values[(x, y)] for x in xs]
        assert all(lo < hi for lo, hi in zip(row, row[1:]))


# samples (0, 0) -> 0 and (2, 2) -> 1 in the range (0, 1): the box
# -1..3 reaches every region letter, and (1, 1), with a = 0 and b = 1, is in
# all four bands
PARETO_ALL_REGIONS = {
    "space": {"kind": "pareto", "dimension": 2},
    "samples": [
        {"point": [0.0, 0.0], "value": 0.0},
        {"point": [2.0, 2.0], "value": 1.0},
    ],
}

PARETO_EXTREME = {
    "space": {"kind": "pareto", "dimension": 2},
    "samples": [
        {"point": [1e-300, -1e300], "value": 1e-300},
        {"point": [1e300, 1e300], "value": 3e-300},
    ],
}


def csv_writer_grid(problem, bbox, resolution):
    """The grid file as ``csv.writer`` writes it from ``evaluate_many``."""
    engine = parse_problem(Path(problem).read_text()).to_engine()
    (x_lo, x_hi), (y_lo, y_hi) = cli._parse_bbox(bbox)
    points = [(v1, v2) for v1 in grid_axis(x_lo, x_hi, resolution)
              for v2 in grid_axis(y_lo, y_hi, resolution)]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["x1", "x2", "f", "alun", "s_labels"])
    for (v1, v2), (value, region, bands) in zip(points, engine.evaluate_many(points)):
        writer.writerow([repr(v1), repr(v2), repr(value), region.value,
                         "|".join(band.value for band in bands)])
    return text.getvalue().encode()


@pytest.mark.parametrize(
    "doc, bbox, resolution",
    [(PARETO_OK, "-0.0,0,1,2", 1), (PARETO_OK, "0,-1,2,1", 3),
     (PARETO_EXTREME, "-1e300,-1e-300,1e300,1e300", 5),
     (PARETO_EXTREME, "0,-1e-300,1e-300,3e-300", 4),
     (PARETO_ALL_REGIONS, "-1,-1,3,3", 5),
     (PARETO_OK, "0,-0.0,2,0", 3), (PARETO_OK, "1,1,1,1", 2),
     (PARETO_OK, "0,-1,1.7976931348623157e308,1", 4),
     ({"space": {"kind": "pareto", "dimension": 2}, "samples": []}, "-1,-1,1,1", 3),
     ("pareto2-grid", "0,0,1,1", 9), ("pareto2-grid", "-0.25,0.125,1.5,0.875", 8)],
    ids=["negative-zero-resolution-1", "integer-corners", "huge", "tiny", "all-regions",
         "flat-y", "one-point-box", "float-max-span", "no-samples",
         "ties-nodes-outside", "ties-off-nodes"],
)
def test_grid_file_matches_csv_writer(tmp_path, capsys, doc, bbox, resolution):
    if isinstance(doc, str):  # a golden case
        doc = json.loads((GOLDEN_CASES / f"{doc}.json").read_text())
    problem = write(tmp_path, "p.json", doc)
    out_path = tmp_path / "grid.csv"
    argv = ["grid", problem, f"--bbox={bbox}", f"--resolution={resolution}",
            f"--out={out_path}"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {resolution ** 2} rows to {out_path}\n"
    want = csv_writer_grid(problem, bbox, resolution)
    assert out_path.read_bytes() == want
    if doc is PARETO_ALL_REGIONS:
        rows = list(csv.reader(want.decode().splitlines()))[1:]
        assert {row[3] for row in rows} == {"P", "A", "L", "U", "N"}
        assert "S1|S2|S3|S4" in {row[4] for row in rows}


def seeded_unit_square(seed, count, nodes=()):
    """A Pareto problem of ``count`` distinct seeded points of the unit
    square, valued strictly increasingly (so gap-safe); when ``nodes`` is
    given, half of the points take both coordinates from it."""
    rng = random.Random(seed)
    points = set()
    while len(points) < count:
        if nodes and len(points) < count // 2:
            points.add((rng.choice(nodes), rng.choice(nodes)))
        else:
            points.add((rng.random(), rng.random()))
    samples = [{"point": [x, y], "value": 3.0 * x + y + x * y} for x, y in sorted(points)]
    return {"space": {"kind": "pareto", "dimension": 2}, "samples": samples}


def golden_samples(name):
    doc = json.loads((GOLDEN_CASES / f"{name}.json").read_text())
    return {tuple(s["point"]): s["value"] for s in doc["samples"]}


@pytest.mark.parametrize("name", ["pareto2", "pareto2-grid"])
def test_golden_grid_is_strictly_increasing_and_keeps_the_samples(name):
    expected = GOLDEN_CASES.parent / "expected" / f"{name}.grid.csv"
    assert reference.grid_increase_fault(expected.read_text(), golden_samples(name)) is None


def test_seeded_grid_is_strictly_increasing_and_keeps_the_samples(tmp_path):
    # half of the 60 samples sit on grid nodes
    axis = grid_axis(-0.25, 1.25, 100)
    doc = seeded_unit_square(11, 60, nodes=axis[17:83:2])
    problem = write(tmp_path, "p.json", doc)
    out_path = tmp_path / "grid.csv"
    argv = ["grid", problem, "--bbox=-0.25,-0.25,1.25,1.25", "--resolution=100",
            f"--out={out_path}"]
    assert main(argv) == 0
    samples = {tuple(s["point"]): s["value"] for s in doc["samples"]}
    assert sum(x in axis and y in axis for x, y in samples) == 30
    assert reference.grid_increase_fault(out_path.read_text(), samples) is None


def test_grid_increase_fault_names_each_kind_of_fault():
    fault = reference.grid_increase_fault
    head = "x1,x2,f,alun,s_labels\r\n"
    good = head + "0.0,0.0,0.0,P,S1\r\n0.0,1.0,0.5,A,S1\r\n1.0,0.0,0.5,A,S1\r\n1.0,1.0,1.0,P,S1\r\n"
    samples = {(0.0, 0.0): 0.0, (1.0, 1.0): 1.0}
    assert fault(good, samples) is None
    assert "not above" in fault(good.replace("0.0,1.0,0.5", "0.0,1.0,0.0"), samples)
    assert "not above" in fault(good.replace("1.0,1.0,1.0", "1.0,1.0,0.5"), {})
    assert "sample (1.0, 1.0)" in fault(good, {(1.0, 1.0): 2.0})
    assert "square" in fault(good + "2.0,2.0,2.0,U,S1\r\n", samples)
    assert "off the grid" in fault(good.replace("1.0,0.0,0.5", "1.0,0.5,0.5"), samples)
    flat = head + "0.0,0.0,0.0,P,S1\r\n0.0,1.0,0.5,A,S1\r\n" * 2  # x1 = 0.0 twice
    assert fault(flat, samples) is None
    assert "valued both" in fault(flat[:-10] + "0.7,A,S1\r\n", {})
    backwards = good.replace("0.0,1.0,", "0.0,-1.0,").replace("1.0,1.0,", "1.0,-1.0,")
    assert "comes after" in fault(backwards, {})


def test_grid_bytes_at_scale_are_pinned(tmp_path):
    # 90,000 points over 2,000 samples; the golden corpus pins 277 grid points
    problem = write(tmp_path, "p.json", seeded_unit_square(28, 2000))
    out_path = tmp_path / "grid.csv"
    argv = ["grid", problem, "--bbox=-0.25,-0.25,1.25,1.25", "--resolution=300",
            f"--out={out_path}"]
    assert main(argv) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "33816619e5b22cb6ebd5bdc8707727dbcff236b7c7bf7d58fb630ff36f5a21e1"


def test_grid_writes_the_header_and_then_one_row_at_a_time(tmp_path, capsys, monkeypatch):
    # one write for the header and one per grid row, so only one row's
    # text is held at a time
    writes = []

    class CountedWrites:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            writes.append(text)
            return self.handle.write(text)

    monkeypatch.setattr(cli, "open", lambda *a, **k: CountedWrites(open(*a, **k)),
                        raising=False)
    resolution = 7
    out_path = tmp_path / "grid.csv"
    argv = ["grid", str(GOLDEN_CASES / "pareto2.json"), "--bbox=-0.5,-0.5,1.5,1.5",
            f"--resolution={resolution}", f"--out={out_path}"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(writes) == resolution + 1
    assert [text.count("\r\n") for text in writes] == [1] + [resolution] * resolution
    assert "".join(writes).encode() == out_path.read_bytes()


def ljust_table(header, rows):
    """The table as one ``print`` per line of ljust-padded cells printed it."""
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
                   for line in [header] + rows)


@pytest.mark.parametrize(
    "header, rows",
    [(("x", "f", "region", "bands"), []),
     (("x", "f", "region", "bands"), [("a", "0.5", "A", "")]),
     (("x", "f", "region", "bands"),
      [("long-label-x", "1", "P", ""), ("y", "0.25", "L", "S1|S2|S3|S4"), ("", "", "", "")]),
     (("x", "a", "b", "region", "bands"),
      [("{0}", "{}", "-inf", "\u00fc", ""), ("x  ", "{:>9}", "inf", "N", "  ")]),
     (("x", "f", "region", "bands"), [("tail ", "1", "U", " S4 ")])],
    ids=["header-only", "empty-last-column", "ragged", "braces-and-blanks", "blank-edges"],
)
def test_print_table_matches_the_ljust_loop(capsys, header, rows):
    cli._print_table(header, rows)
    assert capsys.readouterr().out == ljust_table(header, rows)


def test_every_label_has_its_cells_and_grid_line_end():
    # the golden corpus prints only the labels its cases reach; entry
    # 16 × region position + band bits of the engine's table is the region
    # and the bands whose bit is set, and each has its text in the CLI
    assert len(_LABEL_TABLE) == 16 * len(ContourRegion) == 80
    for index, labels in enumerate(_LABEL_TABLE):
        region, bands = labels
        assert region is list(ContourRegion)[index // 16]
        assert bands == tuple(band for i, band in enumerate(Band) if index % 16 >> i & 1)
        bands_text = "|".join(band.value for band in bands)
        assert cli._CELLS[id(region)] == region.value
        assert cli._CELLS[id(bands)] == bands_text
        assert cli._LINE_ENDS[id(labels)] == f",{region.value},{bands_text}\r\n"


def test_grid_rejects_wrong_dimension(tmp_path, capsys):
    problem = write(tmp_path, "p.json", UNIT_LINE)
    code = main(
        ["grid", problem, "--bbox", "0,0,1,1", "--out", str(tmp_path / "g.csv")]
    )
    assert code == 2
    assert "dimension 2" in capsys.readouterr().err


def test_grid_rejects_finite_space(tmp_path, capsys):
    problem = write(tmp_path, "p.json", FINITE_OK)
    code = main(
        ["grid", problem, "--bbox", "0,0,1,1", "--out", str(tmp_path / "g.csv")]
    )
    assert code == 2


def test_grid_refuses_non_gap_safe(tmp_path, capsys):
    doc = {
        "space": {"kind": "pareto", "dimension": 2},
        "samples": [
            {"point": [0.0, 0.0], "value": 1.0},
            {"point": [1.0, 1.0], "value": 0.0},
        ],
    }
    problem = write(tmp_path, "p.json", doc)
    code = main(
        ["grid", problem, "--bbox", "0,0,1,1", "--out", str(tmp_path / "g.csv")]
    )
    assert code == 1
    assert "refusing" in capsys.readouterr().err


def test_grid_bad_bbox(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    for bad in ("0,0,1", "a,0,1,1", "1,0,0,1"):
        code = main(
            ["grid", problem, "--bbox", bad, "--out", str(tmp_path / "g.csv")]
        )
        assert code == 2


def test_grid_bad_resolution(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    code = main(
        [
            "grid",
            problem,
            "--bbox",
            "0,0,1,1",
            "--resolution",
            "0",
            "--out",
            str(tmp_path / "g.csv"),
        ]
    )
    assert code == 2


def test_alpha_beta_override(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[2.0, -1.0]]))
    code = main(
        [
            "extend",
            problem,
            "--alpha",
            "-5",
            "--beta",
            "5",
            "--queries",
            str(queries),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # detached value is the scaled utility, now spread into (-5, 5)
    value = float(out.splitlines()[1].split()[1])
    assert -5.0 < value < 5.0
    assert main(
        [
            "extend",
            problem,
            "--alpha",
            "3",
            "--beta",
            "1",
            "--queries",
            str(queries),
        ]
    ) == 2


def test_base_utility_flag_cli(tmp_path, capsys):
    problem = write(tmp_path, "p.json", PARETO_OK)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[0.5, 0.5]]))
    assert (
        main(
            [
                "extend",
                problem,
                "--base-utility",
                "weighted-sum:1,2",
                "--queries",
                str(queries),
            ]
        )
        == 0
    )
    finite = write(tmp_path, "f.json", FINITE_OK)
    fq = tmp_path / "fq.json"
    fq.write_text(json.dumps(["mid"]))
    assert (
        main(
            [
                "extend",
                finite,
                "--base-utility",
                "weighted-sum:1,2",
                "--queries",
                str(fq),
            ]
        )
        == 2
    )


def test_fixture_rejects_extend(tmp_path, capsys):
    problem = write(tmp_path, "p.json", GAP_FIXTURE)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[0.5]]))
    assert main(["extend", problem, "--queries", str(queries)]) == 2


def test_extend_on_long_chain_listed_top_first(tmp_path, capsys):
    # the longest-chain levels once recursed per chain level and died here
    names = [f"c{i}" for i in range(2000)]
    doc = {
        "space": {
            "kind": "finite",
            "elements": names,
            "geq": [[hi, lo] for hi, lo in zip(names, names[1:])],
        },
        "samples": [
            {"element": names[0], "value": 1.0},
            {"element": names[-1], "value": 0.0},
        ],
    }
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([names[0], names[1000], names[-1]]))
    code = main(["extend", write(tmp_path, "p.json", doc), "--queries", str(queries)])
    out = capsys.readouterr().out
    assert code == 0
    values = [float(line.split()[1]) for line in out.splitlines()[1:]]
    assert values[0] == 1.0 and values[2] == 0.0
    assert 0.0 < values[1] < 1.0


@pytest.mark.parametrize("command", ["check", "extend"])
def test_overflowing_range_in_file_rejected(tmp_path, capsys, command):
    doc = dict(PARETO_OK, alpha=-1e308, beta=1e308)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[0.5, 0.5]]))
    argv = [command, write(tmp_path, "p.json", doc)]
    if command == "extend":
        argv += ["--queries", str(queries)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "beta - alpha must be finite" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("flags", [["--alpha=-1e308", "--beta=1e308"], ["--alpha=-inf"]])
def test_overflowing_range_flags_rejected(tmp_path, capsys, flags):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([[0.5, 0.5]]))
    problem = write(tmp_path, "p.json", PARETO_OK)
    assert main(["extend", problem, *flags, "--queries", str(queries)]) == 2
    captured = capsys.readouterr()
    assert "beta - alpha must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where", ["file", "flags"])
@pytest.mark.parametrize("command", ["extend", "grid"])
def test_range_without_room_for_the_sample_values_rejected(tmp_path, capsys, command, where):
    # a sample value of -1e308 under the range (-8.98e307, 8.98e307):
    # min(b, beta) - beta + alpha overflowed to -inf, and extend printed nan
    # at (-1.0), grid wrote nan into the CSV, both with exit 0
    k = 1 if command == "extend" else 2
    doc = {"space": {"kind": "pareto", "dimension": k},
           "samples": [{"point": [0] * k, "value": -1e308}]}
    flags = ["--alpha=-8.98e307", "--beta=8.98e307"]
    if where == "file":
        doc.update(alpha=-8.98e307, beta=8.98e307)
        flags = []
    problem = write(tmp_path, "p.json", doc)
    out = tmp_path / "g.csv"
    if command == "extend":
        queries = tmp_path / "q.json"
        queries.write_text("[[-1], [0], [1]]")
        argv = ["extend", problem, *flags, "--queries", str(queries)]
    else:
        argv = ["grid", problem, *flags, "--bbox=-1,-1,1,1", "--resolution=2", f"--out={out}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: beta: max |sample value| + 2 * max(|alpha|, |beta|) must be at most ")
    assert not out.exists()
    assert main(["check", problem]) == (2 if where == "file" else 0)


def test_sample_values_of_1e308_under_the_unit_range_stay_finite(tmp_path, capsys):
    doc = {"space": {"kind": "pareto", "dimension": 2},
           "samples": [{"point": [0, 0], "value": -1e308}, {"point": [1, 1], "value": 1e308}]}
    problem = write(tmp_path, "p.json", doc)
    queries = tmp_path / "q.json"
    queries.write_text("[[0, 0], [1, 1], [-1, -1], [0.5, 0.5], [2, 2], [-1, 2]]")
    assert main(["extend", problem, "--queries", str(queries)]) == 0
    values = [float(line.split()[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert values[:2] == [-1e308, 1e308]
    assert all(map(math.isfinite, values))
    out = tmp_path / "g.csv"
    assert main(["grid", problem, "--bbox=-1,-1,2,2", "--resolution=4", f"--out={out}"]) == 0
    capsys.readouterr()
    with open(out, newline="") as handle:
        cells = [float(row["f"]) for row in csv.DictReader(handle)]
    assert len(cells) == 16 and all(map(math.isfinite, cells))


def test_weighted_sum_whose_terms_overflow_both_ways_stays_finite(tmp_path, capsys):
    # 2 * 1e308 and 2 * -1e308 overflow to inf and -inf, whose sum is nan;
    # the exact sum, 0, is used instead
    problem = write(tmp_path, "p.json", PARETO_OK)
    queries = tmp_path / "q.json"
    queries.write_text("[[1e308, -1e308], [1e308, -5e307]]")
    argv = ["extend", problem, "--base-utility", "weighted-sum:2,2", "--queries", str(queries)]
    assert main(argv) == 0
    values = [float(line.split()[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert all(map(math.isfinite, values)) and values[0] < values[1]
    out = tmp_path / "g.csv"
    argv = ["grid", problem, "--base-utility", "weighted-sum:2,2",
            "--bbox=0,-1e308,1e308,0", "--resolution=2", f"--out={out}"]
    assert main(argv) == 0
    capsys.readouterr()
    with open(out, newline="") as handle:
        assert all(math.isfinite(float(row["f"])) for row in csv.DictReader(handle))


@pytest.mark.parametrize("command", ["check", "extend"])
def test_finite_command_builds_relation_once(tmp_path, capsys, monkeypatch, command):
    closure = FinitePreorder.closure.__func__
    calls = []

    def counted(cls, n, pairs):
        calls.append(n)
        return closure(cls, n, pairs)

    monkeypatch.setattr(FinitePreorder, "closure", classmethod(counted))
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(["low"]))
    argv = [command, write(tmp_path, "p.json", FINITE_OK)]
    if command == "extend":
        argv += ["--queries", str(queries)]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [3]


BIG = 10**330  # a JSON integer beyond the range of a float


@pytest.mark.parametrize("place", ["value", "point", "query", "alpha"])
def test_big_json_integers_rejected(tmp_path, capsys, place):
    doc = json.loads(json.dumps(UNIT_LINE))
    query = [0.5]
    if place == "value":
        doc["samples"][1]["value"] = BIG
    elif place == "point":
        doc["samples"][1]["point"] = [BIG]
    elif place == "query":
        query = [BIG]
    else:
        doc["alpha"] = -BIG
    problem = write(tmp_path, "p.json", doc)
    queries = write(tmp_path, "q.json", [query])
    commands = [["extend", problem, "--queries", queries]]
    if place != "query":
        commands.append(["check", problem])
    for argv in commands:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "expected a finite number" in err
        assert "internal error" not in err


# json.loads refuses these with a ValueError or a RecursionError that is no
# JSONDecodeError: an int literal past the int digit limit (4300 digits by
# default), and arrays nested past the recursion limit.  Where ints have no
# digit limit, the long literal parses and is rejected as not finite.
LONG_INT = "1" * 5000
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
DEEP = "[" * 100_000 + "]" * 100_000
REFUSED_JSON = {
    "sample value": ('{"space": {"kind": "pareto", "dimension": 1}, '
                     '"samples": [{"point": [0], "value": %s}]}' % LONG_INT, None),
    "sample coordinate": ('{"space": {"kind": "pareto", "dimension": 1}, '
                          '"samples": [{"point": [%s], "value": 0}]}' % LONG_INT, None),
    "nested problem": (DEEP, None),
    "query coordinate": (None, "[[%s]]" % LONG_INT),
    "nested queries": (None, DEEP),
}


@pytest.mark.parametrize("case", REFUSED_JSON)
def test_json_refused_by_the_decoder_is_invalid_input(tmp_path, capsys, case):
    problem, queries = REFUSED_JSON[case]
    path = tmp_path / "p.json"
    if problem is None:
        path.write_text(json.dumps(UNIT_LINE))
        (tmp_path / "q.json").write_text(queries)
        argv = ["extend", str(path), "--queries", str(tmp_path / "q.json")]
    else:
        path.write_text(problem)
        argv = ["check", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if 0 < DIGIT_LIMIT < len(LONG_INT) or "nested" in case:
        assert captured.err.startswith("error: $: not valid JSON: ")


@pytest.mark.parametrize("weight", ["nan", "inf", "1e400"])
def test_non_finite_base_utility_weight_rejected(tmp_path, capsys, weight):
    doc = {"space": {"kind": "pareto", "dimension": 1},
           "samples": [{"point": [0.0], "value": 0.0}]}
    argv = ["extend", write(tmp_path, "p.json", doc),
            "--base-utility", f"weighted-sum:{weight}",
            "--queries", write(tmp_path, "q.json", [[0.5], [2.0]])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: base_utility.weights[0]: expected a finite number\n"


GOLDEN_CASES = Path(__file__).resolve().parent / "golden" / "cases"


def count_index_use(monkeypatch, kind):
    """Wrap the oracle's read of the structure kept on the sample set, which
    must be one for ``kind``: (structures read, queries) seen.  The checks
    take the same structure by their own name for it, which is not wrapped."""
    bounds_of = contours.bounds_of
    structures, queries = [], []

    def counted(rel, samples):
        assert type(rel) is kind
        bounds = bounds_of(rel, samples)
        structures.append(bounds)

        def query(x):
            queries.append(x)
            return bounds.record(x)

        return SimpleNamespace(record=query)

    monkeypatch.setattr(contours, "bounds_of", counted)
    return structures, queries


def test_finite_extend_scans_each_point_once(capsys, monkeypatch):
    # the gap check keeps its verdicts on the structure but reads no bound
    # when it passes, so only the engine's oracle reads the structure, and
    # always the same one; its one-slot memo answers the engine's repeated
    # reads of a point, so each query point is looked up once
    structures, scanned = count_index_use(monkeypatch, FinitePreorder)
    argv = ["extend", str(GOLDEN_CASES / "finite-dag.json"),
            "--queries", str(GOLDEN_CASES / "finite-dag.queries.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(set(map(id, structures))) == 1
    assert scanned
    assert len(scanned) == len(set(scanned))


def test_pareto_extend_queries_the_index_once_per_point(capsys, monkeypatch):
    structures, scanned = count_index_use(monkeypatch, ParetoSpace)
    queries = GOLDEN_CASES / "pareto2.queries.json"
    argv = ["extend", str(GOLDEN_CASES / "pareto2.json"), "--queries", str(queries)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(set(map(id, structures))) == 1
    points = [tuple(q) for q in json.loads(queries.read_text())]
    # the memo matches by identity: each query object reads the index once,
    # also where it equals the one before it (-0.0 == 0.0)
    assert scanned == points
    assert len(set(map(id, scanned))) == len(points)


@pytest.mark.parametrize(
    "command, case, code, calls",
    [pytest.param("check", "finite-dag", 0, 0, id="check-0"),
     pytest.param("extend", "finite-dag", 0, 0, id="extend-0"),
     pytest.param("check", "finite-bad", 1, 1, id="finite-bad-check-1")],
)
def test_finite_gap_check_runs_weak_increase_only_on_a_strict_failure(
        capsys, monkeypatch, command, case, code, calls):
    # strict increase implies weak increase: on finite-dag no weak pass runs,
    # for check's weak line or for the gap check; on finite-bad strict
    # increase fails, and one weak pass serves check's line and the gap check
    weak = monotonicity._weak_verdict
    seen = []

    def counted(samples, bounds):
        seen.append(bounds)
        return weak(samples, bounds)

    monkeypatch.setattr(monotonicity, "_weak_verdict", counted)
    argv = [command, str(GOLDEN_CASES / f"{case}.json")]
    if command == "extend":
        argv += ["--queries", str(GOLDEN_CASES / f"{case}.queries.json")]
    assert main(argv) == code
    capsys.readouterr()
    assert len(seen) == calls


def count_pareto_builds(monkeypatch):
    """Wrap the build of a ``ParetoBounds``; returns the relation of each build."""
    builds = []
    init = contours.ParetoBounds.__init__

    def counted(self, rel, samples):
        builds.append(rel)
        init(self, rel, samples)

    monkeypatch.setattr(contours.ParetoBounds, "__init__", counted)
    return builds


def count_mask_passes(monkeypatch):
    """Wrap the two ways to build dominance masks: the pairwise loop of
    ``SampleRanks``, and the prefix chains of a Pareto space, which every
    ``ParetoBounds`` builds once; returns one entry per pass."""
    passes = []
    pairwise = contours._pairwise_masks

    def counted(rel, points, bits):
        passes.append(points)
        return pairwise(rel, points, bits)

    monkeypatch.setattr(contours, "_pairwise_masks", counted)
    chains = orders.PrefixChains.__init__

    def chained(self, points, bits):
        passes.append(points)
        chains(self, points, bits)

    monkeypatch.setattr(orders.PrefixChains, "__init__", chained)
    return passes


def count_geq_calls(monkeypatch):
    """Wrap a finite relation's pairwise ``geq``, a walk of the condensation
    per pair; returns one entry per call."""
    calls = []
    geq = orders.FinitePreorder.geq

    def counted(rel, x, y):
        calls.append((x, y))
        return geq(rel, x, y)

    monkeypatch.setattr(orders.FinitePreorder, "geq", counted)
    return calls


@pytest.mark.parametrize(
    "command, case, budget",
    [("check", "finite-bad", 0), ("extend", "finite-bad", 0),
     ("check", "pareto2-bad", 1), ("extend", "pareto2-bad", 1), ("grid", "pareto2-bad", 1),
     ("check", "pareto2-tie", 1), ("extend", "pareto2-tie", 1), ("grid", "pareto2-tie", 1)],
)
def test_failing_gap_checks_keep_to_their_mask_pass_budget(
        tmp_path, capsys, monkeypatch, command, case, budget):
    # a Pareto sample set's strict and weak verdicts come from one
    # ParetoBounds, kept on the sample set with them, so check's three
    # lines and a refusal make one pass.  A finite relation makes no mask
    # pass and asks no pair by geq: its verdicts come from passes over the
    # condensation
    passes = count_mask_passes(monkeypatch)
    asked = count_geq_calls(monkeypatch)
    argv = [command, str(GOLDEN_CASES / f"{case}.json")]
    if command == "extend":
        argv += ["--queries", str(GOLDEN_CASES / f"{case}.queries.json")]
    if command == "grid":
        argv += ["--bbox=0,0,1,1", f"--out={tmp_path / 'g.csv'}"]
    assert main(argv) == 1
    capsys.readouterr()
    assert len(passes) == budget
    assert asked == []


@pytest.mark.parametrize("case", ["finite-bad", "pareto2-bad"])
def test_failing_check_makes_one_mask_pass(capsys, monkeypatch, case):
    # the failing strict check's pass also decides the weak verdict, and
    # the weak and gap checks read both from the sample set; a gap witness
    # reads its two bounds from the same ParetoBounds.  A finite relation
    # makes no pass and asks no pair by geq
    passes = count_mask_passes(monkeypatch)
    asked = count_geq_calls(monkeypatch)
    assert main(["check", str(GOLDEN_CASES / f"{case}.json")]) == 1
    capsys.readouterr()
    assert len(passes) == (0 if case.startswith("finite") else 1)
    assert asked == []


FINITE_GOLDEN = [
    entry for entry in json.loads((GOLDEN_CASES.parent / "manifest.json").read_text())
    if entry["argv"][1].startswith("{cases}/finite")
]


@pytest.mark.parametrize("entry", FINITE_GOLDEN, ids=[e["id"] for e in FINITE_GOLDEN])
def test_finite_commands_build_no_rows(capsys, monkeypatch, entry):
    # check, extend and regions on a finite relation read the condensation
    # only: no dominance masks, and no row, which no code builds, nor a
    # pairwise geq, the one query of the relation that walks it per pair
    passes = count_mask_passes(monkeypatch)
    asked = count_geq_calls(monkeypatch)
    argv = [arg.replace("{cases}", str(GOLDEN_CASES)) for arg in entry["argv"]]
    assert main(argv) == entry["exit"]
    capsys.readouterr()
    assert passes == []
    assert asked == []


PARETO_COMMANDS = [(command, case)
                   for case in ("pareto2", "pareto2-bad", "pareto2-tie", "pareto3-bad")
                   for command in ("check", "extend", "grid", "regions")]


@pytest.mark.parametrize("command, case", PARETO_COMMANDS,
                         ids=[f"{command}-{case}" for command, case in PARETO_COMMANDS])
def test_pareto_commands_build_one_structure(tmp_path, capsys, monkeypatch, command, case):
    # the sample checks, a gap witness's bounds, the bound index and the
    # lattice all read the one ParetoBounds kept on the sample set, and no
    # dominance mask pass is made besides.  A grid of a 3-D file is
    # refused as input before its samples are read
    passes = count_mask_passes(monkeypatch)
    builds = count_pareto_builds(monkeypatch)
    argv = [command, str(GOLDEN_CASES / f"{case}.json")]
    if command in ("extend", "regions"):
        argv += ["--queries", str(GOLDEN_CASES / f"{case}.queries.json")]
    if command == "grid":
        argv += ["--bbox=0,0,1,1", f"--out={tmp_path / 'g.csv'}"]
    code = main(argv)
    capsys.readouterr()
    want = 0 if (command, case) == ("grid", "pareto3-bad") else 1
    assert (code == 2) == (want == 0)
    assert len(builds) == want
    assert len(passes) == want


@pytest.mark.parametrize("command", ["check", "extend"])
def test_no_samples_make_no_rank_pass_per_coordinate(tmp_path, capsys, monkeypatch, command):
    # with no points there is nothing to sort or chain, whatever the dimension
    calls = []
    monkeypatch.setattr(orders, "_prefix_chain", lambda keys, bits: calls.append(keys))
    doc = {"space": {"kind": "pareto", "dimension": 10**6}, "samples": []}
    argv = [command, write(tmp_path, "p.json", doc)]
    if command == "extend":
        argv += ["--queries", write(tmp_path, "q.json", [])]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("which", ["problem", "queries"])
def test_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys, which):
    problem = tmp_path / "p.json"
    queries = tmp_path / "q.json"
    problem.write_text(json.dumps(UNIT_LINE))
    queries.write_text("[[0.5]]")
    (problem if which == "problem" else queries).write_bytes(b"\xff\xfe{}")
    assert main(["extend", str(problem), "--queries", str(queries)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def test_finite_and_pareto_files_print_the_same_gap_witness(tmp_path, capsys):
    # the chain x < x' with f(x) = 1.0 and f(x') = 0.0, once as a finite
    # relation whose names are the labels the 1-D Pareto file prints for
    # its points, and once as that Pareto file: one gap rule, one witness
    finite = {
        "space": {"kind": "finite", "elements": ["(0.0)", "(1.0)"],
                  "geq": [["(1.0)", "(0.0)"]]},
        "samples": [{"element": "(0.0)", "value": 1.0}, {"element": "(1.0)", "value": 0.0}],
    }
    pareto = {
        "space": {"kind": "pareto", "dimension": 1},
        "samples": [{"point": [0.0], "value": 1.0}, {"point": [1.0], "value": 0.0}],
    }
    witness = ("  witness: x=(0.0), x'=(1.0), f_P(x)=1.0, f_P(x')=0.0 "
               "(x' dominates x but has a smaller value)\n")
    for doc in (finite, pareto):
        problem = write(tmp_path, "p.json", doc)
        assert main(["check", problem]) == 1
        assert f"gap-safe increasing: NO\n{witness}" in capsys.readouterr().out
        queries = write(tmp_path, "q.json", ["(0.0)"] if doc is finite else [[0.5]])
        assert main(["extend", problem, "--queries", queries]) == 1
        assert capsys.readouterr().err == (
            f"refusing: instance is not gap-safe increasing\n{witness}")


@pytest.mark.parametrize(
    "error",
    [DiscordantFormsError("forms disagree"), UnboundedContourError("no bound"),
     KeyError("k"), RuntimeError("boom")],
    ids=lambda e: type(e).__name__,
)
def test_internal_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, error):
    def broken(self, x):
        raise error

    monkeypatch.setattr(ExtensionEngine, "evaluate", broken)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(["mid"]))
    argv = ["extend", write(tmp_path, "p.json", FINITE_OK), "--queries", str(queries)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(error).__name__}: {error}\n"


# a name that is not a string (a list or an object) is an unknown element,
# so the parser's name lookups must not hash it
@pytest.mark.parametrize(
    "mangle, queries, message",
    [
        (lambda d: d["space"]["geq"].append([["low"], "mid"]), None,
         "error: space.geq[2]: unknown element ['low']"),
        (lambda d: d["samples"].append({"element": {"x": 1}, "value": 0.5}), None,
         "error: samples[2].element: unknown element {'x': 1}"),
        (lambda d: None, [["low"]], "error: [0]: unknown element ['low']"),
    ],
    ids=["geq", "sample", "query"],
)
def test_non_string_names_exit_2(tmp_path, capsys, mangle, queries, message):
    doc = json.loads(json.dumps(FINITE_OK))
    mangle(doc)
    problem = write(tmp_path, "p.json", doc)
    argv = ["check", problem]
    if queries is not None:
        argv = ["extend", problem, "--queries", write(tmp_path, "q.json", queries)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


def _set(*path_and_value):
    """A mangle that sets ``doc[k1][k2]... = value``."""
    *path, key, value = path_and_value

    def mangle(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return mangle


# each shape of problem or queries file that the parser refuses where it
# reads the key: (file, mangle, queries, --base-utility flag, message)
MISSHAPEN_FILES = {
    "elements-string": (FINITE_OK, _set("space", "elements", "low"), None, None,
                        "error: space.elements: expected a non-empty array of names"),
    "elements-empty": (FINITE_OK, _set("space", "elements", []), None, None,
                       "error: space.elements: expected a non-empty array of names"),
    "geq-object": (FINITE_OK, _set("space", "geq", {}), None, None,
                   "error: space.geq: expected an array of [above, below] pairs"),
    "samples-object": (PARETO_OK, _set("samples", {}), None, None,
                       "error: samples: expected an array of sample entries"),
    # two keys, so the bulk path takes the entry and declines it by KeyError
    "sample-without-value": (PARETO_OK, _set("samples", [{"point": [0.0, 0.0], "valu": 0.0}]),
                             None, None, "error: samples[0].value: expected a number"),
    "queries-object": (PARETO_OK, None, {}, None, "error: $: expected an array of queries"),
    "weights-missing": (PARETO_OK, _set("base_utility", {"kind": "weighted-sum"}), None, None,
                        "error: base_utility.weights: expected a non-empty array"),
    "weights-empty": (PARETO_OK, _set("base_utility", {"kind": "weighted-sum", "weights": []}),
                      None, None, "error: base_utility.weights: expected a non-empty array"),
    "kind-unknown": (PARETO_OK, _set("base_utility", {"kind": "affine"}), None, None,
                     "error: base_utility.kind: expected 'levels' or 'weighted-sum'"),
    "kind-missing": (FINITE_OK, _set("base_utility", {}), None, None,
                     "error: base_utility.kind: expected 'levels' or 'weighted-sum'"),
    "weighted-sum-finite-file": (
        FINITE_OK, _set("base_utility", {"kind": "weighted-sum", "weights": [1.0]}), None, None,
        "error: base_utility: weighted-sum utility applies to pareto spaces only"),
    "weighted-sum-finite-flag": (
        FINITE_OK, None, ["low"], "weighted-sum:1",
        "error: base_utility: weighted-sum utility applies to pareto spaces only"),
}


@pytest.mark.parametrize("case", MISSHAPEN_FILES.values(), ids=MISSHAPEN_FILES)
def test_misshapen_files_exit_2(tmp_path, capsys, case):
    base, mangle, queries, flag, message = case
    doc = json.loads(json.dumps(base))
    if mangle is not None:
        mangle(doc)
    problem = write(tmp_path, "p.json", doc)
    argv = ["check", problem]
    if queries is not None:
        argv = ["extend", problem, "--queries", write(tmp_path, "q.json", queries)]
    if flag is not None:
        argv += ["--base-utility", flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


# a lone surrogate (JSON "\ud800") cannot be written as UTF-8: every
# command rejects the file, wherever the name stands
SURROGATE_NAMES = [
    (lambda d: d["space"]["elements"].append("lo\ud800"), ["low"],
     "error: space.elements[3]: name cannot be encoded as UTF-8"),
    (lambda d: d["samples"].append({"element": "lo\ud800", "value": 0.5}), ["low"],
     "error: samples[2].element: unknown element 'lo\\ud800'"),
    (lambda d: None, ["low", "lo\ud800"], "error: [1]: unknown element 'lo\\ud800'"),
]


@pytest.mark.parametrize(
    "command, mangle, queries, message",
    [("check", *SURROGATE_NAMES[0]), ("check", *SURROGATE_NAMES[1])]
    + [(command, *case) for command in ("extend", "regions") for case in SURROGATE_NAMES],
    ids=["check-elements", "check-sample", "extend-elements", "extend-sample", "extend-query",
         "regions-elements", "regions-sample", "regions-query"],
)
def test_unencodable_names_exit_2(tmp_path, capsys, command, mangle, queries, message):
    doc = json.loads(json.dumps(FINITE_OK))
    mangle(doc)
    problem = write(tmp_path, "p.json", doc)
    argv = [command, problem]
    if command != "check":
        argv += ["--queries", write(tmp_path, "q.json", queries)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


@pytest.mark.parametrize(
    "bbox, message",
    [("-inf,0,inf,1", "corners must be finite numbers"),
     ("0,nan,1,1", "corners must be finite numbers"),
     ("-1e308,0,1e308,1", "the spans x2-x1 and y2-y1 must be finite"),
     ("0,-1e308,1,1e308", "the spans x2-x1 and y2-y1 must be finite")],
    ids=["infinite-corners", "nan-corner", "x-span-overflows", "y-span-overflows"],
)
def test_grid_rejects_non_finite_boxes(tmp_path, capsys, bbox, message):
    out_path = tmp_path / "g.csv"
    argv = ["grid", write(tmp_path, "p.json", PARETO_OK), f"--bbox={bbox}",
            "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bbox: {message}\n"
    assert not out_path.exists()


def test_grid_axis_never_rounds_past_its_end():
    top = sys.float_info.max
    for resolution in range(2, 50):
        axis = grid_axis(0.0, top, resolution)
        assert axis[0] == 0.0 and axis[-1] <= top
        assert axis == sorted(axis)


def test_main_reuses_one_parser(tmp_path, capsys):
    # back-to-back calls with other subcommands and flags print and exit as
    # each would alone, with a parser built for it
    problem = write(tmp_path, "p.json", PARETO_OK)
    queries = write(tmp_path, "q.json", [[0.5, 0.5], [2.0, -1.0]])
    calls = [
        ["extend", problem, "--alpha=-1", "--beta", "2", "--queries", queries],
        ["extend", problem, "--queries", queries],
        ["grid", problem, "--bbox=0,0,1,1", "--resolution", "3",
         "--out", str(tmp_path / "g.csv")],
        ["regions", problem, "--base-utility", "weighted-sum:2,1", "--queries", queries],
        ["check", problem],
        ["grid", problem, "--bbox=0,0,1,1", "--out", str(tmp_path / "g.csv")],
        ["extend", problem],
        ["regions", problem, "--queries", queries],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        grid = tmp_path / "g.csv"
        written = grid.read_bytes() if grid.exists() else None
        grid.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    cli._parser.cache_clear()
    together = [run(argv) for argv in calls]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    assert together == alone
    assert [result[0] for result in together] == [0, 0, 0, 0, 0, 0, 2, 0]


@pytest.mark.parametrize("command", ["extend", "grid"])
def test_commands_evaluate_through_evaluate_only(tmp_path, capsys, monkeypatch, command):
    # the reference forms stay on the engine for the tests; the CLI must
    # not call them
    def broken(self, x):
        raise AssertionError("reference form called")

    for name in ("evaluate_offset_form", "evaluate_by_contour_region",
                 "evaluate_by_band", "evaluate_pareto_set", "evaluate_all_forms"):
        monkeypatch.setattr(ExtensionEngine, name, broken)
    problem = write(tmp_path, "p.json", PARETO_OK)
    if command == "extend":
        queries = write(tmp_path, "q.json", [[0.5, 0.5], [2.0, -1.0], [0.0, 0.0]])
        argv = ["extend", problem, "--queries", queries]
    else:
        argv = ["grid", problem, "--bbox=-0.5,-0.5,1.5,1.5", "--resolution", "3",
                "--out", str(tmp_path / "g.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, case, points",
    [("extend", "pareto2", 29), ("extend", "finite-dag", 30), ("grid", "pareto2", 49),
     ("grid", "pareto2-grid", 49), ("regions", "pareto2-bad", 0)],
)
def test_commands_evaluate_and_read_the_utility_once_per_point(
        tmp_path, capsys, monkeypatch, command, case, points):
    # the traced benchmark smoke run requires one evaluation form and one
    # utility value per point; regions reports labels and never evaluates
    evaluate, call = ExtensionEngine.evaluate, UtilityFn.__call__
    evaluated, utilities = [], []

    def counted_evaluate(self, x):
        evaluated.append(x)
        return evaluate(self, x)

    def counted_call(self, x):
        utilities.append(self)
        return call(self, x)

    monkeypatch.setattr(ExtensionEngine, "evaluate", counted_evaluate)
    monkeypatch.setattr(UtilityFn, "__call__", counted_call)
    argv = [command, str(GOLDEN_CASES / f"{case}.json")]
    if command == "grid":
        argv += ["--bbox=-0.5,-0.5,1.5,1.5", "--resolution=7", f"--out={tmp_path / 'g.csv'}"]
    else:
        argv += ["--queries", str(GOLDEN_CASES / f"{case}.queries.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(evaluated) == points
    # the scaled utility calls the base one: two utilities, each once per point
    calls = Counter(map(id, utilities))
    assert sorted(calls.values()) == [points] * (2 if points else 0)


def test_package_holds_only_the_production_modules():
    # the reference checks live beside the tests, so the package has no
    # verification module, and the CLI loads every production module
    src = str(Path(ordext.__file__).resolve().parents[1])
    code = (
        "import importlib.util, json, sys\n"
        "import ordext, ordext.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ordext.'))\n"
        "print(json.dumps([importlib.util.find_spec('ordext.crosscheck') is None, loaded]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    absent, loaded = json.loads(result.stdout)
    assert absent
    assert loaded == [f"ordext.{name}" for name in (
        "cli", "contours", "extension", "fixtures", "monotonicity", "orders",
        "problemfile", "utility")]


def test_every_exported_name_resolves_once():
    # a name left in an __all__ after its definition goes would break
    # ``from ordext.<module> import *`` only for the caller who tries it
    modules = [ordext] + [importlib.import_module(f"ordext.{info.name}")
                          for info in pkgutil.iter_modules(ordext.__path__)]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__


def test_readme_library_snippet_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["engine"].evaluate(1) == 0.75
