"""Generate the golden CLI corpus: seeded problem files and their frozen outputs.

Usage (from the repository root)::

    PYTHONPATH=src python3 tests/golden/make_golden.py

It rewrites ``cases/`` (problem and query files), ``manifest.json`` (one
entry per command: its argv and exit code) and ``expected/`` (stdout,
stderr and, for ``grid``, the CSV bytes of every command), by running
``ordext.cli.main`` in-process.  ``tests/test_golden.py`` replays the
manifest and compares byte for byte.  Regenerate only when a change of
CLI output is intended, and review the diff of ``expected/``.

:func:`run_command` is the one way a manifest entry runs: the golden test,
``tests/reach.py`` and ``replay.py`` call it too, and
:func:`expected_result` is what the first and the last compare it with.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases"
EXPECTED = HERE / "expected"
MANIFEST = HERE / "manifest.json"
SEED = 20221206
CASES_TOKEN = "{cases}"


def _pareto_doc(dimension, samples, **extra):
    doc = {
        "space": {"kind": "pareto", "dimension": dimension},
        "samples": [{"point": list(p), "value": v} for p, v in samples],
    }
    doc.update(extra)
    return doc


def _finite_doc(names, geq, samples, **extra):
    doc = {
        "space": {"kind": "finite", "elements": list(names), "geq": [list(p) for p in geq]},
        "samples": [{"element": e, "value": v} for e, v in samples],
    }
    doc.update(extra)
    return doc


def _grid_point(rng, dimension, lo, hi, step=0.05):
    cells = int(round((hi - lo) / step))
    return tuple(round(lo + step * rng.randint(0, cells), 2) for _ in range(dimension))


def _cloud(rng, dimension, count, weights):
    """Distinct points in [0.05, 1]^k valued by a rounded positive weighted sum.

    Coordinates sit on a 0.05 lattice, so a strictly dominating point has
    a weighted sum larger by at least 0.05 * min(weights): strictly
    increasing values, hence gap-safe.
    """
    points = set()
    while len(points) < count:
        points.add(_grid_point(rng, dimension, 0.05, 1.0))
    return [
        (p, round(sum(w * c for w, c in zip(weights, p)), 6))
        for p in sorted(points)
    ]


def _queries_near(rng, dimension, samples, count, lo=-0.2, hi=1.2):
    queries = [list(p) for p, _ in samples[::3]]
    for _ in range(count):
        queries.append(list(_grid_point(rng, dimension, lo, hi)))
    return queries


def _levels(n, below):
    """Longest strict chain below each element of a DAG given by ``below`` lists."""
    level = [0] * n
    for i in range(n):  # ``below[i]`` only names indices < i
        for j in below[i]:
            level[i] = max(level[i], level[j] + 1)
    return level


def _dag(rng, n, density):
    """Random DAG on hidden indices; edges point from larger to smaller index."""
    return [[j for j in range(i) if rng.random() < density] for i in range(n)]


def build_cases(rng):
    """Problem files and query files, keyed by case name."""
    files = {}

    # k = 1: a line; one sample carries the value -0.0
    line = [((-1.5,), -1.25), ((-0.5,), -0.0), ((0.25,), 0.5), ((1.0,), 0.75), ((2.5,), 3.0)]
    files["pareto1.json"] = _pareto_doc(1, line)
    files["pareto1.queries.json"] = [[-2.0], [-1.5], [-1.0], [-0.5], [0.0], [-0.0],
                                     [0.25], [0.6], [1.0], [1.75], [2.5], [4.0]]

    # k = 2: a seeded cloud plus hand-placed samples in the negative
    # quadrant, where -0.0 and 0.0 values tie on incomparable points and
    # -0.0 appears as a coordinate
    cloud2 = _cloud(rng, 2, 18, (1.0, 1.0))
    corner = [((-1.0, -3.0), -0.0), ((-3.0, -1.0), 0.0), ((-0.0, -4.0), -0.5),
              ((-5.0, -7.0), -2.0)]
    files["pareto2.json"] = _pareto_doc(2, cloud2 + corner, alpha=-1.0, beta=2.5)
    files["pareto2.queries.json"] = (
        _queries_near(rng, 2, cloud2, 14)
        + [[-1.0, -1.0], [-3.0, -3.0], [-1.0, -3.0], [-0.0, -4.0], [0.0, -4.0],
           [-0.0, 0.0], [-6.0, -6.0], [-4.0, 5.0], [2.0, 2.0]]
    )

    # k = 3: a seeded cloud with unequal weights in its base utility
    cloud3 = _cloud(rng, 3, 24, (1.0, 2.0, 0.5))
    files["pareto3.json"] = _pareto_doc(
        3, cloud3, base_utility={"kind": "weighted-sum", "weights": [1.0, 2.0, 0.5]}
    )
    files["pareto3.queries.json"] = _queries_near(rng, 3, cloud3, 16)

    # k = 2, not gap-safe: a sample valued above one that strictly dominates it
    bad2 = _cloud(rng, 2, 12, (1.0, 1.0))
    bad2.append(((0.02, 0.02), 5.0))
    files["pareto2-bad.json"] = _pareto_doc(2, bad2)
    files["pareto2-bad.queries.json"] = _queries_near(rng, 2, bad2, 6)

    # finite DAG: shuffled names and pairs, a third of the elements sampled
    n = 30
    below = _dag(rng, n, 0.12)
    level = _levels(n, below)
    names = [f"d{i:02d}" for i in range(n)]
    rng.shuffle(names)
    geq = [(names[i], names[j]) for i in range(n) for j in below[i]]
    rng.shuffle(geq)
    sampled = sorted(rng.sample(range(n), 10))
    files["finite-dag.json"] = _finite_doc(
        names, geq, [(names[i], 0.5 * level[i] - 1.0) for i in sampled]
    )
    files["finite-dag.queries.json"] = sorted(names)

    # finite ranking: tie groups made equivalent by mutual geq pairs
    groups, next_id = [], 0
    for _ in range(7):
        size = rng.randint(1, 4)
        groups.append([f"r{next_id + k}" for k in range(size)])
        next_id += size
    rnames = [name for group in groups for name in group]
    rgeq = []
    for lower, upper in zip(groups, groups[1:]):
        rgeq.append((upper[0], lower[-1]))
    for group in groups:
        for a, b in zip(group, group[1:]):
            rgeq += [(a, b), (b, a)]
    rsamples = [(groups[g][0], float(g)) for g in (0, 2, 3, 6)]
    if len(groups[3]) > 1:
        rsamples.append((groups[3][-1], 3.0))
    files["finite-ranking.json"] = _finite_doc(rnames, rgeq, rsamples, alpha=-2.0, beta=8.0)
    files["finite-ranking.queries.json"] = rnames

    # finite chain listed top-first: c00 is the top
    chain = [f"c{i:02d}" for i in range(40)]
    files["finite-chain.json"] = _finite_doc(
        chain,
        [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)],
        [(chain[i], float(len(chain) - i)) for i in range(0, len(chain), 7)],
    )
    files["finite-chain.queries.json"] = chain[::3]

    # finite, not gap-safe: weakly increasing, but a strictly dominating
    # sample repeats the value of the sample it dominates
    n = 16
    below = _dag(rng, n, 0.2)
    below[n - 1] = sorted(set(below[n - 1]) | {n - 4})
    below[n - 4] = sorted(set(below[n - 4]) | {0})
    level = _levels(n, below)
    fnames = [f"b{i:02d}" for i in range(n)]
    fsamples = [(fnames[i], float(level[i])) for i in (0, 5, 9)]
    fsamples += [(fnames[n - 4], 0.0), (fnames[n - 1], float(level[n - 1]))]
    fgeq = [(fnames[i], fnames[j]) for i in range(n) for j in below[i]]
    files["finite-bad.json"] = _finite_doc(fnames, fgeq, fsamples)
    files["finite-bad.queries.json"] = fnames

    # ties: weakly increasing, but one sample strictly dominates another
    # and repeats its value, so only the strict check can refuse them
    tie2 = [((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0),
            ((1.0, 1.0), 2.0), ((2.0, 1.0), 2.0), ((3.0, 3.0), 4.0)]
    files["pareto2-tie.json"] = _pareto_doc(2, tie2)
    files["pareto2-tie.queries.json"] = [[0.5, 0.5], [1.5, 1.0], [2.0, 2.0]]
    # k = 3, not weakly increasing: d, the first sample in file order,
    # is dominated by b (1.0) and c (1.5), smaller than its 2, and by e,
    # which ties it (2.0); the lowest-placed partner, b, is neither the
    # largest-valued weak partner, c, nor the largest-valued strict one, e.
    # Coordinates mix -0.0 with 0.0 and 1 with 1.0; g and h, valued -0.0
    # and 0.0, are incomparable to every sample but the top one
    bad3 = [((-0.0, 0.0, 0.25), 2), ((0.0, 0.5, 1), 1.0), ((0.5, 0.0, 0.75), 2.0),
            ((1.0, 1, 1.0), 1.5), ((2, 2, 2), 10.0), ((-1.0, 1.5, -0.5), -0.0),
            ((1.5, -1.0, -0.5), 0.0)]
    files["pareto3-bad.json"] = _pareto_doc(3, bad3)
    files["pareto3-bad.queries.json"] = [
        [0.0, 0.0, 0.25], [-0.0, -0.0, 0.25], [0.5, 0.5, 1.0], [1, 1, 1], [0.5, 0.0, 1],
        [2.0, 2.0, 2.0], [-1.0, 1.5, 0.0], [1.5, 1.5, -0.5], [-2, -2, -2], [3.0, 3.0, 3.0],
    ]
    # k = 3, gap-safe: three samples share the first coordinate 1.0, and
    # their repr order, (1.0, 10.5, 0.0) before (1.0, 2.5, ...), is not
    # their numeric order; the first two, valued 0.0 and -0.0, are
    # incomparable, so the first in sample order decides the printed a(x)
    # above both and b(x) below both.  The repr of the first coordinate
    # 1.5 is a prefix of that of 1.55
    order3 = [((1.0, 2.5, 1.0), -0.0), ((1.0, 2.5, 10.0), 1.0), ((1.0, 10.5, 0.0), 0.0),
              ((1.55, 0.0, 0.0), -1.0), ((1.5, 0.5, 0.5), -0.5), ((-0.0, 0.0, 0.0), -2.0),
              ((10.0, 10.5, 10.0), 3.0)]
    files["pareto3-order.json"] = _pareto_doc(3, order3, alpha=-3.0, beta=4.0)
    files["pareto3-order.queries.json"] = [
        [1.0, 10.5, 1.0], [1.0, 2.5, 0.0], [1.0, 2.5, 1.0], [1.0, 10.5, 0.0], [1.5, 2.5, 1.0],
        [1.55, 0.5, 0.5], [0.0, 0.0, 0.0], [-1.0, -1.0, -1.0], [11.0, 11.0, 11.0],
        [1.0, 5.0, 5.0],
    ]
    tnames = [f"t{i}" for i in range(6)]
    tgeq = [("t5", "t4"), ("t4", "t3"), ("t5", "t2"), ("t2", "t1"), ("t1", "t0")]
    tsamples = [("t0", 0.0), ("t2", 1.0), ("t3", 1.0), ("t4", 1.0), ("t5", 3.0)]
    files["finite-tie.json"] = _finite_doc(tnames, tgeq, tsamples)
    files["finite-tie.queries.json"] = tnames

    # a gap between samples, with an unsampled element listed first in
    # between: the witness is the strict sample pair, not the first
    # colliding element pair in listing order
    wnames = ["x0", "s1", "s2"]
    files["finite-witness.json"] = _finite_doc(
        wnames, [("s2", "x0"), ("x0", "s1")], [("s1", 1.0), ("s2", 1.0)]
    )
    files["finite-witness.queries.json"] = wnames

    # not weakly increasing: p1 and p3 are equivalent only through k, and
    # differ in value.  The first sample with a strict violation is p1, the
    # first with a weak one is p3, so the two witnesses name the pair in
    # opposite orders
    files["finite-weak.json"] = _finite_doc(
        ["p1", "k", "p2", "p3", "z"],
        [("p1", "k"), ("k", "p3"), ("p3", "p1"), ("p2", "p1"), ("p1", "z")],
        [("p1", 0.5), ("p2", 3.0), ("p3", 1.0), ("z", -0.0)],
    )
    files["finite-weak.queries.json"] = ["p1", "k", "p2", "p3", "z"]

    # weakly increasing, not strictly: the first sample with a violation,
    # a, is the upper one, and its lowest partner b sits below it only
    # through m1 and m2 (c, below a by a pair of its own, comes later).
    # Apart from them, incomparable samples valued 0.0 and -0.0 in both
    # listing orders: the first in sample order decides the printed a(x)
    # of the elements above them and b(x) of those below
    onames = ["h1", "h2", "h3", "h4", "m2", "c", "s4", "s3", "s2", "s1", "m1", "b", "a"]
    ogeq = [("a", "m1"), ("m1", "m2"), ("m2", "b"), ("a", "c"),
            ("h1", "s1"), ("h1", "s2"), ("s1", "h2"), ("s2", "h2"),
            ("h3", "s3"), ("h3", "s4"), ("s3", "h4"), ("s4", "h4")]
    osamples = [("a", 2.0), ("b", 2.0), ("c", 2.0),
                ("s1", 0.0), ("s2", -0.0), ("s3", -0.0), ("s4", 0.0)]
    files["finite-order.json"] = _finite_doc(onames, ogeq, osamples)
    files["finite-order.queries.json"] = onames

    # a grid over [0, 1]^2 at resolution 9 (nodes every 0.125): samples on
    # nodes and off them, inside the box and outside it, with tied values
    # on incomparable points (-0.0 with 0.0, 1 with 1.0, 2.5 with 2.5)
    # and int coordinates on the top corner
    lattice = [((0.0, 0.5), -0.0), ((0.5, 0.0), 0.0), ((-0.0, 0.0), -1.0),
               ((0.25, 0.75), 1), ((0.75, 0.25), 1.0), ((0.6, 0.6), 1.5),
               ((1, 1), 3), ((-0.5, -0.5), -2.0), ((2.0, 0.1), 2.5), ((0.3, 1.5), 2.5)]
    files["pareto2-grid.json"] = _pareto_doc(2, lattice)

    files["fixture-gap.json"] = {"space": {"kind": "fixture", "name": "example-gap"}}
    files["fixture-nin.json"] = {"space": {"kind": "fixture", "name": "example-nin"}}
    return files


def _case(name):
    return f"{CASES_TOKEN}/{name}"


def build_commands():
    """(id, argv) for every frozen command; ``{cases}`` marks the case directory."""
    commands = []

    def report(case, extra=(), suffix=""):
        problem, queries = _case(f"{case}.json"), _case(f"{case}.queries.json")
        if not suffix:
            commands.append((f"{case}.check", ["check", problem]))
        for cmd in ("extend", "regions"):
            commands.append((f"{case}.{cmd}{suffix}",
                             [cmd, problem, *extra, "--queries", queries]))

    for case in ("pareto1", "pareto2", "pareto3", "pareto2-bad", "pareto3-bad", "pareto3-order",
                 "finite-dag", "finite-ranking", "finite-chain", "finite-bad",
                 "finite-weak", "finite-order"):
        report(case)
    report("pareto2", ["--alpha=-3", "--beta", "0.5"], "-range")
    report("pareto2", ["--base-utility", "weighted-sum:2,0.5"], "-weighted")
    report("finite-ranking", ["--alpha", "10", "--beta", "11.5", "--base-utility", "levels"],
           "-range")
    for case, bbox, resolution in (("pareto2", "-7,-7,1.2,1.2", 14),
                                   ("pareto2-bad", "0,0,1,1", 4),
                                   ("pareto2-grid", "0,0,1,1", 9)):
        commands.append((f"{case}.grid", ["grid", _case(f"{case}.json"),
                                          f"--bbox={bbox}", "--resolution", str(resolution),
                                          "--out", "grid.csv"]))
    for case in ("fixture-gap", "fixture-nin"):
        commands.append((f"{case}.check", ["check", _case(f"{case}.json")]))
    for case in ("pareto2-tie", "finite-tie", "finite-witness"):
        commands.append((f"{case}.check", ["check", _case(f"{case}.json")]))
        commands.append((f"{case}.extend", ["extend", _case(f"{case}.json"), "--queries",
                                            _case(f"{case}.queries.json")]))
    return commands


def expand(argv):
    """A manifest argv with ``{cases}`` replaced by the case directory."""
    return [arg.replace(CASES_TOKEN, str(CASES)) for arg in argv]


def run_command(argv, executable=None):
    """Run one manifest argv, :func:`expand`-ed, in the current directory:
    (exit, stdout, stderr, grid CSV or None), the outputs as bytes.  The
    command runs in process through ``ordext.cli.main``, or, given an
    ``executable`` such as the installed ``ordext`` script, as a child
    process.  The CSV is read and removed."""
    argv = expand(argv)
    if executable is None:
        from ordext.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue().encode(), err.getvalue().encode()
    else:
        done = subprocess.run([executable, *argv], capture_output=True)
        code, out, err = done.returncode, done.stdout, done.stderr
    grid = Path("grid.csv")
    csv_bytes = None
    if grid.exists():
        csv_bytes = grid.read_bytes()
        grid.unlink()
    return code, out, err, csv_bytes


def load_manifest():
    return json.loads(MANIFEST.read_text())


def expected_result(entry):
    """What :func:`run_command` must return for a manifest entry."""
    stem = EXPECTED / entry["id"]
    csv = Path(f"{stem}.csv")
    return (entry["exit"], Path(f"{stem}.stdout").read_bytes(),
            Path(f"{stem}.stderr").read_bytes(), csv.read_bytes() if csv.exists() else None)


def main():
    for directory in (CASES, EXPECTED):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir()
    for name, doc in build_cases(random.Random(SEED)).items():
        (CASES / name).write_text(json.dumps(doc) + "\n")

    manifest = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for cid, argv in build_commands():
                code, out, err, csv_bytes = run_command(argv)
                (EXPECTED / f"{cid}.stdout").write_bytes(out)
                (EXPECTED / f"{cid}.stderr").write_bytes(err)
                if csv_bytes is not None:
                    (EXPECTED / f"{cid}.csv").write_bytes(csv_bytes)
                manifest.append({"id": cid, "argv": argv, "exit": code})
        finally:
            os.chdir(cwd)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} commands to {MANIFEST}")


if __name__ == "__main__":
    sys.exit(main())
