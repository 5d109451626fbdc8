"""Seeded corpus of problem and query files for the three workloads.

Every file's verdict is known by construction: sample values come from a
strictly increasing function of the ambient order (gap-safe, exit 0), or
one sample is then moved above a sample that strictly dominates it (not
extendable, exit 1).  The generator uses only ``random`` and ``json``;
nothing here imports ordext, so the checker's ground truth is independent
of the code under test.

Per-file sizes come from a fixed ladder and the planted violations from a
fixed share of it, so the seed changes the structure of each file but not
the amount of work in a corpus.  That keeps the figures of runs with
different seeds comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("pareto-grid", "pareto-diagnose", "finite-dag")


@dataclass
class Case:
    """One problem file plus everything the checker needs to judge it."""

    name: str
    kind: str                       # "pareto" | "finite"
    problem: dict
    verdict: int                    # planted exit code of check/extend/grid
    queries: list = field(default_factory=list)
    bbox: Optional[Tuple[float, float, float, float]] = None
    resolution: int = 0
    # pareto: point tuples; finite: element names
    sample_values: Dict = field(default_factory=dict)
    # finite only: element names and (above, below) pairs
    elements: Tuple[str, ...] = ()
    geq: Tuple[Tuple[str, str], ...] = ()


def _ladder(lo: int, hi: int, count: int) -> List[int]:
    if count == 1:
        return [(lo + hi) // 2]
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _increasing_pareto_fn(rng: random.Random, k: int):
    """A random strictly increasing function on the positive orthant."""
    weights = [rng.uniform(0.5, 2.0) for _ in range(k)]
    powers = [rng.uniform(0.6, 1.4) for _ in range(k)]
    cross = rng.uniform(0.0, 0.3)

    def fn(x: Sequence[float]) -> float:
        base = sum(w * xi ** p for w, xi, p in zip(weights, x, powers))
        return base + cross * math.prod(x)

    return fn


def _pareto_points(rng: random.Random, k: int, count: int, span: float) -> List[tuple]:
    points = set()
    while len(points) < count:
        points.add(tuple(round(rng.uniform(0.0, span), 4) for _ in range(k)))
    return sorted(points)


def _plant_pareto_violation(rng: random.Random, values: dict) -> None:
    """Move one sample's value above a sample that strictly dominates it.

    The moved sample is the first, from the middle of the samples in
    lexicographic order, that some sample dominates.  Pairwise checks scan
    samples in about that order, so every violating file costs them about
    half a full scan and the seed does not change the work in a corpus.
    """
    pts = sorted(values)
    for lo in pts[len(pts) // 2:]:
        above = [q for q in pts if q != lo and all(qi >= li for qi, li in zip(q, lo))]
        if above:
            values[lo] = values[rng.choice(above)] + rng.uniform(0.01, 0.1)
            return
    raise ValueError("no dominated sample in the upper half")


def _pareto_problem(points, values) -> dict:
    return {
        "space": {"kind": "pareto", "dimension": len(points[0])},
        "samples": [{"point": list(p), "value": values[p]} for p in points],
        "alpha": 0.0,
        "beta": 1.0,
    }


def _normalise(values: dict) -> dict:
    """Rescale values into [0.05, 0.95], keeping their order."""
    lo, hi = min(values.values()), max(values.values())
    return {p: 0.05 + 0.9 * (v - lo) / (hi - lo) for p, v in values.items()}


# pareto-grid: 2-D export path.  Every grid point is a fresh oracle scan.
GRID_FILES = 6
GRID_SAMPLES = (20, 60)
GRID_RESOLUTION = 70
GRID_EXTRA_QUERIES = 20


def pareto_grid(seed: int) -> List[Case]:
    rng = random.Random(f"pareto-grid:{seed}")
    sizes = _ladder(*GRID_SAMPLES, GRID_FILES)
    rng.shuffle(sizes)
    cases = []
    for i, size in enumerate(sizes):
        fn = _increasing_pareto_fn(rng, 2)
        points = _pareto_points(rng, 2, size, 10.0)
        values = _normalise({p: fn(p) for p in points})
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        pad_x = 0.05 * (max(xs) - min(xs))
        pad_y = 0.05 * (max(ys) - min(ys))
        bbox = (
            round(min(xs) - pad_x, 4), round(min(ys) - pad_y, 4),
            round(max(xs) + pad_x, 4), round(max(ys) + pad_y, 4),
        )
        queries = list(points) + [
            (round(rng.uniform(bbox[0], bbox[2]), 4), round(rng.uniform(bbox[1], bbox[3]), 4))
            for _ in range(GRID_EXTRA_QUERIES)
        ]
        cases.append(Case(
            name=f"grid{i:02d}", kind="pareto",
            problem=_pareto_problem(points, values), verdict=0,
            queries=queries, bbox=bbox, resolution=GRID_RESOLUTION,
            sample_values=values,
        ))
    return cases


# pareto-diagnose: 3-D diagnosis with quadratic pairwise checks and few,
# partly repeated, extend queries.
DIAG_FILES = 9
DIAG_VIOLATING = 3            # every third file on the size ladder
DIAG_SAMPLES = (350, 450)
DIAG_QUERIES = 200
DIAG_SAMPLE_SHARE = 0.25      # queries that are sample points
DIAG_REPEAT_SHARE = 0.25      # queries that repeat an earlier query


def pareto_diagnose(seed: int) -> List[Case]:
    rng = random.Random(f"pareto-diagnose:{seed}")
    sizes = _ladder(*DIAG_SAMPLES, DIAG_FILES)
    violating = set(sizes[1::DIAG_FILES // DIAG_VIOLATING])
    order = list(range(DIAG_FILES))
    rng.shuffle(order)
    cases = []
    for i, idx in enumerate(order):
        size = sizes[idx]
        fn = _increasing_pareto_fn(rng, 3)
        points = _pareto_points(rng, 3, size, 10.0)
        values = _normalise({p: fn(p) for p in points})
        verdict = 0
        if size in violating:
            _plant_pareto_violation(rng, values)
            verdict = 1
        queries: list = []
        n_samples = round(DIAG_QUERIES * DIAG_SAMPLE_SHARE)
        n_repeats = round(DIAG_QUERIES * DIAG_REPEAT_SHARE)
        fresh = [
            tuple(round(rng.uniform(-0.5, 10.5), 4) for _ in range(3))
            for _ in range(DIAG_QUERIES - n_samples - n_repeats)
        ]
        queries = fresh + rng.sample(points, n_samples)
        rng.shuffle(queries)
        for _ in range(n_repeats):
            queries.insert(rng.randrange(1, len(queries) + 1), rng.choice(queries))
        cases.append(Case(
            name=f"diag{i:02d}", kind="pareto",
            problem=_pareto_problem(points, values), verdict=verdict,
            queries=queries, sample_values=values,
        ))
    return cases


# finite-dag: large geq lists, closure, the O(n^2) finite gap check and
# finite_utility.  Half the files are sparse random DAGs, half rankings
# with ties; element names are listed in shuffled order.
DAG_FILES = 6
DAG_VIOLATING = 2             # every third file on the size ladder
DAG_ELEMENTS = (300, 600)
DAG_SAMPLE_SHARE = 0.10
DAG_EDGE_FACTOR = 3.0         # expected out-degree of the random DAG
DAG_TIE_GROUP = (1, 4)        # size range of one tie group in a ranking


def _random_dag(rng: random.Random, n: int):
    """G(n, c/n) on a hidden random order; returns pairs and a linear extension."""
    order = list(range(n))
    rng.shuffle(order)
    p = DAG_EDGE_FACTOR / n
    pairs = []
    for hi_pos in range(n):
        for lo_pos in range(hi_pos):
            if rng.random() < p:
                pairs.append((order[hi_pos], order[lo_pos]))
    # an element's class is itself; the hidden order is a linear extension
    return pairs, [[x] for x in order]


def _ranking_with_ties(rng: random.Random, n: int):
    """Levels of tied elements; every element sits above one of the level below."""
    order = list(range(n))
    rng.shuffle(order)
    levels = []
    pos = 0
    while pos < n:
        size = rng.randint(*DAG_TIE_GROUP)
        levels.append(order[pos:pos + size])
        pos += size
    pairs = []
    for level in levels:
        # a cycle through the group makes its members equivalent
        for a, b in zip(level, level[1:] + level[:1]):
            if a != b:
                pairs.append((a, b))
    for below, above in zip(levels, levels[1:]):
        for x in above:
            pairs.append((x, rng.choice(below)))
    return pairs, levels


def reachable_below(n: int, pairs) -> List[int]:
    """Bitmask of elements weakly below each element (own DFS, not ordext)."""
    children: List[List[int]] = [[] for _ in range(n)]
    for hi, lo in pairs:
        children[hi].append(lo)
    below = [0] * n
    for start in range(n):
        seen = 1 << start
        stack = [start]
        while stack:
            for y in children[stack.pop()]:
                if not (seen >> y) & 1:
                    seen |= 1 << y
                    stack.append(y)
        below[start] = seen
    return below


def finite_dag(seed: int) -> List[Case]:
    rng = random.Random(f"finite-dag:{seed}")
    sizes = _ladder(*DAG_ELEMENTS, DAG_FILES)
    violating = set(sizes[1::DAG_FILES // DAG_VIOLATING])
    order = list(range(DAG_FILES))
    rng.shuffle(order)
    cases = []
    for i, idx in enumerate(order):
        n = sizes[idx]
        shape = _random_dag if idx % 2 == 0 else _ranking_with_ties
        pairs, classes = shape(rng, n)
        # strictly increasing values along a linear extension of the classes
        value_of = {}
        level_value = 0.0
        for members in classes:
            level_value += rng.uniform(0.5, 1.5)
            for x in members:
                value_of[x] = level_value
        names = [f"e{j:04d}" for j in rng.sample(range(10 * n), n)]
        sampled = rng.sample(range(n), max(2, round(DAG_SAMPLE_SHARE * n)))
        values = {x: value_of[x] for x in sampled}
        verdict = 0
        if n in violating:
            below = reachable_below(n, pairs)
            strict = [
                (lo, hi) for hi in sampled for lo in sampled
                if lo != hi and (below[hi] >> lo) & 1 and not (below[lo] >> hi) & 1
            ]
            lo, hi = rng.choice(strict)
            values[lo] = values[hi] + rng.uniform(0.1, 1.0)
            verdict = 1
        listing = list(range(n))
        rng.shuffle(listing)
        rng.shuffle(pairs)
        problem = {
            "space": {
                "kind": "finite",
                "elements": [names[x] for x in listing],
                "geq": [[names[a], names[b]] for a, b in pairs],
            },
            "samples": [{"element": names[x], "value": values[x]} for x in sorted(values)],
            "alpha": 0.0,
            "beta": 1.0,
        }
        cases.append(Case(
            name=f"dag{i:02d}", kind="finite", problem=problem, verdict=verdict,
            queries=[names[x] for x in listing],
            sample_values={names[x]: v for x, v in values.items()},
            elements=tuple(names[x] for x in listing),
            geq=tuple((names[a], names[b]) for a, b in pairs),
        ))
    return cases


GENERATORS = {
    "pareto-grid": pareto_grid,
    "pareto-diagnose": pareto_diagnose,
    "finite-dag": finite_dag,
}


def generate(workload: str, seed: int) -> List[Case]:
    return GENERATORS[workload](seed)


def problem_path(root: Path, case: Case) -> Path:
    return root / f"{case.name}.json"


def queries_path(root: Path, case: Case) -> Path:
    return root / f"{case.name}.queries.json"


def write(cases: Sequence[Case], root: Path) -> None:
    """Write each case's problem and query file under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    for case in cases:
        problem_path(root, case).write_text(_dumps(case.problem))
        queries = [list(q) if isinstance(q, tuple) else q for q in case.queries]
        queries_path(root, case).write_text(_dumps(queries))
