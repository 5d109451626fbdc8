"""Command line front end.

Subcommands: ``check`` (diagnosis with witnesses), ``extend`` (extension
values at query points), ``regions`` (contour bounds and region labels),
``grid`` (CSV export over a 2-D box).  Exit codes: 0 when gap-safe (or
the report succeeded), 1 when the instance is diagnosed non-extendable,
2 for invalid input, 3 for an internal error (a fault in ordext, reported
as one ``internal error: <Type>: <message>`` line on stderr, so that it
never reads as a verdict).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache, partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ordext.contours import bound_text
from ordext.extension import _BANDS, ContourRegion
from ordext.monotonicity import (
    Verdict,
    check_gap_safe_finite,
    check_gap_safe_pareto,  # unused: a second name the benchmark's span hooks wrap here
    check_gap_safe_probes,
    check_strictly_increasing,
    check_weakly_increasing,
)
from ordext.orders import Augmented, UnsupportedQueryError
from ordext.problemfile import (
    ProblemFileError,
    ProblemInstance,
    parse_base_utility_flag,
    parse_problem,
    parse_queries,
)

EXIT_OK = 0
EXIT_NOT_EXTENDABLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

# the label cells, built once: each region's letter, and the S1|S3 text of
# each band tuple the engine yields (a value of ``_BANDS``).  Both are keyed
# by ``id``: the engine yields these very objects, which live as long as
# the module, and an Enum's own hash runs Python code on every lookup
_REGION_CELLS = {id(region): region.value for region in ContourRegion}
_BAND_CELLS = {
    id(bands): "|".join([band.value for band in bands]) for bands in _BANDS.values()
}


def _show(inst: ProblemInstance, x) -> str:
    if isinstance(x, Augmented):
        return str(x)
    return inst.element_label(x)


def _verdict_line(inst: ProblemInstance, title: str, verdict: Verdict) -> None:
    print(f"{title}: {'yes' if verdict.holds else 'NO'}")
    if not verdict.holds:
        print(f"  witness: {verdict.witness.describe(partial(_show, inst))}")


def cmd_check(inst: ProblemInstance) -> int:
    if inst.kind == "fixture":
        fixture = inst.fixture()
        print(f"fixture {fixture.name}: probing {len(fixture.probes)} strict pairs")
        verdict = check_gap_safe_probes(fixture, fixture.probes)
        if verdict.holds:
            print("gap-safe increasing: no violation among the supplied probes")
            return EXIT_OK
        _verdict_line(inst, "gap-safe increasing", verdict)
        print("not extendable: no strictly increasing total extension exists")
        return EXIT_NOT_EXTENDABLE

    rel = inst.relation()
    samples = inst.sample_utility()
    _verdict_line(inst, "weakly increasing", check_weakly_increasing(rel, samples))
    _verdict_line(inst, "strictly increasing", check_strictly_increasing(rel, samples))
    gap = check_gap_safe_finite(rel, samples)
    _verdict_line(inst, "gap-safe increasing", gap)
    if gap.holds:
        print("extendable: a strictly increasing total extension exists")
        return EXIT_OK
    print("not extendable: no strictly increasing total extension exists")
    return EXIT_NOT_EXTENDABLE


def _refuse_if_not_gap_safe(inst: ProblemInstance) -> Optional[int]:
    gap = check_gap_safe_finite(inst.relation(), inst.sample_utility())
    if gap.holds:
        return None
    print("refusing: instance is not gap-safe increasing", file=sys.stderr)
    print(f"  witness: {gap.witness.describe(partial(_show, inst))}", file=sys.stderr)
    return EXIT_NOT_EXTENDABLE


def _print_table(header: Sequence[str], rows: List[Sequence[str]]) -> None:
    """Left-aligned columns two spaces apart, trailing blanks cut, one write."""
    lines = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    pattern = "  ".join([f"{{:<{w}}}" for w in widths])
    sys.stdout.write("".join([pattern.format(*line).rstrip() + "\n" for line in lines]))


def cmd_extend(inst: ProblemInstance, queries: List) -> int:
    refusal = _refuse_if_not_gap_safe(inst)
    if refusal is not None:
        return refusal
    engine = inst.to_engine()
    rows = [
        (_show(inst, x), format(value, ".12g"),
         _REGION_CELLS[id(region)], _BAND_CELLS[id(bands)])
        for x, (value, region, bands) in zip(queries, engine.evaluate_many(queries))
    ]
    _print_table(("x", "f", "region", "bands"), rows)
    return EXIT_OK


def cmd_regions(inst: ProblemInstance, queries: List) -> int:
    engine = inst.to_engine()
    rows = []
    for x in queries:
        a, b, region, bands = engine.describe(x)
        labels = (_REGION_CELLS[id(region)], _BAND_CELLS[id(bands)])
        cells = (bound_text(a), bound_text(b), *labels)
        rows.append((_show(inst, x), *cells))
    _print_table(("x", "a", "b", "region", "bands"), rows)
    return EXIT_OK


def _parse_bbox(text: str) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ProblemFileError("bbox", "expected x1,y1,x2,y2")
    try:
        x1, y1, x2, y2 = (float(p) for p in parts)
    except ValueError as exc:
        raise ProblemFileError("bbox", f"bad number in {text!r}") from exc
    if not all(map(math.isfinite, (x1, y1, x2, y2))):
        raise ProblemFileError("bbox", "corners must be finite numbers")
    if not (x1 <= x2 and y1 <= y2):
        raise ProblemFileError("bbox", "corner (x1,y1) must not exceed (x2,y2)")
    # a span past the largest float would make the grid step infinite
    if not (math.isfinite(x2 - x1) and math.isfinite(y2 - y1)):
        raise ProblemFileError("bbox", "the spans x2-x1 and y2-y1 must be finite")
    return (x1, x2), (y1, y2)


def grid_axis(lo: float, hi: float, resolution: int) -> List[float]:
    """``resolution`` evenly spaced values from ``lo`` to ``hi``; ``[lo]`` for one.

    A value that rounds past ``hi`` is ``hi``, so no value overflows.
    """
    if resolution == 1:
        return [lo]
    step = (hi - lo) / (resolution - 1)
    return [min(lo + step * i, hi) for i in range(resolution)]


def cmd_grid(inst: ProblemInstance, bbox: str, resolution: int, out: str) -> int:
    if inst.kind != "pareto" or inst.dimension != 2:
        raise ProblemFileError(
            "space", "grid export needs a pareto space of dimension 2"
        )
    if resolution < 1:
        raise ProblemFileError("resolution", "must be a positive integer")
    (x_lo, x_hi), (y_lo, y_hi) = _parse_bbox(bbox)
    refusal = _refuse_if_not_gap_safe(inst)
    if refusal is not None:
        return refusal
    engine = inst.to_engine()
    xs = grid_axis(x_lo, x_hi, resolution)
    ys = grid_axis(y_lo, y_hi, resolution)
    y_cells = [repr(v2) for v2 in ys]
    results = engine.evaluate_many(engine.oracle.lattice(xs, ys))
    # csv's excel dialect written by hand: no cell (a float repr or a fixed
    # label) ever holds a comma, quote or line end, so none is quoted
    with open(out, "w", newline="") as handle:
        handle.write("x1,x2,f,alun,s_labels\r\n")
        # one write per grid row, so the text of one row is held at a time
        # (the sweep itself holds one integer table of the grid).  zip stops
        # at the end of y_cells before it pulls from results, so each row
        # takes exactly len(ys) results
        for v1 in xs:
            x_cell = repr(v1)
            handle.write("".join([
                f"{x_cell},{y_cell},{value!r},"
                f"{_REGION_CELLS[id(region)]},{_BAND_CELLS[id(bands)]}\r\n"
                for y_cell, (value, region, bands) in zip(y_cells, results)
            ]))
    print(f"wrote {len(xs) * len(ys)} rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordext",
        description="Diagnose and evaluate strictly increasing extensions "
        "of partial functions on preordered sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="diagnose extendability with witnesses")
    p_check.add_argument("file", help="problem file (JSON)")

    def add_engine_flags(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--alpha", type=float, default=None, help="override range lower bound")
        p.add_argument("--beta", type=float, default=None, help="override range upper bound")
        p.add_argument(
            "--base-utility",
            dest="base_utility",
            default=None,
            metavar="SPEC",
            help="'levels' or 'weighted-sum:w1,w2,...'",
        )

    p_extend = sub.add_parser("extend", help="evaluate the extension at query points")
    add_engine_flags(p_extend)
    p_extend.add_argument("--queries", required=True, help="JSON array of query points")

    p_regions = sub.add_parser("regions", help="report contour bounds and region labels")
    add_engine_flags(p_regions)
    p_regions.add_argument("--queries", required=True, help="JSON array of query points")

    p_grid = sub.add_parser("grid", help="export a CSV grid over a 2-D box")
    add_engine_flags(p_grid)
    p_grid.add_argument("--bbox", required=True, help="x1,y1,x2,y2 box corners")
    p_grid.add_argument("--resolution", type=int, default=20, help="points per axis")
    p_grid.add_argument("--out", required=True, help="output CSV path")

    return parser


def _read(path: str) -> str:
    """The text of a problem or queries file, which JSON requires to be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFileError("$", f"not valid UTF-8: {exc}") from exc


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and kept for later ones."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        inst = parse_problem(_read(args.file))
        if args.command == "check":
            return cmd_check(inst)
        inst = inst.with_range(args.alpha, args.beta)
        if args.base_utility is not None:
            inst = parse_base_utility_flag(args.base_utility, inst)
        if args.command == "extend":
            queries = parse_queries(_read(args.queries), inst)
            return cmd_extend(inst, queries)
        if args.command == "regions":
            queries = parse_queries(_read(args.queries), inst)
            return cmd_regions(inst, queries)
        return cmd_grid(inst, args.bbox, args.resolution, args.out)
    except (ProblemFileError, UnsupportedQueryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
