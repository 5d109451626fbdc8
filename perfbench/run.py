"""Seeded end-to-end benchmark of the ordext CLI, with a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload pareto-grid --seed 1 --seconds 30 --trace 0

The run generates the workload's corpus from ``--seed`` into a scratch
directory under ``.perfbench/`` and drives ``ordext.cli.main(argv)``
in-process as a closed loop with one client: one process, one thread,
commands back to back.  The workload's command script (``check`` and
``extend`` on every file, ``grid`` on 2-D files) is run round-robin until
``--seconds`` have passed and every command has run at least once.  Every
command's exit code and output are checked against the planted verdict
(see ``checker.py``) between commands, outside the timed region.
Timings are scaled by a speed probe run between commands (see
``run_timed``); the unscaled pass time is printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
script once untraced and once with the wrappers of ``spans.py``
installed, prints the per-layer metrics and writes the spans, self times
and counts to ``.perfbench/trace-<workload>.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it start with
``#`` and give machine information, sample counts and failing files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checker
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SECONDS = 3.0     # set-up is repeated round-robin over the files this long
SETUP_MIN_ROUNDS = 3    # ... and at least this many times
IMPORT_REPEATS = 5
MIN_BATCH_S = 0.1       # a shorter command repeats back to back up to this long
MAX_BATCH = 20

# The 2-vCPU KVM machine the bounds were set on alternates between a fast
# and a slow mode (about 60% slower, switching every 10-30 s; see
# NOTES.md).  A fixed probe run between commands measures the current
# speed, and every timing is scaled to the probe's fast-mode time.
PROBE_ITERATIONS = 90_000
PROBE_NOMINAL_S = 0.0095

END_TO_END = {
    "wall_s": "s",
    "check_s": "s",
    "extend_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "problemfile.parse_s": "s",
    "problemfile.bytes": "bytes",
    "problemfile.self_s": "s",
    "orders.closure_s": "s",
    "orders.compare_calls": "count",
    "orders.self_s": "s",
    "monotonicity.check_s": "s",
    "monotonicity.compare_calls": "count",
    "monotonicity.self_s": "s",
    "contours.scan_s": "s",
    "contours.calls": "count",
    "contours.distinct_points": "count",
    "contours.hit_ratio": "ratio",
    "contours.compare_calls": "count",
    "contours.self_s": "s",
    "utility.build_s": "s",
    "utility.calls": "count",
    "utility.compare_calls": "count",
    "utility.self_s": "s",
    "extension.self_s": "s",
    "extension.forms_per_point": "count",
    "extension.point_p50_us": "us",
    "extension.point_tail_us": "us",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.import_s": "s",
    "ops_failed_ratio": "ratio",
    "trace.command_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Command:
    case: corpus.Case
    kind: str                    # "check" | "extend" | "grid"
    argv: List[str]
    csv_path: Optional[Path] = None

    @property
    def points(self) -> int:
        """Query points the command answers when it succeeds."""
        if self.kind == "grid":
            return self.case.resolution ** 2
        return len(self.case.queries) if self.kind == "extend" else 0


@dataclass
class Outcome:
    command: Command
    seconds: float
    code: Optional[int]
    output_bytes: int
    failure: Optional[str]       # why the operation failed, or None
    scaled: float = 0.0          # seconds at the probe's nominal speed


def script(cases: List[corpus.Case], root: Path) -> List[Command]:
    """The workload's command script: check and extend every file, grid 2-D ones."""
    commands = []
    for case in cases:
        problem = str(corpus.problem_path(root, case))
        commands.append(Command(case, "check", ["check", problem]))
        commands.append(Command(
            case, "extend", ["extend", problem, "--queries", str(corpus.queries_path(root, case))]))
        if case.bbox is not None:
            out = root / f"{case.name}.csv"
            bbox = ",".join(repr(c) for c in case.bbox)
            commands.append(Command(case, "grid", [
                "grid", problem, f"--bbox={bbox}",
                f"--resolution={case.resolution}", f"--out={out}",
            ], csv_path=out))
    return commands


def execute(cli, command: Command) -> Outcome:
    """Time one ``main(argv)`` call, then check its output untimed."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    gc.collect()  # garbage left by the previous command is not charged to this one
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a verdict
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    output_bytes = len(stdout.encode()) + len(err.getvalue().encode())
    case = command.case
    if error is not None:
        reason = error
    elif command.kind == "check":
        reason = checker.check_check(case, code, stdout)
    elif command.kind == "extend":
        reason = checker.check_extend(case, code, stdout)
    else:
        csv_text = command.csv_path.read_text() if command.csv_path.exists() else ""
        output_bytes += len(csv_text.encode())
        reason = checker.check_grid(case, code, stdout, csv_text)
    if reason is not None:
        reason = f"{case.name} {command.kind}: {reason}"
    return Outcome(command, seconds, code, output_bytes, reason)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def above(self, other) -> bool:
        return self.x >= other.x and self.y >= other.y


def probe() -> float:
    """Seconds taken by fixed pure-Python work: the machine's current speed.

    Half arithmetic, half object creation and method calls, which is the
    mix ordext's hot loops are made of.
    """
    gc.collect()
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    corner = _Point(48, 44)
    for i in range(PROBE_ITERATIONS // 6):
        total += _Point(i % 97, i % 89).above(corner)
    return time.perf_counter() - start


def run_timed(cli, commands: List[Command], seconds: float) -> List[Outcome]:
    """Commands round-robin until ``seconds`` have passed and each ran once.

    A command whose first run is shorter than ``MIN_BATCH_S`` runs in a
    batch of back-to-back repeats, so short commands get as many samples
    as long ones.  The probe runs between batches; each sample is scaled by
    ``PROBE_NOMINAL_S`` over the mean of the probes on either side.
    """
    outcomes = []
    repeats: Dict[int, int] = {}
    before = probe()
    begin = time.perf_counter()
    i = 0
    while i < len(commands) or time.perf_counter() - begin < seconds:
        k = i % len(commands)
        batch = [execute(cli, commands[k])]
        if k not in repeats:
            repeats[k] = max(1, min(MAX_BATCH, int(MIN_BATCH_S / batch[0].seconds)))
        while len(batch) < repeats[k]:
            batch.append(execute(cli, commands[k]))
        after = probe()
        scale = PROBE_NOMINAL_S / ((before + after) / 2)
        for outcome in batch:
            outcome.scaled = outcome.seconds * scale
        outcomes += batch
        before = after
        i += 1
    return outcomes


def measure_setup(cases, root: Path) -> List[List[float]]:
    """Per file, scaled times from problem text to a ready engine."""
    from ordext.problemfile import parse_problem

    texts = [corpus.problem_path(root, case).read_text() for case in cases]
    times: List[List[float]] = [[] for _ in texts]
    before = probe()
    begin = time.perf_counter()
    rounds = 0
    while rounds < SETUP_MIN_ROUNDS or time.perf_counter() - begin < SETUP_SECONDS:
        raw = []
        for text in texts:
            start = time.perf_counter()
            parse_problem(text).to_engine()
            raw.append(time.perf_counter() - start)
        after = probe()
        scale = PROBE_NOMINAL_S / ((before + after) / 2)
        for per_file, seconds in zip(times, raw):
            per_file.append(seconds * scale)
        before = after
        rounds += 1
    return times


def end_to_end(cli, cases, commands, root: Path, seconds: int, log) -> dict:
    setup = measure_setup(cases, root)
    outcomes = run_timed(cli, commands, seconds)
    scaled: Dict[int, List[float]] = {id(c): [] for c in commands}
    raw: Dict[int, List[float]] = {id(c): [] for c in commands}
    for o in outcomes:
        scaled[id(o.command)].append(o.scaled)
        raw[id(o.command)].append(o.seconds)
    # A command's time is its median over the run; a kind's time is the
    # median of those over the files, so a partly finished last round
    # cannot move the median from one file to the next.  Set-up likewise.
    by_kind: Dict[str, List[float]] = {}
    for c in commands:
        by_kind.setdefault(c.kind, []).append(statistics.median(scaled[id(c)]))
    answering = [o for o in outcomes if o.command.kind != "check"]
    points = sum(o.command.points for o in answering if o.code == 0)
    point_time = sum(o.scaled for o in answering)
    runs = Counter(o.command.kind for o in outcomes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        # one pass of the script, as the sum of each command's median time
        "wall_s": (sum(statistics.median(v) for v in scaled.values()),
                   min(len(v) for v in scaled.values())),
        "check_s": (statistics.median(by_kind["check"]), runs["check"]),
        "extend_s": (statistics.median(by_kind["extend"]), runs["extend"]),
        "points_per_s": (points / point_time, points),
        "setup_s": (statistics.median(statistics.median(t) for t in setup),
                    sum(len(t) for t in setup)),
        "peak_rss_mb": (rss_kib / 1024.0, 1),
    }
    for name, (value, count) in values.items():
        log(f"{name} {value:.6g} {END_TO_END[name]} (n={count})")
    if "grid" in by_kind:
        log(f"grid_s {statistics.median(by_kind['grid']):.6g} s (n={runs['grid']}, median over files)")
    speed = statistics.median(o.scaled / o.seconds for o in outcomes)
    log(f"unscaled wall_s {sum(statistics.median(v) for v in raw.values()):.6g} s; "
        f"median scale {speed:.4f} (probe nominal / probe measured)")
    report = {
        "metrics": {name: value for name, (value, _) in values.items()},
        "sample_counts": {name: count for name, (_, count) in values.items()},
        "outcomes": outcomes,
    }
    if "grid" in by_kind:
        report["grid_s"] = statistics.median(by_kind["grid"])
    return report


def import_seconds() -> float:
    """Median time to import ``ordext.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import ordext.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def per_layer(cli, commands, log) -> dict:
    untraced = [execute(cli, command) for command in commands]
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        traced = []
        for i, command in enumerate(commands):
            tracer.command_id = i
            traced.append(execute(cli, command))
    finally:
        installation.restore()
    untraced_s = sum(o.seconds for o in untraced)
    traced_s = sum(o.seconds for o in traced)
    report = spans.summarize(tracer, [c.kind for c in commands])
    outcomes = untraced + traced
    metrics = report["metrics"]
    metrics.update({
        "cli.output_bytes": sum(o.output_bytes for o in traced),
        "cli.import_s": import_seconds(),
        "ops_failed_ratio": sum(o.failure is not None for o in outcomes) / len(outcomes),
        "trace.command_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    log(f"untraced commands {untraced_s:.3f} s, traced {traced_s:.3f} s, layer self times "
        f"sum to {report['self_sum_s']:.3f} s over {len(tracer)} spans; point tail is "
        f"p{report['point_tail_percentile']:g} of {report['points']} points")
    report["outcomes"] = outcomes
    report["tracer"] = tracer
    return report


def machine_info() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def load_cli():
    """Import ordext from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ordext" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ordext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ordext import cli

    if Path(cli.__file__).resolve().parent != SRC / "ordext":
        raise SystemExit(f"perfbench: imported ordext from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    info = dict(machine_info(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    log("machine " + json.dumps(info, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cases = corpus.generate(args.workload, args.seed)
        corpus.write(cases, scratch)
        commands = script(cases, scratch)
        log(f"{len(cases)} files, {len(commands)} commands in the script")
        if args.trace:
            report = per_layer(cli, commands, log)
            units = PER_LAYER
        else:
            report = end_to_end(cli, cases, commands, scratch, args.seconds, log)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcomes = report.pop("outcomes")
    tracer = report.pop("tracer", None)
    failures = [o.failure for o in outcomes if o.failure is not None]
    for line in failures:
        log(f"failed: {line}")
    report.update(machine=info, failures=failures, attempted=len(outcomes))
    if tracer is not None:
        tracer.write(WORK / f"trace-{args.workload}.json", report)
    else:
        (WORK / f"result-{args.workload}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True))
    metrics = report["metrics"]
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
