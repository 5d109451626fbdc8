"""The benchmark's span hooks, installed and restored in process.

``perfbench/spans.py`` wraps ordext's entry points by name for the traced
benchmark run.  A name it looks up that ordext no longer has fails here,
in the tier-1 suite, and not only in the benchmark's own self-test.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from ordext import cli, contours, extension, monotonicity, orders, problemfile, utility

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CASES = ROOT / "tests" / "golden" / "cases"
OWNERS = (
    cli, contours, extension, monotonicity, orders, problemfile, utility,
    contours.FiniteSampleOracle, extension.ExtensionEngine, orders.Preorder,
    orders.FinitePreorder, orders.ParetoSpace, problemfile.ProblemInstance,
    utility.UtilityFn,
)


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_hooks_install_trace_one_extend_and_restore():
    spans = load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    # keep every installation, so that a lookup failing halfway through
    # install still restores what it had already wrapped
    made = []

    class Installation(spans.Installation):
        def __init__(self):
            super().__init__()
            made.append(self)

    spans.Installation = Installation
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli.main is not before[0]["main"]
        tracer.command_id = 0
        argv = ["extend", str(GOLDEN_CASES / "pareto2.json"),
                "--queries", str(GOLDEN_CASES / "pareto2.queries.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        for installation in made:
            installation.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    # what the traced benchmark smoke run requires of every workload
    summary = spans.summarize(tracer, ["extend"])
    metrics = summary["metrics"]
    assert summary["points"] > 0
    assert metrics["contours.calls"] > 0
    assert metrics["extension.forms_per_point"] == 1
    assert metrics["utility.calls"] == summary["points"]
