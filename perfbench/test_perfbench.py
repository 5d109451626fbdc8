"""Self-tests of the benchmark: corpus determinism, checker sensitivity and
agreement between the printed metric names and ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import corpus
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_corpus(tmp_path, workload):
    corpus.write(corpus.generate(workload, 3), tmp_path / "a")
    corpus.write(corpus.generate(workload, 3), tmp_path / "b")
    corpus.write(corpus.generate(workload, 4), tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def _run(argv):
    cli = run.load_cli()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture()
def grid_case(tmp_path):
    case = corpus.generate("pareto-grid", 5)[0]
    case.resolution = 12
    corpus.write([case], tmp_path)
    return case, tmp_path


def test_checker_accepts_real_output_and_flags_a_corrupted_csv_row(grid_case):
    case, root = grid_case
    (command,) = [c for c in run.script([case], root) if c.kind == "grid"]
    code, stdout = _run(command.argv)
    rows = command.csv_path.read_text().splitlines()
    assert checker.check_grid(case, code, stdout, "\n".join(rows)) is None

    fields = rows[40].split(",")
    fields[2] = repr(float(fields[2]) - 1.0)
    rows[40] = ",".join(fields)
    assert "not increasing" in checker.check_grid(case, code, stdout, "\n".join(rows))
    assert "rows" in checker.check_grid(case, code, stdout, "\n".join(rows[:-1]))


def test_checker_flags_a_wrong_exit_code_and_a_wrong_sample_row(grid_case):
    case, root = grid_case
    commands = {c.kind: c for c in run.script([case], root)}
    code, stdout = _run(commands["check"].argv)
    assert checker.check_check(case, code, stdout) is None
    assert "exit" in checker.check_check(case, 1, stdout)

    code, stdout = _run(commands["extend"].argv)
    assert checker.check_extend(case, code, stdout) is None
    assert "exit" in checker.check_extend(case, 2, stdout)
    sample = checker.label(case, case.queries[0])
    row = next(line for line in stdout.splitlines() if line.startswith(sample + " "))
    fields = row.split()
    fields[1] = format(float(fields[1]) + 0.5, ".12g")
    broken = stdout.replace(row, "  ".join(fields))
    assert "at sample" in checker.check_extend(case, code, broken)


def test_checker_verifies_the_witness_of_a_planted_violation(tmp_path):
    case = next(c for c in corpus.generate("finite-dag", 2) if c.verdict)
    corpus.write([case], tmp_path)
    code, stdout = _run(["check", str(corpus.problem_path(tmp_path, case))])
    assert code == 1
    assert checker.check_check(case, code, stdout) is None
    case.sample_values = {}
    case.geq = ()
    assert "does not dominate" in checker.check_check(case, code, stdout)


def _printed_metrics(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "pareto-grid",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = _printed_metrics(trace)
    assert {name: m["unit"] for name, m in printed.items()} == declared
    assert declared == (run.END_TO_END if section == "end_to_end" else run.PER_LAYER)
