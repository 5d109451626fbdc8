"""One-off calibration against the baseline figures in ROADMAP.md.

Usage, from the repository root::

    python3 perfbench/calibrate.py

Times, in this process, the cases the ROADMAP baseline names: ``ordext
grid`` at 100x100 over 31 samples, one uncached Pareto ``evaluate`` at
|P| = 50, the Pareto gap check at |P| = 200 and 800, the finite gap check
at n = 200 and on a 1500-element chain (with its closure), and finds the
shortest chain, listed top-first, on which ``ordext extend`` raises
``RecursionError``.  Each timing is the median of a few repeats.  The
results are recorded by hand in ``NOTES.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import corpus
import run


def timed(fn, repeats=3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pareto_case(rng: random.Random, k: int, size: int):
    fn = corpus._increasing_pareto_fn(rng, k)
    points = corpus._pareto_points(rng, k, size, 10.0)
    values = corpus._normalise({p: fn(p) for p in points})
    return points, values


def chain_problem(n: int) -> dict:
    names = [f"c{i:05d}" for i in range(n - 1, -1, -1)]     # top first
    return {
        "space": {
            "kind": "finite",
            "elements": names,
            "geq": [[names[i], names[i + 1]] for i in range(n - 1)],
        },
        "samples": [{"element": names[-1], "value": 0.25}, {"element": names[0], "value": 0.75}],
    }


def extend_raises(cli, root: Path, n: int) -> bool:
    problem = root / f"chain{n}.json"
    queries = root / f"chain{n}.queries.json"
    doc = chain_problem(n)
    problem.write_text(json.dumps(doc))
    queries.write_text(json.dumps(doc["space"]["elements"][:1]))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(["extend", str(problem), "--queries", str(queries)])
        except RecursionError:
            return True
    return False


def main() -> int:
    cli = run.load_cli()
    from ordext.contours import FiniteSampleOracle, PartialUtility
    from ordext.extension import make_engine
    from ordext.monotonicity import check_gap_safe_finite, check_gap_safe_pareto
    from ordext.orders import FinitePreorder, ParetoSpace

    rng = random.Random("calibrate")
    rows = []
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        root = Path(tmp)

        points, values = pareto_case(rng, 2, 31)
        doc = {"space": {"kind": "pareto", "dimension": 2},
               "samples": [{"point": list(p), "value": v} for p, v in values.items()]}
        (root / "grid.json").write_text(json.dumps(doc))
        argv = ["grid", str(root / "grid.json"), "--bbox=-0.5,-0.5,10.5,10.5",
                "--resolution=100", f"--out={root / 'grid.csv'}"]
        with contextlib.redirect_stdout(io.StringIO()):
            rows.append(("grid 100x100, |P| = 31", timed(lambda: cli.main(argv)), "s", 2.4))

        points, values = pareto_case(rng, 2, 50)
        space = ParetoSpace(2)
        engine = make_engine(FiniteSampleOracle(space, PartialUtility(values)))
        queries = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(2000)]
        per_query = timed(lambda: [engine.evaluate(q) for q in queries], repeats=1) / len(queries)
        rows.append(("Pareto evaluate, uncached, |P| = 50", per_query * 1e6, "us", 260))

        for size, baseline in ((200, 0.037), (800, 0.64)):
            points, values = pareto_case(rng, 2, size)
            samples = PartialUtility(values)
            rows.append((f"check_gap_safe_pareto, |P| = {size}",
                         timed(lambda: check_gap_safe_pareto(space, samples)), "s", baseline))

        n = 200
        dag_pairs, _ = corpus._random_dag(rng, n)
        rel = FinitePreorder.closure(n, dag_pairs)
        below = corpus.reachable_below(n, dag_pairs)
        level = {x: bin(below[x]).count("1") for x in range(n)}   # strictly increasing
        sampled = rng.sample(range(n), n // 10)
        samples = PartialUtility({x: float(level[x]) for x in sampled})
        rows.append(("check_gap_safe_finite, random DAG n = 200",
                     timed(lambda: check_gap_safe_finite(rel, samples)), "s", 0.12))

        n = 1500
        chain_pairs = [(i + 1, i) for i in range(n - 1)]
        rows.append(("FinitePreorder.closure, chain n = 1500",
                     timed(lambda: FinitePreorder.closure(n, chain_pairs), repeats=1), "s", 1.6))
        chain = FinitePreorder.closure(n, chain_pairs)
        samples = PartialUtility({0: 0.25, n - 1: 0.75})
        rows.append(("check_gap_safe_finite, chain n = 1500",
                     timed(lambda: check_gap_safe_finite(chain, samples), repeats=1), "s", 2.8))

        lo, hi = 50, 1500
        if not extend_raises(cli, root, hi):
            rows.append(("extend RecursionError: none up to chain length", hi, "elements", 500))
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if extend_raises(cli, root, mid):
                    hi = mid
                else:
                    lo = mid
            rows.append(("extend RecursionError from chain length (top first)", hi,
                         "elements", 500))

    print(f"# recursion limit {sys.getrecursionlimit()}")
    print(f"# machine {json.dumps(run.machine_info(), sort_keys=True)}")
    for label, value, unit, baseline in rows:
        print(f"{label:55s} {value:12.4g} {unit:8s} baseline {baseline:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
