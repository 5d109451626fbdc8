"""Acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines
appear in the terminal summary section.
"""

import functools
import json
import math
import random
import time

from ordext.contours import FiniteSampleOracle, PartialUtility
from ordext.extension import Band, ContourRegion, make_engine
from ordext.fixtures import get_fixture
from ordext.monotonicity import check_gap_safe_finite, check_strictly_increasing
from ordext.orders import FinitePreorder, ParetoSpace
from ordext.utility import finite_utility, normalize01, pareto_base_utility, squash

from reference import (
    InstanceSpec,
    WeakIncreaseForm,
    brute_extendability,
    build_instance,
    check_weak_increase_form,
    iter_all_preorders,
    pm_one_assignments,
    random_finite_preorder,
)

RESULTS = []


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((number, name, "FAIL"))
                raise
            RESULTS.append((number, name, "PASS"))
        return wrapper
    return decorate


def _criterion3_specs():
    for seed in range(500):
        for mode in ("utility", "adversarial"):
            n = 2 + seed % 6
            yield InstanceSpec(
                seed=seed,
                n=n,
                density=(seed % 11) / 10.0,
                sample_count=seed % (n + 1),
                mode=mode,
            )


@criterion(1, "example-gap reproduction")
def test_criterion_1(tmp_path, capsys):
    from ordext.cli import main

    start = time.perf_counter()
    fixture = get_fixture("example-gap")
    assert fixture.lower_sup((0.0,)) == 0.0
    assert fixture.upper_inf((1.0,)) == 0.0

    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"space": {"kind": "fixture", "name": "example-gap"}}))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "gap-safe increasing: NO" in out
    assert "x=(0.0)" in out and "x'=(1.0)" in out
    assert "a(x)=0.0" in out and "b(x')=0.0" in out
    assert time.perf_counter() - start < 1.0


@criterion(2, "example-nin reproduction")
def test_criterion_2(tmp_path, capsys):
    from ordext.cli import main

    start = time.perf_counter()
    fixture = get_fixture("example-nin")
    assert fixture.lower_sup(0) == math.inf

    path = tmp_path / "nin.json"
    path.write_text(json.dumps({"space": {"kind": "fixture", "name": "example-nin"}}))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "x=0" in out and "x'=Top" in out
    assert "a(x)=+inf" in out
    assert time.perf_counter() - start < 1.0


@criterion(3, "biconditional checker vs brute oracle")
def test_criterion_3():
    start = time.perf_counter()
    total = 0
    outcomes = {True: 0, False: 0}
    for spec in _criterion3_specs():
        rel, samples = build_instance(spec)
        verdict = check_gap_safe_finite(rel, samples)
        assert brute_extendability(rel, samples) == verdict.holds
        outcomes[verdict.holds] += 1
        total += 1
    assert total >= 1000
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert time.perf_counter() - start < 60.0


@criterion(4, "forward construction audit")
def test_criterion_4():
    audited = 0
    for spec in _criterion3_specs():
        rel, samples = build_instance(spec)
        if not check_gap_safe_finite(rel, samples).holds:
            continue
        engine = make_engine(FiniteSampleOracle(rel, samples))
        values = {x: engine.evaluate(x) for x in rel.iter_elements()}
        for p, wanted in samples.items():
            assert values[p] == wanted  # exact restriction
        for x in rel.iter_elements():
            for y in rel.iter_elements():
                if rel.strictly_greater(y, x):
                    assert values[y] > values[x]
                elif x != y and rel.equivalent(y, x):
                    assert values[y] == values[x]
        audited += 1
    assert audited > 0


def _staircase(rng, count, snap=None):
    """Mutually undominated points: x ascending, y descending."""
    if snap is None:
        xs = sorted(rng.uniform(0.0, 1.0) for _ in range(count))
        ys = sorted((rng.uniform(0.0, 1.0) for _ in range(count)), reverse=True)
    else:
        xs = [i / (snap - 1) for i in sorted(rng.sample(range(snap), count))]
        ys = [
            i / (snap - 1)
            for i in sorted(rng.sample(range(snap), count), reverse=True)
        ]
    return list(zip(xs, ys))


@criterion(5, "formula-family agreement")
def test_criterion_5():
    rng = random.Random(55)
    worst = 0.0

    def absorb(engine, x):
        nonlocal worst
        values = engine.evaluate_all_forms(x)
        worst = max(worst, max(values) - min(values))

    # finite relations: every element of many gap-safe instances
    finite_points = 0
    seed = 0
    while finite_points < 10_000:
        n = 2 + seed % 6
        spec = InstanceSpec(
            seed=rng.randrange(10**9),
            n=n,
            density=(seed % 11) / 10.0,
            sample_count=seed % (n + 1),
        )
        rel, samples = build_instance(spec)
        engine = make_engine(FiniteSampleOracle(rel, samples))
        for x in rel.iter_elements():
            absorb(engine, x)
            finite_points += 1
        seed += 1

    # border instance: at the middle element a = alpha, b = beta, and
    # b - a = beta - alpha all hold at once
    border = make_engine(
        FiniteSampleOracle(FinitePreorder.chain(3), PartialUtility({0: 0.0, 2: 1.0}))
    )
    absorb(border, 1)

    # pareto spaces: random staircases with coordinate-sum values
    space = ParetoSpace(2)
    pareto_points = 0
    while pareto_points < 10_000:
        points = _staircase(rng, rng.randint(3, 8))
        samples = PartialUtility({p: p[0] + p[1] for p in points})
        engine = make_engine(FiniteSampleOracle(space, samples))
        for _ in range(100):
            x = (rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
            absorb(engine, x)
            pareto_points += 1

    # engineered pareto borders with the unit diagonal samples: interior
    # queries have a = alpha, b = beta, width equal to the span
    diag = make_engine(
        FiniteSampleOracle(
            space, PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
        )
    )
    for _ in range(200):
        absorb(diag, (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
    # one-sided borders: b = beta with empty lower contour, a = alpha
    # with empty upper contour
    upper_only = make_engine(
        FiniteSampleOracle(space, PartialUtility({(1.0, 1.0): 1.0}))
    )
    lower_only = make_engine(
        FiniteSampleOracle(space, PartialUtility({(0.0, 0.0): 0.0}))
    )
    for _ in range(100):
        absorb(upper_only, (rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 0.0)))
        absorb(lower_only, (rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)))

    assert worst <= 1e-9


@criterion(6, "six-form equivalence sweep")
def test_criterion_6():
    rng = random.Random(66)
    relations = []
    for n in (1, 2, 3, 4):
        relations.extend(iter_all_preorders(n))
    for extra_seed in range(150):
        spec = InstanceSpec(
            seed=extra_seed,
            n=5 + extra_seed % 3,
            density=(extra_seed % 11) / 10.0,
            sample_count=0,
        )
        relations.append(random_finite_preorder(spec))
    assert len(relations) >= 500

    for rel in relations:
        if rel.n <= 4:
            points = tuple(range(rel.n))
        else:
            points = tuple(rng.sample(range(rel.n), rng.randint(1, 5)))
        for samples in pm_one_assignments(points):
            verdicts = [
                check_weak_increase_form(rel, samples, form).holds
                for form in WeakIncreaseForm
            ]
            assert all(verdicts) or not any(verdicts)


@criterion(7, "region label properties")
def test_criterion_7():
    # finite instances: every element of every gap-safe criterion-3 instance
    for spec in _criterion3_specs():
        if spec.mode != "utility":
            continue
        rel, samples = build_instance(spec)
        engine = make_engine(FiniteSampleOracle(rel, samples))
        for x in rel.iter_elements():
            bands = engine.classify_bands(x)
            region = engine.classify_contour_region(x)
            if region is ContourRegion.DETACHED:
                assert Band.SPANNING in bands
            a, b = engine.bounds(x)
            if a == b:
                assert abs(engine.evaluate(x) - float(a)) <= 1e-12
            for p in samples.points:
                if rel.equivalent(x, p):
                    assert engine.evaluate(x) == samples.value(p)
                    assert Band.NARROW in bands
                    break

    # pareto instance with detached, bracketed, and sample queries
    rng = random.Random(77)
    space = ParetoSpace(2)
    samples = PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
    engine = make_engine(FiniteSampleOracle(space, samples))
    for _ in range(500):
        x = (rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0))
        bands = engine.classify_bands(x)
        if engine.classify_contour_region(x) is ContourRegion.DETACHED:
            assert Band.SPANNING in bands
        a, b = engine.bounds(x)
        if a == b:
            assert abs(engine.evaluate(x) - float(a)) <= 1e-12
    for p in samples.points:
        assert engine.evaluate(p) == samples.value(p)
        assert Band.NARROW in engine.classify_bands(p)


@criterion(8, "pareto-set fast path on grids")
def test_criterion_8():
    rng = random.Random(88)
    space = ParetoSpace(2)
    resolution = 50
    axis = [i / (resolution - 1) for i in range(resolution)]
    start = time.perf_counter()
    for case in range(200):
        count = rng.randint(3, 8)
        snapped = case % 2 == 0
        points = _staircase(rng, count, snap=resolution if snapped else None)
        values = {}
        for p in points:
            v = rng.uniform(-1.0, 1.0)
            while v in values.values():
                v = rng.uniform(-1.0, 1.0)
            values[p] = v
        samples = PartialUtility(values)
        engine = make_engine(FiniteSampleOracle(space, samples))
        sample_set = set(samples.points)
        for gx in axis:
            for gy in axis:
                x = (gx, gy)
                fast = engine.evaluate_pareto_set(x)
                offset = engine.evaluate_offset_form(x)
                assert abs(fast - offset) <= 1e-9
                narrow = Band.NARROW in engine.classify_bands(x)
                assert narrow == (x in sample_set)
    assert time.perf_counter() - start < 30.0


@criterion(9, "utility layer audits")
def test_criterion_9():
    rng = random.Random(99)
    for spec in _criterion3_specs():
        if spec.mode != "utility":
            continue
        rel = random_finite_preorder(spec)
        base = finite_utility(rel)
        levels = PartialUtility({x: float(base(x)) for x in rel.iter_elements()})
        assert check_strictly_increasing(rel, levels).holds

        alpha = rng.uniform(-5.0, 0.0)
        beta = alpha + rng.uniform(0.5, 5.0)
        scaled = squash(base, alpha, beta)
        unit = normalize01(scaled, alpha, beta)
        for x in rel.iter_elements():
            assert alpha < scaled(x) < beta
            assert 0.0 < unit(x) < 1.0
            assert abs(alpha + (beta - alpha) * unit(x) - scaled(x)) <= 1e-12

    space = ParetoSpace(3)
    base = pareto_base_utility(space)
    scaled = squash(base, 0.0, 1.0)
    unit = normalize01(scaled, 0.0, 1.0)
    for _ in range(2000):
        x = tuple(rng.uniform(-100.0, 100.0) for _ in range(3))
        assert 0.0 < scaled(x) < 1.0
        assert abs(scaled(x) - unit(x)) <= 1e-12
