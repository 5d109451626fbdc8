"""Weak/strict increase, the six equivalent forms, and gap-safety."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordext.contours import FiniteSampleOracle, PartialUtility
from ordext.monotonicity import (
    NotAParetoSetError,
    check_gap_safe_finite,
    check_gap_safe_pareto,
    check_gap_safe_probes,
    check_pareto_set_values,
    check_strictly_increasing,
    check_weakly_increasing,
)
from ordext.orders import (
    BOTTOM,
    TOP,
    FinitePreorder,
    ParetoSpace,
    UnsupportedQueryError,
)

from reference import WeakIncreaseForm, check_weak_increase_form


def finite_instances(max_n=6, lo=-4, hi=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ),
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            st.integers(0, n),
        )
    )


def build(inst):
    n, pairs, values, psize = inst
    rel = FinitePreorder.closure(n, pairs)
    samples = PartialUtility({i: float(values[i]) for i in range(psize)})
    return rel, samples


def test_weakly_increasing_on_chain():
    rel = FinitePreorder.chain(2)
    assert check_weakly_increasing(rel, PartialUtility({0: 0.0, 1: 1.0})).holds


def test_weakly_increasing_violation_carries_pair():
    rel = FinitePreorder.chain(2)
    verdict = check_weakly_increasing(rel, PartialUtility({0: 1.0, 1: 0.0}))
    assert not verdict.holds
    assert (verdict.witness.lo, verdict.witness.hi) == (0, 1)


def test_weakly_increasing_singleton_trivial():
    assert check_weakly_increasing(
        FinitePreorder.chain(1), PartialUtility({0: 7.0})
    ).holds


def test_strictly_increasing_clauses():
    equiv = FinitePreorder.closure(2, [(0, 1), (1, 0)])
    assert check_strictly_increasing(equiv, PartialUtility({0: 2.0, 1: 2.0})).holds
    bad_equiv = check_strictly_increasing(equiv, PartialUtility({0: 2.0, 1: 3.0}))
    assert not bad_equiv.holds
    assert "equivalent" in bad_equiv.witness.note

    chain = FinitePreorder.chain(2)
    flat = check_strictly_increasing(chain, PartialUtility({0: 1.0, 1: 1.0}))
    assert not flat.holds
    assert "strictly larger" in flat.witness.note


@given(finite_instances())
def test_six_forms_agree(inst):
    rel, samples = build(inst)
    verdicts = [
        check_weak_increase_form(rel, samples, form).holds
        for form in WeakIncreaseForm
    ]
    assert len(set(verdicts)) == 1


def test_forms_over_infinite_ground_set_unsupported():
    space = ParetoSpace(1)
    samples = PartialUtility({(0.0,): 0.0})
    with pytest.raises(UnsupportedQueryError):
        check_weak_increase_form(space, samples, WeakIncreaseForm.BOUNDS_EVERYWHERE)
    with pytest.raises(UnsupportedQueryError):
        check_weak_increase_form(space, samples, WeakIncreaseForm.BOUNDS_COMPARABLE)
    # the sample-local forms stay available
    assert check_weak_increase_form(
        space, samples, WeakIncreaseForm.BOUNDS_AT_SAMPLES
    ).holds


def test_empty_samples_satisfy_everything():
    rel = FinitePreorder.chain(3)
    empty = PartialUtility({})
    for form in WeakIncreaseForm:
        assert check_weak_increase_form(rel, empty, form).holds
    assert check_gap_safe_finite(rel, empty).holds


def test_gap_safe_on_strict_chain():
    rel = FinitePreorder.chain(3)
    assert check_gap_safe_finite(rel, PartialUtility({0: 0.0, 1: 1.0, 2: 2.0})).holds


def test_gap_safe_fails_on_plateau():
    rel = FinitePreorder.chain(2)
    verdict = check_gap_safe_finite(rel, PartialUtility({0: 1.0, 1: 1.0}))
    assert not verdict.holds
    assert (verdict.witness.lo, verdict.witness.hi) == (0, 1)


@given(finite_instances())
def test_gap_safe_iff_strictly_increasing_on_finite_samples(inst):
    # with finitely many samples the two notions coincide
    rel, samples = build(inst)
    assert (
        check_gap_safe_finite(rel, samples).holds
        == check_strictly_increasing(rel, samples).holds
    )


@given(finite_instances())
def test_gap_safe_implies_bounded_contours(inst):
    rel, samples = build(inst)
    if check_gap_safe_finite(rel, samples).holds:
        oracle = FiniteSampleOracle(rel, samples)
        for x in rel.iter_elements():
            assert oracle.lower_sup(x) < math.inf
            assert oracle.upper_inf(x) > -math.inf


@given(finite_instances())
def test_weakly_increasing_gives_nonstrict_gap_bound(inst):
    rel, samples = build(inst)
    if not check_weakly_increasing(rel, samples).holds:
        return
    oracle = FiniteSampleOracle(rel, samples)
    for x in rel.iter_elements():
        for y in rel.iter_elements():
            if rel.strictly_greater(y, x):
                assert oracle.upper_inf(y) >= oracle.lower_sup(x)


@given(finite_instances())
def test_weakly_increasing_collapses_sandwich(inst):
    rel, samples = build(inst)
    if not check_weakly_increasing(rel, samples).holds:
        return
    oracle = FiniteSampleOracle(rel, samples)
    for p, v in samples.items():
        assert oracle.lower_sup(p) == v == oracle.upper_inf(p)


@given(finite_instances())
def test_witnesses_recheck_from_scratch(inst):
    rel, samples = build(inst)
    verdict = check_gap_safe_finite(rel, samples)
    if verdict.holds:
        return
    w = verdict.witness
    if isinstance(w.lo, int) and isinstance(w.hi, int):
        fresh = FiniteSampleOracle(rel, samples)
        if rel.strictly_greater(w.hi, w.lo):
            assert not (fresh.upper_inf(w.hi) > fresh.lower_sup(w.lo))
        else:
            assert rel.geq(w.hi, w.lo)
            assert samples.value(w.hi) < samples.value(w.lo)


def test_probe_checker_requires_strict_pairs():
    rel = FinitePreorder.chain(2)
    oracle = FiniteSampleOracle(rel, PartialUtility({0: 0.0, 1: 1.0}))
    with pytest.raises(ValueError, match="strict"):
        check_gap_safe_probes(oracle, [(1, 0)])


def test_probe_checker_passes_strict_chain():
    rel = FinitePreorder.chain(3)
    oracle = FiniteSampleOracle(rel, PartialUtility({0: 0.0, 1: 1.0, 2: 2.0}))
    probes = [
        (0, 1),
        (1, 2),
        (0, 2),
        (BOTTOM, 0),
        (2, TOP),
        (BOTTOM, TOP),
    ]
    assert check_gap_safe_probes(oracle, probes).holds


def test_probe_checker_refutes_plateau():
    rel = FinitePreorder.chain(2)
    oracle = FiniteSampleOracle(rel, PartialUtility({0: 1.0, 1: 1.0}))
    verdict = check_gap_safe_probes(oracle, [(0, 1)])
    assert not verdict.holds


def test_gap_safe_pareto_examples():
    space = ParetoSpace(2)
    inc = PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
    assert check_gap_safe_pareto(space, inc).holds
    dec = PartialUtility({(0.0, 0.0): 1.0, (1.0, 1.0): 0.0})
    verdict = check_gap_safe_pareto(space, dec)
    assert not verdict.holds
    assert (verdict.witness.lo, verdict.witness.hi) == ((0.0, 0.0), (1.0, 1.0))


def test_one_gap_check_for_every_space():
    assert check_gap_safe_pareto is check_gap_safe_finite


def test_gap_safe_pareto_antichain_any_values():
    space = ParetoSpace(2)
    anti = PartialUtility({(0.0, 1.0): 9.0, (1.0, 0.0): -3.0})
    assert check_gap_safe_pareto(space, anti).holds


def test_pareto_set_values_requires_pareto_set():
    space = ParetoSpace(2)
    bad = PartialUtility({(0.0, 0.0): 0.0, (1.0, 1.0): 1.0})
    with pytest.raises(NotAParetoSetError) as exc:
        check_pareto_set_values(space, bad)
    assert exc.value.pair == ((1.0, 1.0), (0.0, 0.0))


def test_pareto_set_values_class_constancy():
    rel = FinitePreorder.closure(2, [(0, 1), (1, 0)])
    assert check_pareto_set_values(rel, PartialUtility({0: 5.0, 1: 5.0})).holds
    verdict = check_pareto_set_values(rel, PartialUtility({0: 5.0, 1: 6.0}))
    assert not verdict.holds


def test_failing_verdict_must_carry_witness():
    from ordext.monotonicity import Verdict

    with pytest.raises(ValueError):
        Verdict(False)


def test_witness_describe_labels_both_elements():
    from ordext.monotonicity import Witness

    w = Witness(lo=0, hi=TOP, context=(("a(x)", "1.0"), ("b(x')", "+inf")), note="n")
    assert w.describe() == "x=0, x'=Top, a(x)=1.0, b(x')=+inf (n)"
    names = {0: "low"}
    label = lambda x: str(x) if x is TOP or x is BOTTOM else names[x]  # noqa: E731
    assert w.describe(label) == "x=low, x'=Top, a(x)=1.0, b(x')=+inf (n)"
    assert Witness(lo=1, hi=2).describe(lambda x: f"e{x}") == "x=e1, x'=e2"
