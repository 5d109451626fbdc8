import pytest
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ordext.contours import PartialUtility
from ordext.monotonicity import check_gap_safe_finite
from ordext.orders import FinitePreorder

from reference import (
    InstanceSpec,
    WeakIncreaseForm,
    brute_extendability,
    build_instance,
    check_weak_increase_form,
    iter_all_preorders,
    pairwise_gap_safe_finite,
    pm_one_assignments,
    random_adversarial_samples,
    random_finite_preorder,
    random_gap_safe_samples,
)


def six_forms_agree(rel, samples):
    verdicts = [
        check_weak_increase_form(rel, samples, form).holds
        for form in WeakIncreaseForm
    ]
    return all(verdicts) or not any(verdicts)


# --- generators ---


def test_random_preorder_deterministic():
    spec = InstanceSpec(seed=7, n=6, density=0.4, sample_count=3)
    assert random_finite_preorder(spec) == random_finite_preorder(spec)


def test_density_zero_is_discrete():
    spec = InstanceSpec(seed=1, n=5, density=0.0, sample_count=0)
    assert random_finite_preorder(spec) == FinitePreorder.antichain(5)


def test_density_one_single_class():
    spec = InstanceSpec(seed=1, n=5, density=1.0, sample_count=0)
    rel = random_finite_preorder(spec)
    assert rel.equivalence_classes() == [(0, 1, 2, 3, 4)]


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, n=9, density=0.5, sample_count=1)
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, n=3, density=1.5, sample_count=1)
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, n=3, density=0.5, sample_count=4)
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, n=3, density=0.5, sample_count=1, mode="fuzzy")


def test_gap_safe_generator_rechecks():
    for seed in range(25):
        spec = InstanceSpec(seed=seed, n=6, density=0.5, sample_count=4)
        rel, samples = build_instance(spec)
        assert check_gap_safe_finite(rel, samples).holds


def test_gap_safe_single_class_is_constant():
    rel = random_finite_preorder(
        InstanceSpec(seed=3, n=4, density=1.0, sample_count=0)
    )
    samples = random_gap_safe_samples(rel, [0, 1, 2, 3], seed=11)
    values = {v for _, v in samples.items()}
    assert len(values) == 1


def test_gap_safe_antichain_any_jitter_ok():
    rel = FinitePreorder.antichain(5)
    samples = random_gap_safe_samples(rel, [0, 2, 4], seed=5)
    assert check_gap_safe_finite(rel, samples).holds


def test_adversarial_deterministic():
    rel = FinitePreorder.chain(4)
    one = random_adversarial_samples(rel, [0, 1, 2], seed=9)
    two = random_adversarial_samples(rel, [0, 1, 2], seed=9)
    assert dict(one.items()) == dict(two.items())


def test_build_instance_adversarial_mode():
    spec = InstanceSpec(seed=2, n=5, density=0.6, sample_count=3, mode="adversarial")
    rel, samples = build_instance(spec)
    assert len(samples) == 3
    assert all(p in range(5) for p in samples.points)


# --- brute oracle ---


def test_brute_empty_samples_true():
    rel = FinitePreorder.closure(4, [(0, 1), (1, 2), (3, 1)])
    assert brute_extendability(rel, PartialUtility({})) is True


def test_brute_chain_consistent_true():
    rel = FinitePreorder.chain(3)  # 0 ≤ 1 ≤ 2
    assert brute_extendability(rel, PartialUtility({0: 0.0, 2: 1.0}))


def test_brute_equal_values_on_strict_pair_false():
    rel = FinitePreorder.chain(2)
    assert not brute_extendability(rel, PartialUtility({0: 0.5, 1: 0.5}))


def test_brute_equivalent_points_need_equal_values():
    rel = FinitePreorder.closure(2, [(0, 1), (1, 0)])
    assert not brute_extendability(rel, PartialUtility({0: 0.0, 1: 1.0}))
    assert brute_extendability(rel, PartialUtility({0: 0.25, 1: 0.25}))


def test_brute_pinned_middle_out_of_band_false():
    rel = FinitePreorder.chain(3)
    assert not brute_extendability(
        rel, PartialUtility({0: 0.0, 1: 2.0, 2: 1.0})
    )


def test_brute_size_cap():
    with pytest.raises(ValueError):
        brute_extendability(FinitePreorder.antichain(9), PartialUtility({}))


def test_brute_matches_checker_over_seeds():
    hits = {True: 0, False: 0}
    for seed in range(120):
        for mode in ("utility", "adversarial"):
            spec = InstanceSpec(
                seed=seed,
                n=3 + seed % 5,
                density=(seed % 7) / 6.0,
                sample_count=min(3 + seed % 5, 2 + seed % 3),
                mode=mode,
            )
            rel, samples = build_instance(spec)
            verdict = check_gap_safe_finite(rel, samples)
            assert brute_extendability(rel, samples) == verdict.holds
            hits[verdict.holds] += 1
    assert hits[True] > 0 and hits[False] > 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brute_matches_checker_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=8,
        )
    )
    rel = FinitePreorder.closure(n, pairs)
    points = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n
        )
    )
    values = data.draw(
        st.lists(
            st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
            min_size=len(points),
            max_size=len(points),
        )
    )
    samples = PartialUtility(dict(zip(points, values)))
    brute = brute_extendability(rel, samples)
    assert brute == check_gap_safe_finite(rel, samples).holds
    # the paper's definition, read literally, against explicit construction
    assert brute == pairwise_gap_safe_finite(rel, samples).holds


# --- exhaustive enumeration ---


def test_iter_all_preorders_counts():
    assert [sum(1 for _ in iter_all_preorders(n)) for n in (1, 2, 3, 4)] == [
        1,
        4,
        29,
        355,
    ]


def test_iter_all_preorders_distinct():
    seen = {rel for rel in iter_all_preorders(3)}
    assert len(seen) == 29


def test_iter_all_preorders_range():
    with pytest.raises(ValueError):
        next(iter_all_preorders(0))
    with pytest.raises(ValueError):
        next(iter_all_preorders(6))


def test_pm_one_assignments():
    combos = list(pm_one_assignments([0, 1]))
    assert len(combos) == 4
    assert {tuple(sorted(c.items())) for c in combos} == {
        ((0, -1.0), (1, -1.0)),
        ((0, -1.0), (1, 1.0)),
        ((0, 1.0), (1, -1.0)),
        ((0, 1.0), (1, 1.0)),
    }


def test_six_forms_exhaustive_small():
    # every preorder on up to 4 elements, one seeded sign pattern each
    rng = random.Random(0xF0)
    for n in (1, 2, 3, 4):
        for rel in iter_all_preorders(n):
            points = rng.sample(range(n), rng.randint(1, n))
            samples = PartialUtility(
                {p: rng.choice((-1.0, 1.0)) for p in points}
            )
            assert six_forms_agree(rel, samples)


@pytest.mark.slow
def test_six_forms_exhaustive_five_elements():
    rng = random.Random(0xF5)
    count = 0
    for rel in iter_all_preorders(5):
        count += 1
        points = rng.sample(range(5), rng.randint(1, 5))
        samples = PartialUtility({p: rng.choice((-1.0, 1.0)) for p in points})
        assert six_forms_agree(rel, samples)
    assert count == 6942
