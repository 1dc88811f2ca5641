"""Tests for impact metrics, queues, sensitivity, and mutation."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.fault import Fault
from repro.core.faultspace import FaultSpace
from repro.core.impact import (
    CompositeImpact,
    CoverageImpact,
    CrashImpact,
    FailedTestImpact,
    HangImpact,
    MeasurementImpact,
    standard_impact,
)
from repro.core.mutation import (
    mutable_axes,
    mutate_fault,
    sample_gaussian_index,
    sample_uniform_index,
)
from repro.core.queues import Candidate, History, PriorityQueue
from repro.core.sensitivity import SensitivityTracker
from repro.errors import SearchError
from repro.injection.plan import InjectionPlan
from repro.sim.process import RunResult


def make_result(
    failed: bool = False,
    crash_kind: str | None = None,
    coverage: frozenset[str] = frozenset(),
    measurements: dict[str, float] | None = None,
) -> RunResult:
    return RunResult(
        test_id=1,
        test_name="t",
        plan=InjectionPlan.none(),
        exit_code=1 if failed and crash_kind is None else (139 if crash_kind else 0),
        crash_kind=crash_kind,
        crash_message=None,
        crash_stack=None,
        injection_stack=None,
        injected=False,
        coverage=coverage,
        steps=10,
        measurements=measurements or {},
    )


class TestImpactMetrics:
    def test_failed_test_points(self):
        metric = FailedTestImpact(5.0)
        assert metric.score(make_result(failed=True)) == 5.0
        assert metric.score(make_result()) == 0.0

    def test_crash_points_cover_segfault_and_abort(self):
        metric = CrashImpact(20.0)
        assert metric.score(make_result(crash_kind="segfault")) == 20.0
        assert metric.score(make_result(crash_kind="abort")) == 20.0
        assert metric.score(make_result(crash_kind="hang")) == 0.0

    def test_hang_points(self):
        metric = HangImpact(10.0)
        assert metric.score(make_result(crash_kind="hang")) == 10.0

    def test_coverage_rewards_only_new_blocks(self):
        metric = CoverageImpact(1.0)
        assert metric.score(make_result(coverage=frozenset({"a", "b"}))) == 2.0
        assert metric.score(make_result(coverage=frozenset({"b", "c"}))) == 1.0
        assert metric.score(make_result(coverage=frozenset({"a"}))) == 0.0
        assert metric.blocks_seen == frozenset({"a", "b", "c"})

    def test_measurement_impact(self):
        metric = MeasurementImpact("latency", scale=2.0)
        assert metric.score(make_result(measurements={"latency": 3.0})) == 6.0
        assert metric.score(make_result()) == 0.0

    def test_composite_sums(self):
        metric = CompositeImpact([FailedTestImpact(5.0), CrashImpact(20.0)])
        assert metric.score(make_result(failed=True, crash_kind="segfault")) == 25.0

    def test_composite_needs_components(self):
        with pytest.raises(ValueError):
            CompositeImpact([])

    def test_standard_impact_matches_paper_recipe(self):
        metric = standard_impact()
        crash = make_result(failed=True, crash_kind="segfault",
                            coverage=frozenset({"x"}))
        # 1 new block + failed test (crashes also fail) + crash
        assert metric.score(crash) == 1.0 + 5.0 + 20.0


class TestPriorityQueue:
    def test_add_and_len(self):
        queue = PriorityQueue(4, random.Random(1))
        queue.add(Candidate(Fault.of(a=1), 1.0, 1.0))
        assert len(queue) == 1

    def test_eviction_keeps_size_bounded(self):
        queue = PriorityQueue(3, random.Random(1))
        for i in range(10):
            queue.add(Candidate(Fault.of(a=i), float(i), float(i)))
        assert len(queue) == 3

    def test_eviction_prefers_low_fitness(self):
        rng = random.Random(1)
        queue = PriorityQueue(5, rng)
        for i in range(5):
            queue.add(Candidate(Fault.of(a=i), 0.01, 0.01))
        queue.add(Candidate(Fault.of(a="big"), 100.0, 100.0))
        for _ in range(20):
            queue.add(Candidate(Fault.of(a=rng.random()), 0.01, 0.01))
        # The high-fitness candidate should have survived the churn.
        assert any(c.fault == Fault.of(a="big") for c in queue)

    def test_sampling_proportional_to_fitness(self):
        rng = random.Random(7)
        queue = PriorityQueue(2, rng)
        queue.add(Candidate(Fault.of(a="hot"), 100.0, 100.0))
        queue.add(Candidate(Fault.of(a="cold"), 1.0, 1.0))
        picks = Counter(queue.sample_parent().fault.value("a") for _ in range(500))
        assert picks["hot"] > picks["cold"] * 5

    def test_zero_fitness_still_sampleable(self):
        queue = PriorityQueue(2, random.Random(1))
        queue.add(Candidate(Fault.of(a=1), 0.0, 0.0))
        assert queue.sample_parent().fault == Fault.of(a=1)

    def test_sample_from_empty_rejected(self):
        with pytest.raises(SearchError):
            PriorityQueue(2, random.Random(1)).sample_parent()

    def test_aging_decays_fitness(self):
        queue = PriorityQueue(4, random.Random(1))
        queue.add(Candidate(Fault.of(a=1), 10.0, 10.0))
        queue.age(0.5, retire_threshold=0.0)
        assert queue.items[0].fitness == 5.0

    def test_aging_retires_below_threshold(self):
        queue = PriorityQueue(4, random.Random(1))
        queue.add(Candidate(Fault.of(a=1), 1.0, 1.0))
        retired: list[Candidate] = []
        for _ in range(20):
            retired += queue.age(0.5, retire_threshold=0.2)
        assert len(queue) == 0
        assert len(retired) == 1

    def test_fresh_candidates_not_retired_immediately(self):
        queue = PriorityQueue(4, random.Random(1))
        queue.add(Candidate(Fault.of(a=1), 0.0, 0.0))
        assert queue.age(0.9, retire_threshold=0.5) == []  # age 1: protected
        assert len(queue.age(0.9, retire_threshold=0.5)) == 1

    def test_invalid_decay_rejected(self):
        queue = PriorityQueue(4, random.Random(1))
        with pytest.raises(SearchError):
            queue.age(0.0, 0.1)

    def test_best_and_mean(self):
        queue = PriorityQueue(4, random.Random(1))
        assert queue.best() is None and queue.mean_fitness() == 0.0
        queue.add(Candidate(Fault.of(a=1), 2.0, 2.0))
        queue.add(Candidate(Fault.of(a=2), 4.0, 4.0))
        assert queue.best().fitness == 4.0
        assert queue.mean_fitness() == 3.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(SearchError):
            PriorityQueue(0, random.Random(1))


class TestHistory:
    def test_membership(self):
        history = History()
        fault = Fault.of(a=1)
        assert fault not in history
        history.add(fault)
        assert fault in history and len(history) == 1

    def test_idempotent_add(self):
        history = History()
        history.add(Fault.of(a=1))
        history.add(Fault.of(a=1))
        assert len(history) == 1


class TestSensitivity:
    def test_uniform_before_observations(self):
        tracker = SensitivityTracker(["a", "b"], window=5)
        probs = tracker.probabilities()
        assert probs["a"] == pytest.approx(0.5)
        assert probs["b"] == pytest.approx(0.5)

    def test_sensitivity_is_windowed_sum(self):
        tracker = SensitivityTracker(["a"], window=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            tracker.record("a", value)
        assert tracker.sensitivity("a") == 9.0  # last 3: 2+3+4

    def test_probabilities_favor_productive_axis(self):
        tracker = SensitivityTracker(["a", "b"], window=5, floor=0.1)
        tracker.record("a", 10.0)
        tracker.record("b", 1.0)
        probs = tracker.probabilities()
        assert probs["a"] > probs["b"]
        assert probs["a"] + probs["b"] == pytest.approx(1.0)

    def test_floor_keeps_cold_axis_alive(self):
        tracker = SensitivityTracker(["a", "b"], window=5, floor=0.1)
        tracker.record("a", 100.0)
        assert tracker.probabilities()["b"] >= 0.05

    def test_unknown_axis_rejected(self):
        tracker = SensitivityTracker(["a"])
        with pytest.raises(SearchError):
            tracker.record("z", 1.0)
        with pytest.raises(SearchError):
            tracker.sensitivity("z")

    def test_validation(self):
        with pytest.raises(SearchError):
            SensitivityTracker([])
        with pytest.raises(SearchError):
            SensitivityTracker(["a"], window=0)
        with pytest.raises(SearchError):
            SensitivityTracker(["a"], floor=1.5)


class TestGenerationCaches:
    """Qpriority's parent weights and the tracker's probabilities are
    kept between the calls that change them; a generation of offspring
    must read exactly what it would have computed afresh."""

    _operations = st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.floats(0.0, 50.0)),
            st.tuples(st.just("age"), st.floats(0.5, 1.0)),
            st.tuples(st.just("record"), st.sampled_from("abc"),
                      st.floats(0.0, 50.0)),
            st.tuples(st.just("sample")),
        ),
        max_size=40,
    )

    @given(_operations, st.integers(0, 2 ** 16))
    def test_cached_vectors_equal_fresh_ones_after_any_interleaving(
        self, operations, seed
    ):
        cached = PriorityQueue(5, random.Random(seed))
        fresh = PriorityQueue(5, random.Random(seed))
        tracker = SensitivityTracker("abc", window=4)
        records: list[tuple[str, float]] = []
        for count, (kind, *args) in enumerate(operations):
            if kind == "add":
                for queue in (cached, fresh):
                    queue.add(Candidate(Fault.of(a=count), 0.0, args[0]))
            elif kind == "age":
                for queue in (cached, fresh):
                    queue.age(args[0], retire_threshold=0.25)
            elif kind == "record":
                tracker.record(*args)
                records.append(tuple(args))
            elif len(cached):
                # The reference never keeps anything between samples.
                fresh._parent_weights = None
                assert cached.sample_parent() == fresh.sample_parent()
                weights = [c.fitness + 1e-9 for c in cached]
                draw = cached._parent_weights
                assert (draw.weights, draw.total) == (weights, sum(weights))
            replayed = SensitivityTracker("abc", window=4)
            for axis, fitness in records:
                replayed.record(axis, fitness)
            assert tracker.probabilities() == replayed.probabilities()
            # Same floats again, and never the caller's to corrupt.
            tracker.probabilities().clear()
            assert tracker.probabilities() == replayed.probabilities()
        # Same RNG draws all along: the two queues stayed in lockstep.
        assert [c.fault for c in cached] == [c.fault for c in fresh]
        assert cached._rng.random() == fresh._rng.random()


class TestMutation:
    def test_gaussian_index_in_range_and_new(self):
        rng = random.Random(3)
        for _ in range(200):
            index = sample_gaussian_index(rng, 5, 10, sigma=2.0)
            assert 0 <= index < 10 and index != 5

    def test_gaussian_favours_neighbours(self):
        rng = random.Random(3)
        draws = Counter(
            sample_gaussian_index(rng, 50, 101, sigma=5.0) for _ in range(2000)
        )
        near = sum(v for k, v in draws.items() if abs(k - 50) <= 5)
        far = sum(v for k, v in draws.items() if abs(k - 50) > 20)
        assert near > far * 3

    def test_uniform_index_in_range_and_new(self):
        rng = random.Random(3)
        draws = {sample_uniform_index(rng, 2, 5) for _ in range(200)}
        assert draws == {0, 1, 3, 4}

    def test_single_value_axis_rejected(self):
        with pytest.raises(SearchError):
            sample_gaussian_index(random.Random(1), 0, 1, 1.0)
        with pytest.raises(SearchError):
            sample_uniform_index(random.Random(1), 0, 1)

    def test_cardinality_two_terminates(self):
        rng = random.Random(1)
        for _ in range(50):
            assert sample_gaussian_index(rng, 0, 2, sigma=0.01) == 1

    def test_mutate_fault_changes_exactly_one_axis(self):
        space = FaultSpace.product(x=range(10), y=range(10))
        fault = Fault.of(x=5, y=5)
        rng = random.Random(2)
        for _ in range(50):
            mutant = mutate_fault(space, fault, "x", rng)
            assert mutant.value("y") == 5
            assert mutant.value("x") != 5

    def test_mutable_axes_skips_singletons(self):
        space = FaultSpace.product(x=range(10), fixed=[1])
        assert mutable_axes(space, Fault.of(x=1, fixed=1)) == ("x",)

    @given(st.integers(min_value=2, max_value=50),
           st.integers(min_value=0, max_value=49))
    def test_gaussian_always_valid_property(self, cardinality, start):
        start = start % cardinality
        rng = random.Random(cardinality * 100 + start)
        index = sample_gaussian_index(rng, start, cardinality,
                                      sigma=cardinality / 5)
        assert 0 <= index < cardinality and index != start
