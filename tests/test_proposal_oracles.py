"""The explorer's fast proposal paths against the plain code they replace.

Each reference below is the straightforward form of one step of
Algorithm 1 or of the explorer's golden check: a linear weighted scan
for every draw, name-addressed mutation, a generation loop that builds
every offspring as a ``Fault`` before probing History, a name-by-name
membership test, compiling every plan afresh.  The product
code computes the same thing with less work; these properties pin that
it is the *same* thing — the same indices, the same floats, the same
faults, and the same number of random draws — so no history digest can
move because of how a proposal is computed.
"""

from __future__ import annotations

import math
import pickle
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.axis import Axis
from repro.core.fault import Fault
from repro.core.faultspace import FaultSpace, Subspace
from repro.core.mutation import (
    mutable_axes,
    mutate_fault,
    sample_gaussian_index,
)
from repro.core.queues import Candidate, PriorityQueue, WeightedDraw
from repro.core.search import FitnessGuidedSearch
from repro.core.sensitivity import SensitivityTracker
from repro.errors import FaultSpaceError
from repro.injection.injector import MemoizedInjector
from repro.injection.models.base import model_injector

_EPSILON = 1e-9


def reference_scan(rng: random.Random, weights: list[float]) -> int:
    """Weighted index by walking the running sum (one ``random()``)."""
    pick = rng.random() * sum(weights)
    cumulative = 0.0
    for i, w in enumerate(weights):
        cumulative += w
        if pick <= cumulative:
            return i
    return len(weights) - 1


class ReferenceQueue:
    """Qpriority that walks the weights afresh for every draw."""

    def __init__(self, capacity: int, rng: random.Random) -> None:
        self.capacity = capacity
        self.rng = rng
        self.items: list[Candidate] = []

    def add(self, candidate: Candidate) -> Candidate | None:
        evicted = None
        if len(self.items) >= self.capacity:
            weights = [1.0 / (c.fitness + _EPSILON) for c in self.items]
            evicted = self.items.pop(reference_scan(self.rng, weights))
        self.items.append(candidate)
        return evicted

    def sample_parent(self) -> Candidate:
        weights = [c.fitness + _EPSILON for c in self.items]
        return self.items[reference_scan(self.rng, weights)]

    def age(self, decay: float, retire_threshold: float) -> list[Candidate]:
        survivors, retired = [], []
        for candidate in self.items:
            candidate.fitness *= decay
            candidate.age += 1
            if candidate.fitness < retire_threshold and candidate.age > 1:
                retired.append(candidate)
            else:
                survivors.append(candidate)
        self.items = survivors
        return retired


def reference_mutate(space, fault, axis_name, rng, sigma_factor=0.2,
                     gaussian=True) -> Fault:
    """Mutation addressed by name: look the value up, clone by name."""
    axis = space.subspace_of(fault).axis(axis_name)
    old_index = axis.index_of(fault.value(axis_name))
    if gaussian:
        new_index = sample_gaussian_index(
            rng, old_index, len(axis), sigma_factor * len(axis)
        )
    else:
        draw = rng.randrange(len(axis) - 1)
        new_index = draw if draw < old_index else draw + 1
    return fault.replace(axis_name, axis.value_at(new_index))


def reference_contains(subspace: Subspace, fault: Fault) -> bool:
    """Membership checked name by name."""
    if fault.subspace != subspace.label:
        return False
    if tuple(n for n, _ in fault.attributes) != subspace.axis_names:
        return False
    for name, value in fault.attributes:
        if value not in subspace.axis(name):
            return False
    return not subspace.is_hole(fault)


def same(a: float, b: float) -> bool:
    """Bit-for-bit equal floats (NaN equals NaN)."""
    return a == b or (math.isnan(a) and math.isnan(b))


_weights = st.lists(
    st.one_of(
        st.floats(0.0, 100.0),
        st.just(0.0),
        st.floats(-5.0, 5.0),
        st.just(math.inf),
        st.just(math.nan),
    ),
    min_size=1,
    max_size=12,
)


class TestWeightedDraw:
    @given(_weights, st.integers(1, 6), st.integers(0, 2 ** 16))
    def test_every_draw_is_the_scan_with_the_same_random(
        self, weights, draws, seed
    ):
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        draw = WeightedDraw(list(weights))
        for _ in range(draws):
            assert draw.index(fast_rng) == reference_scan(slow_rng, weights)
        assert fast_rng.random() == slow_rng.random()

    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5),
           st.integers(0, 2 ** 16))
    def test_axis_draw_is_the_scan_over_probabilities(self, records, seed):
        tracker = SensitivityTracker("abc", window=4)
        for i, fitness in enumerate(records):
            tracker.record("abc"[i % 3], fitness)
        axes = ("a", "c")
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        probabilities = tracker.probabilities()
        weights = [probabilities[a] for a in axes]
        for _ in range(4):
            assert (axes[tracker.draw_for(axes).index(fast_rng)]
                    == axes[reference_scan(slow_rng, weights)])


_fitness = st.one_of(
    st.floats(0.0, 50.0), st.just(0.0), st.floats(-2.0, 2.0), st.just(math.nan)
)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _fitness, st.integers(0, 3)),
        st.tuples(st.just("age"), st.floats(0.5, 1.0), st.floats(0.0, 1.0)),
        st.tuples(st.just("sample"), st.integers(1, 4)),
        st.tuples(st.just("look")),
    ),
    max_size=60,
)


class TestQueueDraws:
    @settings(max_examples=200)
    @given(_operations, st.integers(1, 6), st.integers(0, 2 ** 16))
    def test_queue_moves_in_lockstep_with_the_scanning_queue(
        self, operations, capacity, seed
    ):
        fast = PriorityQueue(capacity, random.Random(seed))
        slow = ReferenceQueue(capacity, random.Random(seed))

        def fault_of(candidate):
            return None if candidate is None else candidate.fault

        for count, (kind, *args) in enumerate(operations):
            if kind == "add":
                fitness, age = args
                fault = Fault.of(n=count)
                assert fault_of(fast.add(Candidate(fault, 1.0, fitness, age=age))) \
                    == fault_of(slow.add(Candidate(fault, 1.0, fitness, age=age)))
            elif kind == "age":
                retired_fast = fast.age(*args)
                retired_slow = slow.age(*args)
                assert [(c.fault, c.age) for c in retired_fast] \
                    == [(c.fault, c.age) for c in retired_slow]
                assert all(same(a.fitness, b.fitness)
                           for a, b in zip(retired_fast, retired_slow))
            elif kind == "sample" and len(slow.items):
                for _ in range(args[0]):
                    parent = fast.sample_parent()
                    reference = slow.sample_parent()
                    assert parent.fault == reference.fault
                    assert same(parent.fitness, reference.fitness)
                    assert parent.age == reference.age
            else:
                assert [(c.fault, c.age) for c in fast.items] \
                    == [(c.fault, c.age) for c in slow.items]
                assert all(same(a.fitness, b.fitness)
                           for a, b in zip(fast.items, slow.items))
        assert [c.fault for c in fast] == [c.fault for c in slow.items]
        assert fast._rng.random() == slow.rng.random()


def _space() -> FaultSpace:
    """Two subspaces, one with holes, axes of sizes 2..7."""
    return FaultSpace([
        Subspace("io", [
            Axis("test", range(1, 8)),
            Axis("function", ["open", "read", "write", "close"]),
            Axis("call", range(0, 3)),
        ], valid=lambda f: not (f["function"] == "close" and f["call"] == 2)),
        Subspace("mem", [Axis("test", range(1, 3)), Axis("size", [8, 16, 32])]),
    ])


_io_points = st.tuples(
    st.integers(1, 7), st.sampled_from(["open", "read", "write", "close"]),
    st.integers(0, 2),
)


class TestPositionalMutation:
    @given(_io_points, st.sampled_from(["test", "function", "call"]),
           st.booleans(), st.integers(0, 2 ** 16))
    def test_offspring_and_draws_match_the_name_addressed_clone(
        self, point, axis_name, gaussian, seed
    ):
        space = _space()
        parent = Fault("io", tuple(zip(("test", "function", "call"), point)))
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            offspring = mutate_fault(space, parent, axis_name, fast_rng,
                                     gaussian=gaussian)
            assert offspring == reference_mutate(
                space, parent, axis_name, slow_rng, gaussian=gaussian
            )
            assert offspring.names == parent.names
        assert fast_rng.random() == slow_rng.random()

    def test_a_fault_not_laid_out_like_its_subspace_is_refused(self):
        reversed_fault = Fault("io", (("call", 1), ("function", "read"),
                                      ("test", 3)))
        with pytest.raises(FaultSpaceError, match="not laid out like"):
            mutate_fault(_space(), reversed_fault, "test", random.Random(0))

    @given(st.lists(st.tuples(st.sampled_from(["test", "function", "call",
                                               "size", "errno"]),
                              st.sampled_from([1, 2, 7, 9, "read", "close", 16])),
                    max_size=4),
           st.sampled_from(["io", "mem", "disk"]))
    def test_membership_matches_the_name_by_name_check(self, attributes, label):
        space = _space()
        fault = Fault(label, tuple(attributes))
        expected = (label in ("io", "mem")
                    and reference_contains(space.subspace(label), fault))
        assert space.contains(fault) == expected

    def test_every_valid_point_is_contained_and_every_hole_is_not(self):
        space = _space()
        sub = space.subspace("io")
        for indices in [(0, 3, 2), (6, 0, 0), (2, 3, 1)]:
            fault = sub.fault_at(indices)
            assert space.contains(fault) == reference_contains(sub, fault)
        assert not space.contains(Fault("io", (("test", 1), ("function", "close"),
                                               ("call", 2))))


class TestPlanMemo:
    def test_memoized_plans_equal_fresh_ones_and_are_reused(self):
        inner = model_injector("errno")
        memo = MemoizedInjector(inner)
        assert memo.name == inner.name
        for function in ("open", "read", "malloc"):
            for call in range(4):
                attributes = {"function": function, "call": call}
                plan = memo.plan_for(dict(attributes))
                assert plan == inner.plan_for(dict(attributes))
                assert memo.plan_for(dict(attributes)) is plan


class ReferenceSearch(FitnessGuidedSearch):
    """Algorithm 1 with the plain generation loop: every try builds its
    offspring as a ``Fault`` by name and probes History with it."""

    def _generate_offspring(self) -> Fault | None:
        space, rng = self._require_bound()
        queue = self._queue()
        if len(queue) == 0:
            return None
        for _ in range(200):
            parent = queue.sample_parent()
            axes = mutable_axes(space, parent.fault)
            if not axes:
                continue
            if not self.use_sensitivity or len(axes) == 1:
                axis_name = rng.choice(axes)
            else:
                axis_name = axes[self._tracker().draw_for(axes).index(rng)]
            offspring = reference_mutate(
                space, parent.fault, axis_name, rng,
                sigma_factor=(self._sigma_factors.get(axis_name, self.sigma_factor)
                              if self.adaptive_sigma else self.sigma_factor),
                gaussian=self.gaussian,
            )
            if offspring in self.history or not space.contains(offspring):
                continue
            self.history.add(offspring)
            self._mutated_axis[offspring] = axis_name
            if self.adaptive_sigma:
                self._parent_fitness[offspring] = parent.fitness
            return offspring
        return None


class CountingSearch(FitnessGuidedSearch):
    """The product kernel, counting the generations that found nothing."""

    exhausted = 0

    def _generate_offspring(self) -> Fault | None:
        offspring = super()._generate_offspring()
        if offspring is None and len(self._queue()):
            self.exhausted += 1
        return offspring


@st.composite
def _drawn_spaces(draw) -> FaultSpace:
    """1-3 subspaces of 1-3 integer axes of 1-6 values (singletons
    included), each with or without holes; index 0 everywhere is never
    a hole, so no subspace is all holes."""
    subspaces = []
    for label in draw(st.lists(st.sampled_from("abc"), min_size=1,
                               max_size=3, unique=True)):
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        modulus = draw(st.sampled_from([0, 2, 3, 5]))
        valid = None
        if modulus:
            def valid(point, modulus=modulus):
                return sum(point.values()) % modulus != modulus - 1
        subspaces.append(Subspace(
            label,
            [Axis(f"{label}{i}", range(size)) for i, size in enumerate(sizes)],
            valid,
        ))
    return FaultSpace(subspaces)


class StuckGauss(random.Random):
    """Every Gaussian draw lands on its mean, so every mutation takes
    the uniform fallback after the rejected draws."""

    def gauss(self, mu=0.0, sigma=1.0):
        return mu


def _impact(fault: Fault) -> float:
    """A deterministic fitness with zeros and a ridge."""
    return float(sum(value for _, value in fault.attributes) % 4)


class TestKeySpaceGeneration:
    """The product kernel probes History with keys and inlines the
    Gaussian draw; the reference builds a ``Fault`` per try through
    :func:`reference_mutate`.  Same offspring, same ``_mutated_axis``,
    same parent fitness, same RNG state, every step."""

    @given(_drawn_spaces(), st.booleans(), st.booleans(), st.booleans(),
           st.integers(1, 6), st.sampled_from([random.Random, StuckGauss]),
           st.integers(0, 2 ** 16))
    def test_offspring_and_draws_match_the_fault_building_loop(
        self, space, gaussian, use_sensitivity, adaptive_sigma,
        initial_batch, rng_type, seed,
    ):
        options = dict(initial_batch=initial_batch, priority_capacity=5,
                       gaussian=gaussian, use_sensitivity=use_sensitivity,
                       adaptive_sigma=adaptive_sigma)
        fast, slow = CountingSearch(**options), ReferenceSearch(**options)
        fast_rng, slow_rng = rng_type(seed), rng_type(seed)
        fast.bind(space, fast_rng)
        slow.bind(space, slow_rng)
        for _ in range(space.size() + 5):
            fault = fast.propose()
            assert fault == slow.propose()
            assert fast._mutated_axis == slow._mutated_axis
            assert fast._parent_fitness == slow._parent_fitness
            assert fast_rng.getstate() == slow_rng.getstate()
            if fault is None:
                break
            assert type(fault) is Fault and space.contains(fault)
            fast.observe(fault, _impact(fault), None)
            slow.observe(fault, _impact(fault), None)
        assert fast.history == slow.history
        assert fast.sigma_factors() == slow.sigma_factors()

    @pytest.mark.parametrize("gaussian", [True, False])
    def test_an_exhausted_vicinity_gives_none_after_every_try(self, gaussian):
        # Two points, one mutable axis: once both ran, every try of the
        # 200 draws a repeat, and the kernel gives up as the loop does.
        space = FaultSpace.product(x=[0, 1], fixed=[7])
        fast = CountingSearch(initial_batch=2, gaussian=gaussian)
        slow = ReferenceSearch(initial_batch=2, gaussian=gaussian)
        fast_rng, slow_rng = random.Random(5), random.Random(5)
        fast.bind(space, fast_rng)
        slow.bind(space, slow_rng)
        for _ in range(2):
            fault = fast.propose()
            assert fault == slow.propose()
            fast.observe(fault, 1.0, None)
            slow.observe(fault, 1.0, None)
        assert fast._generate_offspring() is None
        assert slow._generate_offspring() is None
        assert fast.exhausted == 1
        assert fast_rng.getstate() == slow_rng.getstate()

    def test_a_parent_not_laid_out_like_its_subspace_is_refused(self):
        search = FitnessGuidedSearch(initial_batch=1)
        search.bind(_space(), random.Random(0))
        search._queue().add(Candidate(
            Fault("io", (("call", 1), ("function", "read"), ("test", 3))),
            1.0, 1.0,
        ))
        with pytest.raises(FaultSpaceError, match="not laid out like"):
            search._generate_offspring()


@dataclass(frozen=True)
class DataclassFault:
    """The frozen-dataclass ``Fault`` the tuple type replaced."""

    subspace: str
    attributes: tuple

    def __str__(self) -> str:
        attrs = ", ".join(f"{n}={v!r}" for n, v in self.attributes)
        prefix = f"{self.subspace}:" if self.subspace else ""
        return f"<{prefix}{attrs}>"


DataclassFault.__qualname__ = "Fault"

_attribute_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)


class TestFaultType:
    @given(st.text(max_size=4),
           st.lists(st.tuples(st.text(max_size=5), _attribute_values),
                    max_size=4).map(tuple))
    def test_a_fault_is_the_dataclass_it_replaced_in_c(
        self, subspace, attributes
    ):
        fault = Fault(subspace, attributes)
        old = DataclassFault(subspace, attributes)
        assert hash(fault) == hash((subspace, attributes)) == hash(old)
        assert fault == (subspace, attributes)
        assert repr(fault) == repr(old)
        assert str(fault) == str(old)
        assert (fault.subspace, fault.attributes) == (subspace, attributes)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(fault, protocol))
            assert type(back) is Fault and back == fault
            assert hash(back) == hash(fault)
        with pytest.raises(AttributeError):
            fault.subspace = "other"  # type: ignore[misc]
        with pytest.raises(AttributeError):
            fault.label = subspace  # type: ignore[attr-defined]

    def test_the_helpers_read_the_pair(self):
        fault = Fault.of("io", test=3, function="read")
        assert fault.names == ("test", "function")
        assert fault.values == (3, "read")
        assert fault.value("function") == "read"
        assert fault.get("call", 0) == 0
        assert fault.as_dict() == {"test": 3, "function": "read"}
        assert fault.replace("test", 4) == Fault.of("io", test=4,
                                                    function="read")
        assert type(fault.replace("test", 4)) is Fault
