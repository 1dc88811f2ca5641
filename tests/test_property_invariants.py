"""Property-based invariants (hypothesis) + the batched/serial
differential harness.

Run under the deterministic ``ci`` hypothesis profile registered in
``conftest.py`` (derandomized, bounded example counts), so CI exercises
exactly the same examples every time:

* checkpoint save → resume is byte-identical for random exploration
  histories (any iteration count, any snapshot interval, any seed);
* however a history is split into journal records, every record's
  ``chain`` is the history digest of its prefix, and a journal cut at
  any byte loads to a record boundary or is refused;
* the result cache answers get-after-put correctly under arbitrary
  interleavings of puts and evictions, and the coverage table its live
  entries share holds exactly their distinct sets;
* a retry policy's backoff schedule is a pure function of its seed;
* batched parallel exploration over a random small fault space produces
  the same result history as the serial in-process loop;
* for random multi-fault plans (one-shot, ``persistent`` and ``until``
  mixed) the exploration loop answers from the golden run ⇔ a real
  execution fires nothing, with equal results; hook plans, and every
  plan under a provenance runner, always execute;
* so it does for single- and two-fault scenarios the ``errno`` model
  compiles on a default runner, field by field;
* the plan's ``function → faults`` table returns the very fault the
  first-match loop it replaced returned.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterExplorer, ProcessPoolCluster, RetryPolicy
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.cache import ResultCache
from repro.core.checkpoint import (
    CheckpointWriter,
    history_digest,
    load_checkpoint,
)
from repro.core.fault import Fault
from repro.core.runner import record
from repro.errors import CheckpointError
from repro.injection import InjectionPlan, ScenarioPlan, atomic_for
from repro.injection.injector import FaultInjector
from repro.injection.models import model_injector
from repro.injection.models.disk import DiskFaultHook
from repro.sim.process import RunResult, run_test
from repro.sim.targets import target_by_name

#: the functions random differential spaces draw their axes from.
COREUTILS_FUNCTIONS = (
    "malloc", "read", "write", "stat", "open", "close", "rename",
)


def session(target, space, *, iterations, seed, batch_size=1, **kwargs):
    return ExplorationSession(
        runner=TargetRunner(target),
        space=space,
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(),
        target=IterationBudget(iterations),
        rng=seed,
        batch_size=batch_size,
        **kwargs,
    )


class TestCheckpointRoundTripProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        iterations=st.integers(min_value=2, max_value=35),
        every=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_save_resume_is_byte_identical(self, tmp_path_factory,
                                           iterations, every, seed):
        """Kill at any point, resume, and the history digest matches an
        uninterrupted run exactly — for *random* histories, not just the
        hand-picked ones the example scripts use."""
        target = target_by_name("coreutils")
        space = FaultSpace.product(
            test=range(1, 20), function=target.libc_functions(),
            call=[0, 1, 2],
        )
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        # The "killed" run: stops at `iterations`, checkpointing as it goes.
        session(target, space, iterations=iterations, seed=seed,
                checkpoint_path=path, checkpoint_every=every).run()
        checkpoint = load_checkpoint(path)
        assert checkpoint.iterations == iterations

        total = iterations + 10
        resumed = session(target, space, iterations=total, seed=seed,
                          resume_from=checkpoint).run()
        uninterrupted = session(target, space, iterations=total,
                                seed=seed).run()
        assert history_digest(list(resumed)) == \
            history_digest(list(uninterrupted))


@functools.lru_cache(maxsize=None)
def recorded_campaign():
    """``(space, history)`` of one 40-test coreutils campaign."""
    target = target_by_name("coreutils")
    space = FaultSpace.product(
        test=range(1, 20), function=target.libc_functions(), call=[0, 1, 2],
    )
    results = session(target, space, iterations=40, seed=5).run()
    return space, list(results)


def journal(path, cuts):
    """Journal the recorded campaign with one record ending at each cut."""
    space, history = recorded_campaign()
    writer = CheckpointWriter(path, 0, space, 1)
    rng = random.Random(0)
    for cut in sorted(cuts):
        assert writer.maybe_write(history[:cut], rng, force=True)
    writer.close()
    return history


class TestCheckpointJournalProperty:
    @settings(max_examples=25, deadline=None)
    @given(cuts=st.sets(st.integers(min_value=1, max_value=39)))
    def test_any_split_chains_to_the_history_digest(self, tmp_path_factory,
                                                    cuts):
        path = tmp_path_factory.mktemp("journal") / "ck.json"
        history = journal(path, cuts | {40})
        _header, *records = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in records] == sorted(
            cuts | {40})
        for line in records:
            record = json.loads(line)
            assert record["chain"] == history_digest(history[:record["n"]])
        loaded = load_checkpoint(path)
        assert loaded.iterations == 40
        assert loaded.digest() == history_digest(history)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_cut_anywhere_loads_to_a_boundary_or_is_refused(
            self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("journal") / "ck.json"
        cuts = [8, 16, 24, 32, 40]
        history = journal(path, cuts)
        content = path.read_bytes()
        header = content.index(b"\n")
        offset = data.draw(st.integers(min_value=0, max_value=len(content)))
        path.write_bytes(content[:offset])
        if offset <= header:  # the header never got its newline
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            return
        loaded = load_checkpoint(path)
        assert loaded.iterations in [0, *cuts]
        assert loaded.digest() == history_digest(
            history[:loaded.iterations])
        # Nothing that reached the disk whole is dropped.
        assert content[:offset].count(b"\n") == 1 + (
            [0, *cuts].index(loaded.iterations))


class TestCacheEvictionProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        operations=st.lists(
            st.tuples(
                st.sampled_from("pg"),          # put or get
                st.integers(min_value=0, max_value=15),   # key id
            ),
            min_size=1, max_size=60,
        ),
    )
    def test_get_after_put_under_random_eviction(self, capacity, operations):
        """Whatever the put/get interleaving, the cache never answers
        wrong: a hit returns exactly what was last put under that key,
        a miss only happens for keys absent or LRU-evicted, and the
        live entry count never exceeds capacity."""
        cache = ResultCache(capacity=capacity)
        model: dict[str, str] = {}        # key -> expected sentinel
        order: list[str] = []             # model LRU order, oldest first

        def touch(key: str) -> None:
            if key in order:
                order.remove(key)
            order.append(key)

        for action, key_id in operations:
            key = f"k{key_id}"
            if action == "p":
                # The cache stores opaque results; a distinct sentinel
                # per (key, generation) exposes any cross-talk.
                sentinel = f"{key}@{len(order)}"
                cache.put(key, sentinel)
                model[key] = sentinel
                touch(key)
                while len([k for k in order if k in model]) > capacity:
                    victim = next(k for k in order if k in model)
                    del model[victim]
                    order.remove(victim)
            else:
                got = cache.get(key)
                if key in model:
                    assert got == model[key]
                    touch(key)
                else:
                    assert got is None
            assert len(cache._entries) <= capacity

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=50))
    def test_stats_counters_account_for_every_operation(self, key_ids):
        cache = ResultCache(capacity=4)
        for key_id in key_ids:
            key = f"k{key_id}"
            if cache.get(key) is None:
                cache.put(key, key)
        assert cache.hits + cache.misses == len(key_ids)
        assert len(cache._entries) <= 4
        # Everything ever put either lives or was evicted.
        assert cache.misses == len(cache._entries) + cache.evictions


    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        operations=st.lists(
            st.tuples(
                st.sampled_from("ppppgg"),      # put or get
                st.integers(min_value=0, max_value=9),    # key id
                st.integers(min_value=0, max_value=2),    # coverage id
            ),
            min_size=1, max_size=60,
        ),
    )
    def test_coverage_table_is_the_live_entries_distinct_sets(
            self, capacity, operations):
        """Whatever the put/get/evict interleaving, the cache's coverage
        table holds exactly the distinct sets of its live entries with
        their counts, every live entry holds the shared object, and
        ``get`` returns the very object that was put."""
        from types import SimpleNamespace

        cache = ResultCache(capacity=capacity)
        latest: dict[str, object] = {}
        for action, key_id, coverage_id in operations:
            key = f"k{key_id}"
            if action == "p":
                latest[key] = SimpleNamespace(
                    coverage=frozenset({"entry", f"block{coverage_id}"}))
                cache.put(key, latest[key])
            else:
                got = cache.get(key)
                assert got is None or got is latest[key]
            live = list(cache._entries.values())
            counts: dict = {}
            for result in live:
                counts[result.coverage] = counts.get(result.coverage, 0) + 1
            assert {
                shared: count for shared, count in cache._coverages.values()
            } == counts
            assert {id(r.coverage) for r in live} == {
                id(shared) for shared, _ in cache._coverages.values()
            }


class TestRetryBackoffProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        max_attempts=st.integers(min_value=1, max_value=6),
        base_delay=st.floats(min_value=0.001, max_value=1.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_schedule_is_a_pure_function_of_the_seed(
            self, seed, max_attempts, base_delay, multiplier, jitter):
        policy = RetryPolicy(max_attempts=max_attempts,
                             base_delay=base_delay, multiplier=multiplier,
                             max_delay=2.0, jitter=jitter)

        def schedule() -> list[float]:
            rng = random.Random(seed)
            return [policy.delay_for(n, rng)
                    for n in range(1, max_attempts + 1)]

        first, second = schedule(), schedule()
        assert first == second
        for attempt, delay in enumerate(first, start=1):
            undithered = min(base_delay * multiplier ** (attempt - 1), 2.0)
            assert undithered <= delay <= undithered * (1.0 + jitter)


class TestBatchedSerialDifferential:
    @settings(max_examples=4, deadline=None)
    @given(
        tests=st.integers(min_value=4, max_value=12),
        functions=st.lists(st.sampled_from(COREUTILS_FUNCTIONS),
                           min_size=1, max_size=4, unique=True),
        max_call=st.integers(min_value=1, max_value=3),
        batch_size=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_pool_matches_serial_loop_on_random_spaces(
            self, tests, functions, max_call, batch_size, seed):
        """Batched parallel exploration (ProcessPoolCluster, real fork
        boundary) must walk the exact trajectory of the serial
        in-process loop: same faults, same impacts, same wire-visible
        outcomes — for randomly shaped small spaces, not one blessed
        configuration."""
        space = FaultSpace.product(
            test=range(1, tests + 1),
            function=tuple(sorted(functions)),
            call=range(0, max_call + 1),
        )
        iterations = min(space.size(), 3 * batch_size)
        target = target_by_name("coreutils")

        serial = ExplorationSession(
            runner=TargetRunner(target), space=space,
            metric=standard_impact(), strategy=FitnessGuidedSearch(),
            target=IterationBudget(iterations), rng=seed,
            batch_size=batch_size,
        ).run()

        pool = ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=2,
        )
        try:
            batched = ClusterExplorer(
                pool, space, standard_impact(), FitnessGuidedSearch(),
                IterationBudget(iterations), rng=seed,
                batch_size=batch_size,
            ).run()
        finally:
            pool.close()

        assert [t.fault for t in serial] == [t.fault for t in batched]
        assert [t.impact for t in serial] == [t.impact for t in batched]
        for ours, theirs in zip(serial, batched):
            a, b = ours.result, theirs.result
            assert a.failed == b.failed
            assert a.crash_kind == b.crash_kind
            assert a.exit_code == b.exit_code
            assert a.coverage == b.coverage
            assert a.steps == b.steps
            assert a.injected == b.injected


class PlanInjector(FaultInjector):
    """Test-only: the scenario's ``plan`` attribute *is* the plan."""

    name = "plan"

    def plan_for(self, attributes):
        return attributes["plan"]


def atomic(function, call_number, shape, span):
    if shape == "until":
        return atomic_for(function, (call_number, call_number + span))
    return atomic_for(function, call_number, persistent=shape == "persistent")


#: multi-fault plans over what coreutils tests call (and ``stat``, which
#: many never do), every trigger shape, same-function faults included.
plans = st.lists(
    st.builds(
        atomic,
        function=st.sampled_from(COREUTILS_FUNCTIONS),
        call_number=st.integers(min_value=1, max_value=6),
        shape=st.sampled_from(("once", "persistent", "until")),
        span=st.integers(min_value=0, max_value=3),
    ),
    max_size=3,
).map(lambda faults: InjectionPlan(tuple(faults)))


@functools.lru_cache(maxsize=None)
def plan_session(provenance: bool = False) -> ExplorationSession:
    """A session over a ``PlanInjector`` runner, asked one fault at a
    time; its golden store lives as long as the examples."""
    runner = TargetRunner(target_by_name("coreutils"), PlanInjector(),
                          provenance=provenance)
    return ExplorationSession(
        runner, FaultSpace.product(test=[1]), standard_impact(),
        FitnessGuidedSearch(), IterationBudget(1),
    )


@functools.lru_cache(maxsize=None)
def errno_session() -> ExplorationSession:
    """A session over a default (``errno`` model) runner, asked one
    fault at a time; its golden store lives as long as the examples."""
    return ExplorationSession(
        TargetRunner(target_by_name("coreutils")),
        FaultSpace.product(test=[1]), standard_impact(),
        FitnessGuidedSearch(), IterationBudget(1),
    )


def one(session: ExplorationSession, fault: Fault):
    """The result the session records for ``fault``."""
    (result, _), = session._execute([fault])
    return result


def recorded(result: RunResult) -> RunResult:
    """What a history records of the full result ``result``."""
    return record(result)


_functions = st.sampled_from(COREUTILS_FUNCTIONS)
_calls = st.integers(min_value=0, max_value=5)

#: errno-model scenarios: one unsuffixed fault, or two suffix-grouped
#: ones (call 0 leaves a fault out; one function twice at one call is
#: refused by the model, so it is not drawn).
errno_scenarios = st.one_of(
    st.fixed_dictionaries({"function": _functions, "call": _calls}),
    st.fixed_dictionaries({
        "function_a": _functions, "call_a": _calls,
        "function_b": _functions, "call_b": _calls,
    }).filter(lambda s: (s["function_a"], s["call_a"])
              != (s["function_b"], s["call_b"]) or s["call_a"] == 0),
)


class TestGoldenRunProperty:
    @settings(max_examples=120, deadline=None)
    @given(test_id=st.integers(min_value=1, max_value=29), plan=plans)
    def test_short_circuit_iff_nothing_fires_and_results_are_equal(
            self, test_id, plan):
        session = plan_session()
        target = session.runner.target
        one(session, Fault.of(test=test_id, plan=InjectionPlan.none()))
        real = run_test(target, target.suite[test_id], plan)

        hits = session.goldens.hits
        assert one(session, Fault.of(test=test_id, plan=plan)) == recorded(real)
        assert (session.goldens.hits == hits + 1) == (not real.injected)

        # A world hook counts events the golden run does not record.
        hits = session.goldens.hits
        # The runner's plan memo hands back the first equal plan it
        # compiled, so the result is compared with a cold run, not the
        # plan object.
        hooked = ScenarioPlan(plan.faults, (DiskFaultHook(99, "torn"),))
        assert one(session, Fault.of(test=test_id, plan=hooked)) == recorded(
            run_test(target, target.suite[test_id], hooked))
        assert session.goldens.hits == hits

        # A provenance result never stands golden, so nothing is answered.
        replaying = plan_session(provenance=True)
        one(replaying, Fault.of(test=test_id, plan=InjectionPlan.none()))
        assert one(replaying, Fault.of(test=test_id, plan=plan)).provenance
        assert replaying.goldens.stats() == {"goldens": 0, "hits": 0}

    @settings(max_examples=120, deadline=None)
    @given(test_id=st.integers(min_value=1, max_value=29),
           scenario=errno_scenarios)
    def test_compiled_scenarios_answer_as_a_cold_run(self, test_id, scenario):
        session = errno_session()
        target = session.runner.target
        one(session, Fault.of(test=test_id, function="malloc", call=0))
        fault = Fault.of(test=test_id, **scenario)
        plan = model_injector("errno").plan_for(fault.as_dict())
        real = recorded(run_test(target, target.suite[test_id], plan))

        hits = session.goldens.hits
        result = one(session, fault)
        assert (session.goldens.hits == hits + 1) == (not real.injected)
        for field in dataclasses.fields(RunResult):
            assert getattr(result, field.name) == getattr(real, field.name), (
                field.name)


class TestPlanTableProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        plan=plans,
        function=st.sampled_from(COREUTILS_FUNCTIONS + ("fopen",)),
        count=st.integers(min_value=1, max_value=10),
    )
    def test_table_lookup_is_the_first_match_loop(self, plan, function,
                                                  count):
        def first_match():  # InjectionPlan.lookup before the table
            for fault in plan.faults:
                if fault.function == function and fault.fires_at(count):
                    return fault
            return None

        assert plan.lookup(function, count) is first_match()
        for name, faults in plan.by_function.items():  # plan order kept
            assert list(faults) == [
                f for f in plan.faults if f.function == name]
