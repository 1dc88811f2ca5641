"""Tests for the loop's memo (``ReportMemory``), the content address of
an execution (``ResultCache.key_for``), warming a memo from a journal,
and the atomic writes of core/cache.py."""

from __future__ import annotations

import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from repro.cli import _warm_memory
from repro.core import (
    ExplorationSession,
    FaultSpace,
    IterationBudget,
    RandomSearch,
    standard_impact,
)
from repro.core.cache import ResultCache, write_json_atomically
from repro.core.fault import Fault
from repro.core.runner import (
    GoldenStore,
    Outcome,
    Record,
    ReportMemory,
    TargetRunner,
    golden_reach,
    record,
)
from repro.obs import MetricsRegistry
from repro.quality.online import stack_digest
from repro.service.engine import CampaignEngine
from repro.service.store import scenario_key_digest
from repro.sim.libc import DEFAULT_STEP_BUDGET


def loop_over(target, memory, space=None, iterations=1, seed=0):
    """A session that asks ``memory`` of every fault it is handed: its
    runner is a bare callable, so no golden store answers first."""
    runner = TargetRunner(target)
    return ExplorationSession(
        lambda fault: runner(fault),
        space or FaultSpace.product(test=[1]), standard_impact(),
        RandomSearch(), IterationBudget(iterations), rng=seed,
        memory=memory,
    )


def run_fault(coreutils, memory, test=1, function="malloc", call=1):
    """The record the loop keeps of one fault, through ``memory``."""
    fault = Fault.of(test=test, function=function, call=call)
    result, = loop_over(coreutils, memory)._execute([fault])
    return result


def memo(capacity: int) -> ReportMemory:
    """A memo bounded at ``capacity`` entries."""
    memory = ReportMemory()
    memory.capacity = capacity
    return memory


def key(runner, fault, trial=0, budget=DEFAULT_STEP_BUDGET):
    return ResultCache.key_for(
        runner.identity, fault.subspace, fault.attributes, trial, budget)


def journal_of(target, path, space, iterations, seed=1):
    """Run a serial campaign that journals to ``path``; returns the run
    and the engine's runner identity."""
    with CampaignEngine(target) as engine:
        run = engine.explore(space, RandomSearch(), iterations=iterations,
                             seed=seed, checkpoint_path=path)
        return run, engine.identity


class TestHitMiss:
    def test_first_execution_misses_then_hits(self, coreutils):
        memory = ReportMemory()
        first = run_fault(coreutils, memory)
        assert memory.stats() == {"entries": 1, "bodies": 1, "hits": 0,
                                  "misses": 1, "evictions": 0}
        second = run_fault(coreutils, memory)
        assert memory.hits == 1
        # the remembered outcome, not a re-execution: paired afresh
        assert second == first and second is not first
        assert second.outcome is first.outcome

    def test_distinct_faults_do_not_collide(self, coreutils):
        memory = ReportMemory()
        run_fault(coreutils, memory, function="malloc")
        run_fault(coreutils, memory, function="stat")
        assert len(memory) == 2 and memory.hits == 0

    def test_trial_is_part_of_the_identity(self, coreutils):
        runner = TargetRunner(coreutils)
        fault = Fault.of(test=1, function="malloc", call=1)
        assert key(runner, fault, trial=0) != key(runner, fault, trial=1)

    def test_step_budget_is_part_of_the_identity(self, coreutils):
        fault = Fault.of(test=1, function="malloc", call=1)
        runner = TargetRunner(coreutils)
        assert key(runner, fault, budget=50_000) != key(runner, fault,
                                                         budget=100)
        # The store keys every row at the default budget.
        assert scenario_key_digest(
            runner.identity, fault.subspace, fault.attributes
        ) == hashlib.sha256(key(runner, fault).encode()).hexdigest()

    def test_target_version_is_part_of_the_identity(self, docstore_old,
                                                    docstore_new):
        """A memo holds the records of one identity, and the identity
        names the version."""
        fault = Fault.of(test=1, function="malloc", call=0)
        old, new = TargetRunner(docstore_old), TargetRunner(docstore_new)
        assert old.identity != new.identity
        assert key(old, fault) != key(new, fault)

    def test_cached_result_equals_fresh_execution(self, coreutils):
        memory = ReportMemory()
        fault = Fault.of(test=12, function="link", call=1)
        run_fault(coreutils, memory, test=12, function="link")
        remembered, reach = memory.answer(fault)
        fresh = TargetRunner(coreutils)(fault)
        assert Record(12, remembered) == record(fresh)
        assert remembered.stack_digest == stack_digest(fresh.injection_stack)
        assert reach == golden_reach(fresh)

    def test_hit_rate(self, coreutils):
        memory, metrics = ReportMemory(), MetricsRegistry()
        memory.bind_metrics(metrics)
        for _ in range(3):
            run_fault(coreutils, memory)
        gauges = metrics.snapshot()["gauges"]
        assert gauges["cache.hit_ratio"] == pytest.approx(2 / 3)
        assert (gauges["cache.hits"], gauges["cache.misses"]) == (2, 1)


class TestEviction:
    def test_lru_eviction_beyond_capacity(self, coreutils):
        memory = memo(2)
        run_fault(coreutils, memory, function="malloc")
        run_fault(coreutils, memory, function="stat")
        run_fault(coreutils, memory, function="open")  # evicts malloc
        assert len(memory) == 2 and memory.evictions == 1
        run_fault(coreutils, memory, function="malloc")  # miss: re-executes
        assert memory.misses == 4 and memory.hits == 0

    def test_get_refreshes_recency(self, coreutils):
        memory = memo(2)
        run_fault(coreutils, memory, function="malloc")
        run_fault(coreutils, memory, function="stat")
        run_fault(coreutils, memory, function="malloc")  # hit, refresh
        run_fault(coreutils, memory, function="open")    # evicts stat
        run_fault(coreutils, memory, function="malloc")  # still held
        assert memory.hits == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestPersistence:
    """A memo persists as the journal (or store) its campaign wrote:
    ``afex run --cache`` warms a memo from it."""

    def test_roundtrip_preserves_results(self, coreutils, tmp_path):
        path = tmp_path / "campaign.ckpt"
        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        original, identity = journal_of(coreutils, path, space, 40)
        memory = ReportMemory()
        line = _warm_memory(memory, str(path), identity, "unused")
        assert line == f"cache: 40 records warmed from {path}"
        for test in original.results:
            remembered, reach = memory.answer(test.fault)
            assert remembered is test.result.outcome
            assert reach is None   # a warmed record has none
        # Warmed, a rerun executes nothing and records the same history.
        with CampaignEngine(coreutils, memory=memory) as engine:
            again = engine.explore(space, RandomSearch(), iterations=40,
                                   seed=1)
        assert again.remembered == 40 and again.golden_stats["hits"] == 0
        assert again.digest == original.digest

    def test_range_valued_attributes_survive_roundtrip(self, coreutils,
                                                       tmp_path):
        # Tuple attribute values (range-trigger faults) must address the
        # same entry before and after JSON persistence.
        path = tmp_path / "campaign.ckpt"
        space = FaultSpace.product(test=[12], function=["malloc"],
                                   call=[(1, 2)])
        _, identity = journal_of(coreutils, path, space, 1)
        memory = ReportMemory()
        _warm_memory(memory, str(path), identity, "unused")
        assert memory.answer(
            Fault.of(test=12, function="malloc", call=(1, 2))) is not None
        assert memory.hits == 1

    def test_save_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "report.json"
        write_json_atomically(path, {"answer": 42})
        assert json.loads(path.read_text()) == {"answer": 42}


class TestAtomicSave:
    def test_save_replaces_not_truncates(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous file intact.

        The write goes to a temp file renamed over the destination; if
        the rename (or anything before it) fails, the old contents must
        survive and the temp file must not leak.
        """
        path = tmp_path / "report.json"
        write_json_atomically(path, {"answer": 42})
        good = path.read_text()

        def doomed_replace(src, dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(os, "replace", doomed_replace)
        with pytest.raises(OSError, match="simulated crash"):
            write_json_atomically(path, {"answer": 43})
        monkeypatch.undo()

        assert path.read_text() == good, "partial write clobbered the file"
        assert not list(tmp_path.glob("*.tmp")), "temp file leaked"

    def test_no_temp_files_left_after_successful_save(self, tmp_path):
        path = tmp_path / "report.json"
        write_json_atomically(path, {"answer": 42})
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_write_json_atomically_roundtrip(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json_atomically(path, {"answer": 42})
        assert json.loads(path.read_text()) == {"answer": 42}
        write_json_atomically(path, {"answer": 43})
        assert json.loads(path.read_text()) == {"answer": 43}


class TestSessionIntegration:
    def test_second_identical_session_is_all_hits(self, coreutils):
        """Two sessions sharing a memo, each with a fresh golden store:
        the repeat executes nothing, and its store learns from the
        remembered reach to answer what the first one's did."""
        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        memory = ReportMemory()

        def explore():
            session = ExplorationSession(
                TargetRunner(coreutils), space, standard_impact(),
                RandomSearch(), IterationBudget(40), rng=5,
                goldens=GoldenStore(), memory=memory,
            )
            return session.run(), session.goldens.stats()["hits"]

        first, answered = explore()
        # What the golden store answers never reaches the memo.
        assert answered > 0
        assert memory.misses == 40 - answered and memory.hits == 0
        second, again = explore()
        assert again == answered
        # every scenario asked of the memo again was remembered
        assert memory.hits == memory.misses == 40 - answered
        assert second.to_json() == first.to_json()


def synthetic(index: int) -> Outcome:
    """An outcome that repeats every 60 tests."""
    return Outcome(
        injection_stack=("main", f"f{index % 4}"), injected=True,
        coverage=frozenset({f"b{index % 5}", "common"}), steps=1,
        measurements={"m": float(index % 3)},
    )


class TestConcurrency:
    """Every public read and write holds the memo's lock, so counters
    torn mid-update never escape (stats() disagreeing with itself,
    len() counted mid-eviction)."""

    def test_threads_hammering_a_tiny_cache_stay_consistent(self):
        import threading

        memory = memo(8)  # tiny: constant eviction churn
        errors: list[str] = []
        start = threading.Barrier(8)

        def worker(seed: int) -> None:
            start.wait()
            for i in range(300):
                n = (seed * 300 + i) % 40
                fault = Fault.of(test=n)
                if memory.answer(fault) is None:
                    memory.remember(fault, synthetic(n), None)
                # Reads racing writers must always be self-consistent.
                stats = memory.stats()
                if set(stats) != {"entries", "bodies", "hits", "misses",
                                  "evictions"}:
                    errors.append(f"stats keys: {stats}")
                if not 0 <= stats["entries"] <= memory.capacity:
                    errors.append(f"entries out of range: {stats}")
                if not stats["bodies"] <= stats["entries"]:
                    errors.append(f"more bodies than entries: {stats}")
                if any(v < 0 for v in stats.values()):
                    errors.append(f"negative counter: {stats}")
                if not 0 <= len(memory) <= memory.capacity:
                    errors.append(f"len out of range: {len(memory)}")

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors[:5]
        # After quiescence the counters must balance exactly.
        stats = memory.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300
        assert len(memory) == stats["entries"]
        # Every outcome is held by a live entry, and counted by them all.
        held = list(memory._entries.values())
        assert stats["bodies"] == len({id(body) for body in held})
        assert memory._bodies == {id(body): held.count(body)
                                  for body in held}

    def test_stats_snapshot_is_internally_consistent_under_eviction(self):
        import threading
        import time

        memory = memo(4)
        stop = threading.Event()
        errors: list[str] = []

        def churn() -> None:
            i = 0
            while not stop.is_set():
                memory.remember(Fault.of(test=i % 64), synthetic(i), None)
                i += 1

        def observe() -> None:
            while not stop.is_set():
                stats = memory.stats()
                # entries can never exceed capacity, even observed
                # mid-eviction, because the snapshot holds the lock.
                if stats["entries"] > memory.capacity:
                    errors.append(f"saw over-capacity snapshot: {stats}")

        writers = [threading.Thread(target=churn) for _ in range(4)]
        readers = [threading.Thread(target=observe) for _ in range(2)]
        for t in writers + readers:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in writers + readers:
            t.join(timeout=10)
        assert not errors, errors[:5]

    def test_two_job_threads_share_one_memo_and_lose_nothing(self, coreutils):
        """Two campaigns at once over one memo, switching threads every
        microsecond: every question is counted once, every executed
        scenario is held, and neither history moves."""
        import sys
        import threading

        space = FaultSpace.product(
            test=range(1, 7), function=["malloc", "open", "read"],
            call=[0, 1, 2],
        )
        seeds = (3, 4)
        cold = [loop_over(coreutils, None, space, 40, seed).run().digest
                for seed in seeds]
        memory = ReportMemory()
        sessions = [loop_over(coreutils, memory, space, 40, seed)
                    for seed in seeds]
        digests: dict[int, str] = {}
        start = threading.Barrier(2)

        def job(index: int) -> None:
            start.wait(timeout=30)
            digests[index] = sessions[index].run().digest

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=job, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [digests[0], digests[1]] == cold
        stats = memory.stats()
        assert stats["hits"] + stats["misses"] == 80
        assert stats["hits"] == sum(s.remembered for s in sessions)
        ran = {test.fault for s in sessions for test in s.executed}
        assert stats["entries"] == len(ran) <= stats["misses"]
        assert stats["evictions"] == 0
        assert all(memory.answer(fault) is not None for fault in ran)


class TestSharedCoverage:
    """Entries share one ``coverage`` object per distinct set: the
    memo's outcomes are interned, their sets with them (what keeps a
    process-lifetime memo inside the service's memory bound).  The
    ledger's ``ResultCache`` holds what it is given, untouched."""

    def test_equal_coverage_under_different_keys_is_one_object(
            self, coreutils):
        memory = ReportMemory()
        a = run_fault(coreutils, memory, function="malloc", call=0)
        b = run_fault(coreutils, memory, function="stat", call=0)
        assert a is not b and a.coverage == b.coverage
        # The memo's entries hold one set for both, and answer with it.
        again, other = (memory.answer(Fault.of(test=1, function=function,
                                               call=0))[0]
                        for function in ("malloc", "stat"))
        assert (again, other) == (a.outcome, b.outcome)
        assert again.coverage is other.coverage

    def test_eviction_replacement_and_clear_release_the_table(self):
        cache = ResultCache(capacity=2)
        equal = frozenset({"a"})
        k1 = SimpleNamespace(coverage=frozenset({"a"}))
        k2 = SimpleNamespace(coverage=equal)
        cache.put("k1", k1)
        cache.put("k2", k2)
        # Nothing is written into what was put: each keeps its own set.
        assert k2.coverage is equal and k1.coverage is not equal
        cache.put("k3", SimpleNamespace(coverage=frozenset({"b"})))
        assert list(cache._entries) == ["k2", "k3"]  # k1 evicted
        # Re-putting a key replaces its entry, however often.
        for _ in range(3):
            cache.put("k2", k1)
        assert cache.get("k2") is k1 and cache.evictions == 1
        # Evicting every entry keeps only the newest two.
        cache.put("x", 1)
        cache.put("y", 2)
        assert list(cache._entries) == ["x", "y"]

    def test_entries_without_a_coverage_are_stored_as_they_are(self):
        cache = ResultCache(capacity=2)
        sentinel = object()
        cache.put("a", sentinel)
        cache.put("b", "text")
        assert cache.get("a") is sentinel and cache.get("b") == "text"
        cache.put("c", 3)  # evicts the least recently used: "a"
        assert cache.get("a") is None and cache.get("b") == "text"

    def test_a_loaded_cache_shares_too(self, coreutils, tmp_path):
        path = tmp_path / "campaign.ckpt"
        space = FaultSpace.product(
            test=range(1, 4), function=["malloc", "stat", "open"],
            call=[0],
        )
        original, identity = journal_of(coreutils, path, space, 9)
        memory = ReportMemory()
        _warm_memory(memory, str(path), identity, "unused")
        records = [memory.answer(test.fault)[0] for test in original.results]
        assert len(records) == 9
        assert len({id(r.coverage) for r in records}) == len(
            {r.coverage for r in records})

    def test_threads_sharing_and_evicting_keep_the_table_exact(self):
        """More threads than cores, a short switch interval, constant
        eviction: a lost update would leave a count that disagrees with
        the live entries (or a KeyError on release)."""
        import sys
        import threading

        cache = ResultCache(capacity=8)
        errors: list[BaseException] = []
        start = threading.Barrier(6)
        put: list = []

        def worker(seed: int) -> None:
            try:
                start.wait(timeout=30)
                for i in range(400):
                    n = seed * 400 + i
                    value = SimpleNamespace(
                        coverage=frozenset({f"b{n % 5}", "common"}))
                    put.append((value, value.coverage))
                    cache.put(f"k{n % 24}", value)
                    cache.get(f"k{(n * 7) % 24}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert len(cache._entries) == cache.capacity
        assert cache.hits + cache.misses == 6 * 400
        # Every value put keeps the set it was built with.
        assert all(value.coverage is coverage for value, coverage in put)
