"""Tests for the content-addressed result cache (core/cache.py)."""

from __future__ import annotations

import pytest

from repro.core.cache import ResultCache
from repro.core.fault import Fault
from repro.core.runner import TargetRunner
from repro.sim.libc import DEFAULT_STEP_BUDGET


def run_fault(coreutils, cache, test=1, function="malloc", call=1, trial=0):
    runner = TargetRunner(coreutils, cache=cache)
    return runner(Fault.of(test=test, function=function, call=call),
                  trial=trial)


def cache_key(target, fault, trial=0):
    return TargetRunner(target)._cache_key(fault, trial)


class TestHitMiss:
    def test_first_execution_misses_then_hits(self, coreutils):
        cache = ResultCache()
        first = run_fault(coreutils, cache)
        assert cache.stats() == {"entries": 1, "hits": 0, "misses": 1,
                                 "evictions": 0}
        second = run_fault(coreutils, cache)
        assert cache.hits == 1
        assert second is first  # memoized object, not a re-execution

    def test_distinct_faults_do_not_collide(self, coreutils):
        cache = ResultCache()
        run_fault(coreutils, cache, function="malloc")
        run_fault(coreutils, cache, function="stat")
        assert len(cache) == 2 and cache.hits == 0

    def test_trial_is_part_of_the_identity(self, coreutils):
        cache = ResultCache()
        run_fault(coreutils, cache, trial=0)
        run_fault(coreutils, cache, trial=1)
        assert len(cache) == 2 and cache.hits == 0

    def test_step_budget_is_part_of_the_identity(self, coreutils):
        fault = Fault.of(test=1, function="malloc", call=1)
        runner = TargetRunner(coreutils)

        def key(budget):
            return ResultCache.key_for(
                runner.identity, fault.subspace, fault.attributes, 0, budget)

        assert key(50_000) != key(100)
        # A runner keys every execution at the default budget.
        assert runner._cache_key(fault, 0) == key(DEFAULT_STEP_BUDGET)

    def test_target_version_is_part_of_the_identity(self, docstore_old,
                                                    docstore_new):
        cache = ResultCache()
        fault = Fault.of(test=1, function="malloc", call=0)
        TargetRunner(docstore_old, cache=cache)(fault)
        TargetRunner(docstore_new, cache=cache)(fault)
        assert len(cache) == 2 and cache.hits == 0

    def test_cached_result_equals_fresh_execution(self, coreutils):
        cache = ResultCache()
        fault = Fault.of(test=12, function="link", call=1)
        cached = TargetRunner(coreutils, cache=cache)(fault)
        fresh = TargetRunner(coreutils)(fault)
        assert cached.summary() == fresh.summary()
        assert cached.coverage == fresh.coverage
        assert cached.steps == fresh.steps

    def test_hit_rate(self, coreutils):
        cache = ResultCache()
        run_fault(coreutils, cache)
        run_fault(coreutils, cache)
        run_fault(coreutils, cache)
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestEviction:
    def test_lru_eviction_beyond_capacity(self, coreutils):
        cache = ResultCache(capacity=2)
        run_fault(coreutils, cache, function="malloc")
        run_fault(coreutils, cache, function="stat")
        run_fault(coreutils, cache, function="open")  # evicts malloc
        assert len(cache) == 2 and cache.evictions == 1
        run_fault(coreutils, cache, function="malloc")  # miss: re-executes
        assert cache.misses == 4 and cache.hits == 0

    def test_get_refreshes_recency(self, coreutils):
        cache = ResultCache(capacity=2)
        run_fault(coreutils, cache, function="malloc")
        run_fault(coreutils, cache, function="stat")
        run_fault(coreutils, cache, function="malloc")  # hit, refresh
        run_fault(coreutils, cache, function="open")    # evicts stat
        run_fault(coreutils, cache, function="malloc")  # still cached
        assert cache.hits == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestPersistence:
    def test_roundtrip_preserves_results(self, coreutils, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache()
        original = run_fault(coreutils, cache, test=12, function="link")
        cache.save(path)

        warmed = ResultCache(path=path)
        assert len(warmed) == 1
        reloaded = run_fault(coreutils, warmed, test=12, function="link")
        assert warmed.hits == 1  # served from disk, not re-executed
        assert reloaded.summary() == original.summary()
        assert reloaded.coverage == original.coverage
        assert reloaded.plan.format() == original.plan.format()
        assert reloaded.call_counts == original.call_counts
        assert reloaded.invariant_violations == original.invariant_violations

    def test_range_valued_attributes_survive_roundtrip(self, coreutils,
                                                       tmp_path):
        # Tuple attribute values (range-trigger faults) must address the
        # same entry before and after JSON persistence.
        path = tmp_path / "cache.json"
        cache = ResultCache()
        fault = Fault.of(test=12, function="malloc", call=(1, 2))
        TargetRunner(coreutils, cache=cache)(fault)
        cache.save(path)
        warmed = ResultCache(path=path)
        TargetRunner(coreutils, cache=warmed)(fault)
        assert warmed.hits == 1

    def test_save_requires_a_path(self, coreutils):
        cache = ResultCache()
        run_fault(coreutils, cache)
        with pytest.raises(ValueError):
            cache.save()

    def test_default_path_loads_on_construction(self, coreutils, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        run_fault(coreutils, cache)
        cache.save()
        assert len(ResultCache(path=path)) == 1

    def test_save_creates_parent_directories(self, coreutils, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.json"
        cache = ResultCache()
        run_fault(coreutils, cache)
        cache.save(path)
        assert len(ResultCache(path=path)) == 1

    def test_corrupt_cache_file_starts_cold(self, coreutils, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("garbage{{")
        with pytest.warns(UserWarning, match="unreadable result cache"):
            cache = ResultCache(path=path)
        assert len(cache) == 0
        run_fault(coreutils, cache)  # still usable
        assert cache.misses == 1

    def test_clear(self, coreutils):
        cache = ResultCache()
        run_fault(coreutils, cache)
        cache.clear()
        assert len(cache) == 0


class TestAtomicSave:
    def test_save_replaces_not_truncates(self, coreutils, tmp_path,
                                         monkeypatch):
        """A crash mid-save must leave the previous file intact.

        The save path writes a temp file and renames it over the
        destination; if the rename (or anything before it) fails, the
        old contents must survive and the temp file must not leak.
        """
        import os

        path = tmp_path / "cache.json"
        cache = ResultCache()
        run_fault(coreutils, cache, function="malloc")
        cache.save(path)
        good = path.read_text()

        run_fault(coreutils, cache, function="stat")
        real_replace = os.replace

        def doomed_replace(src, dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(os, "replace", doomed_replace)
        with pytest.raises(OSError, match="simulated crash"):
            cache.save(path)
        monkeypatch.setattr(os, "replace", real_replace)

        assert path.read_text() == good, "partial save clobbered the file"
        assert not list(tmp_path.glob("*.tmp")), "temp file leaked"
        assert len(ResultCache(path=path)) == 1  # the old, intact snapshot

    def test_no_temp_files_left_after_successful_save(self, coreutils,
                                                      tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache()
        run_fault(coreutils, cache)
        cache.save(path)
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_write_json_atomically_roundtrip(self, tmp_path):
        from repro.core.cache import write_json_atomically

        path = tmp_path / "payload.json"
        write_json_atomically(path, {"answer": 42})
        import json

        assert json.loads(path.read_text()) == {"answer": 42}
        write_json_atomically(path, {"answer": 43})
        assert json.loads(path.read_text()) == {"answer": 43}


class TestSessionIntegration:
    def test_second_identical_session_is_all_hits(self, coreutils):
        from repro.core import (
            ExplorationSession,
            FaultSpace,
            IterationBudget,
            RandomSearch,
            standard_impact,
        )

        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        cache = ResultCache()

        def explore():
            session = ExplorationSession(
                TargetRunner(coreutils, cache=cache), space,
                standard_impact(), RandomSearch(), IterationBudget(40),
                rng=5,
            )
            return session.run(), session.goldens.stats()["hits"]

        first, answered = explore()
        # What the session's golden store answers never reaches the
        # runner or its cache.
        assert answered > 0
        assert cache.misses == 40 - answered and cache.hits == 0
        second, again = explore()
        assert again == answered
        # every fault handed to the runner again was memoized
        assert cache.hits == cache.misses == 40 - answered
        assert second.to_json() == first.to_json()


class TestConcurrency:
    """The race the concurrent fabrics surfaced: every public read and
    write must hold the cache lock, so counters torn mid-update can
    never escape (hit_rate > 1.0, stats() disagreeing with itself,
    len() counted mid-eviction)."""

    def test_threads_hammering_a_tiny_cache_stay_consistent(self):
        import threading

        cache = ResultCache(capacity=8)  # tiny: constant eviction churn
        errors: list[str] = []
        start = threading.Barrier(8)

        def worker(seed: int) -> None:
            start.wait()
            for i in range(300):
                key = f"k{(seed * 300 + i) % 40}"
                if cache.get(key) is None:
                    cache.put(key, object())
                # Reads racing writers must always be self-consistent.
                stats = cache.stats()
                if set(stats) != {"entries", "hits", "misses", "evictions"}:
                    errors.append(f"stats keys: {stats}")
                if not 0 <= stats["entries"] <= cache.capacity:
                    errors.append(f"entries out of range: {stats}")
                if any(v < 0 for v in stats.values()):
                    errors.append(f"negative counter: {stats}")
                rate = cache.hit_rate
                if not 0.0 <= rate <= 1.0:
                    errors.append(f"torn hit_rate: {rate}")
                if not 0 <= len(cache) <= cache.capacity:
                    errors.append(f"len out of range: {len(cache)}")
                _ = key in cache
                if i % 100 == 50 and seed == 0:
                    cache.clear()

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors[:5]
        # After quiescence the counters must balance exactly.
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300
        assert len(cache) == stats["entries"]

    def test_stats_snapshot_is_internally_consistent_under_eviction(self):
        import threading

        cache = ResultCache(capacity=4)
        stop = threading.Event()
        errors: list[str] = []

        def churn() -> None:
            i = 0
            while not stop.is_set():
                cache.put(f"c{i % 64}", object())
                i += 1

        def observe() -> None:
            while not stop.is_set():
                stats = cache.stats()
                # entries can never exceed capacity, even observed
                # mid-eviction, because the snapshot holds the lock.
                if stats["entries"] > cache.capacity:
                    errors.append(f"saw over-capacity snapshot: {stats}")

        writers = [threading.Thread(target=churn) for _ in range(4)]
        readers = [threading.Thread(target=observe) for _ in range(2)]
        for t in writers + readers:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in writers + readers:
            t.join(timeout=10)
        assert not errors, errors[:5]


def _coverage_table(cache: ResultCache) -> dict:
    """``{coverage set: entries sharing it}`` as the cache holds it."""
    return {shared: count for shared, count in cache._coverages.values()}


def _live_coverages(cache: ResultCache) -> dict:
    """The same table, recounted from the live entries."""
    table: dict = {}
    for result in cache._entries.values():
        coverage = getattr(result, "coverage", None)
        if coverage is not None:
            table[coverage] = table.get(coverage, 0) + 1
    return table


class TestSharedCoverage:
    """Live entries share one ``coverage`` object per distinct set (what
    keeps a process-lifetime cache inside the service's memory bound),
    and the table behind that holds exactly the live entries' sets."""

    def test_equal_coverage_under_different_keys_is_one_object(
            self, coreutils):
        cache = ResultCache()
        fault = Fault.of(test=1, function="malloc", call=0)
        a = TargetRunner(coreutils, cache=cache)(fault, trial=0)
        b = TargetRunner(coreutils, cache=cache)(fault, trial=1)
        assert a is not b and a.coverage == b.coverage
        assert a.coverage is b.coverage
        assert cache.get(cache_key(coreutils, fault, 0)) is a  # as it was put
        assert _coverage_table(cache) == {a.coverage: 2}

    def test_eviction_replacement_and_clear_release_the_table(
            self, coreutils):
        cache = ResultCache(capacity=2)
        first = run_fault(coreutils, cache, function="malloc", call=0)
        run_fault(coreutils, cache, function="stat", call=0)
        assert _coverage_table(cache) == {first.coverage: 2}
        other = run_fault(coreutils, cache, test=12, function="link")
        assert other.coverage != first.coverage  # evicts malloc
        assert _coverage_table(cache) == _live_coverages(cache) == {
            first.coverage: 1, other.coverage: 1,
        }
        # Re-putting a key swaps its share, however often.
        key = next(iter(cache._entries))
        for _ in range(3):
            cache.put(key, other)
        assert _coverage_table(cache) == {other.coverage: 2}
        cache.clear()
        assert cache._coverages == {} and len(cache) == 0

    def test_entries_without_a_coverage_are_stored_as_they_are(self):
        cache = ResultCache(capacity=2)
        sentinel = object()
        cache.put("a", sentinel)
        cache.put("b", "text")
        assert cache.get("a") is sentinel and cache.get("b") == "text"
        cache.put("c", 3)  # evicts without touching the table
        assert cache._coverages == {}

    def test_a_loaded_cache_shares_too(self, coreutils, tmp_path):
        cache = ResultCache()
        for trial in range(3):
            run_fault(coreutils, cache, call=0, trial=trial)
        cache.save(tmp_path / "cache.json")
        loaded = ResultCache(path=tmp_path / "cache.json")
        assert len({id(r.coverage) for r in loaded._entries.values()}) == 1
        assert _coverage_table(loaded) == _live_coverages(loaded)

    def test_threads_sharing_and_evicting_keep_the_table_exact(self):
        """More threads than cores, a short switch interval, constant
        eviction: a lost update would leave a count that disagrees with
        the live entries (or a KeyError on release)."""
        import sys
        import threading
        from types import SimpleNamespace

        cache = ResultCache(capacity=8)
        errors: list[BaseException] = []
        start = threading.Barrier(6)

        def worker(seed: int) -> None:
            try:
                start.wait(timeout=30)
                for i in range(400):
                    n = seed * 400 + i
                    cache.put(f"k{n % 24}", SimpleNamespace(
                        coverage=frozenset({f"b{n % 5}", "common"})))
                    cache.get(f"k{(n * 7) % 24}")
                    if n % 211 == 0:
                        cache.clear()
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
        assert _coverage_table(cache) == _live_coverages(cache)
        assert len({id(r.coverage) for r in cache._entries.values()}) == len(
            cache._coverages)
