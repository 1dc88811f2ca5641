"""The SQLite result store: durability, round-trips, cross-campaign dedup."""

from __future__ import annotations

import functools
import json
import re
import shutil
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.service.store import ResultStore, scenario_key_digest

#: crash id of ``<test=3, function=write, call=1, disk_write=2,
#: disk_mode=torn>`` on replkv/1.0.0 under errno+disk, as every tree
#: since the store exists computes it.
REPLKV_TORN_WRITE_CRASH_ID = (
    "da5ec17d4ae2accc00f3ebb084cc98e7f6094d53aff84c7744d746994ee09361"
)


@pytest.fixture(scope="module")
def explored(coreutils):
    """One real exploration shared by the round-trip tests."""
    return ExplorationSession(
        TargetRunner(coreutils),
        FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        ),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(60),
        rng=1,
    ).run()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "afex.db")


class TestJobLifecycle:
    def test_create_and_fetch(self, store):
        job = store.create_job(
            "j1", "alice", {"target": "coreutils"}, priority=7, label="x"
        )
        assert job.state == "queued"
        assert job.priority == 7
        fetched = store.job("j1")
        assert fetched.spec == {"target": "coreutils"}
        assert fetched.label == "x"
        assert store.job("missing") is None

    def test_state_transitions(self, store):
        store.create_job("j1", "alice", {"target": "coreutils"})
        store.mark_running("j1")
        assert store.job("j1").state == "running"
        store.mark_done(
            "j1", digest="d" * 64, summary={"tests": 1},
            document={"version": 1},
        )
        done = store.job("j1")
        assert done.state == "done"
        assert done.digest == "d" * 64
        assert done.summary == {"tests": 1}
        assert done.document == {"version": 1}
        assert done.finished_s is not None

    def test_mark_failed(self, store):
        store.create_job("j1", "alice", {"target": "coreutils"})
        store.mark_failed("j1", "boom")
        job = store.job("j1")
        assert job.state == "failed"
        assert job.error == "boom"

    def test_requeue_incomplete_flips_non_terminal(self, store):
        store.create_job("j1", "a", {"target": "coreutils"})
        store.create_job("j2", "a", {"target": "coreutils"})
        store.create_job("j3", "a", {"target": "coreutils"})
        store.mark_running("j1")
        store.mark_done(
            "j3", digest="d" * 64, summary={}, document={}
        )
        requeued = store.requeue_incomplete()
        assert sorted(j.id for j in requeued) == ["j1", "j2"]
        assert store.job("j1").state == "queued"
        assert store.job("j3").state == "done"

    def test_jobs_filters(self, store):
        store.create_job("j1", "alice", {"target": "coreutils"})
        store.create_job("j2", "bob", {"target": "minidb"})
        store.mark_running("j2")
        assert [j.id for j in store.jobs(tenant="alice")] == ["j1"]
        assert [j.id for j in store.jobs(state="running")] == ["j2"]
        assert len(store.jobs()) == 2

    def test_submission_order_is_seq_order(self, store):
        for i in range(5):
            store.create_job(f"j{i}", "a", {"target": "coreutils"})
        seqs = [j.seq for j in store.jobs()]
        assert seqs == sorted(seqs)


class TestResultArchive:
    def test_round_trip_preserves_outcomes(self, store, explored):
        store.create_job("j1", "a", {"target": "coreutils"})
        stats = store.record_campaign(
            "j1", explored, target_id="coreutils/8.1/errno",
            fault_model="errno",
        )
        assert stats["total"] == len(explored)
        assert stats["new"] + stats["duplicates"] == stats["total"]
        rows = store.results(campaign="j1", limit=10_000)
        assert len(rows) == len(explored)
        for row, test in zip(rows, explored):
            assert row["seq"] == test.index
            assert row["failed"] == test.failed
            assert row["crashed"] == test.crashed
            assert row["impact"] == pytest.approx(test.impact)
            restored = store.load_result(row["digest"])
            assert restored.test_id == test.result.test_id
            assert restored.exit_code == test.result.exit_code
            assert restored.crash_kind == test.result.crash_kind
            assert restored.coverage == test.result.coverage

    def test_dedup_across_campaigns(self, store, explored):
        store.create_job("j1", "a", {"target": "coreutils"})
        store.create_job("j2", "b", {"target": "coreutils"})
        first = store.record_campaign(
            "j1", explored, target_id="coreutils/8.1/errno",
            fault_model="errno",
        )
        second = store.record_campaign(
            "j2", explored, target_id="coreutils/8.1/errno",
            fault_model="errno",
        )
        # The second campaign's identical executions add zero rows...
        assert second["new"] == 0
        assert second["duplicates"] == second["total"]
        counters = store.counters()
        assert counters["unique_results"] == first["new"]
        assert counters["recorded_executions"] == 2 * len(explored)
        assert counters["deduplicated"] == (
            counters["recorded_executions"] - counters["unique_results"]
        )
        # ...but both campaigns can still be rendered independently.
        assert len(store.results(campaign="j2", limit=10_000)) == len(explored)
        # First-writer attribution is stable.
        for row in store.results(campaign="j2", limit=10_000):
            assert row["first_campaign"] == "j1"

    def test_different_fault_model_is_a_different_identity(
        self, store, explored
    ):
        store.create_job("j1", "a", {"target": "coreutils"})
        store.create_job("j2", "a", {"target": "coreutils"})
        store.record_campaign(
            "j1", explored, target_id="coreutils/8.1/errno",
            fault_model="errno",
        )
        other = store.record_campaign(
            "j2", explored, target_id="coreutils/8.1/errno+disk",
            fault_model="errno+disk",
        )
        assert other["duplicates"] == 0

    def test_result_filters(self, store, explored):
        store.create_job("j1", "a", {"target": "coreutils"})
        store.record_campaign(
            "j1", explored, target_id="coreutils/8.1/errno",
            fault_model="errno",
        )
        failed = store.results(failed=True, limit=10_000)
        assert len(failed) == explored.failed_count()
        assert all(row["failed"] for row in failed)
        assert store.results(target="coreutils", limit=10_000)
        assert not store.results(target="httpd", limit=10_000)

    def test_clusters_cover_all_failures(self, store, explored):
        store.create_job("j1", "a", {"target": "coreutils"})
        store.record_campaign(
            "j1", explored, target_id="coreutils/8.1/errno",
            fault_model="errno", cluster_distance=1,
        )
        clusters = store.clusters("j1")
        assert sum(c["size"] for c in clusters) == explored.failed_count()
        assert len(clusters) == explored.cluster(
            of=lambda t: t.failed, max_distance=1
        ).cluster_count
        digests = {
            row["digest"]
            for row in store.results(campaign="j1", limit=10_000)
        }
        for cluster in clusters:
            assert cluster["representative_digest"] in digests

    def test_survives_reopen(self, tmp_path, explored):
        path = tmp_path / "afex.db"
        store = ResultStore(path)
        store.create_job("j1", "a", {"target": "coreutils"})
        store.record_campaign(
            "j1", explored, target_id="coreutils/8.1/errno",
            fault_model="errno",
        )
        store.mark_done(
            "j1", digest="d" * 64, summary={"tests": len(explored)},
            document={"version": 1},
        )
        reopened = ResultStore(path)
        assert reopened.job("j1").state == "done"
        assert reopened.counters()["unique_results"] > 0
        assert len(reopened.results(campaign="j1", limit=10_000)) == len(
            explored
        )

    def test_bind_metrics_exports_gauges(self, store):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        store.bind_metrics(registry)
        store.create_job("j1", "a", {"target": "coreutils"})
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["service.store.campaigns"] == 1
        assert snapshot["gauges"]["service.store.queued"] == 1


class TestScenarioDigest:
    def test_matches_cache_key_identity(self):
        a = scenario_key_digest(
            "coreutils/8.1/errno", "", (("test", 3), ("function", "read"))
        )
        b = scenario_key_digest(
            "coreutils/8.1/errno", "", (("test", 3), ("function", "read"))
        )
        c = scenario_key_digest(
            "coreutils/8.1/errno", "", (("test", 4), ("function", "read"))
        )
        assert a == b != c
        assert len(a) == 64

    def test_the_store_and_the_runner_spell_the_target_id_differently(
            self, replkv):
        """The formula is the cache's, the target id is not: the runner
        names its injector (``model:<spec>``), the store the fault-model
        spec.  Pinned so that crash ids cannot move, and so that whoever
        warms the service's memory from the store starts from a fact."""
        import hashlib

        from repro.core.cache import ResultCache
        from repro.core.fault import Fault
        from repro.injection.models import model_injector
        from repro.replay import crash_id_of
        from repro.sim.libc import DEFAULT_STEP_BUDGET

        fault = Fault.of(test=3, function="write", call=1,
                         disk_write=2, disk_mode="torn")
        runner_key = TargetRunner(
            replkv, model_injector("errno+disk"))._cache_key(fault, 0)
        store_key = ResultCache.key_for(
            "replkv/1.0.0/errno+disk", fault.subspace, fault.attributes,
            0, DEFAULT_STEP_BUDGET,
        )
        assert json.loads(runner_key)[0] == "replkv/1.0.0/model:errno+disk"
        assert json.loads(store_key)[0] == "replkv/1.0.0/errno+disk"
        assert json.loads(runner_key)[1:] == json.loads(store_key)[1:]
        digest = scenario_key_digest(
            "replkv/1.0.0/errno+disk", fault.subspace, fault.attributes)
        assert digest == hashlib.sha256(store_key.encode()).hexdigest()
        assert digest != hashlib.sha256(runner_key.encode()).hexdigest()
        assert digest == crash_id_of(
            "replkv", "1.0.0", "errno+disk", fault.subspace,
            fault.attributes)
        assert digest == REPLKV_TORN_WRITE_CRASH_ID

    @given(
        target=st.sampled_from(["a/1/errno", "b/2/errno"]),
        test=st.integers(min_value=1, max_value=50),
        call=st.integers(min_value=0, max_value=3),
        function=st.sampled_from(["read", "write", "malloc"]),
    )
    def test_digest_is_injective_on_attributes(
        self, target, test, call, function
    ):
        base = scenario_key_digest(
            target, "", (("test", test), ("function", function),
                         ("call", call))
        )
        bumped = scenario_key_digest(
            target, "", (("test", test + 1), ("function", function),
                         ("call", call))
        )
        assert base != bumped


@given(
    states=st.lists(
        st.sampled_from(["running", "done", "failed"]),
        min_size=1, max_size=8,
    )
)
def test_requeue_property(tmp_path_factory, states):
    """After requeue, exactly the non-terminal jobs are queued."""
    store = ResultStore(
        tmp_path_factory.mktemp("prop") / "afex.db"
    )
    for i, state in enumerate(states):
        job_id = f"j{i}"
        store.create_job(job_id, "t", {"target": "coreutils"})
        if state in ("running",):
            store.mark_running(job_id)
        elif state == "done":
            store.mark_done(job_id, digest="d" * 64, summary={},
                            document={})
        elif state == "failed":
            store.mark_failed(job_id, "x")
    requeued = {j.id for j in store.requeue_incomplete()}
    expected = {
        f"j{i}" for i, state in enumerate(states) if state == "running"
    }
    assert requeued == expected
    counters = store.counters()
    assert counters["queued"] == len(expected)
    assert counters["running"] == 0


def test_concurrent_writers_do_not_corrupt(tmp_path):
    """Two threads hammering the same store stay consistent (WAL)."""
    import threading

    store = ResultStore(tmp_path / "afex.db")

    def writer(prefix: str) -> None:
        for i in range(25):
            job_id = f"{prefix}{i}"
            store.create_job(job_id, prefix, {"target": "coreutils"})
            store.mark_running(job_id)
            store.mark_done(job_id, digest="d" * 64, summary={},
                            document={})

    threads = [
        threading.Thread(target=writer, args=(p,)) for p in ("a", "b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    counters = store.counters()
    assert counters["campaigns"] == 50
    assert counters["done"] == 50
    # The database itself is intact.
    conn = sqlite3.connect(store.path)
    assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
    conn.close()


def test_attributes_stored_as_canonical_json(store, coreutils):
    """Attribute vectors land as JSON, not Python reprs."""
    results = ExplorationSession(
        TargetRunner(coreutils),
        FaultSpace.product(test=range(1, 5),
                           function=coreutils.libc_functions()[:3],
                           call=[0]),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(5),
        rng=0,
    ).run()
    store.create_job("j1", "a", {"target": "coreutils"})
    store.record_campaign(
        "j1", results, target_id="coreutils/8.1/errno",
        fault_model="errno",
    )
    for row in store.results(campaign="j1"):
        names = [name for name, _ in row["attributes"]]
        assert "test" in names and "function" in names
        json.dumps(row["attributes"])  # round-trips as pure JSON


class TestMonotonicDurations:
    """Run durations come from the monotonic clock, not wall time
    (satellite bugfix: an NTP step mid-campaign used to corrupt them)."""

    def _clocked_store(self, tmp_path):
        wall = {"now": 1_000_000.0}
        mono = {"now": 50.0}
        store = ResultStore(
            tmp_path / "clocked.db",
            clock=lambda: wall["now"],
            monotonic=lambda: mono["now"],
        )
        return store, wall, mono

    def test_duration_survives_wall_clock_step(self, tmp_path):
        store, wall, mono = self._clocked_store(tmp_path)
        store.create_job("j1", "a", {"target": "coreutils"})
        store.mark_running("j1")
        # NTP yanks wall time back an hour mid-run; monotonic advances.
        wall["now"] -= 3600.0
        mono["now"] += 12.5
        store.mark_done("j1", digest="d" * 64, summary={}, document={})
        assert store.job_duration("j1") == pytest.approx(12.5)
        # Wall-clock columns keep the raw (stepped) stamps for display.
        job = store.job("j1")
        assert job.finished_s < job.started_s

    def test_counters_aggregate_monotonic_durations(self, tmp_path):
        store, wall, mono = self._clocked_store(tmp_path)
        for job_id, seconds in (("j1", 2.0), ("j2", 5.0)):
            store.create_job(job_id, "a", {"target": "coreutils"})
            store.mark_running(job_id)
            mono["now"] += seconds
            store.mark_failed(job_id, "boom")
        counters = store.counters()
        assert counters["timed_jobs"] == 2
        assert counters["run_seconds_total"] == pytest.approx(7.0)
        assert counters["run_seconds_max"] == pytest.approx(5.0)

    def test_jobs_finished_elsewhere_have_no_duration(self, tmp_path):
        store, _, _ = self._clocked_store(tmp_path)
        store.create_job("j1", "a", {"target": "coreutils"})
        assert store.job_duration("j1") is None
        # mark_done without mark_running (e.g. after a requeue by a
        # restarted process) must not fabricate a measurement.
        store.mark_done("j1", digest="d" * 64, summary={}, document={})
        assert store.job_duration("j1") is None


class TestConnections:
    """One SQLite connection per thread, kept until ``close()``."""

    @pytest.fixture
    def opened(self, monkeypatch):
        connections: list[sqlite3.Connection] = []
        connect = sqlite3.connect

        def counting(*args, **kwargs):
            connections.append(connect(*args, **kwargs))
            return connections[-1]

        monkeypatch.setattr(sqlite3, "connect", counting)
        return connections

    def test_a_thread_reuses_its_connection(self, tmp_path, opened):
        store = ResultStore(tmp_path / "afex.db")
        for i in range(25):
            store.create_job(f"j{i}", "a", {"target": "coreutils"})
            store.mark_running(f"j{i}")
            assert store.job(f"j{i}").state == "running"
            assert store.counters()["campaigns"] == i + 1
        assert len(opened) == 1

    def test_each_thread_gets_its_own_and_close_closes_all(
            self, tmp_path, opened):
        import threading

        store = ResultStore(tmp_path / "afex.db")
        store.create_job("j1", "a", {"target": "coreutils"})

        def reader() -> None:
            for _ in range(10):
                assert store.job("j1").state == "queued"

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(opened) == 2
        store.close()
        for conn in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")
        # A closed store is not a dead one: the next call reconnects.
        assert store.job("j1").state == "queued"
        assert len(opened) == 3
        store.close()

    def test_dedup_counts_come_from_the_insert(self, store, explored):
        """``new``/``duplicates`` with a partial overlap (the insert's
        own rowcount, not a scan of the table either side of it)."""
        from repro.core.results import ResultSet

        store.create_job("j1", "a", {"target": "coreutils"})
        store.create_job("j2", "a", {"target": "coreutils"})
        first = store.record_campaign(
            "j1", ResultSet(list(explored)[:40]),
            target_id="coreutils/8.1/errno", fault_model="errno",
        )
        second = store.record_campaign(
            "j2", explored,
            target_id="coreutils/8.1/errno", fault_model="errno",
        )
        assert second["total"] == len(explored)
        assert second["duplicates"] >= first["new"]
        counters = store.counters()
        assert counters["unique_results"] == first["new"] + second["new"]
        assert counters["recorded_executions"] == 40 + len(explored)
        assert counters["failures"] == sum(
            1 for row in store.results(failed=True, limit=10_000)
        )


class TestMixedPayloadFormats:
    """``payload`` used to be spaced JSON and is now the compact
    canonical text of the same value.  ``INSERT OR IGNORE`` never
    rewrites a row, so real databases hold both."""

    TARGET_ID = "coreutils/8.1/errno"

    @pytest.fixture
    def mixed(self, tmp_path, explored):
        """A store whose first 30 rows are as the parent wrote them."""
        from repro.core.cache import result_to_payload
        from repro.core.results import ResultSet

        store = ResultStore(tmp_path / "mixed.db")
        store.create_job("old", "a", {"target": "coreutils"})
        old = list(explored)[:30]
        store.record_campaign("old", ResultSet(old),
                              target_id=self.TARGET_ID, fault_model="errno")
        with store._connect() as conn:
            for test in old:
                conn.execute(
                    "UPDATE results SET payload = ? WHERE digest = ?",
                    (json.dumps(result_to_payload(test.result),
                                sort_keys=True),
                     scenario_key_digest(self.TARGET_ID, test.fault.subspace,
                                         test.fault.attributes)),
                )
        store.create_job("new", "b", {"target": "coreutils"})
        dedup = store.record_campaign(
            "new", explored, target_id=self.TARGET_ID, fault_model="errno")
        yield store, dedup
        store.close()

    def test_both_formats_are_in_the_table(self, mixed):
        store, _ = mixed
        with store._connect() as conn:
            payloads = [row[0] for row in conn.execute(
                "SELECT payload FROM results")]
        spaced = [text for text in payloads if '": ' in text]
        compact = [text for text in payloads if '": ' not in text]
        assert spaced and compact
        assert all(
            text == json.dumps(json.loads(text), sort_keys=True,
                               separators=(",", ":"))
            for text in compact
        )

    def test_results_dedup_and_replay_answer_alike_for_both(
            self, mixed, explored, tmp_path):
        from repro.replay import replay

        store, dedup = mixed
        fresh = ResultStore(tmp_path / "fresh.db")
        fresh.create_job("new", "b", {"target": "coreutils"})
        fresh_dedup = fresh.record_campaign(
            "new", explored, target_id=self.TARGET_ID, fault_model="errno")
        # Old rows dedup exactly as rows written now do.
        old_rows = len({
            row["digest"] for row in store.results(campaign="old", limit=1000)
        })
        assert dedup["total"] == fresh_dedup["total"] == len(explored)
        assert dedup["new"] == fresh_dedup["new"] - old_rows
        ours = store.results(campaign="new", limit=1000)
        theirs = fresh.results(campaign="new", limit=1000)
        for row in ours + theirs:
            row.pop("first_campaign")
        assert ours == theirs
        for row, test in zip(ours, explored):
            assert store.load_result(row["digest"]) == fresh.load_result(
                row["digest"])
            assert store.result_row(row["digest"])["payload"] == (
                fresh.result_row(row["digest"])["payload"])
        # One row of each format replays to zero divergence.
        for test in (list(explored)[0], list(explored)[-1]):
            crash_id = scenario_key_digest(
                self.TARGET_ID, test.fault.subspace, test.fault.attributes)
            outcome = replay(crash_id, store=store)
            assert outcome.source.source == "store"
            assert outcome.matches, outcome.divergences
        fresh.close()

    def test_afex_replay_resolves_an_old_format_row(self, mixed, explored,
                                                    capsys):
        from repro.cli import main

        store, _ = mixed
        test = list(explored)[0]
        crash_id = scenario_key_digest(
            self.TARGET_ID, test.fault.subspace, test.fault.attributes)
        assert main(["replay", crash_id[:16], "--store", str(store.path)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out


@functools.lru_cache(maxsize=None)
def _tests_for_totals() -> tuple:
    """Forty executed coreutils tests, some of them failed or crashed."""
    from repro.sim.targets import target_by_name

    coreutils = target_by_name("coreutils")
    return tuple(ExplorationSession(
        TargetRunner(coreutils),
        FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        ),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(40),
        rng=4,
    ).run())


def _recount(path) -> dict[str, int]:
    """What ``counters()`` must say, counted by SQL from the file."""
    conn = sqlite3.connect(path)
    try:
        states = dict(conn.execute(
            "SELECT state, COUNT(*) FROM campaigns GROUP BY state"))
        unique, crashes, failures = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(crashed), 0), "
            "COALESCE(SUM(failed), 0) FROM results").fetchone()
        (executions,) = conn.execute(
            "SELECT COUNT(*) FROM campaign_results").fetchone()
    finally:
        conn.close()
    return {
        "campaigns": sum(states.values()),
        "queued": states.get("queued", 0),
        "running": states.get("running", 0),
        "done": states.get("done", 0),
        "failed_jobs": states.get("failed", 0),
        "unique_results": unique,
        "recorded_executions": executions,
        "deduplicated": executions - unique if executions else 0,
        "crashes": crashes,
        "failures": failures,
    }


class StoreTotals(RuleBasedStateMachine):
    """``counters()`` keeps its totals in memory; after any sequence of
    writes, and across a reopen, they are what a recount says."""

    jobs = Bundle("jobs")

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="totals-"))
        self.path = self.directory / "afex.db"
        self.store = ResultStore(self.path)
        self.tests = _tests_for_totals()
        self.created = 0

    @rule(target=jobs)
    def create(self):
        self.created += 1
        job = f"j{self.created}"
        self.store.create_job(job, "t", {"target": "coreutils"})
        return job

    @rule(job=jobs)
    def run(self, job):
        self.store.mark_running(job)

    @rule(job=jobs)
    def finish(self, job):
        self.store.mark_done(job, digest="d" * 64, summary={}, document={})

    @rule(job=jobs)
    def fail(self, job):
        self.store.mark_failed(job, "boom")

    @rule()
    def move_a_job_that_does_not_exist(self):
        self.store.mark_running("unknown")
        self.store.mark_done("unknown", digest="d" * 64, summary={},
                             document={})
        self.store.mark_failed("unknown", "boom")

    @rule(
        job=st.one_of(jobs, st.just("unknown")),
        size=st.integers(0, 40),
        model=st.sampled_from(["errno", "errno+disk"]),
    )
    def record(self, job, size, model):
        """A campaign's first ``size`` tests (its archive is in execution
        order from test 0); a job recorded again grows or shrinks."""
        from repro.core.results import ResultSet

        tests = self.tests[:size]
        dedup = self.store.record_campaign(
            job, ResultSet(list(tests)),
            target_id=f"coreutils/8.1/{model}", fault_model=model,
        )
        assert dedup["total"] == len(tests)

    @rule()
    def requeue(self):
        self.store.requeue_incomplete()

    @rule()
    def reopen(self):
        self.store.close()
        self.store = ResultStore(self.path)

    @invariant()
    def totals_match_a_recount(self):
        counters = self.store.counters()
        recount = _recount(self.path)
        assert {key: counters[key] for key in recount} == recount

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


TestStoreTotals = StoreTotals.TestCase
TestStoreTotals.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None,
)


def test_totals_lose_no_update_under_four_writer_threads(tmp_path):
    """The totals are shared by every thread of the service (job threads
    write, the event loop reads): four writers on a two-core host with a
    short switch interval end on the recount."""
    import sys
    import threading

    from repro.core.results import ResultSet

    store = ResultStore(tmp_path / "afex.db")
    tests = _tests_for_totals()

    def writer(prefix: str) -> None:
        for i in range(12):
            job_id = f"{prefix}{i}"
            store.create_job(job_id, prefix, {"target": "coreutils"})
            store.mark_running(job_id)
            store.record_campaign(
                job_id, ResultSet(list(tests[:(i * 7) % 41])),
                target_id=f"coreutils/8.1/{prefix}", fault_model="errno",
            )
            if i % 3:
                store.mark_done(job_id, digest="d" * 64, summary={},
                                document={})
            else:
                store.mark_failed(job_id, "boom")
            store.counters()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(prefix,))
            for prefix in "abcd"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    counters = store.counters()
    recount = _recount(store.path)
    assert {key: counters[key] for key in recount} == recount
    assert counters["done"] + counters["failed_jobs"] == 48
    store.close()


def test_no_sql_in_a_closing_record_and_no_scan_of_the_results(
        tmp_path, monkeypatch):
    """A job's closing checkpoint record embeds a metrics snapshot, whose
    store totals used to be a scan of ``results`` and
    ``campaign_results``.  Traced by SQLite itself: once the store is
    open, the closing record runs no statement, and nothing a job runs
    scans either table."""
    from repro.core.checkpoint import CheckpointWriter
    from repro.service.server import CampaignService

    statements: list[str] = []
    connect = ResultStore._connect

    def traced(store):
        conn = connect(store)
        conn.set_trace_callback(statements.append)
        return conn

    closing: list[list[str]] = []
    write = CheckpointWriter.maybe_write

    def watched(writer, executed, rng, force=False):
        before = len(statements)
        try:
            return write(writer, executed, rng, force=force)
        finally:
            if force:
                closing.append(statements[before:])

    store = ResultStore(tmp_path / "afex.db")  # its one scan is at open
    monkeypatch.setattr(ResultStore, "_connect", traced)
    monkeypatch.setattr(CheckpointWriter, "maybe_write", watched)
    service = CampaignService(store, workers=1)
    spec = {"target": "replkv", "fault_model": "errno+disk",
            "iterations": 30, "seed": 3}
    try:
        for tenant in ("a", "b"):  # all new, then all stored already
            job = service.submit(tenant, spec)
            entry = service.queue.pop()
            service._run_job(entry)
            service.queue.finish(entry.job_id)
            assert store.job(job.id).state == "done"
    finally:
        service.shutdown()
    assert closing == [[], []]
    conn = sqlite3.connect(store.path)
    try:
        plans = [
            row[-1]
            for sql in set(statements)
            if sql.split(None, 1)[0].upper() in (
                "SELECT", "INSERT", "UPDATE", "DELETE")
            for row in conn.execute(f"EXPLAIN QUERY PLAN {sql}")
        ]
    finally:
        conn.close()
    assert any(plan.startswith("SEARCH results") for plan in plans)
    assert not [
        plan for plan in plans
        if re.match(r"SCAN (results|campaign_results)\b", plan)
    ]
    store.close()
