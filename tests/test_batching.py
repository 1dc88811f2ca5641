"""Tests for speculative batch proposal and the parallel fabrics.

Covers the §6.1 batching contract: ``propose_batch(1)`` must reproduce
serial ``propose()`` exactly, an ``ExplorationSession`` at
``batch_size=1`` must be byte-identical to the pre-batching serial loop,
and the process-pool fabric must return reports in request order with
graceful degradation when the target cannot cross a process boundary.
"""

from __future__ import annotations

import functools
import random
import re

import pytest

from repro.cluster import (
    ClusterExplorer,
    LocalCluster,
    NodeManager,
    ProcessPoolCluster,
)
from repro.cluster.messages import TestRequest as ClusterTestRequest
from repro.core import (
    ExhaustiveSearch,
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    GeneticSearch,
    IterationBudget,
    RandomSearch,
    ResultSet,
    TargetRunner,
    standard_impact,
)
from repro.core.checkpoint import load_checkpoint
from repro.core.search import strategy_by_name
from repro.errors import ClusterError, SearchError
from repro.sim.targets import target_by_name


def small_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=target.libc_functions(), call=[0, 1, 2]
    )


def serial_reference_loop(runner, space, metric, strategy, target, rng):
    """The pre-batching serial explorer, verbatim: propose/execute/observe
    one fault at a time, recording what every loop records of a result.
    Batched sessions at ``batch_size=1`` must reproduce this trajectory
    byte for byte."""
    from repro.core.results import ExecutedTest
    from repro.core.runner import record

    strategy.bind(space, rng)
    executed = []
    while not target.done(executed):
        fault = strategy.propose()
        if fault is None:
            break
        result = record(runner(fault))
        impact = metric.score(result)
        strategy.observe(fault, impact, result)
        executed.append(ExecutedTest(
            index=len(executed), fault=fault, result=result,
            impact=impact, fitness=impact,
        ))
    return ResultSet(executed)


class TestProposeBatch:
    @pytest.mark.parametrize("strategy_factory", [
        RandomSearch, ExhaustiveSearch,
        lambda: FitnessGuidedSearch(initial_batch=10),
    ])
    def test_batched_proposal_equals_serial(self, coreutils,
                                            strategy_factory):
        """propose_batch(k) must emit the same faults, in the same
        order, as k serial propose() calls with an identical RNG (no
        feedback in between)."""
        space = small_space(coreutils)
        serial = strategy_factory()
        serial.bind(space, random.Random(11))
        expected = []
        for _ in range(20):
            fault = serial.propose()
            if fault is None:
                break
            expected.append(fault)

        batched = strategy_factory()
        batched.bind(space, random.Random(11))
        got = []
        while len(got) < 20:
            batch = batched.propose_batch(min(7, 20 - len(got)))
            if not batch:
                break
            got.extend(batch)
        assert got == expected

    def test_batch_of_one_is_single_propose(self, coreutils):
        space = small_space(coreutils)
        a = RandomSearch()
        a.bind(space, random.Random(3))
        b = RandomSearch()
        b.bind(space, random.Random(3))
        assert a.propose_batch(1) == [b.propose()]

    def test_batch_never_repeats_within_or_across(self, coreutils):
        space = small_space(coreutils)
        for strategy in (
            RandomSearch(), FitnessGuidedSearch(initial_batch=5),
            GeneticSearch(), ExhaustiveSearch(),
        ):
            strategy.bind(space, random.Random(2))
            seen = set()
            for _ in range(6):
                for fault in strategy.propose_batch(8):
                    assert fault not in seen, type(strategy).__name__
                    seen.add(fault)
            assert len(seen) == 48

    def test_exhaustive_batch_is_enumeration_slice(self, coreutils):
        space = FaultSpace.product(test=[1, 2], function=["malloc"],
                                   call=[0, 1])
        strategy = ExhaustiveSearch()
        strategy.bind(space, random.Random(0))
        first = strategy.propose_batch(3)
        rest = strategy.propose_batch(3)
        assert len(first) == 3 and len(rest) == 1  # 4-point space drained
        assert strategy.propose_batch(3) == []

    def test_invalid_batch_size_rejected(self, coreutils):
        strategy = RandomSearch()
        strategy.bind(small_space(coreutils), random.Random(0))
        with pytest.raises(SearchError):
            strategy.propose_batch(0)

    def test_seed_cursor_survives_rebind(self, coreutils):
        """Satellite regression: initial_seeds is immutable config; a
        rebound strategy instance must not have lost its seeds."""
        from repro.core.fault import Fault

        space = small_space(coreutils)
        seeds = (Fault.of(test=1, function="malloc", call=1),
                 Fault.of(test=2, function="stat", call=1))
        strategy = FitnessGuidedSearch(initial_seeds=seeds)
        strategy.bind(space, random.Random(1))
        assert strategy.propose() == seeds[0]
        assert strategy.initial_seeds == seeds  # config untouched

        fresh = FitnessGuidedSearch(initial_seeds=seeds)
        fresh.bind(space, random.Random(1))
        assert fresh.propose() == seeds[0]


class TestBatchedSession:
    def run_session(self, coreutils, batch_size, iterations=60, seed=3):
        return ExplorationSession(
            TargetRunner(coreutils),
            small_space(coreutils),
            standard_impact(),
            FitnessGuidedSearch(initial_batch=10),
            IterationBudget(iterations),
            rng=seed,
            batch_size=batch_size,
        ).run()

    def test_batch_size_one_matches_pre_batching_loop(self, coreutils):
        """The acceptance bar: batch_size=1 is byte-identical to the
        serial propose/execute/observe loop."""
        reference = serial_reference_loop(
            TargetRunner(coreutils), small_space(coreutils),
            standard_impact(), FitnessGuidedSearch(initial_batch=10),
            IterationBudget(60), random.Random(3),
        )
        batched = self.run_session(coreutils, batch_size=1)
        assert batched.to_json() == reference.to_json()

    def test_default_batch_size_is_one(self, coreutils):
        session = ExplorationSession(
            TargetRunner(coreutils), small_space(coreutils),
            standard_impact(), RandomSearch(), IterationBudget(5), rng=1,
        )
        assert session.batch_size == 1

    def test_wide_batches_explore_same_budget(self, coreutils):
        results = self.run_session(coreutils, batch_size=8)
        assert len(results) >= 60          # may overshoot by < one batch
        assert len(results) < 60 + 8
        assert results.failed_count() > 0

    def test_invalid_batch_size_rejected(self, coreutils):
        with pytest.raises(SearchError):
            self.run_session(coreutils, batch_size=0)


class TestBatchSizeIsAPositiveInt:
    """Round boundaries select the digest, so nothing but the spec may
    set them: a batch size is a positive int at every entry point."""

    @pytest.mark.parametrize("batch_size", ["auto", "huge", 0])
    def test_cluster_explorer_refuses_what_is_not_a_positive_int(
            self, coreutils, batch_size):
        with pytest.raises(ClusterError, match="positive int"):
            ClusterExplorer(
                LocalCluster([NodeManager("m", coreutils)]),
                small_space(coreutils), standard_impact(), RandomSearch(),
                IterationBudget(4), batch_size=batch_size,
            )

    @pytest.mark.parametrize("batch_size", ["auto", "sometimes", "0"])
    def test_cli_batch_size_must_be_a_positive_int(self, batch_size, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as usage:
            main([
                "run", "--target", "coreutils", "--iterations", "8",
                "--fabric", "threads", "--batch-size", batch_size,
            ])
        assert usage.value.code == 2
        assert "--batch-size" in capsys.readouterr().err


def cli_run(capsys, fabric: str, *extra: str) -> tuple[int, str]:
    """``afex run`` of one coreutils spec on ``fabric`` (a socket fleet of
    two in-thread nodes); returns the exit code and what it printed."""
    from repro.cli import main
    from repro.cluster import ExplorerNode, RetryPolicy

    from tests.netutil import free_port

    args = ["run", "--target", "coreutils", "--iterations", "32",
            "--seed", "3", "--fabric", fabric, "--workers", "2",
            "--batch-size", "4", *extra]
    nodes, threads = [], []
    if fabric == "socket":
        port = free_port()
        args += ["--listen", f"127.0.0.1:{port}", "--nodes", "2",
                 "--node-wait", "30"]
        nodes = [
            ExplorerNode(
                ("127.0.0.1", port),
                functools.partial(target_by_name, "coreutils"),
                name=f"warm{i}", capacity=2,
                reconnect_policy=RetryPolicy(
                    max_attempts=200, base_delay=0.02, max_delay=0.2),
            )
            for i in range(2)
        ]
        threads = [node.run_in_thread() for node in nodes]
    try:
        code = main(args)
    finally:
        for node in nodes:
            node.stop()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return code, capsys.readouterr().out


def row(out: str, name: str) -> str:
    return re.search(rf"^{name} +\| (\S+)$", out, re.MULTILINE)[1]


def digest_of(out: str) -> str:
    return re.search(r"^history digest: (\w+)$", out, re.MULTILINE)[1]


class TestCliCache:
    """``afex run --cache`` warms the engine's memo from a checkpoint
    journal or a result store, on every fabric, and only reads it."""

    @pytest.mark.parametrize(
        "fabric", ["serial", "threads", "processes", "socket"])
    def test_cache_warms_the_memo_where_workers_share_no_memory(
            self, tmp_path, capsys, fabric):
        journal = tmp_path / "campaign.ckpt"
        code, out = cli_run(capsys, fabric, "--checkpoint", str(journal))
        assert code in (0, 1)  # the campaign verdict, not a usage error
        assert row(out, "remembered answers") == "0"
        written = journal.read_bytes()
        code, again = cli_run(capsys, fabric, "--cache", str(journal))
        assert code in (0, 1)
        assert f"cache: 32 records warmed from {journal}" in again
        # Nothing executes: the memo answers every test, and the golden
        # store learns no reach from a warmed record.
        assert row(again, "remembered answers") == "32"
        assert row(again, "golden hits") == "0"
        assert digest_of(again) == digest_of(out)
        assert journal.read_bytes() == written

    @pytest.mark.parametrize("fabric", ["serial", "processes"])
    def test_a_service_store_warms_the_memo_too(
            self, tmp_path, capsys, fabric):
        from repro.service.server import CampaignService
        from repro.service.store import ResultStore

        service = CampaignService(ResultStore(tmp_path / "afex.db"))
        try:
            job = service.submit("alice", {
                "target": "coreutils", "iterations": 32, "seed": 3,
                "batch_size": 4})
            entry = service.queue.pop()
            service._run_job(entry)
            service.queue.finish(entry.job_id)
            served = service.store.job(job.id)
        finally:
            service.shutdown()
        store = tmp_path / "afex.db"
        written = store.read_bytes()
        beside = sorted(tmp_path.iterdir())
        code, out = cli_run(capsys, fabric, "--cache", str(store))
        assert code in (0, 1)
        assert row(out, "remembered answers") == "32"
        assert row(out, "golden hits") == "0"
        assert digest_of(out) == served.digest
        # Only read: nothing written into the file, nor beside it.
        assert store.read_bytes() == written
        assert sorted(tmp_path.iterdir()) == beside

    def test_an_sqlite_file_that_is_no_store_is_a_usage_error(
            self, tmp_path, capsys):
        import sqlite3

        other = tmp_path / "other.db"
        with sqlite3.connect(other) as conn:
            conn.execute("CREATE TABLE notes (text TEXT)")
        conn.close()
        written = other.read_bytes()
        code, out = cli_run(capsys, "serial", "--cache", str(other))
        assert code == 2
        assert "no results table" in out and "or a result store" in out
        assert other.read_bytes() == written
        # A damaged one names what SQLite found, and exits 2 too.
        damaged = tmp_path / "damaged.db"
        damaged.write_bytes(written[:16] + bytes(len(written) - 16))
        code, out = cli_run(capsys, "serial", "--cache", str(damaged))
        assert code == 2
        assert "file is not a database" in out and "or a result store" in out

    def test_an_old_json_cache_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 1, "capacity": 4096, "entries": []}')
        code, out = cli_run(capsys, "serial", "--cache", str(path))
        assert code == 2
        assert "expected a version-3 checkpoint journal" in out
        assert "or a result store" in out
        code, out = cli_run(capsys, "serial", "--cache",
                            str(tmp_path / "absent.ckpt"))
        assert code == 2 and "No such file or directory" in out

    def test_a_journal_of_another_fault_model_warms_nothing(
            self, tmp_path, capsys):
        journal = tmp_path / "campaign.ckpt"
        cli_run(capsys, "serial", "--checkpoint", str(journal))
        code, out = cli_run(capsys, "serial", "--fault-model", "errno+disk",
                            "--cache", str(journal))
        assert code in (0, 1)
        assert re.search(
            r"note: --cache \S+ was written for coreutils/\S+/model:errno, "
            r"not coreutils/\S+/model:errno\+disk; it warms nothing", out)
        assert row(out, "remembered answers") == "0"


class TestCampaignNeverRepeatsAFault:
    """Algorithm 1 dedups every offspring against ``History`` and
    ``Qpending`` (paper §3): no campaign executes a fault twice, through
    either loop, straight or killed and resumed — which is why nothing
    downstream of the search needs a duplicate-result cache."""

    ITERATIONS = 120

    def explorer(self, kind, coreutils, strategy, batch_size, **options):
        # 304 points for 120 tests: dense enough that a strategy
        # re-proposing what it already ran would be caught.
        space = FaultSpace.product(
            test=range(1, 9), function=coreutils.libc_functions(),
            call=[0, 1],
        )
        campaign = (
            space, standard_impact(), strategy_by_name(strategy),
            IterationBudget(self.ITERATIONS),
        )
        if kind == "session":
            return ExplorationSession(
                TargetRunner(coreutils), *campaign,
                rng=5, batch_size=batch_size, **options,
            )
        return ClusterExplorer(
            LocalCluster([NodeManager("solo", coreutils)]), *campaign,
            rng=5, batch_size=batch_size, **options,
        )

    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    @pytest.mark.parametrize(
        "strategy", ["random", "fitness", "genetic", "exhaustive"])
    def test_every_executed_fault_is_distinct(
            self, coreutils, tmp_path, strategy, batch_size):
        def killed(executed):
            if executed.index == 70:
                raise KeyboardInterrupt

        for kind in ("session", "cluster"):
            fresh = self.explorer(kind, coreutils, strategy, batch_size).run()
            path = tmp_path / f"{kind}.ckpt"
            with pytest.raises(KeyboardInterrupt):
                self.explorer(
                    kind, coreutils, strategy, batch_size, on_test=killed,
                    checkpoint_path=path, checkpoint_every=16,
                ).run()
            survived = load_checkpoint(path)
            assert 0 < survived.iterations <= 70
            resumed = self.explorer(
                kind, coreutils, strategy, batch_size, resume_from=survived,
            ).run()
            for results in (fresh, resumed):
                assert len(results) >= self.ITERATIONS
                assert len({t.fault for t in results}) == len(results)
            assert [t.fault for t in resumed] == [t.fault for t in fresh]


class TestProcessPoolCluster:
    def make_pool(self, workers=2):
        return ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=workers
        )

    def request(self, i):
        return ClusterTestRequest(
            request_id=i, subspace="",
            scenario={"test": 1 + i % 29, "function": "malloc", "call": 1},
        )

    def test_reports_in_request_order(self):
        with self.make_pool() as pool:
            reports = pool.run_batch([self.request(i) for i in range(11)])
        assert [r.request_id for r in reports] == list(range(11))

    def test_matches_in_process_execution(self, coreutils):
        """The pool crosses a process boundary but must report exactly
        what an in-process manager reports for the same scenarios."""
        from repro.cluster import NodeManager

        requests = [self.request(i) for i in range(6)]
        with self.make_pool() as pool:
            remote = pool.run_batch(requests)
        manager = NodeManager("ref", coreutils)
        local = [manager.execute(r) for r in requests]
        for got, want in zip(remote, local, strict=True):
            assert got.result == want.result      # every field, pickled
            assert (got.stack_digest, got.call_counts) == (
                want.stack_digest, want.call_counts)

    def test_empty_batch(self):
        with self.make_pool() as pool:
            assert pool.run_batch([]) == []

    def test_workers_must_be_positive(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            self.make_pool(workers=0)

    def test_unpicklable_target_degrades_gracefully(self):
        pool = ProcessPoolCluster(lambda: target_by_name("coreutils"),
                                  workers=2)
        assert pool.is_degraded
        with pytest.warns(UserWarning, match="degrading to in-process"):
            reports = pool.run_batch([self.request(i) for i in range(4)])
        assert [r.request_id for r in reports] == list(range(4))

    def test_degradation_warns_exactly_once(self):
        """The in-process fallback announces itself once, then stays
        quiet — and keeps producing ordered reports batch after batch."""
        import warnings as warnings_module

        pool = ProcessPoolCluster(lambda: target_by_name("coreutils"),
                                  workers=2, name="oncepool")
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            first = pool.run_batch([self.request(i) for i in range(5)])
            second = pool.run_batch([self.request(i) for i in range(5, 9)])
        fallback_warnings = [
            w for w in caught if "degrading to in-process" in str(w.message)
        ]
        assert len(fallback_warnings) == 1
        assert "oncepool" in str(fallback_warnings[0].message)
        assert [r.request_id for r in first] == list(range(5))
        assert [r.request_id for r in second] == list(range(5, 9))
        assert pool.health.fallbacks == 1

    def test_end_to_end_exploration(self, coreutils):
        with self.make_pool() as pool:
            explorer = ClusterExplorer(
                pool, small_space(coreutils), standard_impact(),
                RandomSearch(), IterationBudget(16), rng=9, batch_size=8,
            )
            results = explorer.run()
        assert len(results) >= 16
        assert results.failed_count() > 0

    def test_deterministic_given_seed(self, coreutils):
        def explore():
            with self.make_pool() as pool:
                explorer = ClusterExplorer(
                    pool, small_space(coreutils), standard_impact(),
                    RandomSearch(), IterationBudget(12), rng=7,
                    batch_size=6,
                )
                return [t.fault for t in explorer.run()]

        assert explore() == explore()
