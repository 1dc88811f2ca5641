"""Tests for the elastic-fleet machinery.

Work-stealing, graceful drain and mid-campaign join/sealing — all
over real localhost sockets, same as tests/test_socket_fabric.py.  The
load-bearing invariants:

* a steal never loses or duplicates a *report* (first-report-wins;
  ``stolen == victim skips + steal_duplicates``);
* a drain is not a death (``graceful_leaves`` up, ``worker_deaths``
  and ``requeued`` untouched);
* a campaign over the fleet has the history digest of the same
  campaign on a single-manager in-process fabric (differential test);
* a manager restart with a stolen chunk in flight re-executes nothing
  (shared node cache: ``misses == unique scenarios``).
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.cluster import (
    ClusterExplorer,
    ExplorerNode,
    FaultTolerantFabric,
    LocalCluster,
    NodeLatencyTracker,
    NodeManager,
    RetryPolicy,
    SocketFabric,
)
from repro.core.cache import ResultCache
from repro.core.checkpoint import history_digest
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.search import strategy_by_name
from repro.core.targets import IterationBudget
from repro.errors import ClusterError
from repro.sim.targets.minidb import MiniDbTarget

from tests.netutil import endpoint, free_port
from tests.test_socket_fabric import make_request

RETRY = RetryPolicy(max_attempts=200, base_delay=0.02, max_delay=0.2)


def unique_requests(count: int) -> list:
    """``count`` distinct (test, call) scenarios."""
    return [
        make_request(i, test=1 + (i % 3), function="read", call=i // 3)
        for i in range(count)
    ]


class SleepyNodeManager(NodeManager):
    """A manager that dawdles before each execution (a slow machine)."""

    def __init__(self, *args, delay: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay

    def execute(self, request):
        if self.delay:
            time.sleep(self.delay)
        return super().execute(request)


class SleepyNode(ExplorerNode):
    """An explorer node whose executor is artificially slow."""

    def __init__(self, *args, delay: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay

    def _node_manager(self) -> NodeManager:
        if self._manager is None:
            self._manager = SleepyNodeManager(
                self.name, self.target_factory(), cache=self.cache,
                delay=self.delay,
            )
        return self._manager


def run_fleet(net, nodes, fn):
    """Run ``fn()`` with every node serving, then tear the fleet down."""
    threads = [n.run_in_thread() for n in nodes]
    try:
        net.wait_for_nodes(count=len(nodes), timeout=15)
        return fn()
    finally:
        net.close()
        for node in nodes:
            node.stop()
        for thread in threads:
            thread.join(timeout=10)


class TestWorkStealing:
    def test_idle_node_steals_backlog_from_the_slow_one(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        fast = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="afast", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        slow = SleepyNode(
            (net.host, net.port), MiniDbTarget, name="slow", capacity=6,
            heartbeat_interval=0.1, reconnect_policy=RETRY, delay=0.08,
        )

        def campaign():
            reports = net.run_batch(unique_requests(8))
            assert [r.request_id for r in reports] == list(range(8))
            # Stealing moved work; nothing was requeued (that path is
            # for deaths) and every stolen id is accounted for: the
            # victim either skipped it or raced the revocation and
            # produced a duplicate report.
            assert net.stolen >= 2
            assert net.requeued == 0
            assert slow.stolen_skipped + net.steal_duplicates == net.stolen
            assert fast.executed + slow.executed == 8 + net.steal_duplicates
            stats = net.fleet_stats()
            assert stats["stolen"] == net.stolen
            assert stats["steal_duplicates"] == net.steal_duplicates

        run_fleet(net, [fast, slow], campaign)

    def test_latency_tracker_ranks_victims_and_forgets(self):
        tracker = NodeLatencyTracker(smoothing=0.5)
        assert tracker.per_test_seconds("n") is None
        assert tracker.estimate("n", backlog=3) == pytest.approx(3.0)
        tracker.observe("slow", tests=2, seconds=2.0)
        tracker.observe("fast", tests=10, seconds=0.1)
        assert tracker.per_test_seconds("slow") == pytest.approx(1.0)
        assert tracker.estimate("slow", 4) > tracker.estimate("fast", 4)
        # Unknown nodes borrow the fleet mean, not a wild guess.
        fleet_mean = tracker.estimate("stranger", 1)
        assert 0.01 < fleet_mean < 1.0
        tracker.forget("slow")
        assert tracker.per_test_seconds("slow") is None
        assert "fast" in tracker.stats()
        with pytest.raises(ClusterError):
            NodeLatencyTracker(smoothing=0.0)
        with pytest.raises(ClusterError):
            NodeLatencyTracker(smoothing=1.5)

    def test_ewma_updates_flow_from_absorbed_reports(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            net.run_batch(unique_requests(4))
            per_test = net.latency.per_test_seconds("n0")
            assert per_test is not None and per_test > 0
            stats = net.node_stats()[0]
            assert stats["per_test_seconds"] == pytest.approx(per_test)

        run_fleet(net, [node], campaign)


class TestGracefulDrain:
    def test_drain_after_budget_retires_the_node_without_a_death(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        # A budget of one: the leaver is always handed the round's first
        # chunk and a steal never takes a chunk's head, so it reaches
        # the budget however the race with the stayer goes (at two, the
        # stayer stole its second test while it was still building its
        # suite about one run in eight, and it never drained).
        leaver = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="leaver", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, drain_after=1,
        )
        stayer = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="stayer", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        threads = {n.name: n.run_in_thread() for n in (leaver, stayer)}
        try:
            net.wait_for_nodes(count=2, timeout=15)
            reports = net.run_batch(unique_requests(8))
            assert [r.request_id for r in reports] == list(range(8))
            threads["leaver"].join(timeout=10)
            assert not threads["leaver"].is_alive()  # run() returned
            assert leaver.executed >= 1
            assert net.graceful_leaves == 1
            assert net.health.graceful_exits == 1
            assert net.health.worker_deaths == 0
            assert net.requeued == 0
        finally:
            net.close()
            for node in (leaver, stayer):
                node.stop()
            for thread in threads.values():
                thread.join(timeout=10)

    def test_request_drain_while_idle_is_honored_via_heartbeat(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="idler", capacity=2,
            heartbeat_interval=0.05, reconnect_policy=RETRY,
        )
        thread = node.run_in_thread()
        try:
            net.wait_for_nodes(timeout=15)
            node.request_drain()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert net.graceful_leaves == 1
            assert net.health.worker_deaths == 0
        finally:
            net.close()
            node.stop()
            thread.join(timeout=10)


class TestDynamicMembership:
    def test_mid_campaign_join_is_counted_and_carries_work(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        # The incumbent is slow, so the joiner visibly carries load.
        first = SleepyNode(
            (net.host, net.port), MiniDbTarget, name="first", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, delay=0.05,
        )
        joiner = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="joiner", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        first_thread = first.run_in_thread()
        joiner_thread = None
        try:
            net.wait_for_nodes(count=1, timeout=15)
            net.run_batch(unique_requests(4))
            assert net.mid_campaign_joins == 0
            joiner_thread = joiner.run_in_thread()
            net.wait_for_nodes(count=2, timeout=15)
            assert net.mid_campaign_joins == 1
            reports = net.run_batch(
                [make_request(100 + i, test=1 + (i % 3), function="read",
                              call=i // 3) for i in range(8)]
            )
            assert len(reports) == 8
            assert joiner.executed > 0
            assert net.fleet_stats()["mid_campaign_joins"] == 1
        finally:
            net.close()
            for node in (first, joiner):
                node.stop()
            first_thread.join(timeout=10)
            if joiner_thread is not None:
                joiner_thread.join(timeout=10)

    def test_sealed_fleet_refuses_new_names_after_dispatch(self, minidb):
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1, allow_join=False
        )
        first = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="first", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        thread = first.run_in_thread()
        try:
            net.wait_for_nodes(count=1, timeout=15)
            net.run_batch(unique_requests(4))
            latecomer = ExplorerNode(
                (net.host, net.port), MiniDbTarget, name="latecomer",
                capacity=1,
                reconnect_policy=RetryPolicy(
                    max_attempts=2, base_delay=0.01, max_delay=0.02
                ),
                sleep=lambda _s: None,
            )
            with pytest.raises(ClusterError, match="sealed"):
                latecomer.run()
            assert net.mid_campaign_joins == 0
            # A *returning* name is a reconnect, never a join: the seal
            # must not lock a crashed node out of its own campaign.
            twin = ExplorerNode(
                (net.host, net.port), MiniDbTarget, name="first",
                capacity=2, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            twin_thread = twin.run_in_thread()
            try:
                net.wait_for_nodes(count=1, timeout=15)
                reports = net.run_batch(
                    [make_request(200 + i) for i in range(4)]
                )
                assert len(reports) == 4
                assert net.mid_campaign_joins == 0
            finally:
                twin.stop()
                twin_thread.join(timeout=10)
        finally:
            net.close()
            first.stop()
            thread.join(timeout=10)


class TestFleetDedup:
    """The socket-vs-single-manager digest differential: nothing the
    fleet does to a round (placement, stealing) may move the history."""

    def test_campaign_digest_matches_single_manager_execution(
        self, minidb
    ):
        space = FaultSpace.product(
            test=range(1, len(minidb.suite) + 1),
            function=minidb.libc_functions(),
            call=range(0, 3),
        )

        def campaign(fabric):
            return ClusterExplorer(
                FaultTolerantFabric(fabric, policy=RetryPolicy()),
                space, standard_impact(), strategy_by_name("fitness"),
                IterationBudget(32), rng=7, batch_size=4,
            ).run()

        reference = history_digest(
            list(campaign(LocalCluster([NodeManager("solo", minidb)])))
        )
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"n{i}",
                capacity=2, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            for i in range(2)
        ]
        fleet_digest = run_fleet(
            net, nodes, lambda: history_digest(list(campaign(net)))
        )
        assert fleet_digest == reference


class TestFleetEconomics:
    """Counts and shape, not speed: what the wire costs per test and
    what more nodes buy, on in-thread fleets."""

    @staticmethod
    def explore(net, minidb, iterations, seed, batch_size):
        space = FaultSpace.product(
            test=range(1, len(minidb.suite) + 1),
            function=minidb.libc_functions(), call=range(1, 101),
        )
        return ClusterExplorer(
            FaultTolerantFabric(net, policy=RetryPolicy()),
            space, standard_impact(), strategy_by_name("fitness"),
            IterationBudget(iterations), rng=seed, batch_size=batch_size,
        ).run()

    def test_wire_cost_per_test_stays_under_its_ceilings(self, minidb):
        """Batched binary work frames and one coalesced report frame
        per chunk, strings and report bodies interned per connection:
        tens of bytes and a fraction of a frame per test (74 B and 0.26
        frames on this one cold connection; 112.7 B before the tables
        outlived the frame).  One node, so no thief exists and the
        count is the protocol's own."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), lambda: minidb, name="n0",
            capacity=8, heartbeat_interval=0.2, reconnect_policy=RETRY,
        )
        completed = len(run_fleet(
            net, [node], lambda: self.explore(net, minidb, 300, 3, 16)
        ))
        assert completed >= 300
        assert net.registrations == 1 and net.requeued == 0
        assert (net.bytes_in + net.bytes_out) / completed < 100
        assert (net.frames_in + net.frames_out) / completed < 0.5

    def test_equal_nodes_do_not_steal_from_each_other(self, coreutils):
        """Two nodes of one speed on fast tests: a steal would buy a
        ``steal`` + ``work`` frame pair and a race, never time, and the
        manager's own clock says so — (almost) nothing is reassigned
        and (almost) nothing runs twice.  In-thread nodes share the
        manager's GIL, so its timings jitter and a few steals and lost
        revocation races get through: 0–37 and 0–13 of 2 560 on a quiet
        host when written, 83 and 34 beside a noisy neighbour, which is
        what the bounds leave room for; ranking victims by the runner's
        own cost moved 322 and re-ran 66."""
        from repro.injection.models import model_space

        space = model_space(coreutils, "errno", max_call=10)
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        nodes = [
            ExplorerNode(
                (net.host, net.port), lambda: coreutils, name=f"n{i}",
                capacity=4, heartbeat_interval=0.2, reconnect_policy=RETRY,
            )
            for i in range(2)
        ]

        def campaigns():
            return sum(
                len(ClusterExplorer(
                    FaultTolerantFabric(net, policy=RetryPolicy()),
                    space, standard_impact(), strategy_by_name("fitness"),
                    IterationBudget(256), rng=seed, batch_size=32,
                ).run())
                for seed in range(10)
            )

        completed = run_fleet(net, nodes, campaigns)
        assert completed == 2560
        stats = net.fleet_stats()
        assert stats["stolen"] <= 0.05 * completed
        assert stats["steal_duplicates"] <= 0.015 * completed
        assert stats["requeued"] == 0

    def test_four_uneven_nodes_beat_one_without_moving_the_digest(
        self, minidb
    ):
        """Sleep-dominated nodes (the sleep releases the GIL, as a
        remote machine releases the manager's CPU): four of uneven
        speed finish the same campaign at least twice as fast as one,
        by stealing from the slow ones, never by requeueing — and
        placement moves no outcome."""
        started = time.perf_counter()

        def arm(delays):
            net = SocketFabric("127.0.0.1:0", expected_nodes=len(delays))
            nodes = [
                SleepyNode(
                    (net.host, net.port), lambda: minidb, name=f"n{i}",
                    capacity=2, heartbeat_interval=0.2,
                    reconnect_policy=RETRY, delay=delay,
                )
                for i, delay in enumerate(delays)
            ]

            def campaign():
                began = time.perf_counter()
                results = self.explore(net, minidb, 64, 11, 32)
                return (history_digest(list(results)),
                        time.perf_counter() - began)

            digest, seconds = run_fleet(net, nodes, campaign)
            assert all(node.executed > 0 for node in nodes)
            return digest, seconds, net

        solo_digest, solo_seconds, solo = arm([0.010])
        fleet_digest, fleet_seconds, fleet = arm([0.010, 0.014, 0.018, 0.010])
        assert fleet_digest == solo_digest
        assert solo.requeued == fleet.requeued == 0
        assert fleet.stolen >= 1
        assert solo_seconds >= 2 * fleet_seconds, (solo_seconds, fleet_seconds)
        assert time.perf_counter() - started < 3.0


class TestManagerRestartWithStolenChunk:
    def test_stolen_chunk_survives_a_manager_restart_without_rerun(
        self, minidb
    ):
        # The nastiest interleaving: a steal is in flight when the
        # manager dies.  Both nodes share one (thread-safe) result
        # cache, so the combined miss count is the number of *real*
        # executions across the whole saga: misses == unique scenarios
        # is the machine-checkable "nothing ran twice, nothing lost".
        shared = ResultCache()
        port = free_port()
        net1 = SocketFabric(endpoint(port), expected_nodes=2)
        fast = ExplorerNode(
            (net1.host, port), MiniDbTarget, name="afast", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, cache=shared,
        )
        slow = SleepyNode(
            (net1.host, port), MiniDbTarget, name="slow", capacity=6,
            heartbeat_interval=0.1, reconnect_policy=RETRY, cache=shared,
            delay=0.1,
        )
        requests = unique_requests(8)
        threads = [n.run_in_thread() for n in (fast, slow)]
        outcome: dict[str, object] = {}

        def doomed_round():
            try:
                outcome["reports"] = net1.run_batch(requests)
            except ClusterError as exc:
                outcome["error"] = exc

        try:
            net1.wait_for_nodes(count=2, timeout=15)
            round_thread = threading.Thread(target=doomed_round,
                                            daemon=True)
            round_thread.start()
            deadline = time.monotonic() + 10
            while net1.stolen == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert net1.stolen >= 1  # the steal is now in flight
            net1.close(drain=False)  # manager crash, no shutdown frames
            round_thread.join(timeout=10)
            assert "error" in outcome  # the round died with the manager

            net2 = SocketFabric(endpoint(port), expected_nodes=2)
            try:
                net2.wait_for_nodes(count=2, timeout=15)
                reports = net2.run_batch(requests)
                assert [r.request_id for r in reports] == list(range(8))
                stats = shared.stats()
                # Every scenario executed exactly once fleet-wide: the
                # re-dispatch replayed finished work from the shared
                # cache instead of re-running it, and the stolen ids
                # were executed by exactly one of thief/victim.
                assert stats["misses"] == 8
                assert stats["hits"] >= 1  # the restart replayed work
            finally:
                net2.close()
        finally:
            net1.close()
            for node in (fast, slow):
                node.stop()
            for thread in threads:
                thread.join(timeout=10)


class TestFleetStatsSurface:
    def test_fleet_stats_reach_health_meta_through_the_wrappers(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            space = FaultSpace.product(
                test=range(1, 4), function=minidb.libc_functions(),
                call=range(0, 2),
            )
            explorer = ClusterExplorer(
                FaultTolerantFabric(net, policy=RetryPolicy()),
                space, standard_impact(), strategy_by_name("fitness"),
                IterationBudget(8), rng=3, batch_size=4,
            )
            explorer.run()
            stats = explorer.fleet_stats()
            assert stats is not None
            assert set(stats) == {
                "nodes", "stolen", "steal_duplicates", "requeued",
                "graceful_leaves", "mid_campaign_joins", "steals_declined",
                "report_bodies_inline", "report_bodies_referenced",
                "per_test_seconds",
            }

        run_fleet(net, [node], campaign)

    def test_elastic_counters_are_exported_as_metrics(self, minidb):
        from repro.obs import MetricsRegistry

        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            net.run_batch(unique_requests(4))
            registry = MetricsRegistry()
            net.bind_metrics(registry)
            gauges = registry.snapshot()["gauges"]
            for name in (
                "fabric.net.stolen", "fabric.net.steal_duplicates",
                "fabric.net.graceful_leaves",
                "fabric.net.mid_campaign_joins",
            ):
                assert name in gauges
            per_node = [
                value for name, value in gauges.items()
                if name.startswith("fabric.node.per_test_seconds")
            ]
            assert per_node and all(v > 0 for v in per_node)

        run_fleet(net, [node], campaign)


class TestZombieAssignments:
    """Regression: a steal race can complete a round while the thief is
    still executing a stolen id.  The id lingers in the thief's
    ``assigned`` dict with nobody waiting for it (a zombie); a later
    round reusing the same id — which the warm-rerun dedup path reaches
    within milliseconds — must neither trust the zombie as in-flight
    coverage (it would wait forever) nor absorb the zombie's late
    report for a different request."""

    def test_new_round_is_not_blocked_by_a_zombie_assignment(self):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"n{i}",
                capacity=4, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            for i in range(2)
        ]

        def campaign():
            requests = unique_requests(6)
            first = net.run_batch(requests)
            assert len(first) == 6
            # Plant the zombie the race would leave behind: the round
            # above completed, but one node's bookkeeping still holds a
            # request — as if its steal-duplicate report lost and its
            # own execution were still in flight.
            with net._cond:
                conn = next(iter(net._nodes.values()))
                conn.assigned[requests[0].request_id] = requests[0]
            done = threading.Event()
            rerun: list = []

            def second_round():
                rerun.extend(net.run_batch(requests))
                done.set()

            worker = threading.Thread(target=second_round, daemon=True)
            worker.start()
            # The rerun is dispatched afresh; it must come back instead
            # of waiting on the zombie.
            assert done.wait(timeout=20), "round hung on a zombie id"
            assert len(rerun) == 6
            assert [r.request_id for r in rerun] == [
                r.request_id for r in requests
            ]

        run_fleet(net, nodes, campaign)

    def test_zombie_report_for_a_reused_id_is_discarded(self, minidb):
        """A zombie's late report must not satisfy a *different*
        request that happens to reuse its id."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            old = make_request(0, test=1, function="read", call=0)
            new = dataclasses.replace(
                old, scenario={"test": 2, "function": "read", "call": 1}
            )
            [old_report] = net.run_batch([old])
            with net._cond:
                conn = next(iter(net._nodes.values()))
                # The node is still "executing" the old request for
                # id 0 while a new round redefines id 0.
                conn.assigned[0] = old
                net._pending[0] = new
                before = net.late_reports
                net._absorb_one_locked(conn, old_report)
                assert net.late_reports == before + 1
                assert 0 not in net._reports
                del net._pending[0]

        run_fleet(net, [node], campaign)
