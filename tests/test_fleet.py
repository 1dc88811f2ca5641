"""Tests for the elastic-fleet machinery.

Work-stealing, graceful drain, mid-campaign join/sealing, zombie
assignments and a manager restart.  The scheduling verdicts run on the
pure core (:mod:`repro.cluster.fleet`) through :mod:`tests.fleetsim` on a
virtual clock, so their counts are exact; the rest runs over real
localhost sockets, same as tests/test_socket_fabric.py, and checks what
only I/O can show.  The load-bearing invariants:

* a steal never loses or duplicates a *report* (first-report-wins;
  ``stolen == victim skips + steal_duplicates``);
* a drain is not a death (``graceful_leaves`` up, ``worker_deaths``
  and ``requeued`` untouched);
* a campaign over the fleet has the history digest of the same
  campaign on a single-manager in-process fabric (differential test);
* a manager restart with a stolen chunk in flight loses nothing, and no
  revocation outlives its session.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import (
    ClusterExplorer,
    ExplorerNode,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    RetryPolicy,
    SocketFabric,
)
from repro.core.checkpoint import history_digest
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.search import strategy_by_name
from repro.core.targets import IterationBudget
from repro.errors import ClusterError
from repro.sim.targets.minidb import MiniDbTarget

from tests.fleetsim import VirtualFleet, execute, requests_for
from tests.test_socket_fabric import make_request

RETRY = RetryPolicy(max_attempts=200, base_delay=0.02, max_delay=0.2)


def unique_requests(count: int) -> list:
    """``count`` distinct (test, call) scenarios."""
    return [
        make_request(i, test=1 + (i % 3), function="read", call=i // 3)
        for i in range(count)
    ]


class SleepyNodeManager(NodeManager):
    """A node manager whose every execution takes ``delay`` longer."""

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
                self.name, self.target_factory(), delay=self.delay,
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
    def test_idle_node_steals_backlog_from_the_slow_one(self):
        """A 10 ms node and an 80 ms one share eight tests.  Each time
        the fast one reports, the slow one's silence outweighs its
        estimate and the tail of its backlog moves: three steals (two,
        two and one test); the victim reads every revocation before it
        reaches the ids, so it skips all five and nothing runs twice."""
        fleet = VirtualFleet()
        fast = fleet.join("afast", capacity=2)
        slow = fleet.join("slow", capacity=6)
        reports = fleet.run_round(
            requests_for(range(8)), {"afast": 0.010, "slow": 0.080})
        core = fleet.manager
        assert [r.request_id for r in reports] == list(range(8))
        assert fleet.steals() == [("slow", [6, 7]), ("slow", [4, 5]),
                                  ("slow", [3])]
        assert core.stolen == 5 and core.steals_declined == 0
        assert core.requeued == 0 and core.steal_duplicates == 0
        assert slow.core.skipped + core.steal_duplicates == core.stolen
        assert fast.ran == [0, 1, 6, 7, 4, 5, 3] and slow.ran == [2]
        # One slow test's time, not six: the round ended at 80 ms.
        assert fleet.now == pytest.approx(0.080)
        stats = core.fleet_stats()
        assert (stats["stolen"], stats["steal_duplicates"]) == (5, 0)

    def test_a_victim_that_races_its_revocation_is_a_duplicate(self):
        """The same steal, but the victim runs its whole chunk before it
        reads the ``steal`` frame: its report for the stolen ids comes
        first and wins, and the thief's is counted and discarded."""
        fleet = VirtualFleet()
        fast = fleet.join("afast", capacity=2)
        slow = fleet.join("slow", capacity=6)
        requests = requests_for(range(8))
        fleet.begin(requests)
        slow.deliver()
        fleet.advance(0.020)
        fast.step()
        fast.step()
        assert fleet.steals() == [("slow", [6, 7])]
        while slow.step(poll=False):
            pass
        core = fleet.manager
        assert core.round_done
        fast.work()  # the thief's reports for 6 and 7 arrive second
        assert fleet.finish(requests) == [execute(r) for r in requests]
        assert (core.stolen, core.steal_duplicates, slow.core.skipped) == \
            (2, 2, 0)
        assert slow.core.skipped + core.steal_duplicates == core.stolen
        assert len(fast.ran) + len(slow.ran) == 8 + core.steal_duplicates
        # The revocation arrives for ids already run: dropped, not kept.
        slow.deliver()
        assert slow.core.revoked == set() and not slow.core.held

    def test_ewma_updates_flow_from_absorbed_reports(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            net.run_batch(unique_requests(4))
            per_test = net.core.latency.per_test_seconds("n0")
            assert per_test is not None and per_test > 0
            stats = net.node_stats()[0]
            assert stats["per_test_seconds"] == pytest.approx(per_test)

        run_fleet(net, [node], campaign)


class TestGracefulDrain:
    def test_drain_after_budget_retires_the_node_without_a_death(self):
        """A budget of one: the leaver asks to go after its first test,
        but the report of that chunk already earned it a second one, so
        the manager releases it only once that is absorbed — no requeue,
        no death, and the stayer never waits for it."""
        fleet = VirtualFleet()
        leaver = fleet.join("leaver", capacity=2, drain_after=1)
        stayer = fleet.join("stayer", capacity=2)
        reports = fleet.run_round(
            requests_for(range(8)), {"leaver": 0.01, "stayer": 0.01})
        core = fleet.manager
        assert [r.request_id for r in reports] == list(range(8))
        assert leaver.ran == [0, 1, 4, 5] and stayer.ran == [2, 3, 6, 7]
        assert leaver.released == "drained" and not leaver.connected
        assert list(core.nodes) == ["stayer"]
        assert core.graceful_leaves == 1
        assert core.health.graceful_exits == 1
        assert core.health.worker_deaths == 0
        assert core.requeued == 0
        assert [kind for kind, name, _ in fleet.trace
                if name == "leaver"] == ["idle", "work", "work", "shutdown"]

    def test_drain_after_budget_ends_run_over_a_real_socket(self, minidb):
        """The I/O half: ``run()`` returns after the real ``shutdown``
        frame, once the chunk that spent the budget and the one queued
        behind it are absorbed."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="leaver", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, drain_after=2,
        )
        thread = node.run_in_thread()
        try:
            net.wait_for_nodes(timeout=15)
            reports = net.run_batch(unique_requests(4))
            assert [r.request_id for r in reports] == list(range(4))
            thread.join(timeout=10)
            assert not thread.is_alive()  # run() returned
            assert node.executed == 4
            assert net.graceful_leaves == 1
            assert net.health.worker_deaths == 0 and net.requeued == 0
        finally:
            net.close()
            node.stop()
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

    def test_equal_latencies_decline_every_steal(self):
        """The verdict behind the test above, exact and on the core:
        two nodes measured at the same 40 µs per test, ten 32-test
        rounds.  Once the queue drains, each round considers one steal
        and declines it — the victim would reach the tail before a
        thief's frame pair paid off — so nothing moves and nothing runs
        twice."""
        fleet = VirtualFleet()
        n0, n1 = fleet.join("n0", capacity=4), fleet.join("n1", capacity=4)
        for seed in range(10):
            requests = requests_for(range(32), variant=seed)
            reports = fleet.run_round(requests, {"n0": 40e-6, "n1": 40e-6})
            assert reports == [execute(r) for r in requests]
        core = fleet.manager
        assert (core.stolen, core.steal_duplicates, core.requeued) == \
            (0, 0, 0)
        assert core.steals_declined == 10
        assert len(n0.ran) == len(n1.ran) == 160

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
    def test_stolen_chunk_survives_a_manager_restart_without_rerun(self):
        """The nastiest interleaving: a steal is in flight when the
        manager dies.  Before the crash the victim has read the
        revocation and the thief has run one stolen id, so nothing ran
        twice; the restarted manager's round gets every report, and the
        victim — whose revocations died with their session — skips
        nothing of the reused ids."""
        fleet = VirtualFleet()
        fast = fleet.join("afast", capacity=2)
        slow = fleet.join("slow", capacity=6)
        requests = requests_for(range(8))
        fleet.begin(requests)
        slow.deliver()
        fleet.advance(0.020)
        fast.step()
        fast.step()  # reports its chunk: the tail of slow's is stolen
        assert fleet.steals() == [("slow", [6, 7])]
        slow.step()  # reads the revocation, runs 2
        fast.step()  # reads the stolen chunk, runs 6
        assert slow.core.revoked == {6, 7}
        assert fast.ran == [0, 1, 6] and slow.ran == [2]

        fleet.restart()  # manager crash: no shutdown frames
        assert fleet.manager.missing is None
        for node in (fast, slow):
            node.connect()
            node.ready()
        assert slow.core.revoked == set() and not slow.core.held
        reports = fleet.run_round(requests)
        assert [r.request_id for r in reports] == list(range(8))
        assert reports == [execute(r) for r in requests]
        # The redispatch ran the whole round again (a memo above the
        # fabric answers the repeats); the stale revocations of 6 and 7
        # swallowed nothing.
        assert fast.ran == [0, 1, 6, 0, 1]
        assert slow.ran == [2, 2, 3, 4, 5, 6, 7]
        assert slow.core.skipped == 0
        assert fleet.manager.registrations == 2


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
    round reusing the same id — which a warm engine reaches within
    milliseconds — must neither trust the zombie as in-flight coverage
    (it would wait forever) nor absorb the zombie's late report for a
    different request."""

    @staticmethod
    def zombie_fleet():
        """Two nodes; n1 steals id 3 from n0 at dispatch, n0 runs its
        chunk before reading the revocation and wins the race, and the
        round completes while n1 still holds 3: a zombie."""
        fleet = VirtualFleet()
        n0, n1 = fleet.join("n0", capacity=4), fleet.join("n1", capacity=4)
        first = requests_for(range(6))
        fleet.begin(first)
        assert fleet.steals() == [("n0", [3])]
        n0.deliver(2)  # idle, then its chunk; the steal stays unread
        while n0.step(poll=False):
            pass
        n1.deliver(2)  # idle, then [4, 5]; its stolen [3] stays unread
        n1.step()
        n1.step(poll=False)
        assert fleet.manager.round_done
        assert [r.request_id for r in fleet.finish(first)] == list(range(6))
        assert list(fleet.manager.nodes["n1"].assigned) == [3]
        return fleet, n0, n1

    def test_new_round_is_not_blocked_by_a_zombie_assignment(self):
        fleet, n0, n1 = self.zombie_fleet()
        second = requests_for(range(6), variant=1)
        reports = fleet.run_round(second)
        assert reports == [execute(r) for r in second]
        assert n0.ran == [0, 1, 2, 3, 0, 1, 2, 3]
        assert n1.ran == [4, 5, 3, 4, 5]
        core = fleet.manager
        assert (core.late_reports, core.steal_duplicates,
                core.health.corrupt_reports) == (1, 0, 0)

    def test_zombie_report_for_a_reused_id_is_discarded(self):
        """The zombie's report for the old request reaches the manager
        while a new round has redefined id 3: it is late, never the new
        round's answer, and the new round still gets its own."""
        fleet, n0, n1 = self.zombie_fleet()
        second = requests_for(range(6), variant=1)
        fleet.begin(second)
        core = fleet.manager
        assert core.pending[3] is second[3]
        n1.work()  # the zombie's stale report lands first
        assert core.late_reports == 1 and 3 not in core.reports
        n0.work()
        n1.work()
        assert fleet.finish(second) == [execute(r) for r in second]

    def test_a_zombie_s_own_node_is_not_handed_its_id_again(self):
        """The new round's request 3 falls to n1, which still holds the
        old 3: sent there now, the zombie's report — the old request's
        answer — would be taken for the new one.  It waits for that
        report instead, and the round records the new request's."""
        fleet, n0, n1 = self.zombie_fleet()
        second = requests_for([10, 11, 12, 13, 3], variant=1)
        fleet.begin(second)
        core = fleet.manager
        assert list(core.nodes["n1"].assigned) == [3]  # the zombie only
        assert [r.request_id for r in core.queue] == [3]
        n1.work()  # the zombie's report: late; then the new 3 runs
        n0.work()
        assert fleet.finish(second) == [execute(r) for r in second]
        assert (core.late_reports, core.health.corrupt_reports) == (1, 0)

