"""The fleet's scheduling core, without sockets (cluster/fleet.py).

Unit cases for the pieces the manager core ranks and expires nodes by,
then :class:`FleetProtocol`: a hypothesis rule-based state machine that
drives a :class:`~repro.cluster.fleet.ManagerCore` and the
:class:`~repro.cluster.fleet.NodeCore` of each node through
:mod:`tests.fleetsim` — registration and re-registration, ``ready``,
rounds whose ids repeat across rounds, reports out of order, duplicated,
late or for ids never sent, steals raced by their victim, lost victims
and thieves, drains, and the clock run past the liveness bound — and
checks the invariants the socket fabric's correctness rests on after
every step.  CI's fleet-smoke job searches it harder with
``pytest --hypothesis-profile deep tests/test_fleet_core.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.fleet import (
    STEAL,
    WORK,
    ManagerCore,
    NodeCore,
    NodeLatencyTracker,
)
from repro.cluster.messages import TestRequest
from repro.errors import ClusterError

from tests.fleetsim import VirtualFleet, execute, requests_for


class TestLatencyTracker:
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

    def test_the_core_measures_turnaround_on_its_own_clock(self):
        fleet = VirtualFleet()
        node = fleet.join("n0", capacity=2)
        fleet.begin(requests_for(range(2)))
        fleet.advance(0.5)
        node.work()
        assert fleet.manager.latency.per_test_seconds("n0") == \
            pytest.approx(0.25)
        assert fleet.manager.node_stats()[0]["per_test_seconds"] == \
            pytest.approx(0.25)


class TestLastBeat:
    def test_liveness_tracks_an_injected_clock(self):
        """Every frame is a beat on the manager's clock; a node whose
        last one is ``liveness_timeout`` old is dropped at the next
        tick, a death whose work goes back to the front of the queue."""
        fleet = VirtualFleet(liveness_timeout=5.0)
        n0 = fleet.join("n0")
        fleet.now = 3.0
        n1 = fleet.join("n1")
        fleet.advance(1.5)  # 4.5: both alive
        assert list(fleet.manager.nodes) == ["n0", "n1"]
        fleet.advance(1.5)  # 6.0: n0's beat at 0.0 is 6 s old
        assert list(fleet.manager.nodes) == ["n1"]
        assert not n0.connected and n1.connected
        assert fleet.manager.health.worker_deaths == 1
        assert ("drop", "n0", None) in fleet.trace

    def test_a_silent_node_holding_work_is_expired_and_requeued(self):
        fleet = VirtualFleet(liveness_timeout=5.0)
        fleet.join("mute", capacity=1)
        fleet.begin(requests_for([0]))
        fleet.advance(5.0)
        core = fleet.manager
        assert core.health.worker_deaths == 1 and core.requeued == 1
        assert [r.request_id for r in core.queue] == [0]
        assert core.health.accounted()

    def test_an_empty_fleet_gives_the_round_up_after_ready_timeout(self):
        fleet = VirtualFleet(ready_timeout=1.0)
        fleet.begin(requests_for([0, 1]))
        fleet.advance(0.5)  # the fleet has been empty since now
        fleet.advance(0.9)
        assert fleet.failed == 0
        fleet.advance(0.1)
        assert fleet.failed == 1 and fleet.trace[-1] == ("fail", None, 2)
        assert fleet.manager.missing is None


class TestAdmission:
    def test_a_sealed_fleet_refuses_new_names_but_not_returning_ones(self):
        fleet = VirtualFleet(allow_join=False)
        first = fleet.join("first")
        fleet.run_round(requests_for(range(4)))
        assert not fleet.node("latecomer").connect()
        assert first.connect()  # a reconnect, never a join
        core = fleet.manager
        assert core.mid_campaign_joins == 0 and core.registrations == 2

    def test_a_lost_node_s_work_goes_back_to_the_front(self):
        fleet = VirtualFleet()
        doomed = fleet.join("doomed", capacity=2)
        requests = requests_for(range(4))
        fleet.begin(requests)
        assert [r.request_id for r in fleet.manager.queue] == [2, 3]
        doomed.lose()
        core = fleet.manager
        assert [r.request_id for r in core.queue] == [0, 1, 2, 3]
        assert core.requeued == 2 and core.health.retried_after_error == 2
        survivor = fleet.join("survivor", capacity=4)
        survivor.work()
        assert fleet.finish(requests) == [execute(r) for r in requests]

    def test_a_node_s_stale_revocation_is_dropped(self):
        """A ``steal`` naming an id the node no longer holds (it ran
        already) is stale: kept, it would skip a later request reusing
        the id."""
        node = NodeCore()
        node.hold([5, 6])
        assert node.take(5) and node.take(6)
        node.steal([5])
        assert node.revoked == set()
        node.hold([5])
        assert node.take(5)
        node.hold([7, 8])
        node.steal([8, True, "8", 9])
        assert node.revoked == {8}
        assert node.take(7) and not node.take(8)
        assert (node.executed, node.skipped) == (0, 1)

    def test_the_drain_frame_is_due_once_per_session(self):
        node = NodeCore(drain_after=2)
        node.ran()
        assert not node.drain_due()
        node.ran()
        assert node.drain_due() and not node.drain_due()
        node.begin_session()
        assert node.drain_due()
        with pytest.raises(ClusterError):
            NodeCore(drain_after=0)


# -- the protocol as a state machine -------------------------------------------

NAMES = ("a", "b", "c")
IDS = st.integers(min_value=0, max_value=7)
#: the scenario variant (and so the exit code) of a made-up report.
STRAY = -1


def live(machine) -> bool:
    return any(node.connected for node in machine.fleet.nodes.values())


class CheckedCore(ManagerCore):
    """A manager core that checks, on every report frame, that no
    report replaces an absorbed one, that each newly absorbed one is
    the answer to the request pending under its id (unless a stray
    frame made it up), that ``completed`` grows by the ids newly
    absorbed, and that a duplicate is counted only for a request some
    steal moved (its victim raced the revocation)."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.absorbed = 0
        #: every request a steal ever moved, by identity (kept alive).
        self.stolen_requests: dict[int, TestRequest] = {}

    def report_batch(self, node, reports, slots, referenced, now):
        before = dict(self.reports)
        duplicates = self.steal_duplicates
        raced = sum(1 for r in reports
                    if id(self.pending.get(r.request_id))
                    in self.stolen_requests)
        effects = super().report_batch(node, reports, slots, referenced, now)
        assert all(self.reports[rid] is report
                   for rid, report in before.items())
        new = self.reports.keys() - before.keys()
        assert all(self.reports[rid] == execute(self.pending[rid])
                   for rid in new
                   if self.reports[rid].result.exit_code != STRAY)
        self.absorbed += len(new)
        assert self.steal_duplicates - duplicates <= raced
        return effects


class CheckedFleet(VirtualFleet):
    """A virtual fleet that checks every ``steal``: a request is
    stolen at most once, and always to a thief's work frame."""

    core_class = CheckedCore

    def apply(self, effects: list) -> None:
        core = self.manager
        for position, (kind, _, ids) in enumerate(effects):
            if kind == STEAL:
                assert effects[position + 1][0] == WORK
                for rid in ids:
                    request = core.pending[rid]
                    assert id(request) not in core.stolen_requests, \
                        f"request {rid} stolen twice"
                    core.stolen_requests[id(request)] = request
        super().apply(effects)


class FleetProtocol(RuleBasedStateMachine):
    """The manager core and three node cores under every interleaving
    of the events the socket fabric feeds them."""

    @initialize(allow_join=st.booleans(),
                capacities=st.lists(st.integers(1, 4), max_size=3))
    def start(self, allow_join, capacities):
        self.fleet = CheckedFleet(liveness_timeout=5.0, ready_timeout=20.0,
                                  allow_join=allow_join)
        for name, capacity in zip(NAMES, capacities):
            self.fleet.join(name, capacity)
        self.requests: list[TestRequest] | None = None
        #: the last round that gave up, which a retry asks for again.
        self.gave_up: list[TestRequest] | None = None
        self.variant = 0

    @property
    def core(self) -> CheckedCore:
        return self.fleet.manager

    def pick(self, data):
        """One connected node, drawn."""
        return data.draw(st.sampled_from(
            [n for n in self.fleet.nodes.values() if n.connected]),
            label="node")

    # -- membership ---------------------------------------------------------------

    @rule(name=st.sampled_from(NAMES), capacity=st.integers(1, 4))
    def register(self, name, capacity):
        """A node connects and, welcomed, declares its slots at once;
        under a name already connected, it replaces its connection."""
        node = self.fleet.node(name, capacity)
        if node.connect():
            node.ready()

    @precondition(live)
    @rule(data=st.data())
    def ready(self, data):
        self.pick(data).ready()

    @precondition(live)
    @rule(data=st.data())
    def lose(self, data):
        self.pick(data).lose()  # a victim, a thief or neither

    @precondition(live)
    @rule(data=st.data())
    def drain(self, data):
        node = self.pick(data)
        node.core.drain_requested = True
        node.offer_drain()

    @precondition(live)
    @rule(data=st.data())
    def heartbeat(self, data):
        self.pick(data).heartbeat()

    @rule(seconds=st.sampled_from([0.01, 0.5, 6.0]))
    def advance(self, seconds):
        """Time passes; past 5 s a silent node is dead."""
        failed = self.fleet.failed
        self.fleet.advance(seconds)
        if self.fleet.failed > failed:
            self.gave_up, self.requests = self.requests, None

    # -- rounds -------------------------------------------------------------------

    @precondition(lambda self: self.core.missing is None)
    @rule(ids=st.lists(IDS, min_size=1, max_size=8, unique=True),
          new_scenarios=st.booleans())
    def begin_round(self, ids, new_scenarios):
        """Ids repeat across rounds; a warm engine reuses them for new
        scenarios, a retry for the same ones."""
        self.variant += new_scenarios
        self.requests = requests_for(ids, self.variant)
        self.fleet.begin(self.requests)

    @precondition(lambda self: self.core.missing is None
                  and self.gave_up is not None)
    @rule()
    def retry_round(self):
        self.requests, self.gave_up = self.gave_up, None
        self.fleet.begin(self.requests)

    @precondition(lambda self: self.core.round_done)
    @rule()
    def finish_round(self):
        reports = self.fleet.finish(self.requests)
        assert [r.request_id for r in reports] == \
            [r.request_id for r in self.requests]
        self.requests = None

    # -- the nodes' side ------------------------------------------------------------

    @precondition(live)
    @rule(data=st.data(), count=st.integers(1, 3))
    def deliver(self, data, count):
        self.pick(data).deliver(count)

    @precondition(live)
    @rule(data=st.data(), reverse=st.booleans(), poll=st.booleans())
    def step(self, data, reverse, poll):
        """Run one held request; without ``poll`` the node has not read
        its frames (a steal in flight is raced)."""
        self.pick(data).step(reverse=reverse, poll=poll)

    @precondition(live)
    @rule(data=st.data())
    def race(self, data):
        """A node reads its frames up to the first ``steal``, then runs
        all it holds without looking again: the steal in flight is
        raced by its victim."""
        node = self.pick(data)
        frames = node.link.frames
        while node.connected and frames and frames[0][0] != STEAL:
            node.deliver(1)
        while node.step(poll=False):
            pass

    @precondition(live)
    @rule(data=st.data())
    def work(self, data):
        """A node reads everything and runs all it holds."""
        self.pick(data).work()

    @precondition(live)
    @rule(data=st.data(), rid=IDS, duplicate=st.booleans())
    def stray_report(self, data, rid, duplicate):
        """A report frame the manager did not ask for: the node's last
        one again, or one for an id it may never have held.  Its
        answers are marked, since nothing tells them from a real one."""
        node = self.pick(data)
        if duplicate:
            node.report([dataclasses.replace(
                r, result=r.result.replace(exit_code=STRAY))
                for r in node.last_batch], None)
        else:
            node.report([execute(TestRequest(
                request_id=rid, subspace="sim",
                scenario={"test": rid, "variant": STRAY}))], None)

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def every_missing_id_is_queued_or_owned_by_one_live_runner(self):
        core = self.core
        for rid in core.missing or ():
            request = core.pending[rid]
            queued = [r for r in core.queue if r.request_id == rid]
            owners = [n for n in core.nodes.values()
                      if n.assigned.get(rid) is request]
            assert len(queued) + len(owners) == 1, (rid, queued, owners)
            assert all(r is request for r in queued)
            for owner in owners:
                node = owner.conn.node
                assert node.link is owner.conn and node.connected
                assert node.will_run(rid), (rid, owner.name)

    @invariant()
    def every_retry_is_attributed(self):
        assert self.core.health.accounted()

    @invariant()
    def completed_counts_each_absorbed_id_once(self):
        assert self.core.health.completed == self.core.absorbed

    @invariant()
    def no_revocation_outlives_the_request_it_names(self):
        for node in self.fleet.nodes.values():
            assert node.core.revoked <= set(node.core.held), node.name


TestFleetProtocol = FleetProtocol.TestCase
