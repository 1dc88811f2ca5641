"""A socket-free fleet on a virtual clock, for the scheduling core.

:class:`VirtualFleet` wires one :class:`~repro.cluster.fleet.ManagerCore`
to :class:`SimNode` peers, each driving a
:class:`~repro.cluster.fleet.NodeCore`, the way the socket fabric and
``ExplorerNode`` do, minus the sockets: the manager's effects queue on
a node's :class:`Link` in the order the core emitted them (one FIFO per
connection, as TCP gives), a node reads them when the test delivers
them, and its frames reach the manager at once.  Time is the number in
:attr:`VirtualFleet.now`, moved only by :meth:`VirtualFleet.advance`.
Execution is a pure function of the request, as on a real node, so a
test can count exactly what ran where.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.fleet import (
    DROP,
    FAIL,
    ManagerCore,
    NodeCore,
    NodeState,
)
from repro.cluster.messages import TestReport, TestRequest
from repro.core.runner import Outcome, Record

__all__ = ["Link", "SimNode", "VirtualFleet", "execute", "requests_for"]


def requests_for(ids, variant: int = 0) -> list[TestRequest]:
    """One request per id; ``variant`` makes a reused id a new scenario."""
    return [TestRequest(request_id=i, subspace="sim",
                        scenario={"test": i, "variant": variant})
            for i in ids]


def execute(request: TestRequest) -> TestReport:
    """What a node answers for ``request``: a function of its scenario."""
    scenario = request.scenario
    return TestReport(
        request_id=request.request_id,
        result=Record(int(scenario["test"]),
                      Outcome(exit_code=int(scenario["variant"]))),
        cost=0.0,
    )


class Link:
    """One connection, manager to node: the frames not yet read."""

    def __init__(self, node: "SimNode") -> None:
        self.node = node
        self.frames: deque[tuple[str, object]] = deque()
        self.open = True


class SimNode:
    """An explorer node: its core, its connection and what it executed."""

    def __init__(self, fleet: "VirtualFleet", name: str, capacity: int,
                 drain_after: int | None = None) -> None:
        self.fleet = fleet
        self.name = name
        self.capacity = capacity
        self.core = NodeCore(drain_after)
        self.link: Link | None = None
        self.state: NodeState | None = None
        #: delivered work frames, the first one being executed.
        self.chunks: deque[list[TestRequest]] = deque()
        #: reports of the chunk in progress.
        self.done: list[TestReport] = []
        #: every request id this node executed, in order.
        self.ran: list[int] = []
        self.running: TestRequest | None = None
        self.last_batch: list[TestReport] = []
        #: why the manager released this node (None: it was not).
        self.released: str | None = None

    @property
    def connected(self) -> bool:
        return self.link is not None and self.link.open

    # -- the node's frames ---------------------------------------------------

    def connect(self) -> bool:
        """Open a session and register (re-registration if connected);
        False when the manager refuses it (a sealed fleet)."""
        self.hang_up()
        self.core.begin_session()
        self.link = Link(self)
        self.released = None
        state, effects = self.fleet.manager.register(
            self.link, self.name, self.capacity, self.fleet.now)
        if not isinstance(state, NodeState):
            self.link = None
            return False
        self.state = state
        self.fleet.apply(effects)
        return True

    def ready(self, rtt: float | None = None) -> None:
        self._frame(lambda m, now: m.ready(
            self.state, self.capacity, rtt, now))
        self.offer_drain()

    def heartbeat(self) -> None:
        if self.connected:
            self.fleet.manager.beat(self.state, self.fleet.now)

    def report(self, reports: list[TestReport], slots: int | None) -> None:
        self.last_batch = list(reports)
        self._frame(lambda m, now: m.report_batch(
            self.state, reports, slots, 0, now))

    def offer_drain(self) -> None:
        """What the real node does after ``ready``, a chunk or ``idle``."""
        if self.connected and self.core.drain_due():
            self._frame(lambda m, now: m.drain(self.state))

    def _frame(self, event) -> None:
        if not self.connected:
            return
        manager = self.fleet.manager
        manager.beat(self.state, self.fleet.now)
        self.fleet.apply(event(manager, self.fleet.now))

    # -- what the node does with the manager's frames ------------------------

    def deliver(self, count: int | None = None) -> int:
        """Read up to ``count`` frames (all by default); returns how many."""
        read = 0
        while self.connected and self.link.frames \
                and (count is None or read < count):
            kind, payload = self.link.frames.popleft()
            read += 1
            if kind == "work":
                self.core.hold(r.request_id for r in payload)
                self.chunks.append(list(payload))
            elif kind == "steal":
                self.core.steal(list(payload))
            elif kind == "idle":
                self.offer_drain()
            elif kind == "shutdown":
                self.released = payload
                self._frame(lambda m, now: m.lost(self.state, now))  # bye
                self.hang_up()
        return read

    def begin_next(self, poll: bool = True) -> bool:
        """Read what arrived (unless ``poll`` is False: a node that has
        not looked yet), then start the next held request the core keeps
        (a revoked one is skipped at once).  False: none left."""
        if poll:
            self.deliver()
        while self.connected and self.chunks and self.running is None:
            chunk = self.chunks[0]
            request = chunk.pop(0)
            if self.core.take(request.request_id):
                self.running = request
            elif not chunk:
                self._end_chunk()
        return self.running is not None

    def complete(self, reverse: bool = False) -> None:
        """The running request finishes; at its chunk's end, report."""
        request, self.running = self.running, None
        if request is None:  # the connection died meanwhile
            return
        self.done.append(execute(request))
        self.ran.append(request.request_id)
        self.core.ran()
        if not self.chunks[0]:
            self._end_chunk(reverse)

    def step(self, reverse: bool = False, poll: bool = True) -> bool:
        """Run the next request at once; False when nothing is held."""
        if not self.begin_next(poll):
            return False
        self.complete(reverse)
        return True

    def _end_chunk(self, reverse: bool = False) -> None:
        self.chunks.popleft()
        reports, self.done = self.done, []
        self.report(reports[::-1] if reverse else reports, self.capacity)
        self.offer_drain()

    def work(self) -> None:
        """Read everything, then run everything held, to the end."""
        while self.step():
            pass

    def hang_up(self) -> None:
        """The connection ends on this side (a crash, or after ``bye``)."""
        if self.link is not None:
            self.link.open = False
        self.chunks.clear()
        self.done = []
        self.running = None

    def lose(self) -> None:
        """The node dies: the manager's reader sees EOF."""
        if self.connected:
            self.hang_up()
            self.fleet.apply(
                self.fleet.manager.lost(self.state, self.fleet.now))

    def will_run(self, rid: int) -> bool:
        """Whether a report for ``rid`` will leave here: it ran in the
        chunk in progress, or it runs even if every frame on the link is
        read before anything more executes (the schedule in which steals
        revoke the most)."""
        if any(r.request_id == rid for r in self.done) or (
                self.running is not None and self.running.request_id == rid):
            return True
        held = self.core.held.copy()
        revoked = set(self.core.revoked)
        for kind, payload in self.link.frames:
            if kind == "work":
                held.update(r.request_id for r in payload)
            elif kind == "steal":
                revoked.update(i for i in payload if held[i] > 0)
            elif kind in ("shutdown", "drop"):
                break
        return held[rid] > (1 if rid in revoked else 0)


class VirtualFleet:
    """A manager core and its nodes on a virtual clock."""

    #: the manager's class (a test may check every call it makes).
    core_class = ManagerCore

    def __init__(self, *, liveness_timeout: float = 10.0,
                 ready_timeout: float = 30.0, allow_join: bool = True) -> None:
        self._options = dict(liveness_timeout=liveness_timeout,
                             ready_timeout=ready_timeout,
                             allow_join=allow_join)
        self.manager = self.core_class(**self._options)
        self.now = 0.0
        self.nodes: dict[str, SimNode] = {}
        #: every effect applied, in order: the fleet's event trace.
        self.trace: list[tuple[str, str | None, object]] = []
        self.failed = 0

    def node(self, name: str, capacity: int = 2,
             drain_after: int | None = None) -> SimNode:
        node = self.nodes.get(name)
        if node is None:
            node = self.nodes[name] = SimNode(self, name, capacity,
                                              drain_after)
        return node

    def join(self, name: str, capacity: int = 2,
             drain_after: int | None = None) -> SimNode:
        """A node connects, registers and declares its slots."""
        node = self.node(name, capacity, drain_after)
        node.connect()
        node.ready()
        return node

    def restart(self) -> None:
        """The manager crashes (no ``shutdown`` frame) and a new one
        starts on its endpoint: every connection drops, and each node
        keeps its core until it reconnects."""
        for node in self.nodes.values():
            node.hang_up()
        self.manager = self.core_class(**self._options)

    def apply(self, effects: list) -> None:
        for kind, link, payload in effects:
            self.trace.append(
                (kind, None if link is None else link.node.name, payload))
            if kind == FAIL:
                self.failed += 1
            elif kind == DROP:
                link.open = False
                if link.node.link is link:
                    link.node.hang_up()
            elif link.open:
                link.frames.append((kind, payload))

    def advance(self, seconds: float) -> None:
        """Move the clock, then let the round's waiter tick."""
        self.now += seconds
        self.apply(self.manager.tick(self.now))

    def begin(self, requests: list[TestRequest]) -> None:
        self.apply(self.manager.begin_round(requests, self.now))

    def finish(self, requests: list[TestRequest]) -> list[TestReport]:
        assert self.manager.round_done
        return self.manager.end_round(requests)

    def run_round(self, requests: list[TestRequest],
                  durations: dict[str, float] | None = None,
                  limit: int = 10_000) -> list[TestReport]:
        """Dispatch ``requests`` and run the fleet until the round is
        done: a node's test takes ``durations[name]`` seconds (0 by
        default), and it reads every frame that arrived before it starts
        the next one (a real node polls between tests)."""
        durations = durations or {}
        self.begin(requests)
        due: dict[str, float] = {}
        for _ in range(limit):
            if self.manager.round_done:
                return self.finish(requests)
            for node in self.nodes.values():
                if node.name not in due and node.begin_next():
                    due[node.name] = self.now + durations.get(node.name, 0.0)
            if not due:
                if self.manager.round_done:
                    continue
                raise AssertionError("the round is stuck: nothing runs")
            name = min(due, key=lambda n: (due[n], n))
            when = due.pop(name)
            if when > self.now:
                self.advance(when - self.now)
            self.nodes[name].complete()
        raise AssertionError("the round never completed")

    def steals(self) -> list[tuple[str, list[int]]]:
        """Each ``steal`` effect so far: (victim, ids)."""
        return [(name, list(ids)) for kind, name, ids in self.trace
                if kind == "steal"]
