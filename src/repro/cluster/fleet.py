"""The fleet's scheduling as one pure state machine.

The paper's explorer hands work to node managers that pull it (§4,
§6.1).  Every decision of that pull lives here, apart from the sockets
that carry it: :class:`ManagerCore` is the manager's side — admission,
backpressure, the round's queue, work stealing, first-report-wins,
requeue-to-front, drain and liveness — and :class:`NodeCore` the
node's — which held requests a ``steal`` revokes and when to send the
one ``drain`` frame.  Neither opens a socket, starts a thread, takes a
lock or reads a clock: each event method takes the time it happened at
(``now``, on the manager's own clock) and returns the *effects* the
caller performs, in order:

* ``(WORK, conn, chunk)`` — send a work frame carrying ``chunk``;
* ``(STEAL, conn, ids)`` — revoke ``ids`` at that node;
* ``(IDLE, conn, None)`` — tell a ready node there is nothing to pull;
* ``(SHUTDOWN, conn, reason)`` — release a drained node;
* ``(DROP, conn, None)`` — hang up on a connection (expired or replaced);
* ``(FAIL, None, outstanding)`` — the round gave up: the fleet has been
  empty for ``ready_timeout`` with ``outstanding`` requests unanswered.

``conn`` is whatever the caller registered the node with;
:class:`~repro.cluster.socket_fabric.SocketFabric` passes its
per-connection link and holds one lock around each call.  Placement
never changes *what* executes, so history digests do not depend on any
of it.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Sequence

from repro.cluster.fault_tolerance import FabricHealth
from repro.cluster.messages import TestReport, TestRequest
from repro.core.sensitivity import SensitivityTracker
from repro.errors import ClusterError

__all__ = [
    "CONTROL_POLL_S",
    "ManagerCore",
    "NodeCore",
    "NodeLatencyTracker",
    "NodeState",
    "SensitivityPartitioner",
]

WORK, STEAL, IDLE, SHUTDOWN, DROP, FAIL = (
    "work", "steal", "idle", "shutdown", "drop", "fail"
)

#: a node mid-chunk looks for ``steal`` frames at most this often (a
#: 40 µs test should not pay a 12 µs ``select``); the manager revokes
#: only work the victim will not reach before it next looks.
CONTROL_POLL_S = 0.001


class NodeLatencyTracker:
    """Per-node EWMA of seconds-per-test, for steal-victim selection.

    Observations are turnarounds on the *manager's* clock — hand-off (or
    the node's previous report) to the arrival of a report frame, over
    the tests it carries — so they count everything a test costs the
    round on a heterogeneous fleet (the paper's EC2 mix), not the
    runner's share alone.
    """

    def __init__(self, smoothing: float = 0.3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ClusterError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        self.smoothing = float(smoothing)
        self._per_test: dict[str, float] = {}

    def observe(self, node: str, tests: int, seconds: float) -> None:
        """Account ``tests`` completed by ``node`` in ``seconds``."""
        if tests <= 0 or seconds < 0:
            return
        sample = seconds / tests
        previous = self._per_test.get(node)
        self._per_test[node] = (
            sample if previous is None
            else self.smoothing * sample + (1.0 - self.smoothing) * previous
        )

    def per_test_seconds(self, node: str) -> float | None:
        """The node's EWMA seconds-per-test, None before any report."""
        return self._per_test.get(node)

    def estimate(self, node: str, backlog: int) -> float:
        """Estimated seconds for ``node`` to clear ``backlog`` tests.

        Unknown nodes borrow the fleet mean so a fresh joiner is
        neither an irresistible steal victim nor permanently immune;
        with no data at all every estimate is the bare backlog count,
        which still ranks victims by queue depth.
        """
        rate = self._per_test.get(node)
        if rate is None:
            rate = (
                sum(self._per_test.values()) / len(self._per_test)
                if self._per_test else 1.0
            )
        return backlog * rate

    def forget(self, node: str) -> None:
        """Drop a retired node's estimate (a rejoin re-measures)."""
        self._per_test.pop(node, None)

    def stats(self) -> dict[str, float]:
        """Per-node EWMA snapshot for benchmark payloads and gauges."""
        return dict(self._per_test)


class SensitivityPartitioner:
    """Orders a round's work queue by learned fault-space sensitivity.

    The paper's §4 dynamic partitioning signal: each completed report
    yields a fitness proxy (crash > hang > test failure > clean, plus a
    bonus when the fault fired), and each axis of its scenario is
    credited with how far its *value*'s running mean fitness sits from
    the global mean, through a sliding-window
    :class:`~repro.core.sensitivity.SensitivityTracker`.  ``arrange``
    sorts the queue so requests sharing a value on the most-sensitive
    axis sit together and nodes pull coherent regions; before any
    feedback the queue keeps proposal order.
    """

    def __init__(self, window: int = 50, floor: float = 0.05) -> None:
        self.window = window
        self.floor = floor
        self._tracker: SensitivityTracker | None = None
        #: per-axis, per-value running (count, fitness sum).
        self._value_stats: dict[str, dict[str, list[float]]] = {}
        self._global_count = 0
        self._global_sum = 0.0

    @staticmethod
    def fitness_of(report: TestReport) -> float:
        """The partitioning fitness proxy for one completed test."""
        result = report.result
        if result.crashed:
            fitness = 3.0
        elif result.hung:
            fitness = 2.0
        elif result.failed:
            fitness = 1.0
        else:
            fitness = 0.0
        if result.injected:
            fitness += 0.5
        return fitness

    def observe(self, request: TestRequest, report: TestReport) -> None:
        """Account one completed scenario's outcome."""
        axes = tuple(sorted(request.scenario))
        if not axes:
            return
        if self._tracker is None or set(axes) - set(self._tracker.axis_names):
            # First observation, or a subspace introduced new axes:
            # (re)build the tracker over the union (window history
            # restarts, which only costs a few rounds of re-learning;
            # the per-value means survive the rebuild).
            known = () if self._tracker is None else self._tracker.axis_names
            self._tracker = SensitivityTracker(
                sorted(set(known) | set(axes)),
                window=self.window, floor=self.floor,
            )
        fitness = self.fitness_of(report)
        self._global_count += 1
        self._global_sum += fitness
        global_mean = self._global_sum / self._global_count
        for axis in axes:
            bucket = self._value_stats.setdefault(axis, {})
            stats = bucket.setdefault(repr(request.scenario[axis]), [0, 0.0])
            stats[0] += 1
            stats[1] += fitness
            value_mean = stats[1] / stats[0]
            self._tracker.record(axis, abs(value_mean - global_mean))

    def partition_axis(self) -> str | None:
        """The axis the fault space is currently partitioned along."""
        if self._tracker is None:
            return None
        probabilities = self._tracker.probabilities()
        return max(sorted(probabilities), key=lambda k: probabilities[k])

    def arrange(self, requests: list[TestRequest]) -> list[TestRequest]:
        """Stable-sort ``requests`` into contiguous partitions."""
        axis = self.partition_axis()
        if axis is None or len(requests) < 2:
            return list(requests)
        return sorted(requests, key=lambda r: repr(r.scenario.get(axis)))


class NodeState:
    """The manager's view of one registered connection."""

    def __init__(self, conn: object, name: str, capacity: int,
                 now: float) -> None:
        self.conn = conn
        self.name = name
        self.capacity = capacity
        #: free executor slots the node has declared and not yet been
        #: sent work for (the backpressure credit).
        self.slots = 0
        #: in-flight requests, by id, in hand-off order.
        self.assigned: dict[int, TestRequest] = {}
        #: ids reassigned (stolen) to another node but possibly still
        #: executing here — a report for one of these is a steal race,
        #: not corruption, and is resolved first-report-wins.
        self.stolen_away: set[int] = set()
        #: graceful-leave state: a draining node receives no new work
        #: and is deregistered (``drained``) once its backlog empties.
        self.draining = False
        self.drained = False
        self.retired = False
        #: reports absorbed from this node (one per request) and its
        #: busy time (its heartbeats, plus what its reports cost).
        self.executed = 0
        self.busy_seconds = 0.0
        #: manager-clock stamps: ``welcome`` queued, the frame round trip
        #: from it to the first ``ready``, since when the node has worked
        #: without a report (None: idle), and the last frame it sent.
        self.welcomed_at = now
        self.rtt: float | None = None
        self.started: float | None = None
        self.last_beat = now


class ManagerCore:
    """Every scheduling decision of the socket fabric's manager.

    ``pending`` holds each request the manager still wants a report
    for (the live round's, and any a round that gave up left in
    flight), ``queue`` the ones no node holds, ``reports`` what has
    been absorbed and ``missing`` the live round's unanswered ids (None
    between rounds).  A node *owns* a pending id when its ``assigned``
    holds that very request; an id is stolen at most once while it is
    pending (``stolen_once``).

    ``liveness_timeout`` bounds how long a registered node may go
    without a frame before it is dropped and its work requeued;
    ``ready_timeout`` how long a round may wait with no node at all.
    """

    #: what :meth:`fleet_stats` and the fabric's gauges count.
    COUNTERS = (
        "requeued", "late_reports", "registrations", "stolen",
        "steal_duplicates", "steals_declined", "graceful_leaves",
        "mid_campaign_joins", "report_bodies_inline",
        "report_bodies_referenced",
    )

    def __init__(self, *, liveness_timeout: float = 10.0,
                 ready_timeout: float = 30.0,
                 allow_join: bool = True) -> None:
        if liveness_timeout <= 0 or ready_timeout <= 0:
            raise ClusterError("socket fabric timeouts must be positive")
        self.liveness_timeout = liveness_timeout
        self.ready_timeout = ready_timeout
        self.allow_join = allow_join
        self.health = FabricHealth()
        self.partitioner = SensitivityPartitioner()
        #: per-node seconds-per-test on the manager's clock (hand-off to
        #: report arrival): what steals rank victims and admit by.
        self.latency = NodeLatencyTracker()
        #: live nodes, in name order (scheduling passes need not sort).
        self.nodes: dict[str, NodeState] = {}
        self.pending: dict[int, TestRequest] = {}
        self.queue: deque[TestRequest] = deque()
        self.reports: dict[int, TestReport] = {}
        self.missing: set[int] | None = None
        self.stolen_once: set[int] = set()
        self._dispatched = False
        #: every name that ever registered: a returning node is a
        #: reconnect, never a join.
        self._seen: set[str] = set()
        self._absent_since: float | None = None
        self._effects: list[tuple[str, object, object]] = []
        # The counters: requests requeued off dead or replaced
        # connections; well-formed reports that arrived after their round
        # moved on; registrations, counting every re-registration;
        # requests stolen, stolen ones run on both sides of a steal race
        # (resolved first-report-wins, so waste only) and steals the
        # admission rule refused; nodes that drained (not deaths); new
        # names registered after the first dispatch; reports that came
        # whole or as a reference to a body their connection had carried.
        self.requeued = self.late_reports = self.registrations = 0
        self.stolen = self.steal_duplicates = self.steals_declined = 0
        self.graceful_leaves = self.mid_campaign_joins = 0
        self.report_bodies_inline = self.report_bodies_referenced = 0

    # -- events ----------------------------------------------------------------

    def register(self, conn: object, name: str, capacity: int, now: float
                 ) -> "tuple[NodeState | str, list]":
        """A validated hello: the new node (or why it is refused) and
        the effects.  Re-registration under a live name replaces the
        stale connection, whose in-flight work is requeued first."""
        returning = name in self._seen
        if self._dispatched and not returning and not self.allow_join:
            return (
                f"fleet is sealed: node {name!r} is a mid-campaign join "
                "and the manager was started without --allow-join", [],
            )
        stale = self.nodes.get(name)
        if stale is not None:
            self._retire(stale)
            self._emit(DROP, stale)
        if self._dispatched and not returning:
            # A genuine mid-campaign join: re-slice the remaining queue
            # so the joiner pulls a coherent region of the fault space.
            self.mid_campaign_joins += 1
            if self.queue:
                self.queue = deque(self.partitioner.arrange(list(self.queue)))
        self._seen.add(name)
        node = NodeState(conn, name, capacity, now)
        self.nodes[name] = node
        self.nodes = dict(sorted(self.nodes.items()))
        self.registrations += 1
        return node, self._flush()

    def beat(self, node: NodeState, now: float,
             busy_seconds: float | None = None) -> None:
        """A frame from ``node`` arrived at ``now``: it is alive.
        ``busy_seconds`` is a heartbeat's account of its busy time."""
        node.last_beat = now
        if busy_seconds is not None:
            node.busy_seconds = max(node.busy_seconds, busy_seconds)

    def ready(self, node: NodeState, slots: int, rtt: float | None,
              now: float) -> list:
        """``node`` declares ``slots`` free; the first ``ready`` also
        closes the welcome round trip (``rtt`` is the node's own sample
        of it: a stall only lengthens one, so the smaller wins)."""
        if node.rtt is None:
            node.rtt = now - node.welcomed_at
            if rtt is not None and 0 <= rtt < node.rtt:
                node.rtt = rtt
        node.slots = min(slots, node.capacity - len(node.assigned))
        if not self._fill(now):
            self._emit(IDLE, node)
        return self._flush()

    def report_batch(self, node: NodeState, reports: Sequence[TestReport],
                     slots: int | None, referenced: int, now: float) -> list:
        """One coalesced report frame: absorb each report, take the
        piggybacked ``slots`` as the node's new credit, and refill.  The
        frame closes a turnaround: its tests took the node from
        ``started`` to ``now``."""
        if node.started is not None:
            self.latency.observe(node.name, len(reports), now - node.started)
        self.report_bodies_referenced += referenced
        self.report_bodies_inline += len(reports) - referenced
        for report in reports:
            self._absorb(node, report)
        node.started = now if node.assigned else None
        if slots is not None and not node.retired:
            # A node announces its whole capacity after each chunk, even
            # while a later chunk sent to it waits unread in its socket:
            # what it still holds counts against that.
            node.slots = min(slots, node.capacity - len(node.assigned))
            self._fill(now)
        self._finish_drain(node)
        return self._flush()

    def drain(self, node: NodeState) -> list:
        """Graceful leave: stop feeding ``node``, release it once its
        backlog is absorbed.  No requeue and no death: a distinct path
        from liveness."""
        if not node.drained:
            node.draining = True
            self._finish_drain(node)
        return self._flush()

    def lost(self, node: NodeState, now: float) -> list:
        """``node``'s connection ended: requeue what it held (at the
        front) and hand it on.  Idempotent."""
        self._retire(node)
        self._fill(now)
        return self._flush()

    def begin_round(self, requests: Sequence[TestRequest],
                    now: float) -> list:
        """Start a round over ``requests`` (ids unique within it).

        A request a round that gave up left in flight keeps its place
        when this round asks for the same request again — execution is
        deterministic, so its report satisfies this round too.  Every
        other leftover is dropped: an id sitting in a node's
        ``assigned`` but not (as that very request) in ``pending`` is a
        zombie nobody waits for, and trusting it would leave this round
        waiting forever.
        """
        wanted = {r.request_id: r for r in requests}
        self.missing = set(wanted)
        self._dispatched = True
        self._absent_since = None
        self.health.dispatches += 1
        self.health.requests += len(requests)
        self.pending = {
            rid: r for rid, r in self.pending.items() if wanted.get(rid) == r
        }
        kept = self.pending.keys()
        self.reports = {
            rid: rep for rid, rep in self.reports.items() if rid in kept
        }
        self.stolen_once &= kept
        for node in self.nodes.values():
            node.stolen_away &= kept
        fresh = [r for r in requests if r.request_id not in kept]
        self.pending.update((r.request_id, r) for r in fresh)
        self.missing -= self.reports.keys()
        queue = [r for r in self.queue if self.pending.get(r.request_id) is r]
        queued = {r.request_id for r in queue}
        queue.extend(r for r in fresh if r.request_id not in queued)
        self.queue = deque(self.partitioner.arrange(queue))
        self._fill(now)
        return self._flush()

    def tick(self, now: float) -> list:
        """The round's waiter woke: drop every node silent for the
        liveness bound, give the round up once the fleet has been empty
        for ``ready_timeout``, and hand out what is queued."""
        for node in list(self.nodes.values()):
            if now - node.last_beat >= self.liveness_timeout:
                self.health.worker_deaths += 1
                self._emit(DROP, node)
                self._retire(node)
        if self.nodes:
            self._absent_since = None
        elif self._absent_since is None:
            self._absent_since = now
        elif now - self._absent_since >= self.ready_timeout:
            self._emit(FAIL, None, len(self.missing or ()))
            self.missing = None
            return self._flush()
        self._fill(now)
        return self._flush()

    # -- the round ---------------------------------------------------------------

    @property
    def round_done(self) -> bool:
        """Whether the live round has every report it asked for."""
        return self.missing is not None and not self.missing

    def end_round(self, requests: Sequence[TestRequest]) -> list[TestReport]:
        """Close a done round: its reports, in request order."""
        ordered = [self.reports.pop(r.request_id) for r in requests]
        for r in requests:
            self.pending.pop(r.request_id, None)
        self.missing = None
        return ordered

    # -- introspection -----------------------------------------------------------

    def width(self) -> int:
        """Total declared capacity of the live fleet (min 1)."""
        return max(1, sum(n.capacity for n in self.nodes.values()))

    def node_stats(self) -> list[dict[str, object]]:
        return [
            {
                "node": n.name,
                "capacity": n.capacity,
                "in_flight": len(n.assigned),
                "executed": n.executed,
                "busy_seconds": n.busy_seconds,
                "draining": n.draining or n.drained,
                "per_test_seconds": self.latency.per_test_seconds(n.name),
                "rtt_seconds": n.rtt,
            }
            for n in self.nodes.values()
        ]

    def fleet_stats(self) -> dict[str, object]:
        return {
            "nodes": len(self.nodes),
            "stolen": self.stolen,
            "steal_duplicates": self.steal_duplicates,
            "requeued": self.requeued,
            "graceful_leaves": self.graceful_leaves,
            "mid_campaign_joins": self.mid_campaign_joins,
            "steals_declined": self.steals_declined,
            "report_bodies_inline": self.report_bodies_inline,
            "report_bodies_referenced": self.report_bodies_referenced,
            "per_test_seconds": self.latency.stats(),
        }

    # -- internals ---------------------------------------------------------------

    def _emit(self, kind: str, node: NodeState | None,
              payload: object = None) -> None:
        self._effects.append((kind, None if node is None else node.conn,
                              payload))

    def _flush(self) -> list:
        effects, self._effects = self._effects, []
        return effects

    def _absorb(self, node: NodeState, report: TestReport) -> None:
        """Classify and absorb one report (first-report-wins on steals)."""
        rid = report.request_id
        request = node.assigned.pop(rid, None)
        if request is None:
            if rid not in node.stolen_away:
                # Not addressed to in-flight work from this node: a
                # stale duplicate or a fabricated id.
                self.health.corrupt_reports += 1
                return
            # The victim raced the steal frame and executed anyway: its
            # report is as good as the thief's (determinism), so the
            # first to arrive wins.
            node.stolen_away.discard(rid)
            request = self.pending.get(rid)
            if request is None:
                self.late_reports += 1
                return
        elif self.pending.get(rid) is not request:
            # Late: its round moved on, and maybe reused the id for
            # another request.  Never double-accounted.
            self.late_reports += 1
            return
        if rid in self.reports:
            self.steal_duplicates += 1
            return
        self.partitioner.observe(request, report)
        self.reports[rid] = report
        if self.missing is not None:
            self.missing.discard(rid)
        node.executed += 1
        node.busy_seconds += report.cost
        self.health.completed += 1

    def _send(self, node: NodeState, chunk: list[TestRequest],
              now: float) -> None:
        node.slots -= len(chunk)
        if not node.assigned:
            node.started = now
        node.assigned.update({r.request_id: r for r in chunk})
        self._emit(WORK, node, chunk)

    def _fill(self, now: float) -> int:
        """Hand queued work to nodes with free slots; returns count sent.

        When the queue drains while credit is still outstanding, the
        leftover slots turn into work-stealing: backlog is reassigned
        from the most-loaded node instead of idling the fleet's tail.
        """
        sent = 0
        queue = self.queue
        for node in self.nodes.values():
            if not queue:
                break
            if node.draining or node.slots <= 0:
                continue
            held, chunk, deferred = node.assigned, [], []
            while queue and len(chunk) < node.slots:
                request = queue.popleft()
                # A node still holding an earlier round's request under
                # this id (a zombie) answers that one first: the id
                # waits for another node, or for that report.
                (deferred if request.request_id in held
                 else chunk).append(request)
            queue.extendleft(reversed(deferred))
            if chunk:
                self._send(node, chunk, now)
                sent += len(chunk)
        if not queue and self.missing is not None:
            sent += self._steal(now)
        return sent

    def _stealable(self, node: NodeState, thief: NodeState) -> list[int]:
        """``node``'s owned ids no steal has moved yet and ``thief``
        holds no zombie of, in hand-off order."""
        pending, once, held = self.pending, self.stolen_once, thief.assigned
        return [rid for rid, r in node.assigned.items()
                if pending.get(rid) is r and rid not in once
                and rid not in held]

    def _steal(self, now: float) -> int:
        """Reassign backlog from loaded nodes to idle slots.

        The victim is the live node with the longest *estimated
        remaining time* (backlog × per-test turnaround) among those
        with at least two stealable requests — the head of its queue is
        left alone because it is most likely already executing — and
        only as much of its tail moves as :meth:`_admitted` measures to
        pay.  The ``steal`` frame revoking the ids at the victim goes
        out before the thief's work frame.
        """
        moved = 0
        for thief in self.nodes.values():
            if thief.draining:
                continue
            while thief.slots > 0:
                victim, stealable = self._victim(thief)
                if victim is None:
                    break
                take = self._admitted(thief, victim, len(stealable), now)
                if take <= 0:
                    self.steals_declined += 1
                    break
                ids = stealable[-take:]
                chunk = [victim.assigned.pop(rid) for rid in ids]
                victim.stolen_away.update(ids)
                self.stolen_once.update(ids)
                self._emit(STEAL, victim, ids)
                self._send(thief, chunk, now)
                self.stolen += len(chunk)
                moved += len(chunk)
        return moved

    def _victim(self, thief: NodeState
                ) -> "tuple[NodeState | None, list[int]]":
        """The node worth stealing from, by estimated remaining time,
        with its stealable ids."""
        best: NodeState | None = None
        best_ids: list[int] = []
        best_estimate = 0.0
        for node in self.nodes.values():
            if node is thief:
                continue
            ids = self._stealable(node, thief)
            if len(ids) < 2:
                continue
            estimate = self.latency.estimate(node.name, len(ids))
            if best is None or estimate > best_estimate:
                best, best_ids, best_estimate = node, ids, estimate
        return best, best_ids

    def _admitted(self, thief: NodeState, victim: NodeState,
                  stealable: int, now: float) -> int:
        """How many of ``victim``'s tail requests ``thief`` may take.

        Admission by measurement: the victim must not be able to even
        *start* the first stolen test before the thief could *finish*
        them all, behind what it already holds::

            (stealable − take) · T_victim ≥ rtt_thief + (held + take) · T_thief

        ``take`` shrinks until that holds or it is 0 (declined) —
        between equally fast nodes a steal buys a frame pair and a
        race, never time.  A victim silent beyond what its history
        explains is as slow as the silence says.  One whose tests are
        shorter than its poll interval runs several of them blind, so
        it must not reach the stolen ones before its next look either:
        the left side must also cover what its history says it has
        done already, plus one :data:`CONTROL_POLL_S`.
        """
        per_thief = self.latency.estimate(thief.name, 1)
        usual = self.latency.estimate(victim.name, 1)
        in_hand = len(victim.assigned) + len(victim.stolen_away)
        silent = 0.0 if victim.started is None else now - victim.started
        per_victim = max(usual, silent / in_hand)
        blind = 0.0 if per_victim >= CONTROL_POLL_S else \
            min(silent, in_hand * usual) + CONTROL_POLL_S
        held = len(thief.assigned)
        take = min(thief.slots, stealable - 1)
        while take > 0 and (stealable - take) * per_victim < max(
            blind, (thief.rtt or 0.0) + (held + take) * per_thief
        ):
            take -= 1
        return take

    def _finish_drain(self, node: NodeState) -> None:
        """Release a draining node whose backlog has emptied."""
        if not node.draining or node.drained or node.retired \
                or node.assigned:
            return
        node.drained = True
        self._emit(SHUTDOWN, node, "drained")
        self.graceful_leaves += 1
        self.health.graceful_exits += 1

    def _retire(self, node: NodeState) -> None:
        """Drop a node; requeue its owned work at the front (idempotent).

        Stolen-away ids belong to their thief now; losing the victim
        must not requeue them (that would be the double dispatch the
        first-report-wins rule exists to prevent).
        """
        if node.retired:
            return
        node.retired = True
        if self.nodes.get(node.name) is node:
            del self.nodes[node.name]
            self.latency.forget(node.name)
        pending = self.pending
        stranded = [r for rid, r in node.assigned.items()
                    if pending.get(rid) is r]
        node.assigned.clear()
        node.stolen_away.clear()
        if stranded:
            # Stranded work is the round's critical path.
            self.queue.extendleft(reversed(stranded))
            self.requeued += len(stranded)
            self.health.record_retry("error", len(stranded))


class NodeCore:
    """What an explorer node decides: which held requests a ``steal``
    revokes, and when its one ``drain`` frame is due.

    ``held`` counts every request id the node has been sent and not yet
    reached (its current chunk's rest and the work frames queued behind
    it).  The manager sends a steal after the work it revokes, on one
    FIFO, so a revocation naming an id not held is stale — the id ran
    already — and is dropped: kept, it would skip the next request
    reusing the id (a warm engine reuses them every campaign), whose
    report would never come.  Hence no revocation outlives the request
    it names: ``revoked`` ⊆ ``held`` always.
    """

    def __init__(self, drain_after: int | None = None) -> None:
        if drain_after is not None and drain_after < 1:
            raise ClusterError(
                f"drain_after must be >= 1 tests, got {drain_after}"
            )
        self.drain_after = drain_after
        #: set by :meth:`request_drain` or by the ``drain_after`` budget.
        self.drain_requested = False
        #: lifetime counters: requests executed, and requests skipped
        #: because a steal revoked them (work a steal saved).
        self.executed = 0
        self.skipped = 0
        self.held: Counter[int] = Counter()
        self.revoked: set[int] = set()
        self._drain_sent = False

    def begin_session(self) -> None:
        """A new connection: nothing is held, nothing revoked, and the
        drain frame is due again.  Revocations are scoped to the
        manager session that issued them — a restarted manager reuses
        request ids."""
        self.held.clear()
        self.revoked.clear()
        self._drain_sent = False

    def hold(self, ids: Iterable[int]) -> None:
        """A work frame carrying ``ids`` arrived."""
        self.held.update(ids)

    def steal(self, ids: object) -> None:
        """A ``steal`` frame: revoke the ids of it this node holds."""
        if isinstance(ids, list):
            held = self.held
            self.revoked.update(
                i for i in ids
                if type(i) is int and i in held
            )

    def take(self, rid: int) -> bool:
        """The node reached ``rid`` in its chunk: True to execute it,
        False when a steal revoked it (skipped)."""
        left = self.held[rid] - 1
        if left > 0:
            self.held[rid] = left
        else:
            self.held.pop(rid, None)
        if rid in self.revoked:
            self.revoked.discard(rid)
            self.skipped += 1
            return False
        return True

    def ran(self) -> None:
        """One request executed; the ``drain_after`` budget may be spent."""
        self.executed += 1
        if self.drain_after is not None and self.executed >= self.drain_after:
            self.drain_requested = True

    def drain_due(self) -> bool:
        """True once per session after a drain was requested."""
        if not self.drain_requested or self._drain_sent:
            return False
        self._drain_sent = True
        return True
