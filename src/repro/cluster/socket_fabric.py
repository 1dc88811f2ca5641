"""The networked multi-node execution fabric (§4's actual deployment).

The paper runs its fitness-guided exploration on 10-node clusters and
EC2, dynamically partitioning the fault space among explorer nodes.
:class:`SocketFabric` is that shape for this reproduction: a manager
process serves the :mod:`repro.cluster.wire` protocol over TCP;
:class:`ExplorerNode` processes connect, advertise capacity, and *pull*
work with backpressure — a node is never sent more requests than the
free executor slots it has declared.

The manager implements the same
:class:`~repro.cluster.explorer_node.ExecutionFabric` interface as every
in-process fabric (``__len__`` + ``run_batch``), so the whole existing
stack — :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric`
retries, checkpoints, metrics, tracing, online quality — wraps it
unchanged, and a campaign over the socket fabric produces a result
history **byte-identical** to the same campaign on
:class:`~repro.cluster.process_pool.ProcessPoolCluster` (execution is
deterministic per fault; only placement differs).

Failure semantics:

* a node that dies mid-batch (EOF, reset, poisoned frame) has its
  in-flight chunk **requeued** onto the surviving nodes within the same
  round — the explorer never observes the loss except through
  :class:`~repro.cluster.fault_tolerance.FabricHealth`;
* a truncated or garbage frame is a :class:`~repro.cluster.wire.
  WireError` — the connection is dropped and its work requeued, the
  manager never crashes;
* wire-level heartbeats feed a
  :class:`~repro.cluster.fault_tolerance.HeartbeatMonitor`; beats are
  **stamped with the manager-side clock on receipt**, because node
  clocks are ``time.monotonic()`` values from *other processes* and are
  not comparable to the manager's (see
  :meth:`HeartbeatMonitor.beat <repro.cluster.fault_tolerance.
  HeartbeatMonitor.beat>`); a registered node whose beats stop is
  expired and its work requeued;
* nodes reconnect with exponential backoff and **idempotent
  re-registration**: a returning node (same name) replaces its stale
  connection, whose in-flight work is requeued first;
* :meth:`SocketFabric.close` drains gracefully — every node receives a
  ``shutdown`` frame and exits its serve loop; a manager *crash* (no
  shutdown frame) instead sends nodes into their reconnect loop, which
  is how a restarted manager on the same endpoint gets its fleet back.

Dynamic fault-space partitioning (§4): a
:class:`SensitivityPartitioner` learns per-axis sensitivity from
completed reports (reusing :class:`~repro.core.sensitivity.
SensitivityTracker`) and orders each round's queue so that requests
sharing a value on the currently most-sensitive axis are contiguous —
nodes pulling chunks therefore receive coherent regions of the fault
space, and the partitioning axis shifts as the search discovers where
the structure is.  Placement never changes *what* is executed, so
history digests are unaffected.

Elastic fleet operations (docs/DISTRIBUTED.md "Fleet operations"):

* **work-stealing** — when the round queue drains while a node still
  has free slots, the manager reassigns the tail of the most-loaded
  live node's backlog, but only while its own clock says it pays: it
  times every node's per-test turnaround
  (:class:`~repro.cluster.fleet.NodeLatencyTracker`) and every
  connection's frame round trip, and steals only what the victim could
  not even start before the thief could finish it.  The stolen ids are
  revoked at the victim with a ``steal`` frame.  A victim that raced
  the revocation and executed anyway is resolved first-report-wins
  (``steal_duplicates`` counts the waste); stolen work lost with a dead
  *thief* is requeued at the front exactly like any other in-flight
  chunk;
* **dynamic membership** — a new node may register mid-campaign
  (``allow_join``); the manager re-arranges the remaining queue through
  the partitioner so the joiner receives a coherent slice.  A node
  leaves gracefully by sending ``drain``: it stops receiving work,
  finishes its backlog, and is deregistered with a ``shutdown`` frame —
  a *distinct* path from crash detection, which stays with the
  :class:`~repro.cluster.fault_tolerance.HeartbeatMonitor`.
"""

from __future__ import annotations

import os
import queue
import random
import select
import socket
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.cluster.fault_tolerance import (
    FabricHealth,
    HeartbeatMonitor,
    RetryPolicy,
)
from repro.cluster.fleet import NodeLatencyTracker
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest
from repro.cluster.wire import (
    PROTOCOL_VERSION,
    WireError,
    WireSession,
    encode_frame,
    encode_report_frame,
    encode_work_frame,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.core.sensitivity import SensitivityTracker
from repro.errors import ClusterError
from repro.sim.testsuite import Target

__all__ = ["SocketFabric", "ExplorerNode", "SensitivityPartitioner"]

TargetFactory = Callable[[], Target]

#: sentinel closing a node connection's outbound queue.
_CLOSE = object()

#: upper bound on a node's advertised capacity (a corrupted hello must
#: not convince the manager to funnel the whole campaign to one peer).
_MAX_CAPACITY = 256

#: a node mid-chunk looks for ``steal`` frames at most this often (a
#: 40 µs test should not pay a 12 µs ``select``); the manager revokes
#: only work the victim will not reach before it next looks.
_CONTROL_POLL_S = 0.001


class SensitivityPartitioner:
    """Orders a round's work queue by learned fault-space sensitivity.

    Implements the paper's §4 dynamic partitioning signal: each
    completed report yields a fitness proxy (crash > hang > test
    failure > clean, plus a bonus when the fault actually fired), and
    each axis of the originating scenario is credited with how strongly
    its *value* predicts that fitness — the deviation of the value's
    running mean from the global mean, accumulated through a
    sliding-window :class:`~repro.core.sensitivity.SensitivityTracker`.
    An axis whose values discriminate outcomes (``function=malloc``
    crashes, ``function=read`` doesn't) builds sensitivity; an axis
    whose values all behave alike stays flat.  ``arrange`` then sorts
    the pending queue so requests sharing a value on the most-sensitive
    axis sit together — nodes pulling chunks off the front receive
    contiguous regions of the currently-most-informative axis, sized by
    their capacity.  Before any feedback the queue is left in proposal
    order (uniform partitioning).
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


class _NodeConnection:
    """Manager-side state for one registered explorer node."""

    def __init__(self, name: str, sock: socket.socket, capacity: int) -> None:
        self.name = name
        self.sock = sock
        self.capacity = capacity
        #: free executor slots the node has declared and not yet been
        #: sent work for (the backpressure credit).
        self.slots = 0
        #: in-flight requests, by id.
        self.assigned: dict[int, TestRequest] = {}
        #: ids reassigned (stolen) to another node but possibly still
        #: executing here — a report for one of these is a steal race,
        #: not corruption, and is resolved first-report-wins.
        self.stolen_away: set[int] = set()
        #: graceful-leave state: a draining node receives no new work
        #: and is deregistered (``drained``) once its backlog empties.
        self.draining = False
        self.drained = False
        #: load accounting: reports absorbed from this node (one per
        #: request), and its busy time from its heartbeats.
        self.executed = 0
        self.busy_seconds = 0.0
        self.retired = False
        self.outbox: "queue.Queue[object]" = queue.Queue()
        #: this connection's wire tables; they die with it.
        self.session = WireSession()
        #: manager-clock stamps: ``welcome`` queued, the frame round trip
        #: from it to the first ``ready``, and since when the node has
        #: worked without a report (None: idle).
        self.welcomed_at = 0.0
        self.rtt: float | None = None
        self.started: float | None = None

    def enqueue(self, message: dict) -> int:
        """Queue a JSON frame for the writer thread; returns its size."""
        data = encode_frame(message)
        self.outbox.put(data)
        return len(data)


class SocketFabric:
    """TCP manager fabric: serves the wire protocol to explorer nodes.

    Construct, optionally :meth:`wait_for_nodes`, then hand to a
    :class:`~repro.cluster.explorer_node.ClusterExplorer` (ideally
    wrapped in a :class:`~repro.cluster.fault_tolerance.
    FaultTolerantFabric` for bounded retries on top of the fabric's own
    intra-round requeue).  ``listen`` is ``"host:port"``; port 0 binds
    an ephemeral port, readable afterwards from :attr:`port`.

    ``heartbeat_timeout`` bounds how stale a registered node's last
    beat may grow before the manager declares it dead and requeues its
    work; it must comfortably exceed the nodes' heartbeat interval.
    ``ready_timeout`` bounds how long a dispatch will wait with *zero*
    live nodes before failing the round.

    ``allow_join=False`` seals the fleet at first dispatch: a *new*
    node name registering mid-campaign is refused with an ``error``
    frame (a returning node — same name — may always re-register;
    reconnects are not joins).
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        expected_nodes: int = 1,
        *,
        name: str = "socket",
        ready_timeout: float = 30.0,
        heartbeat_timeout: float = 10.0,
        handshake_timeout: float = 5.0,
        partitioner: SensitivityPartitioner | None = None,
        allow_join: bool = True,
        clock: Callable[[], float] = time.monotonic,
        identity: str | None = None,
    ) -> None:
        if expected_nodes < 1:
            raise ClusterError(
                f"a socket fabric needs >= 1 expected node, got {expected_nodes}"
            )
        if ready_timeout <= 0 or heartbeat_timeout <= 0:
            raise ClusterError("socket fabric timeouts must be positive")
        self.name = name
        self.expected_nodes = expected_nodes
        self.ready_timeout = ready_timeout
        self.handshake_timeout = handshake_timeout
        self.health = FabricHealth()
        self.monitor = HeartbeatMonitor(
            liveness_timeout=heartbeat_timeout, clock=clock
        )
        self.partitioner = partitioner or SensitivityPartitioner()
        self.allow_join = allow_join
        #: the ``target/version/injector`` every node must announce
        #: (:attr:`NodeManager.identity`); None accepts any.
        self.identity = identity
        #: per-node seconds-per-test EWMA on the manager's own clock
        #: (hand-off to report arrival) — what work stealing ranks
        #: victims and admits steals by.
        self.latency = NodeLatencyTracker()
        self._clock = clock
        self._cond = threading.Condition()
        self._nodes: dict[str, _NodeConnection] = {}
        self._pending: dict[int, TestRequest] = {}
        self._unassigned: deque[TestRequest] = deque()
        self._reports: dict[int, TestReport] = {}
        self._round: "_Round | None" = None
        self._closed = False
        self._dispatched = False
        #: every node name that ever registered — distinguishes a
        #: returning node (reconnect) from a genuine mid-campaign join.
        self._seen_names: set[str] = set()
        #: ids stolen once already — never re-stolen (no ping-pong; a
        #: chunk is reassigned at most once per requeue, mirroring the
        #: requeue-to-front rule).
        self._stolen_once: set[int] = set()
        #: wire accounting (exported by :meth:`bind_metrics`).
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.frames_out = 0
        #: cumulative seconds spent encoding outbound work frames — the
        #: dispatch path's serialization cost, exported as the
        #: ``fabric.dispatch.encode_seconds`` gauge.
        self.encode_seconds = 0.0
        #: requests requeued off dead or replaced connections.
        self.requeued = 0
        #: well-formed reports that arrived after their round moved on.
        self.late_reports = 0
        #: total registrations, counting every re-registration.
        self.registrations = 0
        #: requests reassigned from a loaded node to an idle one.
        self.stolen = 0
        #: stolen requests the victim executed anyway (revocation race);
        #: resolved first-report-wins, so this counts wasted work only.
        self.steal_duplicates = 0
        #: nodes that drained and deregistered gracefully (not deaths).
        self.graceful_leaves = 0
        #: new node names registered after the first dispatch.
        self.mid_campaign_joins = 0
        #: steals considered and refused by the admission rule.
        self.steals_declined = 0
        #: reports that arrived whole / as a reference to a body their
        #: connection had already carried (the redundancy the wire found).
        self.report_bodies_inline = 0
        self.report_bodies_referenced = 0

        host, port = parse_endpoint(listen)
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._server.bind((host, port))
            self._server.listen(16)
        except OSError:
            self._server.close()
            raise
        self.host, self.port = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()

    # -- fabric interface ------------------------------------------------------

    def __len__(self) -> int:
        """Total declared capacity of the live fleet (min 1).

        This is what sizes the explorer's default speculative batch: a
        round should be wide enough to keep every advertised executor
        slot busy.
        """
        with self._cond:
            return max(
                1,
                sum(n.capacity for n in self._nodes.values() if not n.retired),
            )

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        """Dispatch a batch across the fleet; reports in request order.

        Work is handed out against each node's declared free slots
        (backpressure); a node lost mid-round has its chunk requeued to
        the survivors.  The call fails with :class:`~repro.errors.
        ClusterError` only when the fleet is empty for ``ready_timeout``
        seconds — at which point an enclosing
        :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric`
        backs off and retries the round.
        """
        if not requests:
            return []
        with self._cond:
            if self._closed:
                raise ClusterError(f"{self.name}: fabric is closed")
            round_ = self._round = _Round({r.request_id for r in requests})
            self._dispatched = True
            self.health.dispatches += 1
            self.health.requests += len(requests)
            # Requests still in flight from a round that gave up (no
            # live nodes) keep their place when the retry asks for them
            # again — execution is deterministic, so their reports
            # satisfy this round too.  Stale queue entries the new
            # round does not want are dropped.
            self._pending = {
                rid: r for rid, r in self._pending.items()
                if rid in round_.ids
            }
            self._stolen_once &= set(self._pending)
            for n in self._nodes.values():
                n.stolen_away &= set(self._pending)
            # A request is fresh unless a round that gave up left it in
            # flight (still in ``_pending``).  An id sitting in a
            # node's ``assigned`` dict but *not* in ``_pending`` is a
            # zombie: its round already completed through the other
            # side of a steal race, nobody is waiting for the node's
            # eventual late report, and trusting it here would leave
            # this round waiting forever.
            fresh = [
                r for r in requests
                if r.request_id not in self._pending
                and r.request_id not in self._reports
            ]
            self._pending.update({r.request_id: r for r in fresh})
            round_.missing -= self._reports.keys()
            wanted = deque(
                r for r in self._unassigned if r.request_id in round_.ids
            )
            queued = {r.request_id for r in wanted}
            wanted.extend(r for r in fresh if r.request_id not in queued)
            self._unassigned = deque(
                self.partitioner.arrange(list(wanted))
            )
            self._fill_nodes_locked()
            absent_since: float | None = None
            while True:
                if self._closed:
                    raise ClusterError(f"{self.name}: fabric is closed")
                if not round_.missing:
                    break
                self._expire_stale_nodes_locked()
                live = [n for n in self._nodes.values() if not n.retired]
                if live:
                    absent_since = None
                else:
                    now = self._clock()
                    if absent_since is None:
                        absent_since = now
                    elif now - absent_since >= self.ready_timeout:
                        self._round = None
                        raise ClusterError(
                            f"{self.name}: no live nodes for "
                            f"{self.ready_timeout:.1f}s with "
                            f"{len(round_.missing)} requests outstanding"
                        )
                self._fill_nodes_locked()
                self._cond.wait(timeout=0.1)
            ordered = [self._reports.pop(r.request_id) for r in requests]
            for r in requests:
                self._pending.pop(r.request_id, None)
            self._round = None
            return ordered

    # -- lifecycle -------------------------------------------------------------

    def wait_for_nodes(
        self, count: int | None = None, timeout: float = 60.0
    ) -> int:
        """Block until ``count`` nodes are registered (default:
        ``expected_nodes``); returns the live node count."""
        wanted = self.expected_nodes if count is None else count
        deadline = self._clock() + timeout
        with self._cond:
            while True:
                live = sum(
                    1 for n in self._nodes.values() if not n.retired
                )
                if live >= wanted:
                    return live
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise ClusterError(
                        f"{self.name}: {live}/{wanted} nodes registered "
                        f"after {timeout:.1f}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.2))

    def close(self, drain: bool = True) -> None:
        """Stop the fabric (idempotent).

        ``drain=True`` (the default) sends every node a ``shutdown``
        frame first, so nodes exit their serve loop gracefully;
        ``drain=False`` models a manager crash — connections just
        drop, and nodes enter their reconnect loop instead.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            nodes = list(self._nodes.values())
            self._cond.notify_all()
        for node in nodes:
            if drain:
                try:
                    node.enqueue({"type": "shutdown", "reason": "drain"})
                except WireError:  # pragma: no cover - shutdown always fits
                    pass
            node.outbox.put(_CLOSE)
            if not drain:
                _close_socket(node.sock)
        try:
            # Closing a listening socket does not wake a thread blocked
            # in accept() on Linux; shutting it down does (EINVAL).
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        _close_socket(self._server)
        self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "SocketFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    def node_stats(self) -> list[dict[str, object]]:
        """Per-node load accounting (``executed``: reports absorbed,
        one per request; ``busy_seconds``: the node's heartbeats) and
        the manager's own timings (per-test turnaround, frame round
        trip), for obs."""
        with self._cond:
            return [
                {
                    "node": n.name,
                    "capacity": n.capacity,
                    "in_flight": len(n.assigned),
                    "executed": n.executed,
                    "busy_seconds": n.busy_seconds,
                    "draining": n.draining or n.drained,
                    "per_test_seconds":
                        self.latency.per_test_seconds(n.name),
                    "rtt_seconds": n.rtt,
                }
                for n in self._nodes.values() if not n.retired
            ]

    def fleet_stats(self) -> dict[str, object]:
        """Elastic-fleet accounting: stealing and membership."""
        with self._cond:
            return {
                "nodes": sum(
                    1 for n in self._nodes.values() if not n.retired
                ),
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

    def bind_metrics(self, registry: "object") -> None:
        """Export wire/fleet gauges into a metrics registry snapshot.

        Idempotent per registry (the explorer binds any fabric that
        offers this hook; a fabric reused across explorers must not
        register duplicate collectors).
        """
        bound = getattr(self, "_bound_registries", None)
        if bound is None:
            bound = self._bound_registries = set()
        if id(registry) in bound:
            return
        bound.add(id(registry))

        def _collect(reg) -> None:
            stats = self.node_stats()
            reg.gauge("fabric.net.nodes").set(len(stats))
            reg.gauge("fabric.net.capacity").set(
                sum(int(s["capacity"]) for s in stats)
            )
            with self._cond:
                for counter in (
                    "bytes_in", "bytes_out", "frames_in", "frames_out",
                    "requeued", "late_reports", "registrations", "stolen",
                    "steal_duplicates", "steals_declined", "graceful_leaves",
                    "mid_campaign_joins", "report_bodies_inline",
                    "report_bodies_referenced",
                ):  # each exported as fabric.net.<its attribute name>
                    reg.gauge(f"fabric.net.{counter}").set(
                        getattr(self, counter)
                    )
                reg.gauge("fabric.dispatch.encode_seconds").set(
                    self.encode_seconds
                )
                completed = self.health.completed
                reg.gauge("fabric.net.bytes_per_test").set(
                    (self.bytes_in + self.bytes_out) / completed
                    if completed else 0.0
                )
            for s in stats:
                reg.gauge(
                    "fabric.worker_busy_seconds", worker=str(s["node"])
                ).set(float(s["busy_seconds"]))
                reg.gauge(
                    "fabric.worker_executed", worker=str(s["node"])
                ).set(int(s["executed"]))
                per_test = s["per_test_seconds"]
                if per_test is not None:
                    reg.gauge(
                        "fabric.node.per_test_seconds",
                        worker=str(s["node"]),
                    ).set(float(per_test))  # type: ignore[arg-type]

        registry.register_collector(_collect)  # type: ignore[attr-defined]

    def describe(self) -> str:
        with self._cond:
            live = sum(1 for n in self._nodes.values() if not n.retired)
        return (
            f"{self.name}: {self.host}:{self.port}, {live} nodes "
            f"(protocol v{PROTOCOL_VERSION})"
        )

    # -- internals: accept / per-connection service ----------------------------

    def _count_bytes_in(self, count: int) -> None:
        with self._cond:
            self.bytes_in += count

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # server socket closed: fabric shut down
            try:
                # Frames are small and latency-critical (a round blocks
                # on the last report); never let Nagle batch them.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            threading.Thread(
                target=self._serve_connection, args=(sock,),
                name=f"{self.name}-conn", daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """One node's session: handshake, then frame dispatch until EOF."""
        node: _NodeConnection | None = None
        try:
            node = self._handshake(sock)
            if node is None:
                return
            writer = threading.Thread(
                target=self._writer_loop, args=(node,),
                name=f"{self.name}-write-{node.name}", daemon=True,
            )
            writer.start()
            node.welcomed_at = self._clock()
            node.enqueue({
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "node": node.name,
                "manager": self.name,
            })
            sock.settimeout(None)
            while True:
                try:
                    message = recv_frame(
                        sock, self._count_bytes_in, node.session
                    )
                except WireError:
                    # Poisoned framing: count it, drop the connection,
                    # requeue — the manager survives garbage by design.
                    with self._cond:
                        self.health.corrupt_reports += 1
                    break
                if message is None:
                    break
                with self._cond:
                    self.frames_in += 1
                    self.monitor.beat(node.name)
                if not self._handle_frame(node, message):
                    break
        except OSError:
            pass
        finally:
            if node is not None:
                node.outbox.put(_CLOSE)
                with self._cond:
                    self._retire_locked(node)
                    self._fill_nodes_locked()
                    self._cond.notify_all()
            _close_socket(sock)

    def _handshake(self, sock: socket.socket) -> _NodeConnection | None:
        """Validate the hello frame; register (or re-register) the node."""
        sock.settimeout(self.handshake_timeout)
        try:
            hello = recv_frame(sock)
        except (WireError, OSError, TimeoutError):
            with self._cond:
                self.health.corrupt_reports += 1
            _close_socket(sock)
            return None
        if hello is None:
            _close_socket(sock)
            return None
        refusal: str | None = None
        version = hello.get("version")
        if hello.get("type") != "hello":
            refusal = f"expected hello, got {hello.get('type')!r}"
        elif type(version) is not int or version != PROTOCOL_VERSION:
            refusal = (
                f"protocol version mismatch: manager speaks "
                f"v{PROTOCOL_VERSION} only, node sent {version!r}"
            )
        elif self.identity not in (None, hello.get("identity")):
            refusal = (
                f"identity mismatch: the campaign runs {self.identity!r}, "
                f"node would run {hello.get('identity')!r}"
            )
        name = hello.get("node")
        capacity = hello.get("capacity")
        if refusal is None and (not isinstance(name, str) or not name):
            refusal = "hello carries no node name"
        if refusal is None and (
            not isinstance(capacity, int)
            or not 1 <= capacity <= _MAX_CAPACITY
        ):
            refusal = f"capacity must be 1..{_MAX_CAPACITY}, got {capacity!r}"
        if refusal is not None:
            with self._cond:
                self.health.corrupt_reports += 1
            try:
                send_frame(sock, {"type": "error", "reason": refusal})
            except OSError:
                pass
            _close_socket(sock)
            return None
        node = _NodeConnection(
            str(name), sock, int(capacity),  # type: ignore[arg-type]
        )
        with self._cond:
            if self._closed:
                node.retired = True
                _close_socket(sock)
                return None
            returning = node.name in self._seen_names
            if self._dispatched and not returning and not self.allow_join:
                # The fleet is sealed: a *new* name mid-campaign is a
                # join, and joins were not allowed.  A returning node
                # (same name) is a reconnect and always welcome.
                refusal = (
                    f"fleet is sealed: node {node.name!r} is a "
                    "mid-campaign join and the manager was started "
                    "without --allow-join"
                )
                node.retired = True
                try:
                    send_frame(sock, {"type": "error", "reason": refusal})
                except OSError:
                    pass
                _close_socket(sock)
                return None
            stale = self._nodes.get(node.name)
            if stale is not None:
                # Idempotent re-registration: the node came back before
                # its old connection was noticed dead.  Retire the stale
                # state (requeueing its in-flight chunk) and replace it.
                self._retire_locked(stale)
                stale.outbox.put(_CLOSE)
                _close_socket(stale.sock)
            if self._dispatched and not returning:
                # A genuine mid-campaign join: re-slice the remaining
                # queue so the joiner pulls a coherent region of the
                # fault space instead of the old plan's leftovers.
                self.mid_campaign_joins += 1
                if self._unassigned:
                    self._unassigned = deque(
                        self.partitioner.arrange(list(self._unassigned))
                    )
            self._seen_names.add(node.name)
            # Name order, fixed here: scheduling passes need not sort.
            self._nodes[node.name] = node
            self._nodes = dict(sorted(self._nodes.items()))
            self.registrations += 1
            # Manager-side stamp: node clocks are not comparable here.
            self.monitor.beat(node.name)
            self._cond.notify_all()
        return node

    def _handle_frame(self, node: _NodeConnection, message: dict) -> bool:
        """Dispatch one validated frame; False ends the session."""
        kind = message["type"]
        if kind == "ready":
            slots = message.get("slots")
            if not isinstance(slots, int) or slots < 0:
                with self._cond:
                    self.health.corrupt_reports += 1
                return False
            with self._cond:
                if node.rtt is None:
                    # One frame round trip, sampled twice: welcome →
                    # first ready on this clock, hello → welcome on the
                    # node's (a duration needs no shared epoch).  A
                    # stall only ever lengthens one: the smaller wins.
                    node.rtt = self._clock() - node.welcomed_at
                    theirs = message.get("rtt")
                    if isinstance(theirs, (int, float)) \
                            and 0 <= theirs < node.rtt:
                        node.rtt = theirs
                node.slots = min(slots, node.capacity - len(node.assigned))
                assigned = self._fill_nodes_locked()
                if not assigned:
                    node.enqueue({"type": "idle"})
            return True
        if kind == "drain":
            # Graceful leave: stop feeding this node; deregister
            # it once its backlog empties.  Deliberately distinct from
            # crash detection — no requeue, no worker_death, and the
            # HeartbeatMonitor plays no part.
            with self._cond:
                if not node.drained:
                    node.draining = True
                    self._maybe_finish_drain_locked(node)
            return True
        if kind in ("work", "report"):
            # The data plane is binary and flows one way: a ``report``
            # frame can only be JSON, and a node never sends ``work``.
            # Either is a protocol violation — poisoned like garbage.
            with self._cond:
                self.health.corrupt_reports += 1
            return False
        if kind == "report_batch":
            reports = message.get("reports")
            slots = message.get("slots")
            if not isinstance(reports, list) or not all(
                isinstance(r, TestReport) for r in reports
            ):
                with self._cond:
                    self.health.corrupt_reports += 1
                return False
            referenced = message.get("referenced")
            self._absorb_report_batch(
                node, reports, slots if isinstance(slots, int) else None,
                referenced if isinstance(referenced, int) else 0,
            )
            return True
        if kind == "heartbeat":
            # Liveness and busy time only: ``executed`` counts absorbed
            # reports, one per request; a node's own count would include
            # what a steal race made it run twice.
            with self._cond:
                busy = message.get("busy_seconds")
                if isinstance(busy, (int, float)):
                    node.busy_seconds = max(node.busy_seconds, float(busy))
            return True
        if kind == "bye":
            return False
        # Unknown-but-well-framed types are ignored for forward
        # compatibility within a protocol version.
        return True

    def _absorb_one_locked(
        self, node: _NodeConnection, report: TestReport
    ) -> None:
        """Classify and absorb one report (first-report-wins on steals)."""
        rid = report.request_id
        request = node.assigned.pop(rid, None)
        if request is None:
            if rid not in node.stolen_away:
                # Not addressed to in-flight work from this node:
                # either a stale duplicate or a fabricated id.
                self.health.corrupt_reports += 1
                return
            # The victim raced the steal frame and executed anyway.
            # Its report is as good as the thief's (determinism), so
            # the first to arrive wins; the loser is counted as pure
            # waste, never double-absorbed.
            node.stolen_away.discard(rid)
            request = self._pending.get(rid)
            if request is None:
                self.late_reports += 1
                return
        elif rid not in self._pending:
            # Legitimate but late: its round moved on and dropped
            # the request.  Discard — late reports never
            # double-account (same rule as FaultTolerantFabric).
            self.late_reports += 1
            return
        elif self._pending[rid] != request:
            # A zombie from an earlier round: the id was reused for a
            # *different* request after this node's round completed
            # behind its back (steal race, first report won).  The
            # node executed the old request — absorbing its report
            # for the new one would record the wrong result.
            self.late_reports += 1
            return
        if rid in self._reports:
            self.steal_duplicates += 1
            return
        self.partitioner.observe(request, report)
        self._reports[rid] = report
        if self._round is not None:
            self._round.missing.discard(rid)
        node.executed += 1
        node.busy_seconds += report.cost
        self.health.completed += 1

    def _absorb_report_batch(
        self,
        node: _NodeConnection,
        reports: list[TestReport],
        slots: int | None,
        referenced: int = 0,
    ) -> None:
        """Absorb one coalesced report frame under a single lock.

        The frame's piggybacked ``slots`` is the node's post-chunk
        backpressure credit, so refilling happens here too — one lock
        round-trip per chunk instead of one per test.  It also closes a
        turnaround: its tests took the node from ``started`` to now.
        """
        with self._cond:
            now = self._clock()
            if node.started is not None:
                self.latency.observe(
                    node.name, len(reports), now - node.started
                )
            self.report_bodies_referenced += referenced
            self.report_bodies_inline += len(reports) - referenced
            for report in reports:
                self._absorb_one_locked(node, report)
            node.started = now if node.assigned else None
            if slots is not None and not node.retired:
                # A node announces its whole capacity after each chunk,
                # even while a later chunk sent to it waits unread in its
                # socket: what it still holds counts against that.
                node.slots = min(slots, node.capacity - len(node.assigned))
                self._fill_nodes_locked()
            self._maybe_finish_drain_locked(node)
            if self._round is not None and not self._round.missing:
                # Only a complete round needs its waiter (retire,
                # registration, close and the 0.1 s timeout have theirs).
                self._cond.notify_all()

    def _writer_loop(self, node: _NodeConnection) -> None:
        while True:
            item = node.outbox.get()
            if item is _CLOSE:
                return
            try:
                node.sock.sendall(item)  # type: ignore[arg-type]
                with self._cond:
                    self.bytes_out += len(item)  # type: ignore[arg-type]
                    self.frames_out += 1
            except OSError:
                # Reader notices the dead socket and retires the node.
                _close_socket(node.sock)
                return

    # -- internals: scheduling (all called with self._cond held) ---------------

    def _send_chunk_locked(
        self, node: _NodeConnection, chunk: list[TestRequest]
    ) -> None:
        """Assign ``chunk`` to ``node`` and enqueue the work frame."""
        node.slots -= len(chunk)
        if not node.assigned:
            node.started = self._clock()
        node.assigned.update({r.request_id: r for r in chunk})
        started = time.perf_counter()
        # One stream, one order: encoded against this node's tables and
        # queued on its FIFO outbox inside the same critical section.
        data = encode_work_frame(chunk, node.session)
        self.encode_seconds += time.perf_counter() - started
        node.outbox.put(data)

    def _fill_nodes_locked(self) -> int:
        """Hand queued work to nodes with free slots; returns count sent.

        When the queue drains while credit is still outstanding, the
        leftover slots turn into work-stealing: backlog is reassigned
        from the most-loaded node instead of idling the fleet's tail.
        """
        sent = 0
        for node in self._nodes.values():
            if not self._unassigned:
                break
            if node.retired or node.draining or node.slots <= 0:
                continue
            chunk: list[TestRequest] = []
            while self._unassigned and len(chunk) < node.slots:
                chunk.append(self._unassigned.popleft())
            if not chunk:
                continue
            self._send_chunk_locked(node, chunk)
            sent += len(chunk)
        if not self._unassigned and self._round is not None:
            sent += self._steal_locked()
        return sent

    def _steal_locked(self) -> int:
        """Reassign backlog from loaded nodes to idle slots.

        The victim is the live node with the longest *estimated
        remaining time* (backlog × per-test turnaround) among those
        with at least two stealable requests — the head of its queue is
        left alone because it is most likely already executing — and
        only as much of its tail moves as :meth:`_admitted_locked`
        measures to pay.  The steal is announced with a ``steal`` frame
        so the victim skips the revoked ids.  Each id is stolen at most
        once (no ping-pong between a fast pair of nodes).
        """
        moved = 0
        now = self._clock()
        for thief in self._nodes.values():
            if thief.retired or thief.draining:
                continue
            while thief.slots > 0:
                victim = self._steal_victim_locked(thief)
                if victim is None:
                    break
                stealable = [
                    rid for rid in victim.assigned
                    if rid in self._pending and rid not in self._stolen_once
                ]
                take = self._admitted_locked(
                    thief, victim, len(stealable), now
                )
                if take <= 0:
                    self.steals_declined += 1
                    break
                ids = stealable[-take:]
                chunk = [victim.assigned.pop(rid) for rid in ids]
                victim.stolen_away.update(ids)
                self._stolen_once.update(ids)
                # Revoke at the victim *before* the thief's work frame
                # is even queued: the victim is grinding serially, so
                # every skipped id is a whole execution saved.
                victim.enqueue({"type": "steal", "ids": ids})
                self._send_chunk_locked(thief, chunk)
                self.stolen += len(chunk)
                moved += len(chunk)
        return moved

    def _admitted_locked(
        self, thief: _NodeConnection, victim: _NodeConnection,
        stealable: int, now: float,
    ) -> int:
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
        done already, plus one :data:`_CONTROL_POLL_S`.
        """
        per_thief = self.latency.estimate(thief.name, 1)
        usual = self.latency.estimate(victim.name, 1)
        in_hand = len(victim.assigned) + len(victim.stolen_away)
        silent = 0.0 if victim.started is None else now - victim.started
        per_victim = max(usual, silent / in_hand)
        blind = 0.0 if per_victim >= _CONTROL_POLL_S else \
            min(silent, in_hand * usual) + _CONTROL_POLL_S
        held = len(thief.assigned)
        take = min(thief.slots, stealable - 1)
        while take > 0 and (stealable - take) * per_victim < max(
            blind, (thief.rtt or 0.0) + (held + take) * per_thief
        ):
            take -= 1
        return take

    def _steal_victim_locked(
        self, thief: _NodeConnection
    ) -> _NodeConnection | None:
        """The node worth stealing from, by estimated remaining time."""
        best: _NodeConnection | None = None
        best_estimate = 0.0
        for node in self._nodes.values():
            if node.retired or node is thief:
                continue
            backlog = sum(
                1 for rid in node.assigned
                if rid in self._pending and rid not in self._stolen_once
            )
            if backlog < 2:
                continue
            estimate = self.latency.estimate(node.name, backlog)
            if best is None or estimate > best_estimate:
                best, best_estimate = node, estimate
        return best

    def _maybe_finish_drain_locked(self, node: _NodeConnection) -> None:
        """Deregister a draining node whose backlog has emptied."""
        if not node.draining or node.drained or node.retired:
            return
        if node.assigned:
            return
        node.drained = True
        node.enqueue({"type": "shutdown", "reason": "drained"})
        self.graceful_leaves += 1
        self.health.graceful_exits += 1

    def _retire_locked(self, node: _NodeConnection) -> None:
        """Drop a connection; requeue its in-flight work (idempotent)."""
        if node.retired:
            return
        node.retired = True
        if self._nodes.get(node.name) is node:
            del self._nodes[node.name]
            self.latency.forget(node.name)
        stranded = [
            r for rid, r in node.assigned.items() if rid in self._pending
        ]
        node.assigned.clear()
        # Stolen-away ids belong to their thief now; losing the victim
        # must not requeue them (that would be the double-dispatch the
        # first-report-wins rule exists to prevent).
        node.stolen_away.clear()
        if stranded:
            # Requeue at the front: stranded work is the round's
            # critical path.
            self._unassigned.extendleft(reversed(stranded))
            self.requeued += len(stranded)
            self.health.record_retry("error", len(stranded))

    def _expire_stale_nodes_locked(self) -> None:
        """Declare silent nodes dead (heartbeat liveness enforcement)."""
        now = self._clock()
        for node in list(self._nodes.values()):
            if node.retired:
                continue
            last = self.monitor.last_beat(node.name)
            if last is not None and \
                    now - last >= self.monitor.liveness_timeout:
                # Closing the socket wakes the node's reader thread,
                # which performs the actual retire + requeue.
                self.health.worker_deaths += 1
                _close_socket(node.sock)
                node.outbox.put(_CLOSE)
                self._retire_locked(node)


class _Round:
    """One run_batch invocation's bookkeeping."""

    __slots__ = ("ids", "missing")

    def __init__(self, ids: set[int]) -> None:
        self.ids = ids
        #: ids still without a report; the round is over when empty.
        self.missing = set(ids)


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


class ExplorerNode:
    """Node-side client: executes pulled work against a local target.

    Connects to a :class:`SocketFabric` manager, registers with its
    declared ``capacity``, then loops: announce free slots (``ready``),
    execute the pulled chunk on a warm local
    :class:`~repro.cluster.manager.NodeManager`, and report results as
    one coalesced binary ``report_batch`` frame per chunk, which also
    carries the refreshed slot count.  A background thread emits
    ``heartbeat`` frames every ``heartbeat_interval`` seconds so a node
    grinding through a slow chunk is still visibly alive.

    A dropped connection (manager crash, network fault) sends the node
    into a reconnect loop with exponential backoff under
    ``reconnect_policy``; re-registration is idempotent manager-side.
    A ``shutdown`` frame ends :meth:`run` gracefully.  The attempt
    counter resets after every successful registration, so a bounded
    policy limits *consecutive* failures, not lifetime reconnects.

    Elastic-fleet behaviour: the node honors
    ``steal`` frames by *skipping* revoked requests (polled between
    tests, so a steal lands mid-chunk) and leaves gracefully via
    :meth:`request_drain` — or automatically after ``drain_after``
    executed tests — by sending a ``drain`` frame and waiting for the
    manager's ``shutdown``.  A node executes every request it keeps:
    what not to run is the manager's explorer's decision.
    """

    def __init__(
        self,
        connect: str | tuple[str, int],
        target_factory: TargetFactory,
        *,
        name: str | None = None,
        capacity: int = 4,
        reconnect_policy: RetryPolicy | None = None,
        heartbeat_interval: float = 1.0,
        connect_timeout: float = 5.0,
        drain_after: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        injector_factory: Callable[[], object] | None = None,
    ) -> None:
        if capacity < 1 or capacity > _MAX_CAPACITY:
            raise ClusterError(
                f"node capacity must be 1..{_MAX_CAPACITY}, got {capacity}"
            )
        if heartbeat_interval <= 0:
            raise ClusterError(
                f"heartbeat interval must be positive, got {heartbeat_interval}"
            )
        self.endpoint = (
            parse_endpoint(connect) if isinstance(connect, str)
            else (str(connect[0]), int(connect[1]))
        )
        self.target_factory = target_factory
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.capacity = capacity
        self.reconnect_policy = reconnect_policy or RetryPolicy(
            max_attempts=30, base_delay=0.05, max_delay=2.0
        )
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        if drain_after is not None and drain_after < 1:
            raise ClusterError(
                f"drain_after must be >= 1 tests, got {drain_after}"
            )
        self.drain_after = drain_after
        #: optional zero-argument injector factory (e.g. a fault-model
        #: stack); None keeps the node manager's default errno model.
        self.injector_factory = injector_factory
        self._sleep = sleep
        self._rng = random.Random(0)
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._drain_sent = False
        self._sock: socket.socket | None = None
        self._sock_lock = threading.Lock()
        self._manager: NodeManager | None = None
        #: ids revoked by ``steal`` frames — skipped, not executed.
        self._revoked: set[int] = set()
        #: the current connection's wire tables (fresh per session).
        self._session = WireSession()
        #: lifetime counters, surfaced by the CLI banner.
        self.executed = 0
        self.connections = 0
        #: revoked requests this node skipped (work saved by a steal).
        self.stolen_skipped = 0

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> None:
        """Serve until the manager drains us (or the retry budget dies).

        Raises :class:`~repro.errors.ClusterError` when
        ``reconnect_policy.max_attempts`` *consecutive* connection
        attempts fail; returns normally after a ``shutdown`` frame or
        :meth:`stop`.
        """
        attempt = 0
        while not self._stop.is_set():
            try:
                sock = socket.create_connection(
                    self.endpoint, timeout=self.connect_timeout
                )
            except OSError as exc:
                attempt += 1
                if attempt >= self.reconnect_policy.max_attempts:
                    raise ClusterError(
                        f"node {self.name!r}: manager at "
                        f"{self.endpoint[0]}:{self.endpoint[1]} unreachable "
                        f"after {attempt} attempts: {exc!r}"
                    ) from exc
                self._sleep(
                    self.reconnect_policy.delay_for(attempt, self._rng)
                )
                continue
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            with self._sock_lock:
                self._sock = sock
            try:
                registered, finished = self._serve(sock)
            except (OSError, WireError):
                registered, finished = False, False
            finally:
                with self._sock_lock:
                    self._sock = None
                _close_socket(sock)
            if finished or self._stop.is_set():
                return
            if registered:
                attempt = 0  # consecutive-failure budget, not lifetime
            attempt += 1
            if attempt >= self.reconnect_policy.max_attempts:
                raise ClusterError(
                    f"node {self.name!r}: {attempt} consecutive failed "
                    "sessions; giving up"
                )
            self._sleep(self.reconnect_policy.delay_for(attempt, self._rng))

    def run_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread (in-process tests, embedding)."""
        thread = threading.Thread(
            target=self._run_quietly, name=f"explorer-node-{self.name}",
            daemon=True,
        )
        thread.start()
        return thread

    def _run_quietly(self) -> None:
        try:
            self.run()
        except ClusterError:
            pass  # retry budget exhausted; thread just ends

    def stop(self) -> None:
        """Abort the serve/reconnect loop from another thread."""
        self._stop.set()
        with self._sock_lock:
            if self._sock is not None:
                _close_socket(self._sock)

    def request_drain(self) -> None:
        """Leave the fleet gracefully: finish the backlog, then exit.

        Sends a ``drain`` frame (on the next serve-loop or heartbeat
        tick) telling the manager to stop feeding this node and to
        deregister it once its in-flight work is absorbed; the manager
        answers with a ``shutdown`` frame and :meth:`run` returns.
        Unlike :meth:`stop`, no work is cut off and nothing gets
        requeued — the distinction between *leaving* and *dying*.
        """
        self._drain.set()

    # -- one connected session -------------------------------------------------

    def _serve(self, sock: socket.socket) -> tuple[bool, bool]:
        """One session; returns (registered, finished-for-good)."""
        # Revocations are scoped to the manager session that issued
        # them: a connection that died mid-chunk skipped the usual
        # end-of-chunk reset, and honoring its leftovers against a
        # restarted manager (which reuses request ids) would silently
        # swallow fresh work.
        self._revoked.clear()
        # So are the wire tables: a reconnect starts both ends empty.
        self._session = WireSession()
        write_lock = threading.Lock()

        def _send(message: dict) -> None:
            with write_lock:
                send_frame(sock, message)

        def _send_reports(reports: list[TestReport]) -> None:
            # Encoded under the write lock: a frame encoded against the
            # session must be the next data frame on the wire.
            with write_lock:
                sock.sendall(encode_report_frame(
                    reports, self.capacity, self._session
                ))

        sock.settimeout(self.connect_timeout)
        identity = self._node_manager().identity  # built outside the rtt
        hello_at = time.monotonic()
        _send({
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "node": self.name,
            "capacity": self.capacity,
            "identity": identity,
        })
        welcome = recv_frame(sock)
        rtt = time.monotonic() - hello_at
        if welcome is None:
            return False, False
        if welcome.get("type") == "error":
            raise ClusterError(
                f"node {self.name!r} refused by manager: "
                f"{welcome.get('reason')}"
            )
        if welcome.get("type") != "welcome" \
                or welcome.get("version") != PROTOCOL_VERSION:
            raise ClusterError(
                f"node {self.name!r}: bad welcome frame {welcome!r}"
            )
        self.connections += 1
        self._drain_sent = False
        sock.settimeout(None)
        hb_stop = threading.Event()
        hb_thread = threading.Thread(
            target=self._heartbeat_loop, args=(_send, hb_stop),
            name=f"{self.name}-heartbeat", daemon=True,
        )
        hb_thread.start()
        #: frames drained off the socket mid-chunk (while polling for
        #: steal revocations) that the main loop must still handle.
        inbox: deque[dict] = deque()
        try:
            _send({"type": "ready", "slots": self.capacity, "rtt": rtt})
            self._maybe_send_drain(_send)
            while True:
                message = inbox.popleft() if inbox \
                    else recv_frame(sock, session=self._session)
                if message is None:
                    return True, False  # manager dropped: reconnect
                kind = message.get("type")
                if kind == "work":
                    self._execute_chunk(message, _send_reports, sock, inbox)
                    if self._stop.is_set():
                        return True, True
                    self._maybe_send_drain(_send)
                elif kind == "steal":
                    # Between chunks a revocation is usually stale (the
                    # chunk already reported), but a queued work frame
                    # may still be behind it in the socket buffer.
                    self._absorb_steal(message)
                elif kind == "shutdown":
                    try:
                        _send({"type": "bye"})
                    except OSError:  # pragma: no cover - manager gone
                        pass
                    return True, True
                elif kind == "idle":
                    self._maybe_send_drain(_send)
                else:
                    continue  # forward compatibility
        finally:
            hb_stop.set()
            hb_thread.join(timeout=1.0)

    def _maybe_send_drain(self, send: Callable[[dict], None]) -> None:
        """Emit the graceful-leave frame once per drained session."""
        if not self._drain.is_set() or self._drain_sent:
            return
        self._drain_sent = True
        send({"type": "drain", "node": self.name})

    def _absorb_steal(self, message: dict) -> None:
        ids = message.get("ids")
        if isinstance(ids, list):
            self._revoked.update(
                i for i in ids
                if isinstance(i, int) and not isinstance(i, bool)
            )

    def _poll_control(self, sock: socket.socket, inbox: deque) -> None:
        """Drain control frames already buffered on the socket.

        Called between tests inside a chunk so a ``steal`` revocation
        can still save the remaining stolen executions; any other frame
        is stashed for the main serve loop.  Zero-timeout select: this
        never blocks the executor.
        """
        while True:
            try:
                readable, _, _ = select.select([sock], [], [], 0)
            except (OSError, ValueError):  # pragma: no cover - closing
                return
            if not readable:
                return
            message = recv_frame(sock, session=self._session)
            if message is None:
                raise OSError("manager closed mid-chunk")
            kind = message.get("type")
            if kind == "steal":
                self._absorb_steal(message)
            else:
                inbox.append(message)

    def _execute_chunk(
        self,
        message: dict,
        send_reports: "Callable[[list[TestReport]], None]",
        sock: socket.socket,
        inbox: deque,
    ) -> None:
        """Run every request in a work frame and report the results.

        The whole chunk's reports coalesce into a single binary
        ``report_batch`` frame that also carries the node's refreshed
        slot count.  The socket is polled between tests (at most every
        :data:`_CONTROL_POLL_S`) so a ``steal`` revocation arriving
        mid-chunk skips the remaining stolen executions instead of
        duplicating them on the thief.
        """
        requests = message.get("requests")
        if not isinstance(requests, list) or not all(
            isinstance(r, TestRequest) for r in requests
        ):
            # Only the binary codec yields TestRequest objects: a JSON
            # ``work`` frame is a protocol violation, not work.
            raise WireError(f"work frame is not a binary batch: {message!r}")
        manager = self._node_manager()
        reports: list[TestReport] = []
        # The first test always polls: a ``steal`` for this chunk may
        # already sit behind its work frame in the socket buffer.
        polled = 0.0
        for request in requests:
            now = time.monotonic()
            if now - polled >= _CONTROL_POLL_S:
                polled = now
                self._poll_control(sock, inbox)
            if request.request_id in self._revoked:
                self._revoked.discard(request.request_id)
                self.stolen_skipped += 1
                continue
            reports.append(manager.execute(request))
            self.executed += 1
            if self.drain_after is not None \
                    and self.executed >= self.drain_after:
                self._drain.set()
            if self._stop.is_set():
                break
        # Nothing of this chunk is outstanding any more — but a chunk
        # already waiting in the inbox is, and so are its revocations.
        if not any(queued.get("type") == "work" for queued in inbox):
            self._revoked.clear()
        send_reports(reports)

    def _heartbeat_loop(
        self, send: Callable[[dict], None], stop: threading.Event
    ) -> None:
        while not stop.wait(self.heartbeat_interval):
            manager = self._manager
            try:
                # The serve loop usually sends the drain frame itself;
                # this covers request_drain() from another thread while
                # the node sits idle in recv_frame.
                self._maybe_send_drain(send)
                send({
                    "type": "heartbeat",
                    "node": self.name,
                    "busy_seconds":
                        0.0 if manager is None else manager.busy_seconds,
                    # Node-local monotonic time: NOT comparable to the
                    # manager's clock; carried for debugging only.  The
                    # manager stamps liveness with its own clock on
                    # receipt.
                    "sent_at": time.monotonic(),
                })
            except OSError:
                return

    def _node_manager(self) -> NodeManager:
        """The warm local executor (built for the first hello, then reused)."""
        if self._manager is None:
            self._manager = NodeManager(
                self.name, self.target_factory(),
                injector=(self.injector_factory()
                          if self.injector_factory is not None else None),
            )
        return self._manager

    def describe(self) -> str:
        return (
            f"explorer node {self.name!r} -> "
            f"{self.endpoint[0]}:{self.endpoint[1]}, "
            f"capacity {self.capacity}, {self.executed} tests executed"
        )
