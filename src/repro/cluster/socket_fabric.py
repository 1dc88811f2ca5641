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

Both classes are I/O shells around the pure state machines of
:mod:`repro.cluster.fleet`, which make every scheduling decision (who
gets which chunk, stealing, first-report-wins, requeue-to-front, drain,
liveness on the manager's clock, revocations at the node).  The manager
keeps accept, the handshake, a reader and a writer thread per
connection, frame encode/decode and one lock around each core call;
the node keeps connect/reconnect, its heartbeat thread and execution.
docs/DISTRIBUTED.md has the failure matrix.
"""

from __future__ import annotations

import operator
import os
import queue
import random
import select
import socket
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.cluster.fault_tolerance import RetryPolicy
from repro.cluster.fleet import (
    CONTROL_POLL_S,
    DROP,
    FAIL,
    IDLE,
    STEAL,
    WORK,
    ManagerCore,
    NodeCore,
    NodeState,
)
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
from repro.errors import ClusterError
from repro.sim.testsuite import Target

__all__ = ["SocketFabric", "ExplorerNode"]

TargetFactory = Callable[[], Target]

#: sentinel closing a node connection's outbound queue.
_CLOSE = object()

#: upper bound on a node's advertised capacity (a corrupted hello must
#: not convince the manager to funnel the whole campaign to one peer).
_MAX_CAPACITY = 256

#: how long a fresh connection may take to send its hello.
_HANDSHAKE_TIMEOUT_S = 5.0


class _Link:
    """One node connection's transport: socket, outbound FIFO, tables."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.outbox: "queue.Queue[object]" = queue.Queue()
        #: this connection's wire tables; they die with it.
        self.session = WireSession()

    def enqueue(self, message: dict) -> None:
        """Queue a JSON frame for the writer thread."""
        self.outbox.put(encode_frame(message))

    def drop(self) -> None:
        _close_socket(self.sock)
        self.outbox.put(_CLOSE)


class SocketFabric:
    """TCP manager fabric: serves the wire protocol to explorer nodes.

    Construct, optionally :meth:`wait_for_nodes`, then hand to a
    :class:`~repro.cluster.explorer_node.ClusterExplorer` (ideally
    wrapped in a :class:`~repro.cluster.fault_tolerance.
    FaultTolerantFabric` for bounded retries on top of the fabric's own
    intra-round requeue).  ``listen`` is ``"host:port"``; port 0 binds
    an ephemeral port, readable afterwards from :attr:`port`.

    ``heartbeat_timeout`` bounds how stale a registered node's last
    frame may grow before the manager declares it dead and requeues its
    work; it must comfortably exceed the nodes' heartbeat interval.
    ``ready_timeout`` bounds how long a dispatch will wait with *zero*
    live nodes before failing the round.

    ``allow_join=False`` seals the fleet at first dispatch: a *new*
    node name registering mid-campaign is refused with an ``error``
    frame (a returning node — same name — may always re-register;
    reconnects are not joins).  The scheduling state and its counters
    (``stolen``, ``requeued``, ...) are :attr:`core`'s.
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        expected_nodes: int = 1,
        *,
        name: str = "socket",
        ready_timeout: float = 30.0,
        heartbeat_timeout: float = 10.0,
        allow_join: bool = True,
        identity: str | None = None,
    ) -> None:
        if expected_nodes < 1:
            raise ClusterError(
                f"a socket fabric needs >= 1 expected node, got {expected_nodes}"
            )
        self.name = name
        self.expected_nodes = expected_nodes
        self.ready_timeout = ready_timeout
        #: the ``target/version/injector`` every node must announce
        #: (:attr:`NodeManager.identity`); None accepts any.
        self.identity = identity
        self.core = ManagerCore(
            liveness_timeout=heartbeat_timeout, ready_timeout=ready_timeout,
            allow_join=allow_join,
        )
        self.health = self.core.health
        self._cond = threading.Condition()
        self._closed = False
        #: wire accounting (exported by :meth:`bind_metrics`).
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.frames_out = 0
        #: cumulative seconds spent encoding outbound work frames — the
        #: dispatch path's serialization cost, exported as the
        #: ``fabric.dispatch.encode_seconds`` gauge.
        self.encode_seconds = 0.0

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
        """Total declared capacity of the live fleet (min 1): what sizes
        the explorer's default batch."""
        with self._cond:
            return self.core.width()

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
        core = self.core
        with self._cond:
            if self._closed:
                raise ClusterError(f"{self.name}: fabric is closed")
            self._apply(core.begin_round(requests, time.monotonic()))
            while True:
                if self._closed:
                    raise ClusterError(f"{self.name}: fabric is closed")
                if core.round_done:
                    return core.end_round(requests)
                self._apply(core.tick(time.monotonic()))
                self._cond.wait(timeout=0.1)

    # -- lifecycle -------------------------------------------------------------

    def wait_for_nodes(
        self, count: int | None = None, timeout: float = 60.0
    ) -> int:
        """Block until ``count`` nodes are registered (default:
        ``expected_nodes``); returns the live node count."""
        wanted = self.expected_nodes if count is None else count
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                live = len(self.core.nodes)
                if live >= wanted:
                    return live
                remaining = deadline - time.monotonic()
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
            links = [node.conn for node in self.core.nodes.values()]
            self._cond.notify_all()
        for link in links:
            if drain:
                link.enqueue({"type": "shutdown", "reason": "drain"})
                link.outbox.put(_CLOSE)
            else:
                link.drop()
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
            return self.core.node_stats()

    def fleet_stats(self) -> dict[str, object]:
        """Elastic-fleet accounting: stealing and membership."""
        with self._cond:
            return self.core.fleet_stats()

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
                    *ManagerCore.COUNTERS,
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
            live = len(self.core.nodes)
        return (
            f"{self.name}: {self.host}:{self.port}, {live} nodes "
            f"(protocol v{PROTOCOL_VERSION})"
        )

    # -- internals -------------------------------------------------------------

    def _apply(self, effects: list) -> None:
        """Perform the core's effects, in order (``self._cond`` held).

        One stream, one order: a work frame is encoded against its
        connection's tables and queued on its FIFO outbox inside the
        critical section that decided it.
        """
        for kind, link, payload in effects:
            if kind == WORK:
                started = time.perf_counter()
                data = encode_work_frame(payload, link.session)
                self.encode_seconds += time.perf_counter() - started
                link.outbox.put(data)
            elif kind == STEAL:
                link.enqueue({"type": "steal", "ids": payload})
            elif kind == IDLE:
                link.enqueue({"type": "idle"})
            elif kind == DROP:
                link.drop()
            elif kind == FAIL:
                raise ClusterError(
                    f"{self.name}: no live nodes for "
                    f"{self.ready_timeout:.1f}s with {payload} requests "
                    "outstanding"
                )
            else:
                link.enqueue({"type": "shutdown", "reason": payload})

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
        node: NodeState | None = None
        try:
            node = self._handshake(sock)
            if node is None:
                return
            link = node.conn
            threading.Thread(
                target=self._writer_loop, args=(link,),
                name=f"{self.name}-write-{node.name}", daemon=True,
            ).start()
            # The welcome round trip starts when the frame is queued.
            node.welcomed_at = time.monotonic()
            link.enqueue({
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "node": node.name,
                "manager": self.name,
            })
            sock.settimeout(None)
            while True:
                try:
                    message = recv_frame(
                        sock, self._count_bytes_in, link.session
                    )
                except WireError:
                    # Poisoned framing: count it, drop the connection,
                    # requeue — the manager survives garbage by design.
                    with self._cond:
                        self.health.corrupt_reports += 1
                    break
                if message is None or not self._handle_frame(node, message):
                    break
        except OSError:
            pass
        finally:
            if node is not None:
                node.conn.outbox.put(_CLOSE)
                with self._cond:
                    self._apply(self.core.lost(node, time.monotonic()))
                    self._cond.notify_all()
            _close_socket(sock)

    def _handshake(self, sock: socket.socket) -> NodeState | None:
        """Validate the hello frame; register (or re-register) the node."""
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
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
        name = hello.get("node")
        capacity = hello.get("capacity")
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
        elif not isinstance(name, str) or not name:
            refusal = "hello carries no node name"
        elif not isinstance(capacity, int) \
                or not 1 <= capacity <= _MAX_CAPACITY:
            refusal = f"capacity must be 1..{_MAX_CAPACITY}, got {capacity!r}"
        with self._cond:
            if refusal is not None:
                self.health.corrupt_reports += 1
            elif self._closed:
                _close_socket(sock)
                return None
            else:
                node, effects = self.core.register(
                    _Link(sock), name, capacity, time.monotonic()
                )
                if isinstance(node, NodeState):
                    self._apply(effects)
                    self._cond.notify_all()
                    return node
                refusal = node  # the fleet is sealed
        try:
            send_frame(sock, {"type": "error", "reason": refusal})
        except OSError:
            pass
        _close_socket(sock)
        return None

    def _handle_frame(self, node: NodeState, message: dict) -> bool:
        """Hand one decoded frame to the core; False ends the session.

        Every frame is a liveness beat, stamped on the manager's clock on
        receipt (a node's own clock means nothing here).  The data plane
        is binary and flows one way: a JSON ``report``, any ``work`` from
        a node, or a malformed ``ready``/``report_batch`` is poisoned
        like garbage.
        """
        kind, get = message["type"], message.get
        if kind == "report_batch":
            reports = get("reports")
            if not isinstance(reports, list) or not all(
                isinstance(r, TestReport) for r in reports
            ):
                kind = "invalid"
        elif kind == "ready":
            slots = get("slots")
            if not isinstance(slots, int) or slots < 0:
                kind = "invalid"
        elif kind in ("work", "report"):
            kind = "invalid"
        core = self.core
        with self._cond:
            now = time.monotonic()
            self.frames_in += 1
            # A heartbeat also carries the node's busy time; ``executed``
            # counts absorbed reports instead, one per request.
            busy = get("busy_seconds") if kind == "heartbeat" else None
            core.beat(node, now, float(busy)
                      if isinstance(busy, (int, float)) else None)
            if kind == "report_batch":
                slots, referenced = get("slots"), get("referenced")
                self._apply(core.report_batch(
                    node, reports, slots if isinstance(slots, int) else None,
                    referenced if isinstance(referenced, int) else 0, now,
                ))
                if core.round_done:
                    # Only a complete round needs its waiter (lost
                    # connections, registration, close and the 0.1 s
                    # timeout have theirs).
                    self._cond.notify_all()
            elif kind == "ready":
                rtt = get("rtt")
                self._apply(core.ready(
                    node, slots,
                    rtt if isinstance(rtt, (int, float)) else None, now,
                ))
            elif kind == "drain":
                self._apply(core.drain(node))
            elif kind == "invalid":
                self.health.corrupt_reports += 1
        # Unknown-but-well-framed types are ignored for forward
        # compatibility within a protocol version.
        return kind not in ("invalid", "bye")

    def _writer_loop(self, link: _Link) -> None:
        while True:
            item = link.outbox.get()
            if item is _CLOSE:
                return
            try:
                link.sock.sendall(item)  # type: ignore[arg-type]
                with self._cond:
                    self.bytes_out += len(item)  # type: ignore[arg-type]
                    self.frames_out += 1
            except OSError:
                # Reader notices the dead socket and retires the node.
                _close_socket(link.sock)
                return


# The scheduling counters read through to the core.
for _counter in ManagerCore.COUNTERS:
    setattr(SocketFabric, _counter,
            property(operator.attrgetter(f"core.{_counter}")))
del _counter


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

    Elastic-fleet behaviour: ``steal`` frames revoke held requests
    (polled between tests, so a steal lands mid-chunk), and the node
    leaves gracefully via :meth:`request_drain` — or automatically after
    ``drain_after`` executed tests — by sending a ``drain`` frame and
    waiting for the manager's ``shutdown``.  What to revoke and when to
    drain is :attr:`core`'s (:class:`~repro.cluster.fleet.NodeCore`); a
    node executes every request it keeps.
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
        self.core = NodeCore(drain_after)
        #: optional zero-argument injector factory (e.g. a fault-model
        #: stack); None keeps the node manager's default errno model.
        self.injector_factory = injector_factory
        self._sleep = sleep
        self._rng = random.Random(0)
        self._stop = threading.Event()
        #: the serve loop and the heartbeat thread both offer the drain.
        self._drain_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._sock_lock = threading.Lock()
        self._manager: NodeManager | None = None
        #: the current connection's wire tables (fresh per session).
        self._session = WireSession()
        #: lifetime count of registered sessions, for the CLI banner.
        self.connections = 0

    @property
    def executed(self) -> int:
        """Requests this node executed, over its lifetime."""
        return self.core.executed

    @property
    def stolen_skipped(self) -> int:
        """Revoked requests this node skipped (work a steal saved)."""
        return self.core.skipped

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
        self.core.drain_requested = True

    # -- one connected session -------------------------------------------------

    def _serve(self, sock: socket.socket) -> tuple[bool, bool]:
        """One session; returns (registered, finished-for-good)."""
        # Revocations and the wire tables are scoped to the session: a
        # reconnect starts both ends empty.
        self.core.begin_session()
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
        sock.settimeout(None)
        hb_stop = threading.Event()
        hb_thread = threading.Thread(
            target=self._heartbeat_loop, args=(_send, hb_stop),
            name=f"{self.name}-heartbeat", daemon=True,
        )
        hb_thread.start()
        #: frames read off the socket mid-chunk (while polling for steal
        #: revocations) that the main loop must still handle.
        inbox: deque[dict] = deque()
        try:
            _send({"type": "ready", "slots": self.capacity, "rtt": rtt})
            self._maybe_send_drain(_send)
            while True:
                message = inbox.popleft() if inbox else self._receive(sock)
                if message is None:
                    return True, False  # manager dropped: reconnect
                kind = message.get("type")
                if kind == "work":
                    self._execute_chunk(
                        message["requests"], _send_reports, sock, inbox)
                    if self._stop.is_set():
                        return True, True
                    self._maybe_send_drain(_send)
                elif kind == "steal":
                    self.core.steal(message.get("ids"))
                elif kind == "shutdown":
                    try:
                        _send({"type": "bye"})
                    except OSError:  # pragma: no cover - manager gone
                        pass
                    return True, True
                elif kind == "idle":
                    self._maybe_send_drain(_send)
        finally:
            hb_stop.set()
            hb_thread.join(timeout=1.0)

    def _receive(self, sock: socket.socket) -> dict | None:
        """The next frame; a work frame's requests are held from here."""
        message = recv_frame(sock, session=self._session)
        if message is not None and message.get("type") == "work":
            requests = message.get("requests")
            if not isinstance(requests, list) or not all(
                isinstance(r, TestRequest) for r in requests
            ):
                # Only the binary codec yields TestRequest objects: a
                # JSON ``work`` frame is a protocol violation, not work.
                raise WireError(
                    f"work frame is not a binary batch: {message!r}")
            self.core.hold(r.request_id for r in requests)
        return message

    def _maybe_send_drain(self, send: Callable[[dict], None]) -> None:
        """Emit the graceful-leave frame once per drained session."""
        with self._drain_lock:
            due = self.core.drain_due()
        if due:
            send({"type": "drain", "node": self.name})

    def _poll_control(self, sock: socket.socket, inbox: deque) -> None:
        """Read the frames already buffered on the socket.

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
            message = self._receive(sock)
            if message is None:
                raise OSError("manager closed mid-chunk")
            if message.get("type") == "steal":
                self.core.steal(message.get("ids"))
            else:
                inbox.append(message)

    def _execute_chunk(
        self,
        requests: list[TestRequest],
        send_reports: "Callable[[list[TestReport]], None]",
        sock: socket.socket,
        inbox: deque,
    ) -> None:
        """Run every request of a work frame the core does not revoke,
        and report the results as one ``report_batch`` frame.

        The socket is polled between tests (at most every
        :data:`~repro.cluster.fleet.CONTROL_POLL_S`) so a ``steal``
        arriving mid-chunk skips the remaining stolen executions instead
        of duplicating them on the thief.
        """
        manager = self._node_manager()
        core = self.core
        reports: list[TestReport] = []
        # The first test always polls: a ``steal`` for this chunk may
        # already sit behind its work frame in the socket buffer.
        polled = 0.0
        for request in requests:
            now = time.monotonic()
            if now - polled >= CONTROL_POLL_S:
                polled = now
                self._poll_control(sock, inbox)
            if not core.take(request.request_id):
                continue
            reports.append(manager.execute(request))
            core.ran()
            if self._stop.is_set():
                break
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
                    # Node-local monotonic time, for debugging only: the
                    # manager stamps liveness on its own clock.
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
