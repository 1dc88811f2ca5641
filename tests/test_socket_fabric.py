"""Tests for the networked multi-node fabric (cluster/socket_fabric.py)
and its wire protocol (cluster/wire.py).

Everything runs on localhost with real sockets: the manager binds an
ephemeral port, :class:`~repro.cluster.socket_fabric.ExplorerNode`
instances serve from daemon threads (the protocol is identical to the
multi-process deployment; only the transport endpoints live in one
process here).
"""

from __future__ import annotations

import functools
import socket
import struct
import threading
import time

import pytest

from repro.cluster import (
    ClusterExplorer,
    ExplorerNode,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    PROTOCOL_VERSION,
    RetryPolicy,
    SocketFabric,
    WireError,
)
from repro.cluster.messages import TestReport as ClusterTestReport
from repro.cluster.messages import TestRequest as ClusterTestRequest
from repro.cluster.wire import (
    BINARY_MAGIC,
    decode_binary_frame,
    encode_frame,
    encode_report_frame,
    encode_work_frame,
    recv_frame,
    send_frame,
)
from repro.core.checkpoint import history_digest
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.runner import Outcome, Record
from repro.core.search import strategy_by_name
from repro.core.targets import IterationBudget
from repro.errors import ClusterError
from repro.sim.targets.minidb import MiniDbTarget

from tests.netutil import Peer, free_port


def make_request(i: int, **scenario) -> ClusterTestRequest:
    scenario = scenario or {"test": 1 + (i % 3), "function": "read", "call": 0}
    return ClusterTestRequest(request_id=i, subspace="net", scenario=scenario)


def over_the_wire(message):
    """One request or report through the binary codec and back."""
    if isinstance(message, ClusterTestRequest):
        frame, key = encode_work_frame([message]), "requests"
    else:
        frame, key = encode_report_frame([message]), "reports"
    (back,) = decode_binary_frame(frame[4:])[key]
    return back


#: what a report carries beside its record.
_TRANSPORT = ("cost", "spans", "call_counts")


def make_record(**overrides) -> Record:
    """A record (:func:`repro.core.runner.record`) of a crashed run."""
    fields = dict(
        test_id=1, crash_kind="segfault", exit_code=139,
        coverage=frozenset({"a", "b"}), injection_stack=("main", "read"),
        injected=True, steps=10, measurements={"steps": 10.0},
        invariant_violations=("inv",),
    )
    fields.update(overrides)
    return Record(fields.pop("test_id"), Outcome(**fields))


def make_report(i: int, **overrides) -> ClusterTestReport:
    """Report ``i`` of :func:`make_record`; ``overrides`` name report
    or record fields."""
    transport = dict(cost=0.01)
    transport.update(
        (key, overrides.pop(key)) for key in _TRANSPORT if key in overrides)
    return ClusterTestReport(
        request_id=i, result=make_record(**overrides), **transport)


@pytest.fixture
def fleet(minidb):
    """A live manager plus two registered in-thread explorer nodes."""
    net = SocketFabric("127.0.0.1:0", expected_nodes=2, ready_timeout=5.0)
    nodes = [
        ExplorerNode(
            (net.host, net.port), MiniDbTarget, name=f"n{i}", capacity=2,
            heartbeat_interval=0.1,
            reconnect_policy=RetryPolicy(
                max_attempts=100, base_delay=0.02, max_delay=0.2
            ),
        )
        for i in range(2)
    ]
    threads = [n.run_in_thread() for n in nodes]
    net.wait_for_nodes(timeout=15)
    yield net, nodes
    net.close()
    for node in nodes:
        node.stop()
    for thread in threads:
        thread.join(timeout=10)


class TestWireCodec:
    def test_request_roundtrip(self):
        request = ClusterTestRequest(
            request_id=7, subspace="s",
            scenario={"test": 3, "function": "read", "call": 1},
            trace_id="t", parent_span="p",
        )
        assert over_the_wire(request) == request

    def test_request_roundtrip_preserves_tuple_values(self):
        request = ClusterTestRequest(
            request_id=1, subspace="s",
            scenario={"path": ("a", "b"), "call": 0},
        )
        back = over_the_wire(request)
        assert back.scenario["path"] == ("a", "b")

    def test_report_roundtrip(self):
        report = make_report(9)
        back = over_the_wire(report)
        assert back == report
        assert isinstance(back.result.coverage, frozenset)
        assert isinstance(back.result.injection_stack, tuple)
        assert isinstance(back.result.invariant_violations, tuple)

    def test_report_roundtrip_none_fields(self):
        report = make_report(
            3, crash_kind=None, injection_stack=None, injected=False,
            invariant_violations=(),
        )
        assert over_the_wire(report) == report

    def test_frame_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "n": 1})
            assert recv_frame(b) == {"type": "hello", "n": 1}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_not_an_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "hello"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            b.close()

    def test_garbage_payload_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            payload = b"\xff\xfenot json"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            a.close()
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_is_rejected_before_reading(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "x"})
            payload = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            assert recv_frame(b) == {"type": "x"}
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestDispatch:
    def test_batch_completes_and_preserves_request_order(self, fleet, minidb):
        net, _nodes = fleet
        requests = [make_request(i) for i in range(10)]
        reports = net.run_batch(requests)
        assert [r.request_id for r in reports] == list(range(10))
        assert all(isinstance(r, ClusterTestReport) for r in reports)
        assert net.health.completed == 10

    def test_reports_match_a_local_node_manager(self, fleet, minidb):
        net, _nodes = fleet
        request = make_request(1, test=2, function="malloc", call=1)
        over_wire = net.run_batch([request])[0]
        local = NodeManager("ref", minidb).execute(request)
        # cost and spans are placement-dependent; the record of the
        # execution is not, field by field.
        assert over_wire.result == local.result
        assert over_wire.result.outcome is local.result.outcome
        assert over_wire.call_counts == local.call_counts

    def test_len_is_total_fleet_capacity(self, fleet):
        net, _nodes = fleet
        assert len(net) == 4  # two nodes, capacity 2 each

    def test_empty_batch_is_a_noop(self, fleet):
        net, _nodes = fleet
        assert net.run_batch([]) == []

    def test_run_batch_after_close_raises(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        net.close()
        with pytest.raises(ClusterError):
            net.run_batch([make_request(0)])

    def test_idle_fabric_closes_promptly(self):
        # close() must wake its own accept thread, not wait out the
        # join timeout behind it.
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        started = time.monotonic()
        net.close()
        assert time.monotonic() - started < 0.5
        assert not net._accept_thread.is_alive()

    def test_wait_for_nodes_times_out_without_nodes(self):
        with SocketFabric("127.0.0.1:0", expected_nodes=1) as net:
            with pytest.raises(ClusterError):
                net.wait_for_nodes(timeout=0.2)

    def test_no_live_nodes_fails_the_round_after_ready_timeout(self):
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1, ready_timeout=0.3
        )
        try:
            with pytest.raises(ClusterError):
                net.run_batch([make_request(0)])
        finally:
            net.close()


class TestDigestParity:
    def test_socket_campaign_matches_in_process_fabric(self, fleet, minidb):
        net, _nodes = fleet
        space = FaultSpace.product(
            test=range(1, len(minidb.suite) + 1),
            function=minidb.libc_functions(),
            call=range(0, 3),
        )

        def explore(cluster):
            return ClusterExplorer(
                cluster, space, standard_impact(),
                strategy_by_name("fitness"), IterationBudget(40),
                rng=11, batch_size=4,
            ).run()

        managers = [NodeManager(f"ref{i}", minidb) for i in range(2)]
        reference = explore(
            FaultTolerantFabric(LocalCluster(managers), policy=RetryPolicy())
        )
        over_wire = explore(
            FaultTolerantFabric(net, policy=RetryPolicy())
        )
        assert history_digest(list(over_wire)) == \
            history_digest(list(reference))


class TestNodeFailure:
    def test_node_killed_mid_batch_requeues_no_lost_no_duplicated(
        self, fleet
    ):
        net, nodes = fleet

        # Slow the victim down so the kill deterministically lands while
        # its chunk is still in flight (the batched v2 data plane would
        # otherwise finish the whole round before a timer fires).
        class SlowManager(NodeManager):
            def execute(self, request):
                time.sleep(0.05)
                return super().execute(request)

        nodes[0]._manager = SlowManager(nodes[0].name, MiniDbTarget())
        killer = threading.Timer(0.05, nodes[0].stop)
        killer.start()
        try:
            reports = net.run_batch([make_request(i) for i in range(16)])
        finally:
            killer.cancel()
        ids = [r.request_id for r in reports]
        assert ids == list(range(16))          # nothing lost, in order
        assert len(set(ids)) == 16             # nothing duplicated
        assert net.requeued >= 1               # the dead node's chunk moved

    def test_silent_node_is_expired_by_heartbeat_liveness(self, minidb):
        # A raw socket that completes the handshake then goes silent
        # must be declared dead and its work requeued — without a real
        # node the round can't finish, so we assert on the expiry
        # bookkeeping instead.
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1,
            ready_timeout=1.0, heartbeat_timeout=0.3,
        )
        peer = Peer(net, "mute")
        try:
            peer.send({"type": "ready", "slots": 1})

            def pull_then_mute():
                # Accept the work frame, then never answer again.
                while True:
                    frame = peer.recv()
                    if frame is None or frame["type"] == "work":
                        return

            threading.Thread(target=pull_then_mute, daemon=True).start()
            with pytest.raises(ClusterError):
                net.run_batch([make_request(0)])
            assert net.health.worker_deaths == 1
            assert net.requeued == 1
        finally:
            peer.close()
            net.close()

    def test_manager_restart_on_same_port_gets_its_fleet_back(self):
        net1 = SocketFabric("127.0.0.1:0", expected_nodes=1)
        port = net1.port
        node = ExplorerNode(
            ("127.0.0.1", port), MiniDbTarget, name="survivor", capacity=2,
            heartbeat_interval=0.1,
            reconnect_policy=RetryPolicy(
                max_attempts=200, base_delay=0.02, max_delay=0.2
            ),
        )
        thread = node.run_in_thread()
        try:
            net1.wait_for_nodes(timeout=15)
            first = net1.run_batch([make_request(i) for i in range(4)])
            assert len(first) == 4
            net1.close(drain=False)  # crash: no shutdown frame

            net2 = SocketFabric(f"127.0.0.1:{port}", expected_nodes=1)
            try:
                net2.wait_for_nodes(timeout=15)
                second = net2.run_batch(
                    [make_request(100 + i) for i in range(4)]
                )
                assert [r.request_id for r in second] == [100, 101, 102, 103]
                assert node.connections == 2
            finally:
                net2.close()
        finally:
            net1.close()
            node.stop()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_reregistration_under_same_name_replaces_the_stale_node(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        try:
            first = Peer(net, "twin")
            net.wait_for_nodes(timeout=5)
            second = Peer(net, "twin")  # same name: retires the first
            deadline = time.monotonic() + 5
            while net.registrations < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.registrations == 2
            assert net.wait_for_nodes(timeout=5) == 1  # still one node
            first.close()
            second.close()
        finally:
            net.close()

    def test_node_gives_up_after_consecutive_connect_failures(self):
        # Point a node at a port nothing listens on: bounded retries,
        # then ClusterError.
        port = free_port()
        node = ExplorerNode(
            ("127.0.0.1", port), MiniDbTarget, name="lost",
            reconnect_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, max_delay=0.02
            ),
            sleep=lambda _s: None,
        )
        with pytest.raises(ClusterError):
            node.run()


class TestHostileFrames:
    """Garbage on the wire must never crash the manager (satellite 4)."""

    def _connect(self, net):
        return socket.create_connection((net.host, net.port), timeout=5)

    def test_garbage_bytes_on_a_fresh_connection(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        sock.sendall(b"\x00\x00\x00\x05junk!")
        sock.close()
        # The fleet still serves work afterwards.
        reports = net.run_batch([make_request(i) for i in range(4)])
        assert len(reports) == 4

    def test_oversized_length_prefix_on_a_fresh_connection(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        sock.sendall(struct.pack(">I", 1 << 31))
        sock.close()
        assert len(net.run_batch([make_request(0)])) == 1

    def test_truncated_hello_then_eof(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        frame = encode_frame({"type": "hello"})
        sock.sendall(frame[:-3])
        sock.close()
        assert len(net.run_batch([make_request(0)])) == 1

    def test_wrong_protocol_version_is_refused_with_an_error_frame(
        self, fleet
    ):
        net, _nodes = fleet
        sock = self._connect(net)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION + 1,
                "node": "future", "capacity": 1,
            })
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "version" in reply["reason"]
        finally:
            sock.close()

    def test_a_node_that_would_answer_differently_is_refused(self):
        """The hello carries ``target/version/injector``; a fabric that
        was given its campaign's refuses any other, names both, counts
        the refusal and hangs up.  A fabric given none accepts any."""
        ours, theirs = "replkv/1.0.0/model:errno+disk", "replkv/1.0.0/model:errno"
        net = SocketFabric("127.0.0.1:0", expected_nodes=1, identity=ours)
        lax = SocketFabric("127.0.0.1:0", expected_nodes=1)
        try:
            for wrong in (theirs, None):
                before = net.health.corrupt_reports
                peer = Peer(net, "stranger", identity=wrong, welcome=False)
                assert ours in peer.answer["reason"]
                assert repr(wrong) in peer.answer["reason"]
                assert peer.recv() is None            # the manager hung up
                assert net.health.corrupt_reports == before + 1
                peer.close()
            assert net.registrations == 0
            Peer(net, "kin", identity=ours).close()
            for any_ in (ours, theirs, None):
                Peer(lax, "anyone", identity=any_).close()
            assert lax.health.corrupt_reports == 0
        finally:
            net.close()
            lax.close()

    def test_engine_fleets_announce_and_demand_their_identity(self, replkv):
        """An engine hands its own identity to the fabric it builds, and
        ``ExplorerNode`` announces its manager's: equal models register,
        an ``errno`` node against an ``errno+disk`` campaign does not."""
        from repro.injection.models import model_injector
        from repro.service.engine import CampaignEngine
        from repro.sim.targets import target_by_name

        factory = functools.partial(target_by_name, "replkv")
        seen: dict = {}

        def launch(net):
            seen["identity"] = net.identity
            stranger = ExplorerNode(
                (net.host, net.port), factory, name="errno-only")
            with pytest.raises(ClusterError, match="identity mismatch"):
                stranger.run()
            seen["refused"] = net.health.corrupt_reports
            ExplorerNode(
                (net.host, net.port), factory, name="kin",
                injector_factory=functools.partial(
                    model_injector, "errno+disk"),
            ).run_in_thread()

        with CampaignEngine(
            replkv, fabric="socket", workers=1, on_fabric=launch,
            injector_factory=functools.partial(model_injector, "errno+disk"),
            node_wait=10,
        ) as engine:
            engine._ensure_cluster()
        assert seen == {
            "identity": "replkv/1.0.0/model:errno+disk", "refused": 1}

    def test_absurd_capacity_is_refused(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "greedy", "capacity": 1_000_000,
            })
            assert recv_frame(sock)["type"] == "error"
        finally:
            sock.close()

    def test_registered_node_sending_garbage_is_dropped_and_requeued(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1,
                           ready_timeout=1.0)
        peer = Peer(net, "rogue")
        try:
            dispatcher = threading.Thread(
                target=lambda: pytest.raises(
                    ClusterError, net.run_batch, [make_request(0)]
                ),
                daemon=True,
            )
            dispatcher.start()
            assert len(peer.pull_work()) == 1
            before = net.health.corrupt_reports
            peer.sock.sendall(b"\x00\x00\x00\x04\xff\xff\xff\xff")
            deadline = time.monotonic() + 5
            while net.requeued < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.requeued == 1
            assert net.health.corrupt_reports == before + 1
        finally:
            peer.close()
            net.close()

    def test_fabricated_report_id_is_discarded_as_corrupt(self, minidb):
        # A report for an id this node was never sent is counted and
        # dropped on its own: the connection, and the real assignment
        # riding beside it in the same frame, are untouched.
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        peer = Peer(net, "liar")
        outcome: dict = {}
        dispatcher = threading.Thread(
            target=lambda: outcome.update(
                reports=net.run_batch([make_request(0)])
            ),
            daemon=True,
        )
        try:
            dispatcher.start()
            (request,) = peer.pull_work()
            real = NodeManager("liar", minidb).execute(request)
            peer.report([make_report(424242), real], slots=1)
            dispatcher.join(timeout=5)
            assert [r.request_id for r in outcome["reports"]] == [0]
            assert net.health.corrupt_reports == 1
            assert net.late_reports == 0
            assert net.requeued == 0
        finally:
            peer.close()
            net.close()

    @pytest.mark.parametrize("kind", ["work", "report"])
    def test_json_data_frame_from_a_registered_node_is_a_violation(
        self, kind
    ):
        # The data plane is binary: a JSON work/report frame is dropped
        # like garbage — counted, connection closed, assignment requeued.
        net = SocketFabric("127.0.0.1:0", expected_nodes=1,
                           ready_timeout=1.0)
        peer = Peer(net, "dialect")
        try:
            dispatcher = threading.Thread(
                target=lambda: pytest.raises(
                    ClusterError, net.run_batch, [make_request(0)]
                ),
                daemon=True,
            )
            dispatcher.start()
            assert len(peer.pull_work()) == 1
            before = net.health.corrupt_reports
            peer.send({
                "type": kind, "requests": [], "report": {"request_id": 0},
            })
            deadline = time.monotonic() + 5
            while net.requeued < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.requeued == 1
            assert net.health.corrupt_reports == before + 1
            assert peer.recv() is None  # the manager hung up
        finally:
            peer.close()
            net.close()


class TestBackpressure:
    def test_node_never_holds_more_than_its_declared_slots(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        peer = Peer(net, "narrow", capacity=2)
        try:
            outcome: dict = {}

            def dispatch():
                try:
                    outcome["reports"] = net.run_batch(
                        [make_request(i) for i in range(6)]
                    )
                except ClusterError as exc:  # pragma: no cover
                    outcome["error"] = exc

            runner = threading.Thread(target=dispatch, daemon=True)
            runner.start()
            manager = NodeManager("narrow", minidb)
            peer.send({"type": "ready", "slots": 2})
            served = 0
            while served < 6:
                frame = peer.recv()
                if frame["type"] != "work":
                    continue
                # Backpressure: never more than the declared free slots.
                assert len(frame["requests"]) <= 2
                reports = [manager.execute(r) for r in frame["requests"]]
                served += len(reports)
                # The report batch re-declares the credit: one frame.
                peer.report(reports, slots=2)
            runner.join(timeout=15)
            assert not runner.is_alive()
            assert "error" not in outcome
            assert [r.request_id for r in outcome["reports"]] == \
                list(range(6))
        finally:
            peer.close()
            net.close()


    def test_a_node_never_holds_more_than_its_capacity(self):
        """A node re-announces its whole capacity after every report
        frame, here while half its chunk is still unreported: the
        manager must count what the node holds against that."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        peer = Peer(net, "partial", capacity=4)
        apply, peaks = net._apply, []

        def checked_apply(effects):
            apply(effects)
            peaks.append(max(
                (len(n.assigned) for n in net.core.nodes.values()),
                default=0))

        net._apply = checked_apply
        try:
            outcome: dict = {}
            requests = [make_request(i) for i in range(12)]
            runner = threading.Thread(
                target=lambda: outcome.update(reports=net.run_batch(requests)),
                daemon=True,
            )
            runner.start()
            held = list(peer.pull_work(slots=4))
            received = len(held)
            while held:
                assert len(held) <= 4
                # Report the older half; the rest stays on the node.
                half = (len(held) + 1) // 2
                done, held = held[:half], held[half:]
                peer.report([make_report(r.request_id) for r in done], slots=4)
                if received < len(requests):
                    frame = peer.recv()
                    assert frame["type"] == "work"
                    held += frame["requests"]
                    received += len(frame["requests"])
            runner.join(timeout=15)
            assert not runner.is_alive()
            assert [r.request_id for r in outcome["reports"]] == list(range(12))
            assert peaks and max(peaks) <= 4
        finally:
            peer.close()
            net.close()


class TestStaleRevocation:
    def test_a_steal_for_an_id_already_run_is_dropped(self, minidb):
        """A warm engine reuses request ids every campaign, so a steal
        that lands after its id ran must not make the node skip the
        next request carrying that id: no report would ever come."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=1,
                           ready_timeout=5.0)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1,
        )
        thread = node.run_in_thread()
        try:
            net.wait_for_nodes(timeout=15)
            first = net.run_batch([make_request(5), make_request(6)])
            assert [r.request_id for r in first] == [5, 6]
            # The steal raced the report of 5: it reaches the node
            # between chunks, ahead of the next work frame (one FIFO).
            (connection,) = net.core.nodes.values()
            connection.conn.enqueue({"type": "steal", "ids": [5]})
            reports: list = []
            worker = threading.Thread(
                target=lambda: reports.extend(
                    net.run_batch([make_request(5)])),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=10)
            assert [r.request_id for r in reports] == [5], (
                "a stale revocation swallowed request 5")
            assert node.stolen_skipped == 0
        finally:
            net.close()
            node.stop()
            thread.join(timeout=10)


class TestOneStreamOneOrder:
    """The wire tables are per connection: what crosses between
    connections is requests and reports, never bytes."""

    @staticmethod
    def dispatch(net, requests):
        outcome: dict = {}
        thread = threading.Thread(
            target=lambda: outcome.update(reports=net.run_batch(requests)),
            daemon=True,
        )
        thread.start()
        return thread, outcome

    def test_requeued_chunk_is_reencoded_for_its_new_node(self):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        doomed, survivor = Peer(net, "doomed", 2), Peer(net, "survivor", 2)
        try:
            # Warm the survivor's tables with a vocabulary the doomed
            # node's connection never carried, so the same strings sit
            # at different indexes on the two connections.
            survivor.send({"type": "ready", "slots": 1})
            warmup = make_request(0, zeta="only-here", alpha=("x", "y"))
            thread, outcome = self.dispatch(net, [warmup])
            assert survivor.pull_work() == [warmup]
            survivor.report([make_report(0)], slots=0)
            thread.join(timeout=5)
            assert [r.request_id for r in outcome["reports"]] == [0]

            chunk = [make_request(10 + i) for i in range(2)]
            doomed.send({"type": "ready", "slots": 2})
            thread, outcome = self.dispatch(net, chunk)
            taken = doomed.pull_work(slots=2)
            assert taken == chunk
            doomed.close()  # dies holding the chunk
            rescued = survivor.pull_work(slots=2)
            # Re-sent as bytes, the frame would lean on the dead
            # connection's tables and decode to garbage (or not at all).
            assert rescued == chunk
            assert net.requeued == 2
            survivor.report([make_report(r.request_id) for r in rescued], 0)
            thread.join(timeout=5)
            assert [r.request_id for r in outcome["reports"]] == [10, 11]
        finally:
            doomed.close()
            survivor.close()
            net.close()

    def test_discarded_reports_still_register_their_bodies(self):
        """Decode precedes classification: a report the manager throws
        away (here the loser of a steal race) has still taught the
        connection its body, and the next report may lean on it."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        victim, thief = Peer(net, "a-victim", 2), Peer(net, "b-thief")
        try:
            # Give the manager a turnaround for the thief to reason with.
            thread, outcome = self.dispatch(net, [make_request(0)])
            assert len(thief.pull_work()) == 1
            thief.report([make_report(0)], slots=0)
            thread.join(timeout=5)

            victim.send({"type": "ready", "slots": 2})
            requests = [make_request(1), make_request(2)]
            thread, outcome = self.dispatch(net, requests)
            while True:
                frame = victim.recv()
                if frame["type"] == "work":
                    break
            assert frame["requests"] == requests
            # The victim sits on its chunk; to the manager's clock it is
            # now a slow node, and an idle thief is admitted.
            time.sleep(0.1)
            stolen = thief.pull_work()
            assert stolen == [requests[1]] and net.stolen == 1
            thief.report([make_report(2, failure_message="thief")], slots=0)
            deadline = time.monotonic() + 5
            while net.health.completed < 2 and time.monotonic() < deadline:
                time.sleep(0.005)  # two connections: let the thief's land
            # The victim raced the revocation: its report for the stolen
            # id arrives second and is discarded as a duplicate ...
            victim.report([make_report(2)], slots=0)
            # ... and its report for the id it kept is the same body.
            victim.report([make_report(1)], slots=0)
            thread.join(timeout=5)
            assert outcome["reports"] == [
                make_report(1), make_report(2, failure_message="thief"),
            ]
            assert net.steal_duplicates == 1
            stats = net.fleet_stats()
            assert stats["report_bodies_referenced"] == 1
            assert stats["report_bodies_inline"] == 3
        finally:
            victim.close()
            thief.close()
            net.close()


class TestObservability:
    def test_wire_counters_and_metrics_gauges(self, fleet):
        net, _nodes = fleet
        from repro.obs import MetricsRegistry

        net.run_batch([make_request(i) for i in range(6)])
        assert net.bytes_in > 0 and net.bytes_out > 0
        assert net.frames_in > 0 and net.frames_out > 0
        registry = MetricsRegistry()
        net.bind_metrics(registry)
        net.bind_metrics(registry)  # idempotent: no duplicate collectors
        gauges = registry.snapshot()["gauges"]
        assert gauges["fabric.net.nodes"] == 2
        assert gauges["fabric.net.capacity"] == 4
        assert gauges["fabric.net.frames_in"] > 0
        executed = sum(
            value for name, value in gauges.items()
            if name.startswith("fabric.worker_executed")
        )
        assert executed == 6

    def test_node_stats_account_completed_work(self, fleet):
        net, _nodes = fleet
        net.run_batch([make_request(i) for i in range(8)])
        stats = net.node_stats()
        assert sorted(s["node"] for s in stats) == ["n0", "n1"]
        assert sum(s["executed"] for s in stats) == 8
        # A steal race can leave the losing side still finishing a
        # test the round no longer needs; that in-flight remnant
        # drains as soon as its (discarded) report lands.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = net.node_stats()
            if all(s["in_flight"] == 0 for s in stats):
                break
            time.sleep(0.01)
        assert all(s["in_flight"] == 0 for s in stats)

    def test_describe_mentions_endpoint_and_protocol(self, fleet):
        net, nodes = fleet
        assert f"{net.host}:{net.port}" in net.describe()
        assert f"v{PROTOCOL_VERSION}" in net.describe()
        assert nodes[0].name in nodes[0].describe()

    def test_wire_cost_gauges_are_exported(self, fleet):
        net, _nodes = fleet
        from repro.obs import MetricsRegistry

        net.run_batch([make_request(i) for i in range(6)])
        registry = MetricsRegistry()
        net.bind_metrics(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["fabric.dispatch.encode_seconds"] >= 0.0
        per_test = gauges["fabric.net.bytes_per_test"]
        assert 0 < per_test == \
            (net.bytes_in + net.bytes_out) / net.health.completed


class TestHostileBinaryFramesLiveManager:
    """Binary garbage must poison one peer, never the manager thread."""

    def test_binary_garbage_from_registered_node_requeues(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1,
                           ready_timeout=1.0)
        peer = Peer(net, "binrogue")
        try:
            dispatcher = threading.Thread(
                target=lambda: pytest.raises(
                    ClusterError, net.run_batch, [make_request(0)]
                ),
                daemon=True,
            )
            dispatcher.start()
            peer.pull_work()
            # A binary frame that passes the magic check then rots.
            payload = bytes([BINARY_MAGIC, 0x02]) + b"\xff\xff\xff\xff"
            peer.sock.sendall(struct.pack(">I", len(payload)) + payload)
            deadline = time.monotonic() + 5
            while net.requeued < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.requeued == 1
        finally:
            peer.close()
            net.close()

    def test_fabricated_binary_report_batch_is_corrupt_not_fatal(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        peer = Peer(net, "binliar")
        try:
            peer.report([make_report(998877)], slots=1)
            deadline = time.monotonic() + 5
            while net.health.corrupt_reports < 1 and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.health.corrupt_reports == 1
            assert net.late_reports == 0
        finally:
            peer.close()
            net.close()

    def test_fleet_survives_a_binary_fuzzing_peer(self, fleet):
        net, _nodes = fleet
        rng = __import__("random").Random(1234)
        for _ in range(25):
            sock = socket.create_connection((net.host, net.port), timeout=5)
            blob = bytes([BINARY_MAGIC]) + bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 64))
            )
            sock.sendall(struct.pack(">I", len(blob)) + blob)
            sock.close()
        reports = net.run_batch([make_request(i) for i in range(4)])
        assert len(reports) == 4
