"""Property tests for the binary wire protocol (cluster/wire.py).

Four layers of assurance for the batched data plane:

* hypothesis round-trips of a lone frame: every encodable
  :class:`TestRequest` / :class:`TestReport` — including tuple/frozenset
  scenario values and heavy string repetition (the interning path) —
  decodes back to an equal message;
* hypothesis round-trips of a *stream*: any sequence of work and report
  batches through one connection's tables comes out equal field by
  field, type by type and bit by bit — with roomy tables and with
  tables capped at two entries;
* a hello matrix against a live manager: :data:`PROTOCOL_VERSION` is
  welcomed, every other version (older dialects included) gets an
  ``error`` frame;
* hostile-frame fuzzing, against a cold decoder and a warm one:
  arbitrary and surgically corrupted binary payloads must surface as
  :class:`WireError`, never as any other exception (the manager treats
  WireError as a poisoned peer; anything else would crash its serve
  thread).
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.cluster import wire
from repro.cluster.messages import TestReport, TestRequest
from repro.cluster.socket_fabric import SocketFabric
from repro.cluster.wire import (
    BINARY_MAGIC,
    MAX_BATCH_ITEMS,
    PROTOCOL_VERSION,
    WireError,
    WireSession,
    decode_binary_frame,
    encode_report_frame,
    encode_work_frame,
    recv_frame,
    send_frame,
)

from repro.core.runner import OUTCOME_FIELDS, Outcome, Record
from repro.sim.libc import ProvenanceRecord
from repro.sim.process import RunResult

from tests.test_socket_fabric import make_report


def payload_of(frame: bytes) -> bytes:
    """Strip the 4-byte length prefix off an encoded frame."""
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


def exact(value: object) -> object:
    """A stand-in that compares equal only for values of the same types
    and the same bits: ``1``/``1.0``/``True`` differ, so do ``0.0``/
    ``-0.0``, and a NaN equals itself."""
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    if isinstance(value, (bool, int, str, type(None))):
        return (type(value).__name__, value)
    if isinstance(value, tuple):
        return ("tuple", tuple(exact(v) for v in value))
    if isinstance(value, frozenset):
        return ("frozenset", frozenset(exact(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (key, exact(v)) for key, v in value.items()
        )))
    if isinstance(value, Record):
        outcome = value.outcome
        return ("Record", exact(value.test_id), tuple(
            (name, exact(getattr(outcome, name))) for name in OUTCOME_FIELDS))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, tuple(
            (field.name, exact(getattr(value, field.name)))
            for field in dataclasses.fields(value)))
    raise AssertionError(f"unexpected {type(value).__name__} off the wire")


# -- strategies ---------------------------------------------------------------

# Scenario values mirror what FaultSpace axes actually produce: atoms,
# plus the tuple/frozenset shapes the JSON codec canonicalizes.  Floats
# are finite (NaN breaks equality, and no axis generates it).
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)
_values = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(
            st.one_of(
                st.integers(min_value=-100, max_value=100),
                st.text(max_size=8),
            ),
            max_size=3,
        ),
    ),
    max_leaves=8,
)

_requests = st.builds(
    TestRequest,
    request_id=st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    subspace=st.text(max_size=20),
    scenario=st.dictionaries(st.text(max_size=10), _values, max_size=5),
    trace_id=st.none() | st.text(max_size=12),
    parent_span=st.none() | st.text(max_size=12),
)

# What the stream properties draw: the values whose ``==`` lies
# (``1 == 1.0 == True``, ``0.0 == -0.0``, ``nan != nan``) wherever the
# codec carries a tagged value, and every float bit pattern wherever it
# carries a number.
_liars = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, float("nan")])
_tagged = st.one_of(_liars, st.sampled_from(["a", "b"]))
_any_float = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]), st.floats(width=64)
)
_stream_requests = st.builds(
    TestRequest,
    request_id=st.integers(0, 40),
    subspace=st.sampled_from(["s", "t"]),
    scenario=st.dictionaries(
        st.sampled_from(["test", "function", "call"]),
        st.one_of(_tagged, st.tuples(_tagged, _tagged)), max_size=3,
    ),
)
def _record(test_id: int, **fields) -> Record:
    return Record(test_id, Outcome(**fields))


def records(**fields) -> st.SearchStrategy:
    """Records (:func:`repro.core.runner.record`): a test id and an
    outcome, every field drawn from ``fields``."""
    return st.builds(_record, **fields)


_stream_reports = st.builds(
    TestReport,
    request_id=st.integers(0, 40),
    result=records(
        test_id=st.sampled_from([0, 1, 2]),
        crash_kind=st.none() | st.just("segfault"),
        exit_code=st.sampled_from([0, 1, 139]),
        crash_message=st.none() | st.sampled_from(["a", "b"]),
        crash_stack=st.none() | st.just(("main", "read")),
        coverage=st.frozensets(st.sampled_from(["a", "b", "c"]), max_size=3),
        injection_stack=st.none() | st.lists(_tagged, max_size=2).map(tuple),
        injected=st.booleans(),
        steps=st.sampled_from([0, 10]),
        failure_message=st.none() | st.just("a"),
        measurements=st.dictionaries(
            st.sampled_from(["steps", "rss"]), _any_float, max_size=2
        ),
        open_fds=st.sampled_from([0, 3]),
        leaked_heap_bytes=st.sampled_from([0, 64]),
        invariant_violations=st.lists(_tagged, max_size=2).map(tuple),
        stack_digest=st.none() | st.just("digest"),
    ),
    cost=_any_float,
    spans=st.just(()) | st.just(({"name": "run", "t": 0.5},)),
    call_counts=st.none() | st.dictionaries(
        st.sampled_from(["malloc", "read"]), st.sampled_from([0, 3, 300]),
        max_size=2,
    ),
)
_streams = st.lists(
    st.one_of(
        st.lists(_stream_requests, max_size=3),
        st.lists(_stream_reports, max_size=4),
    ),
    max_size=8,
)


def through_one_connection(batches) -> None:
    """Every batch through one encoder and one decoder, compared exactly."""
    sender, receiver = WireSession(), WireSession()
    for batch in batches:
        if batch and isinstance(batch[0], TestReport):
            frame, key = encode_report_frame(batch, 3, sender), "reports"
        else:
            frame, key = encode_work_frame(batch, sender), "requests"
        back = decode_binary_frame(payload_of(frame), receiver)[key]
        assert exact(tuple(back)) == exact(tuple(batch))
    assert receiver.seen_strings == list(sender.sent_strings)
    assert len(receiver.seen_bodies) == len(sender.sent_bodies)


_reports = st.builds(
    TestReport,
    request_id=st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    result=records(
        test_id=st.integers(min_value=0, max_value=2 ** 40),
        crash_kind=st.none() | st.sampled_from(
            ["segfault", "abort", "oom", "hang"]
        ),
        exit_code=st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
        crash_message=st.none() | st.text(max_size=12),
        crash_stack=st.none() | st.lists(
            st.text(max_size=10), max_size=4
        ).map(tuple),
        coverage=st.frozensets(st.text(max_size=10), max_size=6),
        injection_stack=st.none() | st.lists(
            st.text(max_size=10), max_size=4
        ).map(tuple),
        injected=st.booleans(),
        steps=st.integers(min_value=0, max_value=2 ** 40),
        failure_message=st.none() | st.text(max_size=12),
        measurements=st.dictionaries(
            st.text(max_size=10),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=4,
        ),
        open_fds=st.integers(min_value=0, max_value=2 ** 20),
        leaked_heap_bytes=st.integers(min_value=0, max_value=2 ** 40),
        invariant_violations=st.lists(
            st.text(max_size=12), max_size=3).map(tuple),
        stack_digest=st.none() | st.text(max_size=16),
    ),
    cost=st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False, width=64
    ),
    spans=st.lists(
        st.dictionaries(st.text(max_size=8), _atoms, max_size=3),
        max_size=2,
    ).map(tuple),
    call_counts=st.none() | st.dictionaries(
        st.text(max_size=10), st.integers(min_value=0, max_value=2 ** 40),
        max_size=4,
    ),
)


# -- round trips --------------------------------------------------------------

class TestWorkFrameRoundtrip:
    @given(st.lists(_requests, max_size=8))
    def test_any_batch_roundtrips(self, requests):
        message = decode_binary_frame(payload_of(encode_work_frame(requests)))
        assert message["type"] == "work"
        assert message["requests"] == requests

    def test_tuples_and_frozensets_survive_with_their_types(self):
        request = TestRequest(
            request_id=1, subspace="s",
            scenario={
                "path": ("a", ("b", "c")),
                "flags": frozenset({1, 2, 3}),
                "mixed": (frozenset({"x"}), 0),
            },
        )
        back = decode_binary_frame(
            payload_of(encode_work_frame([request]))
        )["requests"][0]
        assert back == request
        assert isinstance(back.scenario["path"], tuple)
        assert isinstance(back.scenario["flags"], frozenset)
        assert isinstance(back.scenario["mixed"][0], frozenset)

    def test_lists_and_sets_canonicalize_like_the_json_codec(self):
        # The JSON codecs (checkpoint, cache) read lists back as tuples
        # and sets as frozensets; the wire must agree or a resumed
        # campaign's digest diverges from the live one.
        request = TestRequest(
            request_id=1, subspace="s",
            scenario={"path": ["a", "b"], "flags": {3, 1}},
        )
        back = decode_binary_frame(
            payload_of(encode_work_frame([request]))
        )["requests"][0]
        assert back.scenario["path"] == ("a", "b")
        assert back.scenario["flags"] == frozenset({1, 3})

    def test_interning_makes_repetition_cheap(self):
        # 64 requests share axis names and subspace: the frame must be
        # far below what repeating every string would cost.
        requests = [
            TestRequest(
                request_id=i, subspace="net",
                scenario={"test": i % 7, "function": "malloc", "call": 0},
            )
            for i in range(64)
        ]
        frame = encode_work_frame(requests)
        assert len(frame) / len(requests) < 20  # ~1 kB for 64 tests
        decoded = decode_binary_frame(payload_of(frame))
        assert decoded["requests"] == requests

    def test_batch_size_cap_is_enforced_both_ways(self):
        requests = [
            TestRequest(request_id=i, subspace="s", scenario={})
            for i in range(MAX_BATCH_ITEMS + 1)
        ]
        with pytest.raises(WireError):
            encode_work_frame(requests)

    def test_unencodable_value_is_a_wire_error(self):
        request = TestRequest(
            request_id=0, subspace="s", scenario={"bad": object()}
        )
        with pytest.raises(WireError):
            encode_work_frame([request])


class TestReportFrameRoundtrip:
    @given(st.lists(_reports, max_size=6), st.integers(0, 64))
    def test_any_batch_roundtrips(self, reports, slots):
        message = decode_binary_frame(
            payload_of(encode_report_frame(reports, slots=slots))
        )
        assert message["type"] == "report_batch"
        assert message["slots"] == slots
        assert message["reports"] == reports
        # The record crossed field by field, its test id included.
        for sent, back in zip(reports, message["reports"], strict=True):
            for field in dataclasses.fields(RunResult):
                assert getattr(back.result, field.name) == \
                    getattr(sent.result, field.name), field.name

    def test_negative_slots_refused(self):
        with pytest.raises(WireError):
            encode_report_frame([], slots=-1)


class TestOneConnectionOneStream:
    """The tables belong to the connection, not the frame."""

    @given(_streams)
    def test_any_sequence_of_batches_roundtrips_exactly(self, batches):
        through_one_connection(batches)

    @given(_streams)
    def test_tables_capped_at_two_entries_still_roundtrip(self, batches):
        with mock.patch.object(wire, "MAX_TABLE_ENTRIES", 2):
            through_one_connection(batches)

    def test_a_repeated_body_is_a_reference_ever_after(self):
        sender, receiver = WireSession(), WireSession()
        first = encode_report_frame([make_report(1, cost=0.5)], 2, sender)
        again = encode_report_frame([make_report(7, cost=0.25)], 2, sender)
        # id + cost + a one-byte reference: nothing of the body travels.
        assert len(again) < 20 < len(first)
        decoded = decode_binary_frame(payload_of(first), receiver)
        assert decoded["referenced"] == 0
        decoded = decode_binary_frame(payload_of(again), receiver)
        assert decoded["referenced"] == 1
        (back,) = decoded["reports"]
        assert back == make_report(7, cost=0.25)
        # Shared, not rebuilt: a reference is the registered outcome,
        # which nobody can change.
        assert back.result.outcome is receiver.seen_bodies[0][0]
        with pytest.raises(AttributeError):
            back.result.outcome.steps = -1
        (once_more,) = decode_binary_frame(
            payload_of(encode_report_frame([make_report(8)], 2, sender)),
            receiver,
        )["reports"]
        assert once_more.result.outcome is back.result.outcome
        assert once_more.result is not back.result

    def test_a_reference_carries_its_own_test_id(self):
        """The test id sits in the report header: one body serves every
        test whose run it describes."""
        sender, receiver = WireSession(), WireSession()
        for index, test in enumerate((3, 5, 3)):
            report = make_report(index, test_id=test)
            (back,) = decode_binary_frame(payload_of(
                encode_report_frame([report], 0, sender)), receiver
            )["reports"]
            assert back == report and back.result.test_id == test
        assert len(sender.sent_bodies) == len(receiver.seen_bodies) == 1

    def test_bodies_with_spans_or_provenance_are_never_registered(self):
        sender = WireSession()
        traced = make_report(0, spans=({"name": "run"},))
        frames = [encode_report_frame([traced], 0, sender) for _ in range(2)]
        assert len(frames[1]) > 30  # inline both times
        # A provenance log (the replay path's) has no place on the wire:
        # such a record is refused, and the session is as it was.
        replayed = make_report(0, provenance=(
            ProvenanceRecord(1, "open", 1, "path", None, True),))
        with pytest.raises(WireError, match="provenance"):
            encode_report_frame([replayed], 0, sender)
        assert sender.sent_bodies == {}
        # ... even where its body's other fields are a registered body.
        encode_report_frame([make_report(0)], 0, sender)
        with pytest.raises(WireError, match="provenance"):
            encode_report_frame([replayed], 0, sender)
        assert len(sender.sent_bodies) == 1

    @pytest.mark.parametrize(
        ("field", "twins"),
        [
            ("invariant_violations", [(1,), (1.0,), (True,)]),
            ("injection_stack", [(0,), (0.0,), (-0.0,), (False,)]),
            ("measurements", [{"x": 0.0}, {"x": -0.0}]),
            ("measurements", [
                {"x": struct.unpack(">d", bytes.fromhex(bits))[0]}
                for bits in ("7ff8000000000000", "7ff8000000000001")
            ]),
        ],
    )
    def test_equal_looking_bodies_never_alias(self, field, twins):
        # ``==`` calls every pair of these equal (or, for NaN, nothing);
        # on the wire each must come back as itself.
        sender, receiver = WireSession(), WireSession()
        for index, value in enumerate(twins * 2):
            report = make_report(index, **{field: value})
            (back,) = decode_binary_frame(payload_of(
                encode_report_frame([report], 0, sender)
            ), receiver)["reports"]
            assert exact(back) == exact(report)
        assert len(sender.sent_bodies) == len(twins)

    def test_call_counts_are_part_of_the_body(self):
        """A fault-free report's reach travels in its body: with, without
        and with other counts are three bodies, and a reference comes
        back with a dict of its own."""
        sender, receiver = WireSession(), WireSession()
        variants = [None, {}, {"malloc": 2, "read": 300}, {"malloc": 3}]

        def through(index, counts):
            (back,) = decode_binary_frame(payload_of(encode_report_frame(
                [make_report(index, injected=False, call_counts=counts)],
                0, sender,
            )), receiver)["reports"]
            assert exact(back) == exact(
                make_report(index, injected=False, call_counts=counts))
            return back

        firsts = [through(i, counts) for i, counts in enumerate(variants)]
        assert len(sender.sent_bodies) == len(receiver.seen_bodies) == 4
        firsts[2].call_counts["malloc"] = -1       # the caller's own dict
        # Insertion order is not identity: the same counts, one body.
        again = through(9, {"read": 300, "malloc": 2})
        assert len(sender.sent_bodies) == 4
        assert again.call_counts == {"malloc": 2, "read": 300}
        again.call_counts.clear()
        assert through(10, variants[2]).call_counts == variants[2]

    def test_negative_zero_is_a_float_not_a_varint(self):
        (back,) = decode_binary_frame(payload_of(
            encode_report_frame([make_report(0, measurements={"x": -0.0})])
        ))["reports"]
        assert struct.pack(">d", back.result.measurements["x"]) == \
            struct.pack(">d", -0.0)

    def test_two_connections_never_share_a_table(self):
        one, other = WireSession(), WireSession()
        encode_work_frame(
            [TestRequest(request_id=0, subspace="s", scenario={"k": "v"})],
            one,
        )
        encode_report_frame([make_report(0)], 0, one)
        assert one.sent_strings and one.sent_bodies
        assert not other.sent_strings and not other.sent_bodies
        # A frame that leans on one connection's tables means nothing
        # on another: the reference dangles, and that is a WireError.
        leaning = encode_report_frame([make_report(1)], 0, one)
        with pytest.raises(WireError):
            decode_binary_frame(payload_of(leaning), other)

    def test_a_failed_encode_leaves_the_session_as_it_found_it(self):
        sender, receiver = WireSession(), WireSession()
        good = TestRequest(request_id=0, subspace="s", scenario={"k": "v"})
        bad = TestRequest(
            request_id=1, subspace="fresh", scenario={"new": object()}
        )
        decode_binary_frame(
            payload_of(encode_work_frame([good], sender)), receiver
        )
        before = dict(sender.sent_strings)
        with pytest.raises(WireError):
            encode_work_frame([good, bad], sender)
        assert sender.sent_strings == before
        # ... so the stream goes on as if the attempt never happened.
        later = TestRequest(request_id=2, subspace="fresh", scenario={})
        assert decode_binary_frame(
            payload_of(encode_work_frame([later], sender)), receiver
        )["requests"] == [later]


class TestReconnect:
    def test_a_reconnect_starts_both_ends_from_empty_tables(
        self, coreutils, monkeypatch
    ):
        """Drop a node's connection mid-campaign: the first data frame
        each way on the new connection leans on nothing (it decodes as a
        lone frame), and the campaign's digest does not notice."""
        from repro.cluster import (
            ClusterExplorer, ExplorerNode, LocalCluster, NodeManager,
            RetryPolicy,
        )
        from repro.core.checkpoint import history_digest
        from repro.core.impact import standard_impact
        from repro.core.search import strategy_by_name
        from repro.core.targets import IterationBudget
        from repro.injection.models import model_space

        #: every binary payload either end decoded, by connection table.
        seen: dict[int, list[bytes]] = {}
        sessions: list[WireSession] = []  # kept alive: ids stay unique
        lock = threading.Lock()
        real_decode = wire.decode_binary_frame

        def recording_decode(payload, session=None):
            with lock:
                sessions.append(session)
                seen.setdefault(id(session), []).append(bytes(payload))
            return real_decode(payload, session)

        monkeypatch.setattr(wire, "decode_binary_frame", recording_decode)
        space = model_space(coreutils, "errno", max_call=10)

        def campaign(cluster, on_test=None):
            return history_digest(list(ClusterExplorer(
                cluster, space, standard_impact(), strategy_by_name("fitness"),
                IterationBudget(192), rng=5, batch_size=16, on_test=on_test,
            ).run()))

        reference = campaign(LocalCluster([NodeManager("ref", coreutils)]))
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), lambda: coreutils, name="n0", capacity=4,
            heartbeat_interval=0.1,
            reconnect_policy=RetryPolicy(
                max_attempts=200, base_delay=0.01, max_delay=0.05
            ),
        )
        thread = node.run_in_thread()

        def drop_once(executed):
            if executed.index == 95:
                with net._cond:
                    victim = net._nodes["n0"].sock
                victim.shutdown(socket.SHUT_RDWR)

        try:
            net.wait_for_nodes(timeout=15)
            assert campaign(net, on_test=drop_once) == reference
        finally:
            net.close()
            node.stop()
            thread.join(timeout=10)
        assert node.connections == 2 and net.registrations == 2
        # Two connections, two directions each: four table sets, and the
        # warm ones really were leaned on (so the check below can fail).
        assert len(seen) == 4
        leaning = 0
        for payloads in seen.values():
            real_decode(payloads[0])  # no reference into an earlier life
            for payload in payloads[1:]:
                try:
                    real_decode(payload)
                except WireError:
                    leaning += 1
        assert leaning > 0


# -- the hello matrix ----------------------------------------------------------

@pytest.fixture(scope="module")
def manager():
    with SocketFabric("127.0.0.1:0", expected_nodes=1) as net:
        yield net


V = PROTOCOL_VERSION

_MATRIX = [
    # The one dialect; keys the manager does not know are ignored.
    ({"version": V}, V),
    ({"version": V, "extension": "x"}, V),
    # The dialects this one replaced.
    ({"version": 4}, None),
    ({"version": 3}, None),
    ({"version": 2}, None),
    # A version that never existed.
    ({"version": -3}, None),
    # Capacity bounds do not interact with the version check.
    ({"version": V, "capacity": 1}, V),
    ({"version": V, "capacity": 256}, V),
    # Versions that do not exist yet.
    ({"version": V + 1}, None),
    ({"version": 9}, None),
    # Garbage hellos: missing or non-int versions.
    ({}, None),
    ({"version": str(V)}, None),
    ({"version": True}, None),
    ({"version": float(V)}, None),
    ({"version": None}, None),
    ({"version": [V]}, None),
    # The dialect this one replaced last (v6 carried the record's
    # fields one by one, ``failed`` and provenance included).
    ({"version": V - 1}, None),
]


class TestNegotiation:
    @pytest.mark.parametrize(
        ("hello", "agreed"), _MATRIX,
        # Frozen labels, not versions: the test floor CI compares against
        # has listed these rows as ``helloN-4`` (accepted) / ``helloN-None``
        # (refused) since v4, and a renamed id reads there as a lost
        # test.  ``-4`` therefore means "welcomed", whatever
        # PROTOCOL_VERSION is; the dialect a row negotiates is the
        # ``reply["version"] == agreed`` assertion below.
        ids=[
            f"hello{i}-{'None' if agreed is None else 4}"
            for i, (_, agreed) in enumerate(_MATRIX)
        ],
    )
    def test_matrix(self, manager, hello, agreed):
        refused_before = manager.health.corrupt_reports
        with socket.create_connection(
            (manager.host, manager.port), timeout=5
        ) as sock:
            send_frame(sock, {
                "type": "hello", "node": "matrix", "capacity": 2, **hello,
            })
            reply = recv_frame(sock)
        if agreed is None:
            assert reply["type"] == "error"
            assert f"v{PROTOCOL_VERSION}" in reply["reason"]
            assert manager.health.corrupt_reports == refused_before + 1
        else:
            assert reply["type"] == "welcome"
            assert reply["version"] == agreed
            assert manager.health.corrupt_reports == refused_before

    def test_constants_are_sane(self):
        assert PROTOCOL_VERSION == 7


# -- hostile frames -----------------------------------------------------------

def warm_pair() -> tuple[WireSession, WireSession]:
    """Both ends of a connection that has already carried traffic:
    interned strings, registered bodies."""
    sender, receiver = WireSession(), WireSession()
    frames = [
        encode_work_frame([
            TestRequest(
                request_id=i, subspace="net",
                scenario={"test": i, "function": "read", "call": 0},
                trace_id="t", parent_span="p",
            )
            for i in range(3)
        ], sender),
        encode_report_frame(
            [make_report(0), make_report(1, crash_kind=None, exit_code=0),
             make_report(2)], 2, sender
        ),
    ]
    for frame in frames:
        decode_binary_frame(payload_of(frame), receiver)
    assert receiver.seen_strings and len(receiver.seen_bodies) == 2
    return sender, receiver


def warm_receiver() -> WireSession:
    return warm_pair()[1]


def expect_wire_error(payload: bytes, session=None) -> None:
    """Decoding must fail with WireError and nothing else."""
    try:
        decode_binary_frame(payload, session)
    except WireError:
        return
    except Exception as exc:  # pragma: no cover - the bug being hunted
        pytest.fail(
            f"decoder leaked {type(exc).__name__} for {payload[:40]!r}"
        )
    pytest.fail(f"decoder accepted hostile payload {payload[:40]!r}")


def hostile_everywhere(payload: bytes) -> None:
    """WireError from a cold decoder and from a warm one."""
    expect_wire_error(payload)
    expect_wire_error(payload, warm_receiver())


def only_wire_errors(payload: bytes, session=None):
    """Decode; anything but success or WireError propagates (and fails)."""
    try:
        return decode_binary_frame(payload, session)
    except WireError:
        return None


_REPORT_HEAD = bytes([BINARY_MAGIC, 0x02, 0x00, 0x01, 0x00]) + \
    struct.pack(">d", 0.0) + b"\x00"  # slots 0, one report, id 0, cost 0.0,
#                                        test 0


class TestHostileBinaryFrames:
    def test_empty_payload(self):
        hostile_everywhere(b"")

    def test_magic_alone(self):
        hostile_everywhere(bytes([BINARY_MAGIC]))

    def test_unknown_kind(self):
        hostile_everywhere(bytes([BINARY_MAGIC, 0x7F]))

    def test_the_retired_deflate_envelope_is_refused(self):
        # 0xAE opened v3's compressed frames; v4 has no such layer.
        hostile_everywhere(b"\xae\x03x\x9c\x03\x00\x00\x00\x00\x01")
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 3) + b"\xae\x01\x00")
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_absurd_count_fails_before_allocating(self):
        # count = 2**35 requests; must die on the bounds check, not try
        # to build the list.
        hostile = bytes([BINARY_MAGIC, 0x01]) + b"\x80\x80\x80\x80\x80\x01"
        hostile_everywhere(hostile)

    def test_unterminated_varint(self):
        hostile = bytes([BINARY_MAGIC, 0x01]) + b"\x80" * 80
        hostile_everywhere(hostile)

    def test_dangling_string_backreference(self):
        # One request, id 0, whose subspace is string reference 0x7E —
        # past a cold table and past a warm one.
        hostile_everywhere(bytes([BINARY_MAGIC, 0x01, 0x01, 0x00, 0x7E]))
        good = payload_of(encode_work_frame([
            TestRequest(request_id=0, subspace="s", scenario={}),
        ]))
        for index in range(len(good)):
            mutated = bytearray(good)
            mutated[index] = 0x7E  # a large one-byte varint
            only_wire_errors(bytes(mutated))
            only_wire_errors(bytes(mutated), warm_receiver())

    def test_dangling_body_backreference(self):
        hostile_everywhere(_REPORT_HEAD + b"\x7e")
        # One past the end of a warm table is as dangling as any.
        warm = warm_receiver()
        expect_wire_error(
            _REPORT_HEAD + bytes([len(warm.seen_bodies) + 1]), warm
        )
        assert only_wire_errors(
            _REPORT_HEAD + bytes([len(warm.seen_bodies)]), warm_receiver()
        )["referenced"] == 1

    def test_keep_byte_must_be_zero_or_one(self):
        good = payload_of(encode_report_frame([make_report(0)]))
        assert good[-1] == 1  # the body was offered for registration
        for keep in (2, 0x7F, 0xFF):
            hostile_everywhere(good[:-1] + bytes([keep]))
        assert only_wire_errors(good[:-1] + b"\x00") is not None
        # Per-run fields make a body unregistrable, whatever ``keep`` says.
        traced = payload_of(
            encode_report_frame([make_report(0, spans=({"name": "run"},))])
        )
        assert traced[-1] == 0
        hostile_everywhere(traced[:-1] + b"\x01")

    def test_registration_past_the_cap_is_refused(self):
        frame = payload_of(encode_report_frame(
            [make_report(0), make_report(1, steps=11), make_report(2, steps=12)]
        ))
        assert len(only_wire_errors(frame)["reports"]) == 3
        with mock.patch.object(wire, "MAX_TABLE_ENTRIES", 2):
            # An honest encoder under the same cap stops offering ...
            capped = WireSession()
            encode_report_frame(
                [make_report(0), make_report(1, steps=11), make_report(2, steps=12)],
                0, capped,
            )
            assert len(capped.sent_bodies) == 2
            # ... so a third ``keep`` can only come from a liar.
            expect_wire_error(frame)

    def test_hostile_call_counts(self):
        plain = payload_of(encode_report_frame([make_report(0)]))
        counts = {"malloc": 2, "open": 3}
        honest = payload_of(
            encode_report_frame([make_report(0, call_counts=counts)]))
        # The flags byte is where the two first differ; the pairs sit
        # before the run's outcome fields — no crash or failure message,
        # no crash stack, no leaks: five bytes — and the ``keep`` byte.
        flag = next(i for i, (a, b) in enumerate(zip(plain, honest)) if a != b)
        assert honest[flag] == plain[flag] | 0x40
        outcome = plain[-6:-1]
        assert outcome == bytes(5)
        flagged = plain[:flag] + honest[flag:flag + 1] + plain[flag + 1:-6]
        malloc, open_ = b"\x00\x06malloc", b"\x00\x04open"

        def with_pairs(raw: bytes) -> bytes:
            return flagged + raw + outcome + b"\x01"

        pairs = b"\x02" + malloc + b"\x02" + open_ + b"\x03"
        assert with_pairs(pairs) == honest
        assert only_wire_errors(honest)["reports"][0].call_counts == counts
        # Flag set, nothing there: the outcome fields are read as a
        # count of none, and ``keep`` as a leak count.
        hostile_everywhere(with_pairs(b""))
        for cut in range(1, len(pairs)):        # truncated inside the pairs
            hostile_everywhere(flagged + pairs[:cut])
        # More pairs than bytes; a count whose varint never ends.
        hostile_everywhere(with_pairs(b"\x7f" + pairs[1:]))
        hostile_everywhere(with_pairs(b"\x01" + malloc + b"\xff" * 70))
        # One function twice.
        hostile_everywhere(
            with_pairs(b"\x02" + malloc + b"\x02" + malloc + b"\x03"))

    def test_retired_and_unknown_flag_bits_are_refused(self):
        plain = payload_of(encode_report_frame([make_report(0)]))
        other = payload_of(
            encode_report_frame([make_report(0, injected=False)]))
        # The flags byte is where the two first differ.
        flag = next(i for i, (a, b) in enumerate(zip(plain, other)) if a != b)
        assert plain[flag] == other[flag] | 0x02
        # v6's ``failed`` (0x01) is derived now, its provenance plane
        # (0x20) gone; 0x80 never meant anything.
        for bit in (0x01, 0x20, 0x80):
            hostile_everywhere(
                plain[:flag] + bytes([plain[flag] | bit]) + plain[flag + 1:])
        assert only_wire_errors(plain) is not None

    def test_trailing_bytes_after_payload(self):
        good = payload_of(encode_work_frame([]))
        hostile_everywhere(good + b"\x00")

    def test_truncations_never_leak_other_exceptions(self):
        report = make_report(
            3, crash_message="boom", crash_stack=("main", "abort"),
            failure_message="lost a row", open_fds=2, leaked_heap_bytes=64,
        )
        good = payload_of(encode_report_frame([report], slots=2))
        for cut in range(len(good)):
            hostile_everywhere(good[:cut])
        # The same reports as a warm connection sends them — one a body
        # reference, one inline but all string references — so the cuts
        # land on table lookups.
        sender, _ = warm_pair()
        warm = payload_of(encode_report_frame(
            [make_report(3), make_report(3, steps=11)], 2, sender
        ))
        assert len(warm) < len(good)
        for cut in range(len(warm)):
            expect_wire_error(warm[:cut], warm_receiver())

    @given(st.binary(max_size=200), st.booleans())
    def test_random_bytes_never_crash_the_decoder(self, blob, warm):
        only_wire_errors(
            bytes([BINARY_MAGIC]) + blob, warm_receiver() if warm else None
        )

    @given(
        st.binary(min_size=1, max_size=200), st.integers(0, 10_000),
        st.booleans(),
    )
    def test_single_byte_corruptions_never_crash_the_decoder(
        self, blob, seed, warm
    ):
        request = TestRequest(
            request_id=1, subspace="net",
            scenario={"test": 2, "function": "read", "call": 0},
            trace_id="t", parent_span="p",
        )
        if warm:
            # The frames a warm connection carries: every string a
            # reference, the report a body reference.
            sender, receiver = warm_pair()
            good = payload_of(
                encode_work_frame([request], sender) if seed % 2
                else encode_report_frame([make_report(5)], 2, sender)
            )
        else:
            good = payload_of(encode_work_frame([request]))
            receiver = None
        mutated = bytearray(good)
        position = seed % len(mutated)
        mutated[position] = blob[seed % len(blob)]
        decoded = only_wire_errors(bytes(mutated), receiver)
        # A corruption that still parses must at least be well-typed.
        assert decoded is None or decoded["type"] in ("work", "report_batch")
