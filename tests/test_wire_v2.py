"""Property tests for the binary wire protocol (cluster/wire.py).

Three layers of assurance for the batched data plane:

* hypothesis round-trips: every encodable :class:`TestRequest` /
  :class:`TestReport` — including tuple/frozenset scenario values and
  heavy string repetition (the interning path) — decodes back to an
  equal message;
* a hello matrix against a live manager: version 3 is welcomed, every
  other version (older dialects included) gets an ``error`` frame;
* hostile-frame fuzzing: arbitrary and surgically corrupted binary
  payloads must surface as :class:`WireError`, never as any other
  exception (the manager treats WireError as a poisoned peer; anything
  else would crash its serve thread).
"""

from __future__ import annotations

import socket
import struct

import pytest
from hypothesis import given, strategies as st

from repro.cluster.messages import TestReport, TestRequest
from repro.cluster.socket_fabric import SocketFabric
from repro.cluster.wire import (
    BINARY_MAGIC,
    MAX_BATCH_ITEMS,
    PROTOCOL_VERSION,
    WireError,
    decode_binary_frame,
    encode_report_frame,
    encode_work_frame,
    recv_frame,
    send_frame,
)


def payload_of(frame: bytes) -> bytes:
    """Strip the 4-byte length prefix off an encoded frame."""
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


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

_reports = st.builds(
    TestReport,
    request_id=st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    manager=st.text(max_size=12),
    failed=st.booleans(),
    crash_kind=st.none() | st.sampled_from(
        ["segfault", "abort", "oom", "hang"]
    ),
    exit_code=st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    coverage=st.frozensets(st.text(max_size=10), max_size=6),
    injection_stack=st.none() | st.lists(
        st.text(max_size=10), max_size=4
    ).map(tuple),
    injected=st.booleans(),
    steps=st.integers(min_value=0, max_value=2 ** 40),
    measurements=st.dictionaries(
        st.text(max_size=10),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        max_size=4,
    ),
    cost=st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False, width=64
    ),
    invariant_violations=st.lists(st.text(max_size=12), max_size=3).map(tuple),
    spans=st.lists(
        st.dictionaries(st.text(max_size=8), _atoms, max_size=3),
        max_size=2,
    ).map(tuple),
    stack_digest=st.none() | st.text(max_size=16),
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

    def test_negative_slots_refused(self):
        with pytest.raises(WireError):
            encode_report_frame([], slots=-1)


# -- the hello matrix ----------------------------------------------------------

@pytest.fixture(scope="module")
def manager():
    with SocketFabric("127.0.0.1:0", expected_nodes=1) as net:
        yield net


class TestNegotiation:
    @pytest.mark.parametrize(
        ("hello", "agreed"),
        [
            # The one dialect; keys the manager does not know are ignored.
            ({"version": 3}, 3),
            ({"version": 3, "extension": "x"}, 3),
            # The dialects this one replaced.
            ({"version": 2}, None),
            ({"version": 1}, None),
            # Versions that never existed, or do not exist yet.
            ({"version": 0}, None),
            ({"version": -3}, None),
            # Capacity bounds do not interact with the version check.
            ({"version": 3, "capacity": 1}, 3),
            ({"version": 3, "capacity": 256}, 3),
            ({"version": 4}, None),
            ({"version": 9}, None),
            # Garbage hellos: missing or non-int versions.
            ({}, None),
            ({"version": "3"}, None),
            ({"version": True}, None),
            ({"version": 3.0}, None),
            ({"version": None}, None),
            ({"version": [3]}, None),
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
        assert PROTOCOL_VERSION == 3


# -- hostile frames -----------------------------------------------------------

def expect_wire_error(payload: bytes) -> None:
    """Decoding must fail with WireError and nothing else."""
    try:
        decode_binary_frame(payload)
    except WireError:
        return
    except Exception as exc:  # pragma: no cover - the bug being hunted
        pytest.fail(
            f"decoder leaked {type(exc).__name__} for {payload[:40]!r}"
        )
    pytest.fail(f"decoder accepted hostile payload {payload[:40]!r}")


class TestHostileBinaryFrames:
    def test_empty_payload(self):
        expect_wire_error(b"")

    def test_magic_alone(self):
        expect_wire_error(bytes([BINARY_MAGIC]))

    def test_unknown_kind(self):
        expect_wire_error(bytes([BINARY_MAGIC, 0x7F]))

    def test_absurd_count_fails_before_allocating(self):
        # count = 2**35 requests; must die on the bounds check, not try
        # to build the list.
        hostile = bytes([BINARY_MAGIC, 0x01]) + b"\x80\x80\x80\x80\x80\x01"
        expect_wire_error(hostile)

    def test_unterminated_varint(self):
        hostile = bytes([BINARY_MAGIC, 0x01]) + b"\x80" * 80
        expect_wire_error(hostile)

    def test_dangling_string_backreference(self):
        good = payload_of(encode_work_frame([
            TestRequest(request_id=0, subspace="s", scenario={}),
        ]))
        # The subspace string is the frame's first interned entry; bump
        # its back-reference varint into the out-of-range zone.
        for index in range(len(good)):
            mutated = bytearray(good)
            mutated[index] = 0x7E  # a large one-byte varint
            try:
                decode_binary_frame(bytes(mutated))
            except WireError:
                pass  # every failure mode must look like this

    def test_trailing_bytes_after_payload(self):
        good = payload_of(encode_work_frame([]))
        expect_wire_error(good + b"\x00")

    def test_truncations_never_leak_other_exceptions(self):
        report = TestReport(
            request_id=3, manager="m", failed=True, crash_kind="segfault",
            exit_code=139, coverage=frozenset({"a", "b"}),
            injection_stack=("main", "read"), injected=True, steps=10,
            measurements={"steps": 10.0}, cost=0.01,
            invariant_violations=("inv",), spans=(),
            stack_digest="digest",
        )
        good = payload_of(encode_report_frame([report], slots=2))
        for cut in range(len(good)):
            expect_wire_error(good[:cut])

    def test_deflate_bomb_dies_on_the_envelope(self):
        import zlib

        from repro.cluster.wire import DEFLATE_MAGIC, MAX_FRAME_BYTES

        # A tiny stream claiming to inflate past the frame bound.
        claim = MAX_FRAME_BYTES + 1
        size = bytearray()
        n = claim
        while n > 0x7F:
            size.append((n & 0x7F) | 0x80)
            n >>= 7
        size.append(n)
        bomb = bytes([DEFLATE_MAGIC]) + bytes(size) + zlib.compress(
            b"\x00" * 1024
        )
        expect_wire_error(bomb)

    def test_deflated_size_lie_is_rejected(self):
        import zlib

        from repro.cluster.wire import DEFLATE_MAGIC

        inner = payload_of(encode_work_frame([
            TestRequest(request_id=i, subspace="net", scenario={"call": i})
            for i in range(40)
        ]))
        if inner[0] == DEFLATE_MAGIC:  # already enveloped: unwrap raw
            decoded = decode_binary_frame(inner)
            assert len(decoded["requests"]) == 40
        # Hand-build envelopes whose declared size is wrong.
        stream = zlib.compress(b"\xaf\x01\x00")  # a valid empty batch
        for lie in (0x00, 0x01, 0x7F):
            expect_wire_error(bytes([DEFLATE_MAGIC, lie]) + stream[:-1])

    def test_large_frames_travel_deflated_and_roundtrip(self):
        from repro.cluster.wire import DEFLATE_MAGIC

        requests = [
            TestRequest(
                request_id=i, subspace="net",
                scenario={"test": i % 7, "function": "malloc", "call": i},
            )
            for i in range(200)
        ]
        frame = payload_of(encode_work_frame(requests))
        assert frame[0] == DEFLATE_MAGIC  # big enough to deflate
        assert decode_binary_frame(frame)["requests"] == requests

    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash_the_decoder(self, blob):
        try:
            decode_binary_frame(bytes([BINARY_MAGIC]) + blob)
        except WireError:
            pass

    @given(st.binary(max_size=200))
    def test_random_deflate_payloads_never_crash_the_decoder(self, blob):
        from repro.cluster.wire import DEFLATE_MAGIC

        try:
            decode_binary_frame(bytes([DEFLATE_MAGIC]) + blob)
        except WireError:
            pass

    @given(st.binary(min_size=1, max_size=200), st.integers(0, 10_000))
    def test_single_byte_corruptions_never_crash_the_decoder(
        self, blob, seed
    ):
        good = payload_of(encode_work_frame([
            TestRequest(
                request_id=1, subspace="net",
                scenario={"test": 2, "function": "read", "call": 0},
                trace_id="t", parent_span="p",
            ),
        ]))
        mutated = bytearray(good)
        position = seed % len(mutated)
        mutated[position] = blob[seed % len(blob)]
        try:
            decoded = decode_binary_frame(bytes(mutated))
        except WireError:
            return
        # A corruption that still parses must at least be well-typed.
        assert decoded["type"] in ("work", "report_batch")
