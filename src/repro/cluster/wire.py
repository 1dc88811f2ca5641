"""The explorer ↔ node wire protocol: framing and codecs.

Every frame is a 4-byte big-endian unsigned length followed by exactly
that many payload bytes.  Two payload encodings share one stream:

* **JSON, the control plane** — UTF-8 JSON encoding one message object
  with a string ``type`` field.  JSON keeps registration, credit,
  liveness and fleet operations language-agnostic and auditable on the
  wire.
* **Binary, the data plane** — a struct-packed batched encoding of
  requests and reports.  A binary payload is recognized by its first
  byte, :data:`BINARY_MAGIC` (``0xAF``); a JSON object always starts
  with ``{`` so the two cannot be confused.  One ``work`` frame carries
  N packed requests; one ``report_batch`` frame carries N packed
  reports *plus* the node's free-slot count, so a chunk costs one frame
  each way.

Neither encoding is ever pickle: a garbage frame from a hostile or
corrupted peer is a :class:`WireError`, never remote code execution and
never a crashed manager.

There is **one dialect**, :data:`PROTOCOL_VERSION` (8).  The first
frame on a connection is the node's JSON ``hello`` carrying ``version``;
the manager answers ``welcome``, or ``error`` and a close when the
version is anything else.  Manager and node ship in one package, so
there is no older peer to stay compatible with (the JSON data plane the
binary one replaced cost ~977 bytes and 1.67 frames *per test*; see
``docs/PERFORMANCE.md``).

Message types (direction, purpose):

================  ==============  ==============================================
``hello``         node → manager  register: version, node name, capacity,
                                  ``identity`` (target/version/injector)
``welcome``       manager → node  registration accepted
``error``         manager → node  registration refused; connection closes
``ready``         node → manager  pull: node has ``slots`` free executors
``work``          manager → node  binary: a chunk of packed requests
``idle``          manager → node  no work right now; credit is remembered
``report_batch``  node → manager  binary: N packed reports + free-slot count
``heartbeat``     node → manager  liveness + load accounting
``drain``         node → manager  graceful leave — stop feeding me, retire
                                  me once my in-flight backlog empties
``steal``         manager → node  revoke ``ids`` reassigned to another node
``shutdown``      manager → node  campaign over: drain in-flight work and exit
``bye``           node → manager  graceful disconnect
================  ==============  ==============================================

:class:`TestRequest` is a dataclass of built-in types;
:class:`TestReport` carries the record of its run
(:func:`repro.core.runner.record`), whose
:class:`~repro.core.runner.Outcome` the codec writes field by field and
decodes into the receiver's intern table — a record's blank fields
(plan, test name, output streams, its own call counts) travel as
nothing and decode blank.  The binary
encoding canonicalizes like every other codec here (tuple ↔ sequence,
frozenset ↔ sorted sequence — see :func:`repro.core.fault.canonical`),
so a fault scenario or an injection stack round-trips the wire
bit-exactly.

Binary payload layout (all integers are LEB128 varints; signed values
zigzag-encoded; floats are big-endian IEEE-754 doubles)::

    payload   := 0xAF kind (work | reports)
    kind      := 0x01 (work) | 0x02 (report_batch)
    work      := count request*
    request   := id subspace:str naxes (name:str value)* trace parent
    reports   := slots count report*
    report    := id cost:f64 test:uvarint (bodyref | 0 body keep:u8)
    body      := flags [crash_kind:str] exit_code
                 ncov str* [nstack value*] steps nmeas (str number)*
                 nviol value* nspans value*
                 [ncounts (function:str count)*]
                 crash_message:value crash_stack:value
                 failure_message:value open_fds leaked_heap_bytes
                 (``call_counts`` pairs sorted by function, each once)
    flags     := bits 0x02 injected | 0x04 crash_kind | 0x08 stack
                 | 0x40 counts   (any other bit: WireError)
    str       := strref | 0 length utf8
    value     := tag payload   (None/bool/int/float/str/tuple/
                                frozenset/str-keyed dict)
    number    := 0x01 svarint  (integral values — most sensor
                                measurements are counters)
              |  0x00 f64      (everything else, ``-0.0`` included)

Strings and report bodies are **interned per connection**: each
direction of each connection owns a table pair (a :class:`WireSession`
holds both directions of one end) that lives from ``welcome`` to close
and starts empty on every reconnect.

* *Strings*: the first occurrence travels inline and takes the next
  index; every later one, in this frame or any after it, is a
  ``strref`` (index + 1).  Block, axis and function names are a small
  closed vocabulary, so a warm connection sends hardly any string bytes.
* *Report bodies* (every field but ``request_id``, ``cost`` and the
  record's test id): the fault space is as redundant as §5 says — 78 %
  of coreutils reports repeat a body their connection already carried
  — so a body without ``spans`` is registered by both ends the first
  time it is sent (``keep`` = 1) and is a ``bodyref`` ever after, for
  any test; the decoder pairs the registered outcome with the test id.
  A record's ``failed`` is derived (``crash_kind``, ``exit_code``), so
  it does not travel.  A body is referenced only if it would encode to
  the very same bytes: the lookup key, the outcome's intern key beside
  the reach, is type- and bit-exact (``1``/``1.0``/``True``,
  ``0.0``/``-0.0`` and NaN payloads never alias).

A table holds at most :data:`MAX_TABLE_ENTRIES`; past that, new entries
travel inline unregistered — both ends count alike, so nothing is
signalled.  Every reference is range-checked, and any malformation is a
:class:`WireError` that poisons the connection and with it the tables.
Both ends replay one sequence, so **a frame encoded against a session
must be the next data frame its connection sends** (an encode that
raises leaves the session as it found it).  A call without a session is
a one-frame session: same codec, self-contained bytes.  There is no
compression layer: the tables remove more bytes than v3's deflate
envelope did (21 against 101 per coreutils test) for none of its CPU
and none of its zip-bomb surface.
"""

from __future__ import annotations

import json
import marshal
import socket
import struct

from repro.cluster.messages import TestReport, TestRequest
from repro.core.runner import Record, intern_outcome
from repro.errors import ClusterError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_ITEMS",
    "MAX_TABLE_ENTRIES",
    "BINARY_MAGIC",
    "WireError",
    "WireSession",
    "encode_frame",
    "encode_work_frame",
    "encode_report_frame",
    "decode_binary_frame",
    "send_frame",
    "recv_frame",
    "parse_endpoint",
]

#: the protocol version this build speaks; bump on any incompatible
#: change to framing or schemas.  A ``hello`` carrying anything else is
#: refused.
PROTOCOL_VERSION = 8

#: upper bound on one frame's payload.  A report batch for the largest
#: simulated run is a few hundred kilobytes; anything near this bound
#: is a corrupted or malicious length prefix, not a real message.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: upper bound on requests/reports in one binary frame — a hostile
#: count must not convince the decoder to loop forever.
MAX_BATCH_ITEMS = 4096

#: upper bound on each intern table of a connection — a peer must not
#: grow one forever by inventing names.  A campaign's vocabulary is a
#: few hundred strings and as many frequent bodies.
MAX_TABLE_ENTRIES = 4096

#: first payload byte of a binary frame.  JSON payloads always start
#: with ``{`` (0x7B), so one byte disambiguates the encodings.
BINARY_MAGIC = 0xAF

_LENGTH = struct.Struct(">I")
_F64 = struct.Struct(">d")

_KIND_WORK = 0x01
_KIND_REPORT_BATCH = 0x02

#: value tags for the binary encoding.
_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_FLOAT = 0, 1, 2, 3, 4
_T_STR, _T_TUPLE, _T_FROZENSET, _T_DICT = 5, 6, 7, 8

#: nesting bound for encoded values — scenario values are shallow;
#: anything deeper is hostile or a bug, and unbounded recursion on
#: decode would be a remote crash vector.
_MAX_VALUE_DEPTH = 32

#: varint byte bound: 64 payload bytes ≈ 448 bits of integer, far past
#: any legitimate request id, count, or scenario value.
_MAX_VARINT_BYTES = 64


class WireError(ClusterError):
    """A frame was truncated, oversized, or not a valid protocol payload."""


class WireSession:
    """One end of one connection's intern tables, both directions.

    ``sent_*`` is what this end's encoder has registered (value →
    index), ``seen_*`` what its decoder has (index → value); the peer's
    session mirrors them.  One per connection, dropped with it.  One
    thread encodes and one decodes, each in stream order.
    """

    __slots__ = ("sent_strings", "sent_bodies", "seen_strings", "seen_bodies")

    def __init__(self) -> None:
        self.sent_strings: dict[str, int] = {}
        self.sent_bodies: dict[object, int] = {}
        self.seen_strings: list[str] = []
        #: ``(outcome, reach)`` per registered body.
        self.seen_bodies: list[tuple] = []


def _framed(payload: "bytes | bytearray") -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(len(payload)) + payload


def encode_frame(message: dict) -> bytes:
    """One JSON message as bytes: 4-byte big-endian length + UTF-8 JSON."""
    return _framed(json.dumps(message, separators=(",", ":")).encode("utf-8"))


def send_frame(sock: socket.socket, message: dict) -> int:
    """Write one framed JSON message; returns the bytes put on the wire."""
    data = encode_frame(message)
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or None on clean EOF at a frame
    boundary; EOF *inside* a frame is a :class:`WireError`."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if len(chunks) == 0:
                return None
            raise WireError(
                f"connection closed mid-frame "
                f"({count - remaining}/{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
    counter: "object | None" = None,
    session: WireSession | None = None,
) -> dict | None:
    """Read one framed message; None on clean EOF.

    ``counter``, when given, is called with the frame's total wire size
    (header + payload) — how the manager accounts inbound bytes without
    a second pass over the stream.

    A payload starting with :data:`BINARY_MAGIC` is decoded by the
    binary codec against ``session``, the connection's tables (``work``
    frames yield :class:`TestRequest` objects in ``requests``;
    ``report_batch`` frames yield :class:`TestReport` objects in
    ``reports`` plus ``slots``); anything else is parsed as JSON.
    Raises :class:`WireError` on a truncated frame, an oversized or
    zero length prefix, undecodable bytes, or a payload that is not a
    typed message — the caller must treat the connection as poisoned
    (framing state and tables are unrecoverable once the byte stream
    desynchronizes).
    """
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    # A partial header is mid-frame EOF too, handled in _recv_exactly.
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise WireError(f"invalid frame length {length}")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise WireError("connection closed between length prefix and payload")
    if counter is not None:
        counter(_LENGTH.size + length)
    if payload[0] == BINARY_MAGIC:
        return decode_binary_frame(payload, session)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise WireError(f"frame is not a typed message object: {message!r}")
    return message


# -- binary codec (the data plane) ----------------------------------------------


class _Writer:
    """Accumulates one binary payload, interning strings in the
    caller's table (a connection's, or a fresh one for a lone frame)."""

    __slots__ = ("buf", "strings", "bodies")

    def __init__(self, session: WireSession, kind: int) -> None:
        self.buf = bytearray((BINARY_MAGIC, kind))
        self.strings = session.sent_strings
        self.bodies = session.sent_bodies

    def uvarint(self, n: int) -> None:
        buf = self.buf
        while n > 0x7F:
            buf.append((n & 0x7F) | 0x80)
            n >>= 7
        buf.append(n)

    def svarint(self, n: int) -> None:
        # Unbounded zigzag: non-negative n → 2n, negative n → -2n - 1.
        self.uvarint(-2 * n - 1 if n < 0 else 2 * n)

    def f64(self, v: float) -> None:
        self.buf += _F64.pack(v)

    def number(self, v: float) -> None:
        """A float that is usually a small integer (sensor measurements
        are almost all counters): 1 + zigzag varint when the value is
        integral, 0 + raw IEEE-754 otherwise.  Bit-exact both ways:
        ``-0.0`` is integral to ``is_integer`` but has no varint, so it
        travels as the f64 it is."""
        if v.is_integer() and abs(v) < 2.0 ** 53 \
                and (v != 0.0 or _F64.pack(v) != _NEGATIVE_ZERO):
            self.buf.append(1)
            self.svarint(int(v))
        else:
            self.buf.append(0)
            self.f64(v)

    def string(self, s: str) -> None:
        """Interned string: index+1 back-reference, or 0 + inline bytes
        (registered while the table has room)."""
        strings = self.strings
        index = strings.get(s)
        if index is not None:
            self.uvarint(index + 1)
            return
        self.buf.append(0)
        raw = s.encode("utf-8")
        self.uvarint(len(raw))
        self.buf += raw
        if len(strings) < MAX_TABLE_ENTRIES:
            strings[s] = len(strings)

    def value(self, v: object, depth: int = 0) -> None:
        """One tagged value, canonicalized (lists encode as tuples,
        sets as frozensets)."""
        if depth > _MAX_VALUE_DEPTH:
            raise WireError(f"value nests deeper than {_MAX_VALUE_DEPTH}")
        buf = self.buf
        if v is None:
            buf.append(_T_NONE)
        elif v is True:
            buf.append(_T_TRUE)
        elif v is False:
            buf.append(_T_FALSE)
        elif isinstance(v, int):
            buf.append(_T_INT)
            self.svarint(v)
        elif isinstance(v, float):
            buf.append(_T_FLOAT)
            self.f64(v)
        elif isinstance(v, str):
            buf.append(_T_STR)
            self.string(v)
        elif isinstance(v, (tuple, list)):
            buf.append(_T_TUPLE)
            self.uvarint(len(v))
            for item in v:
                self.value(item, depth + 1)
        elif isinstance(v, (frozenset, set)):
            buf.append(_T_FROZENSET)
            items = sorted(v, key=repr)  # deterministic bytes
            self.uvarint(len(items))
            for item in items:
                self.value(item, depth + 1)
        elif isinstance(v, dict):
            buf.append(_T_DICT)
            self.uvarint(len(v))
            for key in sorted(v):  # deterministic bytes
                if not isinstance(key, str):
                    raise WireError(
                        f"wire dicts need string keys, got {key!r}"
                    )
                self.string(key)
                self.value(v[key], depth + 1)
        else:
            raise WireError(
                f"cannot encode a {type(v).__name__} on the wire: {v!r}"
            )


_NEGATIVE_ZERO = _F64.pack(-0.0)


class _Reader:
    """Bounds-checked decoder over one binary payload, resolving string
    references in the caller's table."""

    __slots__ = ("data", "pos", "_strings", "inline")

    def __init__(self, data: bytes, strings: list[str]) -> None:
        self.data = data
        self.pos = 0
        self._strings = strings
        #: report bodies this payload carried whole (the rest were
        #: references).
        self.inline = 0

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise WireError(
                f"binary frame truncated at byte {self.pos} "
                f"(wanted {count} more of {len(self.data)})"
            )

    def byte(self) -> int:
        try:
            b = self.data[self.pos]
        except IndexError:
            raise WireError(
                f"binary frame truncated at byte {self.pos}"
            ) from None
        self.pos += 1
        return b

    def uvarint(self) -> int:
        b = self.byte()
        if b < 0x80:  # the common case: counts, references, small ids
            return b
        result = b & 0x7F
        shift = 7
        for _ in range(_MAX_VARINT_BYTES - 1):
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7
        raise WireError(f"varint longer than {_MAX_VARINT_BYTES} bytes")

    def svarint(self) -> int:
        u = self.uvarint()
        return -((u + 1) >> 1) if u & 1 else u >> 1

    def f64(self) -> float:
        self._need(8)
        (v,) = _F64.unpack_from(self.data, self.pos)
        self.pos += 8
        return v

    def number(self) -> float:
        form = self.byte()
        if form == 1:
            return float(self.svarint())
        if form == 0:
            return self.f64()
        raise WireError(f"unknown number form {form}")

    def count(self, what: str) -> int:
        """A collection length; bounded by the bytes actually present
        (every element costs at least one byte), so a hostile count
        fails here instead of sizing a giant allocation."""
        n = self.uvarint()
        if n > len(self.data) - self.pos:
            raise WireError(f"{what} count {n} exceeds the frame")
        return n

    def string(self) -> str:
        index = self.uvarint()
        strings = self._strings
        if index == 0:
            length = self.count("string byte")
            raw = self.data[self.pos:self.pos + length]
            self.pos += length
            try:
                s = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(f"undecodable interned string: {exc}") from None
            if len(strings) < MAX_TABLE_ENTRIES:
                strings.append(s)
            return s
        if index > len(strings):
            raise WireError(f"string back-reference {index} out of range")
        return strings[index - 1]

    def value(self, depth: int = 0) -> object:
        if depth > _MAX_VALUE_DEPTH:
            raise WireError(f"value nests deeper than {_MAX_VALUE_DEPTH}")
        tag = self.byte()
        if tag == _T_NONE:
            return None
        if tag == _T_FALSE:
            return False
        if tag == _T_TRUE:
            return True
        if tag == _T_INT:
            return self.svarint()
        if tag == _T_FLOAT:
            return self.f64()
        if tag == _T_STR:
            return self.string()
        if tag == _T_TUPLE:
            return tuple(
                self.value(depth + 1) for _ in range(self.count("tuple"))
            )
        if tag == _T_FROZENSET:
            return frozenset(
                self.value(depth + 1) for _ in range(self.count("frozenset"))
            )
        if tag == _T_DICT:
            return {
                self.string(): self.value(depth + 1)
                for _ in range(self.count("dict"))
            }
        raise WireError(f"unknown value tag {tag}")

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise WireError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def _encode(session: WireSession | None, kind: int, items: int, fill) -> bytes:
    """Frame one binary payload of ``items`` entries; ``fill(writer)``
    writes what follows the kind byte.  An encode that raises rolls the
    tables back: they never hold an entry the peer was not sent."""
    if items > MAX_BATCH_ITEMS:
        raise WireError(
            f"refusing to pack {items} items in one frame "
            f"(limit {MAX_BATCH_ITEMS})"
        )
    w = _Writer(session or WireSession(), kind)
    marks = len(w.strings), len(w.bodies)
    try:
        fill(w)
        return _framed(w.buf)
    except BaseException:
        for table, mark in zip((w.strings, w.bodies), marks):
            while len(table) > mark:
                table.popitem()
        raise


def encode_work_frame(
    requests: "list[TestRequest]", session: WireSession | None = None
) -> bytes:
    """N requests as one framed binary ``work`` payload."""

    def fill(w: _Writer) -> None:
        w.uvarint(len(requests))
        for request in requests:
            w.svarint(request.request_id)
            w.string(request.subspace)
            w.uvarint(len(request.scenario))
            for name, value in request.scenario.items():
                w.string(name)
                w.value(value)
            w.value(request.trace_id)
            w.value(request.parent_span)

    return _encode(session, _KIND_WORK, len(requests), fill)


# report flag bits; 0x01 (v6's ``failed``), 0x10 (v7's stack digest)
# and 0x20 (v6's provenance plane) are retired, and a body setting them
# is refused.
_F_INJECTED, _F_CRASH_KIND, _F_STACK = 0x02, 0x04, 0x08
#: report carries ``call_counts`` (a fault-free run's reach).
_F_CALL_COUNTS = 0x40
_F_KNOWN = _F_INJECTED | _F_CRASH_KIND | _F_STACK | _F_CALL_COUNTS
#: what a record's crash message, crash stack and failure message may be.
_OUTCOME_TEXT_TYPES = ((str, type(None)), (tuple, type(None)), (str, type(None)))


def _body_key(report: TestReport) -> object | None:
    """The body table's lookup key (equal keys ⇒ identical body bytes),
    or None for a body that may not be referenced: one with per-run
    ``spans``, or with a field no key can stand for.

    The outcome's intern key, and the report's reach beside it.
    """
    if report.spans:
        return None
    body = report.result.outcome.key
    if body is None or report.call_counts is None:
        return body
    try:
        return body, marshal.dumps(sorted(report.call_counts.items()), 2)
    except (TypeError, ValueError):
        return None


def _write_body(w: _Writer, report: TestReport) -> None:
    result = report.result.outcome
    w.buf.append(
        (_F_INJECTED if result.injected else 0)
        | (_F_CRASH_KIND if result.crash_kind is not None else 0)
        | (_F_STACK if result.injection_stack is not None else 0)
        | (_F_CALL_COUNTS if report.call_counts is not None else 0)
    )
    if result.crash_kind is not None:
        w.string(str(result.crash_kind))
    w.svarint(result.exit_code)
    # Sorted, so identical reports encode to identical bytes.
    blocks = sorted(result.coverage)
    w.uvarint(len(blocks))
    for block in blocks:
        w.string(block)
    if result.injection_stack is not None:
        w.uvarint(len(result.injection_stack))
        for entry in result.injection_stack:
            w.value(entry)
    w.svarint(result.steps)
    w.uvarint(len(result.measurements))
    for key in sorted(result.measurements):
        w.string(str(key))
        w.number(float(result.measurements[key]))
    w.uvarint(len(result.invariant_violations))
    for violation in result.invariant_violations:
        w.value(violation)
    w.uvarint(len(report.spans))
    for span in report.spans:
        w.value(dict(span))
    if report.call_counts is not None:
        w.uvarint(len(report.call_counts))
        for function in sorted(report.call_counts):
            w.string(function)
            w.uvarint(report.call_counts[function])
    w.value(result.crash_message)
    w.value(result.crash_stack)
    w.value(result.failure_message)
    w.svarint(result.open_fds)
    w.svarint(result.leaked_heap_bytes)


def encode_report_frame(
    reports: "list[TestReport]",
    slots: int = 0,
    session: WireSession | None = None,
) -> bytes:
    """N reports + the node's free-slot count as one framed payload.

    ``slots`` piggybacks the node's refreshed backpressure credit, so
    a chunk's results and its re-credit are one frame.
    """
    if slots < 0:
        raise WireError(f"slots must be non-negative, got {slots}")

    def fill(w: _Writer) -> None:
        bodies = w.bodies
        w.uvarint(slots)
        w.uvarint(len(reports))
        for report in reports:
            w.svarint(report.request_id)
            w.f64(float(report.cost))
            result = report.result
            if result.outcome.provenance:   # the replay path's, never shipped
                raise WireError("the wire carries no provenance log")
            if result.test_id < 0:
                raise WireError(f"negative test id {result.test_id}")
            w.uvarint(result.test_id)
            key = _body_key(report)
            index = None if key is None else bodies.get(key)
            if index is not None:
                w.uvarint(index + 1)
                continue
            w.buf.append(0)
            _write_body(w, report)
            keep = key is not None and len(bodies) < MAX_TABLE_ENTRIES
            if keep:
                bodies[key] = len(bodies)
            w.buf.append(keep)  # 0 or 1

    return _encode(session, _KIND_REPORT_BATCH, len(reports), fill)


def _read_request(r: _Reader) -> TestRequest:
    request_id = r.svarint()
    subspace = r.string()
    scenario: dict[str, object] = {}
    for _ in range(r.count("scenario axis")):
        # Explicit ordering: the subscript-assignment form would
        # evaluate the value before the key.
        name = r.string()
        scenario[name] = r.value()
    trace_id = r.value()
    parent_span = r.value()
    if trace_id is not None and not isinstance(trace_id, str):
        raise WireError(f"trace id must be a string, got {trace_id!r}")
    if parent_span is not None and not isinstance(parent_span, str):
        raise WireError(f"parent span must be a string, got {parent_span!r}")
    return TestRequest(
        request_id=request_id,
        subspace=subspace,
        scenario=scenario,
        trace_id=trace_id,
        parent_span=parent_span,
    )


def _read_report(r: _Reader, bodies: list[tuple]) -> TestReport:
    """One report.  A body arriving with ``keep`` joins ``bodies`` as
    ``(outcome, reach)``; a reference pairs that outcome with its test
    id, and gets a reach dict of its own."""
    request_id = r.svarint()
    cost = r.f64()
    test = r.uvarint()
    index = r.uvarint()
    if index:
        if index > len(bodies):
            raise WireError(f"body back-reference {index} out of range")
        outcome, counts = bodies[index - 1]
        return TestReport(
            request_id, Record(test, outcome), cost, (),
            None if counts is None else dict(counts),
        )
    r.inline += 1
    flags = r.byte()
    if flags & ~_F_KNOWN:
        raise WireError(f"unknown report flag bits {flags & ~_F_KNOWN:#04x}")
    crash_kind = r.string() if flags & _F_CRASH_KIND else None
    exit_code = r.svarint()
    coverage = frozenset(r.string() for _ in range(r.count("coverage block")))
    injection_stack = (
        tuple(r.value() for _ in range(r.count("stack entry")))
        if flags & _F_STACK else None
    )
    steps = r.svarint()
    measurements = {
        r.string(): r.number() for _ in range(r.count("measurement"))
    }
    invariant_violations = tuple(
        r.value() for _ in range(r.count("violation"))
    )
    spans = tuple(r.value() for _ in range(r.count("span")))
    if not all(isinstance(span, dict) for span in spans):
        raise WireError("report spans must decode to dicts")
    counts: dict[str, int] | None = None
    if flags & _F_CALL_COUNTS:
        counts = {}
        for _ in range(r.count("call count")):
            function = r.string()
            if function in counts:
                raise WireError(f"call count for {function!r} sent twice")
            counts[function] = r.uvarint()
    texts = (r.value(), r.value(), r.value())
    if not all(map(isinstance, texts, _OUTCOME_TEXT_TYPES)):
        raise WireError("report crash and failure fields are malformed")
    crash_message, crash_stack, failure_message = texts
    open_fds = r.svarint()
    leaked_heap_bytes = r.svarint()
    outcome = intern_outcome((
        coverage, exit_code, crash_kind, crash_message, crash_stack,
        injection_stack, bool(flags & _F_INJECTED), steps, failure_message,
        measurements, open_fds, leaked_heap_bytes, invariant_violations, (),
    ))
    keep = r.byte()
    if keep == 1:
        if spans or len(bodies) >= MAX_TABLE_ENTRIES:
            raise WireError("report body may not be registered")
        bodies.append((outcome, None if counts is None else dict(counts)))
    elif keep != 0:
        raise WireError(f"unknown keep byte {keep}")
    return TestReport(request_id, Record(test, outcome), cost, spans, counts)


def decode_binary_frame(
    payload: bytes, session: WireSession | None = None
) -> dict:
    """One binary payload as a typed message dict.

    ``work`` payloads decode to ``{"type": "work", "requests":
    [TestRequest, ...]}``; ``report_batch`` payloads to ``{"type":
    "report_batch", "reports": [TestReport, ...], "slots": int,
    "referenced": how many of them were body references}``.
    ``session`` is the receiving connection's tables (None: the payload
    is a one-frame session).  Every malformation — bad magic, unknown
    kind or tag, truncation, hostile counts, dangling string or body
    references, a bad ``keep``, trailing bytes — is a
    :class:`WireError`, after which the session's connection is
    poisoned; the decoder never raises anything else and never executes
    peer-controlled code.
    """
    session = session or WireSession()
    try:
        r = _Reader(payload, session.seen_strings)
        if r.byte() != BINARY_MAGIC:
            raise WireError("binary payload without magic byte")
        kind = r.byte()
        if kind == _KIND_WORK:
            n = r.count("request")
            if n > MAX_BATCH_ITEMS:
                raise WireError(f"work batch of {n} exceeds {MAX_BATCH_ITEMS}")
            message: dict = {
                "type": "work",
                "requests": [_read_request(r) for _ in range(n)],
            }
        elif kind == _KIND_REPORT_BATCH:
            slots = r.uvarint()
            n = r.count("report")
            if n > MAX_BATCH_ITEMS:
                raise WireError(
                    f"report batch of {n} exceeds {MAX_BATCH_ITEMS}"
                )
            bodies = session.seen_bodies
            message = {
                "type": "report_batch",
                "slots": slots,
                "reports": [_read_report(r, bodies) for _ in range(n)],
                "referenced": n - r.inline,
            }
        else:
            raise WireError(f"unknown binary frame kind {kind}")
        r.finish()
        return message
    except WireError:
        raise
    except Exception as exc:
        # Defense in depth: any decoder bug surfaces as a poisoned
        # frame, not a crashed manager thread.
        raise WireError(f"malformed binary frame: {exc!r}") from None


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, validating the port range."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ClusterError(
            f"endpoint must look like HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterError(f"invalid port in endpoint {text!r}") from None
    if not 0 <= port <= 65535:
        raise ClusterError(f"port out of range in endpoint {text!r}")
    return host, port
