"""The simulated C library — the application–library interface under test.

This module substitutes for ``libc.so`` + LFI in the paper's setup.
Programs under test call these functions exactly as C programs call
libc; each call

1. counts against the per-function call counter (the ``callNumber``
   axis of the fault space),
2. counts against the process step budget (exceeding it models a hang),
3. is checked against the active :class:`~repro.injection.plan.InjectionPlan`
   — one probe of its ``function → faults`` table, so a call to a
   function the scenario does not target costs a dict miss; if an atomic
   fault fires, the *real operation is not performed* and the injected
   (errno, retval) is returned instead — LFI's interposition model,
   where the wrapped function is never entered.

Return conventions mirror C:

* pointer-returning functions (``malloc``, ``strdup``, ``fopen``,
  ``opendir``, ``setlocale``, ``getcwd``) return an integer pointer or
  object, with ``0``/``None`` standing for NULL;
* int-returning wrappers (``open``, ``close``, ``read``, ``write``,
  ``stat``...) return ``-1`` on failure with ``errno`` set;
* genuine environment errors (file not found, fd table full) produce
  the same failure returns *without* any injection — the targets'
  error-handling code is real code that runs in production too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.injection.plan import AtomicFault, InjectionPlan
from repro.sim.crashes import HangDetected
from repro.sim.errnos import Errno
from repro.sim.filesystem import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    FsError,
    SimFilesystem,
    StatResult,
)
from repro.sim.heap import NULL, Heap
from repro.sim.stack import CallStack

__all__ = [
    "CallRecord",
    "InjectionEvent",
    "LazyProvenance",
    "ProvenanceRecord",
    "NULL",
    "SimLibc",
    "O_RDONLY",
    "O_WRONLY",
    "O_RDWR",
    "O_CREAT",
    "O_EXCL",
    "O_TRUNC",
    "O_APPEND",
]

#: default per-test libc-call budget; exceeding it is reported as a hang.
DEFAULT_STEP_BUDGET = 50_000


@dataclass(frozen=True)
class CallRecord:
    """One traced library call (only recorded when tracing is enabled)."""

    seq: int
    function: str
    call_number: int
    stack: tuple[str, ...] | None


@dataclass(frozen=True)
class InjectionEvent:
    """A fault that actually fired during execution."""

    fault: AtomicFault
    call_number: int
    stack: tuple[str, ...]


class ProvenanceRecord(NamedTuple):
    """One call-level provenance entry (opt-in, the replay/explain path).

    A tuple subclass on purpose: records are created on every libc call
    when provenance is enabled, serialize to JSON as plain lists, and
    round-trip through every codec without a bespoke adapter.
    """

    #: global call sequence number (1-based, the step counter).
    seq: int
    #: the intercepted libc function.
    function: str
    #: per-function call number (the ``callNumber`` fault-space axis).
    call_number: int
    #: what the call touched: ``path``/``fd``/``stream``/``dir``/
    #: ``heap``/``socket``, or ``call`` for calls with no resource.
    kind: str
    #: the resolved resource name (a sim-FS path, heap size, socket
    #: id), or None for resource-free calls.
    resource: str | None
    #: True when an atomic fault fired on this very call.
    injected: bool

    @classmethod
    def from_raw(cls, row: "list | tuple") -> "ProvenanceRecord":
        """Rebuild a record from its JSON/wire list form."""
        seq, function, call_number, kind, resource, injected = row
        return cls(
            int(seq), str(function), int(call_number), str(kind),
            None if resource is None else str(resource), bool(injected),
        )


def _normalize_path(path: str, cwd: str) -> str:
    """Pure mirror of :meth:`SimFilesystem.resolve` for deferred use.

    Resolution must not need the filesystem object itself (a provenance
    log outlives its run and must not pin the simulated world in
    memory), so this reimplements the path normalization over a cwd
    string snapshot.
    """
    if not path:
        return path
    if not path.startswith("/"):
        path = cwd.rstrip("/") + "/" + path
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


class LazyProvenance:
    """A run's provenance log, resolved on first read.

    Capture on the interposition hot path appends one raw row per call,
    ``(function, kind, operand)`` — locals :meth:`SimLibc._enter` already
    holds — and everything else is deferred until somebody actually
    reads the log (the replay/explain path): a row's sequence number is
    its position, its call number is recounted in order, ``injected``
    comes from the set of sequence numbers a fault fired on, and
    resources are resolved by name.  That keeps enabled capture within the
    replay overhead budget while runs that never read the log pay next
    to nothing.  Deferred resolution is still exact: the sim never
    reuses fd/stream/dir ids, and every wrapper that creates one
    records its name at birth — so only the small name tables are
    retained here, never the libc/filesystem world (which would turn
    every provenance-on run into GC ballast).

    Compares, iterates, indexes, and pickles as the materialized tuple
    of records.
    """

    __slots__ = (
        "_rows", "_injected", "_fd_names", "_stream_names", "_dir_names",
        "_cwd", "_records",
    )

    def __init__(
        self,
        rows: tuple,
        injected: "set[int]",
        fd_names: dict,
        stream_names: dict,
        dir_names: dict,
        cwd: str,
    ) -> None:
        self._rows = rows
        self._injected = injected
        self._fd_names = fd_names
        self._stream_names = stream_names
        self._dir_names = dir_names
        self._cwd = cwd
        self._records: "tuple | None" = None

    def _resolve(
        self, kind: "str | None", operand: object
    ) -> "tuple[str, str | None]":
        """Resolve a call's operand to a stable resource name.

        Best-effort: an fd/stream/dir id with no recorded name (e.g. a
        descriptor the target conjured without going through libc)
        keeps its numeric identity rather than failing the read.
        """
        if kind is None:
            return "call", None
        if kind == "fd":
            name = self._fd_names.get(operand)
            return "fd", name if name is not None else f"fd:{operand}"
        if kind == "path":
            return "path", _normalize_path(str(operand), self._cwd)
        if kind == "stream":
            name = self._stream_names.get(operand)
            return "stream", name if name is not None else f"stream:{operand}"
        if kind == "dir":
            name = self._dir_names.get(operand)
            return "dir", name if name is not None else f"dir:{operand}"
        if kind == "heap":
            return "heap", f"{operand}B"
        if kind == "socket":
            return "socket", f"socket:{operand}"
        return str(kind), None if operand is None else str(operand)

    def _materialize(self) -> tuple:
        if self._records is None:
            resolve = self._resolve
            injected = self._injected
            counts: dict[str, int] = {}
            records = []
            # Every libc call appends exactly one row, so positions and
            # per-function tallies replay the step and call counters.
            for seq, (function, kind, operand) in enumerate(self._rows, 1):
                count = counts[function] = counts.get(function, 0) + 1
                records.append(ProvenanceRecord(
                    seq, function, count, *resolve(kind, operand),
                    seq in injected,
                ))
            self._records = tuple(records)
            self._rows = ()
        return self._records

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __bool__(self) -> bool:
        return bool(self._rows) or bool(self._records)

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyProvenance):
            other = other._materialize()
        return self._materialize() == other

    def __hash__(self) -> int:
        return hash(self._materialize())

    def __repr__(self) -> str:
        return repr(self._materialize())

    def __reduce__(self):
        return (tuple, (self._materialize(),))


#: the plan a libc runs under until :meth:`SimLibc.set_plan` (plans are
#: immutable, so every instance shares one and its resolved table).
_NO_PLAN = InjectionPlan.none()

#: fopen(3) mode (without ``b``) → open(2) flags.
_FOPEN_FLAGS = {
    "r": O_RDONLY,
    "r+": O_RDWR,
    "w": O_WRONLY | O_CREAT | O_TRUNC,
    "w+": O_RDWR | O_CREAT | O_TRUNC,
    "a": O_WRONLY | O_CREAT | O_APPEND,
    "a+": O_RDWR | O_CREAT | O_APPEND,
}


class _Stream:
    """A stdio FILE: a buffered view over an fd, with error/EOF flags."""

    __slots__ = ("fd", "path", "error", "eof", "writable")

    def __init__(self, fd: int, path: str, writable: bool) -> None:
        self.fd = fd
        self.path = path
        self.error = False
        self.eof = False
        self.writable = writable


class _DirStream:
    __slots__ = ("path", "names", "index")

    def __init__(self, path: str, names: list[str]) -> None:
        self.path = path
        self.names = names
        self.index = 0


class SimLibc:
    """Simulated libc bound to one filesystem, heap, and call stack."""

    def __init__(
        self,
        fs: SimFilesystem,
        stack: CallStack | None = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        trace: bool = False,
        trace_stacks: bool = False,
        provenance: bool = False,
    ) -> None:
        self.fs = fs
        self.stack = stack or CallStack()
        self.heap = Heap(self.stack.snapshot)
        self.errno: Errno = Errno.OK
        self.set_plan(_NO_PLAN)
        self.call_counts: dict[str, int] = {}
        self.injections: list[InjectionEvent] = []
        self.steps = 0
        self.step_budget = step_budget
        self.trace_enabled = trace
        self.trace_stacks = trace_stacks
        self.trace: list[CallRecord] = []
        self.provenance_enabled = provenance
        #: raw capture rows ``(function, kind, operand)``, one per call
        #: — resolved lazily via :meth:`resolved_provenance`.
        self.provenance: list[tuple] = []
        #: step numbers of the captured calls a fault fired on.
        self._injected_steps: set[int] = set()
        #: fd/stream/dir id → path, recorded at creation time (only
        #: when provenance is on), so deferred resolution stays exact no
        #: matter how the resource is retired — ids are never reused,
        #: and e.g. a kill-9 teardown closing fds behind libc's back
        #: cannot lose the name.
        self._fd_names: dict[int, str] = {}
        self._stream_names: dict[int, str] = {}
        self._dir_names: dict[int, str] = {}
        self._streams: dict[int, _Stream] = {}
        self._next_stream = 0x100000
        self._dir_streams: dict[int, _DirStream] = {}
        self._next_dirp = 0x200000
        self.locale = "C"
        self.text_domain = "messages"
        # Loopback "network": tests enqueue requests; servers accept/recv
        # them and send responses into the outbox.
        self.net_inbox: list[bytes] = []
        self.net_outbox: list[bytes] = []
        #: armed network fault state (``repro.injection.models.net``), or
        #: None; consulted by recv/send and by in-target message buses.
        self.net_fault = None
        self._sockets: set[int] = set()
        self._next_socket = 0x300000
        self._clock = 0

    # -- interposition core ---------------------------------------------------

    def set_plan(self, plan: InjectionPlan) -> None:
        """Install the injection plan (and its ``function → faults``
        table, resolved once here) for the next execution."""
        self.plan = plan
        self._targeted = plan.by_function

    def _enter(
        self,
        function: str,
        kind: "str | None" = None,
        operand: object = None,
    ) -> AtomicFault | None:
        """Count a call, enforce the step budget, and consult the plan.

        ``kind`` and ``operand`` name what the call touches (``"fd"``
        and the descriptor, ``"path"`` and the path as given...), left
        unresolved: only provenance capture keeps them, and it resolves
        them (fd → path, stream → path) when the log is read.
        """
        steps = self.steps = self.steps + 1
        if steps > self.step_budget:
            raise HangDetected(
                f"step budget of {self.step_budget} libc calls exceeded",
                self.stack.snapshot(),
            )
        counts = self.call_counts
        count = counts[function] = counts.get(function, 0) + 1
        if self.trace_enabled:
            stack = self.stack.snapshot() if self.trace_stacks else None
            self.trace.append(CallRecord(steps, function, count, stack))
        if function not in self._targeted:  # one dict miss, no call
            fault = None
        else:
            fault = self.plan.lookup(function, count)
            if fault is not None:
                self.errno = fault.errno
                # The trace at the injection point includes the
                # intercepted function as its innermost frame, as an LFI
                # stack trace does.
                self.injections.append(InjectionEvent(
                    fault, count, self.stack.snapshot() + (function,)
                ))
                if self.provenance_enabled:
                    self._injected_steps.add(steps)
        if self.provenance_enabled:
            # Raw row only — numbering, resolution and record
            # construction are deferred (LazyProvenance) to keep this
            # path near-free.
            self.provenance.append((function, kind, operand))
        return fault

    def _note_disk_fault(self) -> None:
        """Mark the current call's provenance row when a disk hook fired.

        World hooks mutate state inside the filesystem layer, after
        :meth:`_enter` already captured this call; the armed
        :class:`DiskFaultState` counter sitting exactly on its target
        ordinal means *this* write was the transformed one.  Only called
        when provenance is enabled and a disk fault is armed.
        """
        state = self.fs.disk_fault
        if state.writes == state.write_number:
            self._injected_steps.add(self.steps)

    def resolved_provenance(self) -> "tuple | LazyProvenance":
        """The run's provenance log, as a lazily-resolved sequence of
        :class:`ProvenanceRecord`s (a plain empty tuple when capture
        was off or nothing ran).

        The returned log retains only the name tables and a cwd
        snapshot — not this libc or its filesystem — so holding many
        provenance-on results does not pin the simulated worlds that
        produced them.
        """
        if not self.provenance:
            return ()
        return LazyProvenance(
            tuple(self.provenance),
            self._injected_steps,
            self._fd_names,
            self._stream_names,
            self._dir_names,
            self.fs.cwd,
        )

    # -- memory -----------------------------------------------------------------

    def malloc(self, size: int) -> int:
        fault = self._enter("malloc", "heap", size)
        if fault is not None:
            return fault.retval
        return self.heap.alloc(size)

    def calloc(self, count: int, size: int) -> int:
        fault = self._enter("calloc", "heap", count * size)
        if fault is not None:
            return fault.retval
        return self.heap.alloc(count * size)

    def realloc(self, ptr: int, size: int) -> int:
        fault = self._enter("realloc", "heap", size)
        if fault is not None:
            return fault.retval
        return self.heap.realloc(ptr, size)

    def free(self, ptr: int) -> None:
        # free() cannot fail and is not an injection point.
        self.heap.free(ptr)

    def strdup(self, text: str) -> int:
        fault = self._enter("strdup", "heap", len(text) + 1)
        if fault is not None:
            return fault.retval
        raw = text.encode() + b"\x00"
        heap = self.heap
        ptr = heap.alloc(len(raw))
        heap.store(ptr, 0, raw)
        return ptr

    # -- file descriptors ---------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        fault = self._enter("open", "path", path)
        if fault is not None:
            return fault.retval
        try:
            fd = self.fs.open(path, flags)
        except FsError as err:
            self.errno = err.errno
            return -1
        if self.provenance_enabled:
            self._fd_names[fd] = self.fs.resolve(path)
        return fd

    def close(self, fd: int) -> int:
        fault = self._enter("close", "fd", fd)
        if fault is not None:
            return fault.retval  # injected failure: fd is NOT closed (leak)
        try:
            self.fs.close(fd)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def read(self, fd: int, count: int) -> bytes | int:
        """Returns bytes on success (possibly empty at EOF), -1 on error."""
        fault = self._enter("read", "fd", fd)
        if fault is not None:
            return fault.retval
        try:
            return self.fs.read(fd, count)
        except FsError as err:
            self.errno = err.errno
            return -1

    def write(self, fd: int, data: bytes) -> int:
        fault = self._enter("write", "fd", fd)
        if fault is not None:
            return fault.retval
        try:
            wrote = self.fs.write(fd, data)
        except FsError as err:
            self.errno = err.errno
            return -1
        if self.provenance_enabled and self.fs.disk_fault is not None:
            self._note_disk_fault()
        return wrote

    def lseek(self, fd: int, offset: int) -> int:
        fault = self._enter("lseek", "fd", fd)
        if fault is not None:
            return fault.retval
        try:
            return self.fs.lseek(fd, offset)
        except FsError as err:
            self.errno = err.errno
            return -1

    def fsync(self, fd: int) -> int:
        fault = self._enter("fsync", "fd", fd)
        if fault is not None:
            return fault.retval
        # In-memory fs: durability is immediate; still validate the fd.
        try:
            self.fs.fd_path(fd)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def fcntl(self, fd: int, cmd: int = 0) -> int:
        fault = self._enter("fcntl", "fd", fd)
        if fault is not None:
            return fault.retval
        try:
            self.fs.fd_path(fd)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def pipe(self):
        """Returns an (rfd, wfd) pair on success, -1 on failure."""
        fault = self._enter("pipe")
        if fault is not None:
            return fault.retval
        try:
            name = f"/.pipe{self._next_stream}"
            self._next_stream += 1
            self.fs.create_file(name)
            rfd = self.fs.open(name, O_RDONLY)
            wfd = self.fs.open(name, O_WRONLY)
        except FsError as err:
            self.errno = err.errno
            return -1
        if self.provenance_enabled:
            self._fd_names[rfd] = name
            self._fd_names[wfd] = name
        return (rfd, wfd)

    # -- stdio streams ------------------------------------------------------------

    def _fopen_impl(self, name: str, path: str, mode: str) -> int:
        fault = self._enter(name, "path", path)
        if fault is not None:
            return fault.retval
        mode = mode.rstrip("b")
        flags = _FOPEN_FLAGS.get(mode)
        if flags is None:
            self.errno = Errno.EINVAL
            return NULL
        try:
            fd = self.fs.open(path, flags)
        except FsError as err:
            self.errno = err.errno
            return NULL
        stream_id = self._next_stream
        self._next_stream += 1
        writable = mode != "r"
        resolved = self.fs.resolve(path)
        self._streams[stream_id] = _Stream(fd, resolved, writable)
        if self.provenance_enabled:
            self._fd_names[fd] = resolved
            self._stream_names[stream_id] = resolved
        return stream_id

    def fopen(self, path: str, mode: str = "r") -> int:
        return self._fopen_impl("fopen", path, mode)

    def fopen64(self, path: str, mode: str = "r") -> int:
        return self._fopen_impl("fopen64", path, mode)

    def fclose(self, stream_id: int) -> int:
        fault = self._enter("fclose", "stream", stream_id)
        if fault is not None:
            # Injected fclose failure: per glibc, the stream is unusable
            # afterwards; we close the underlying fd but report failure.
            stream = self._streams.pop(stream_id, None)
            if stream is not None:
                try:
                    self.fs.close(stream.fd)
                except FsError:
                    pass
            return fault.retval
        stream = self._streams.pop(stream_id, None)
        if stream is None:
            self.errno = Errno.EBADF
            return -1
        try:
            self.fs.close(stream.fd)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def fgets(self, stream_id: int, max_len: int = 4096) -> str | None:
        """Returns the next line (with newline) or None on EOF/error."""
        fault = self._enter("fgets", "stream", stream_id)
        stream = self._streams.get(stream_id)
        if fault is not None:
            if stream is not None:
                stream.error = True
            return None
        if stream is None:
            self.errno = Errno.EBADF
            return None
        limit = max_len - 1
        if limit <= 0:
            return None  # no room for a character: nothing is read
        try:
            line = self.fs.readline(stream.fd, limit)
        except FsError as err:
            self.errno = err.errno
            stream.error = True
            return None
        if len(line) < limit and not line.endswith(b"\n"):
            stream.eof = True  # the file ended before the line did
        if not line:
            return None
        # Byte for character, as a C ``char`` buffer holds it.
        return line.decode("latin-1")

    def putc(self, char: str, stream_id: int) -> int:
        """Returns the character code written, or -1 (EOF) on error."""
        fault = self._enter("putc", "stream", stream_id)
        stream = self._streams.get(stream_id)
        if fault is not None:
            if stream is not None:
                stream.error = True
            return fault.retval
        if stream is None or not stream.writable:
            self.errno = Errno.EBADF
            return -1
        try:
            self.fs.write(stream.fd, char.encode())
        except FsError as err:
            self.errno = err.errno
            stream.error = True
            return -1
        if self.provenance_enabled and self.fs.disk_fault is not None:
            self._note_disk_fault()
        return ord(char)

    def fputs(self, text: str, stream_id: int) -> int:
        """Write a whole string; one injectable ``fputs`` call."""
        fault = self._enter("fputs", "stream", stream_id)
        stream = self._streams.get(stream_id)
        if fault is not None:
            if stream is not None:
                stream.error = True
            return -1
        if stream is None or not stream.writable:
            self.errno = Errno.EBADF
            return -1
        try:
            self.fs.write(stream.fd, text.encode())
        except FsError as err:
            self.errno = err.errno
            stream.error = True
            return -1
        if self.provenance_enabled and self.fs.disk_fault is not None:
            self._note_disk_fault()
        return len(text)

    def fflush(self, stream_id: int) -> int:
        fault = self._enter("fflush", "stream", stream_id)
        stream = self._streams.get(stream_id)
        if fault is not None:
            if stream is not None:
                stream.error = True
            return fault.retval
        if stream is None:
            self.errno = Errno.EBADF
            return -1
        return 0  # write-through streams: nothing buffered

    def ferror(self, stream_id: int) -> int:
        fault = self._enter("ferror", "stream", stream_id)
        if fault is not None:
            return fault.retval
        stream = self._streams.get(stream_id)
        return 1 if stream is not None and stream.error else 0

    def feof(self, stream_id: int) -> int:
        stream = self._streams.get(stream_id)
        return 1 if stream is not None and stream.eof else 0

    def stream_fd(self, stream_id: int) -> int:
        """fileno(3) equivalent (not an injection point)."""
        stream = self._streams.get(stream_id)
        return stream.fd if stream is not None else -1

    # -- metadata and directories ----------------------------------------------------

    def stat(self, path: str) -> StatResult | None:
        """Returns a StatResult, or None (C: -1) on failure."""
        fault = self._enter("stat", "path", path)
        if fault is not None:
            return None
        try:
            return self.fs.stat(path)
        except FsError as err:
            self.errno = err.errno
            return None

    def opendir(self, path: str) -> int:
        fault = self._enter("opendir", "path", path)
        if fault is not None:
            return fault.retval
        try:
            names = self.fs.listdir(path)
        except FsError as err:
            self.errno = err.errno
            return NULL
        dirp = self._next_dirp
        self._next_dirp += 1
        resolved = self.fs.resolve(path)
        self._dir_streams[dirp] = _DirStream(resolved, names)
        if self.provenance_enabled:
            self._dir_names[dirp] = resolved
        return dirp

    def readdir(self, dirp: int) -> str | None:
        """Returns the next entry name, or None at end / on error."""
        fault = self._enter("readdir", "dir", dirp)
        if fault is not None:
            return None
        stream = self._dir_streams.get(dirp)
        if stream is None:
            self.errno = Errno.EBADF
            return None
        if stream.index >= len(stream.names):
            return None
        name = stream.names[stream.index]
        stream.index += 1
        return name

    def closedir(self, dirp: int) -> int:
        fault = self._enter("closedir", "dir", dirp)
        if fault is not None:
            return fault.retval
        dstream = self._dir_streams.pop(dirp, None)
        if dstream is None:
            self.errno = Errno.EBADF
            return -1
        return 0

    def chdir(self, path: str) -> int:
        fault = self._enter("chdir", "path", path)
        if fault is not None:
            return fault.retval
        try:
            self.fs.chdir(path)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def getcwd(self) -> str | None:
        fault = self._enter("getcwd")
        if fault is not None:
            return None
        return self.fs.cwd

    def mkdir(self, path: str) -> int:
        fault = self._enter("mkdir", "path", path)
        if fault is not None:
            return fault.retval
        try:
            self.fs.mkdir(path)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def rmdir(self, path: str) -> int:
        fault = self._enter("rmdir", "path", path)
        if fault is not None:
            return fault.retval
        try:
            self.fs.rmdir(path)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def unlink(self, path: str) -> int:
        fault = self._enter("unlink", "path", path)
        if fault is not None:
            return fault.retval
        try:
            self.fs.unlink(path)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def rename(self, old: str, new: str) -> int:
        fault = self._enter("rename", "path", old)
        if fault is not None:
            return fault.retval
        try:
            self.fs.rename(old, new)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    def link(self, existing: str, new: str) -> int:
        fault = self._enter("link", "path", existing)
        if fault is not None:
            return fault.retval
        try:
            self.fs.link(existing, new)
            return 0
        except FsError as err:
            self.errno = err.errno
            return -1

    # -- process / limits / misc -------------------------------------------------------

    def wait(self) -> int:
        fault = self._enter("wait")
        if fault is not None:
            return fault.retval
        return 0  # no children in the simulated world

    def getrlimit(self, resource: str = "NOFILE") -> int:
        """Returns the limit, or -1 on failure (C fills a struct)."""
        fault = self._enter("getrlimit")
        if fault is not None:
            return fault.retval
        if resource == "NOFILE":
            return self.fs.max_open_files
        return 1 << 20

    def setrlimit(self, resource: str, value: int) -> int:
        fault = self._enter("setrlimit")
        if fault is not None:
            return fault.retval
        if resource == "NOFILE":
            self.fs.max_open_files = value
        return 0

    def clock_gettime(self) -> int:
        """Returns a monotonic tick, or -1 on failure."""
        fault = self._enter("clock_gettime")
        if fault is not None:
            return fault.retval
        self._clock += 1
        return self._clock

    def setlocale(self, locale: str) -> str | None:
        fault = self._enter("setlocale")
        if fault is not None:
            return None
        self.locale = locale
        return locale

    def bindtextdomain(self, domain: str, directory: str) -> str | None:
        fault = self._enter("bindtextdomain")
        if fault is not None:
            return None
        return directory

    def textdomain(self, domain: str) -> str | None:
        fault = self._enter("textdomain")
        if fault is not None:
            return None
        self.text_domain = domain
        return domain

    def strtol(self, text: str, base: int = 10) -> int:
        """Returns the parsed value; 0 with errno set on failure."""
        fault = self._enter("strtol")
        if fault is not None:
            return fault.retval
        try:
            return int(text.strip(), base)
        except ValueError:
            self.errno = Errno.EINVAL
            return 0

    # -- networking (loopback simulation) --------------------------------------------------

    def socket(self) -> int:
        fault = self._enter("socket")
        if fault is not None:
            return fault.retval
        sock = self._next_socket
        self._next_socket += 1
        self._sockets.add(sock)
        return sock

    def bind(self, sock: int, port: int) -> int:
        fault = self._enter("bind", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        return 0

    def listen(self, sock: int, backlog: int = 16) -> int:
        fault = self._enter("listen", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        return 0

    def accept(self, sock: int) -> int:
        """Returns a connection socket, or -1 (EAGAIN when inbox empty)."""
        fault = self._enter("accept", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        if not self.net_inbox:
            self.errno = Errno.EAGAIN
            return -1
        return self._accept_conn()

    def _accept_conn(self) -> int:
        conn = self._next_socket
        self._next_socket += 1
        self._sockets.add(conn)
        return conn

    def connect(self, sock: int, port: int) -> int:
        fault = self._enter("connect", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        return 0

    def recv(self, sock: int, count: int = 65536) -> bytes | int:
        """Returns bytes (empty at end-of-stream) or -1 on error."""
        fault = self._enter("recv", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        if self.net_fault is not None:
            action = self.net_fault.on_op()
            if action == "partition":
                self.errno = Errno.ECONNRESET
                return -1
            if action == "delay":
                self.errno = Errno.EAGAIN
                return -1
            if action == "reorder" and len(self.net_inbox) >= 2:
                self.net_inbox[0], self.net_inbox[1] = (
                    self.net_inbox[1], self.net_inbox[0],
                )
        if not self.net_inbox:
            return b""
        return self.net_inbox.pop(0)

    def send(self, sock: int, data: bytes) -> int:
        fault = self._enter("send", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        if self.net_fault is not None:
            action = self.net_fault.on_op()
            if action == "partition":
                self.errno = Errno.ECONNRESET
                return -1
            # delay/reorder act on the receive path; the send itself
            # succeeds (the sender cannot tell).
        self.net_outbox.append(data)
        return len(data)

    def close_socket(self, sock: int) -> int:
        """Close a socket (counts as a ``close`` call, like C)."""
        fault = self._enter("close", "socket", sock)
        if fault is not None:
            return fault.retval
        if sock not in self._sockets:
            self.errno = Errno.EBADF
            return -1
        self._sockets.discard(sock)
        return 0

    # -- introspection ------------------------------------------------------------------

    def call_count(self, function: str) -> int:
        return self.call_counts.get(function, 0)

    @property
    def first_injection(self) -> InjectionEvent | None:
        return self.injections[0] if self.injections else None
