"""The simulated world's fast paths against the plain code they replace.

Each reference below is the straightforward form of one substrate
operation, as the simulator ran it before its per-call cost was cut:
split-and-rebuild path resolution, zero-extend-then-slice writes, a
``read(fd, 1)`` per ``fgets`` character, a fresh frame object per
``env.frame`` entry, a fully checked heap store and a provenance row
that carries its own numbering.  The product code takes a shortcut when
a precondition holds (an already normal path, an append, ...); these
properties pin that the shortcut computes the *same* thing — the same
bytes, offsets, errnos, stream flags, stacks and records — so no
coverage set, errno or digest can move because of how a call is
carried out.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection.models.disk import DiskFaultState
from repro.injection.plan import InjectionPlan
from repro.sim.coverage import Coverage
from repro.sim.crashes import SegmentationFault
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
    _File,
    _OpenFile,
)
from repro.sim.heap import NULL, Heap
from repro.sim.libc import SimLibc
from repro.sim.process import Env, run_test
from repro.sim.stack import CallStack
from repro.sim.targets import target_by_name

FAST = settings(max_examples=150, deadline=None)


# -- references: the code before the fast paths ------------------------------


def reference_resolve(path: str, cwd: str) -> str:
    """Split every path on ``/`` and rebuild it."""
    if not path:
        raise FsError(Errno.ENOENT, "empty path")
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


class ReferenceFilesystem(SimFilesystem):
    """Plain resolution, directories probed first on open, and every
    write zero-extends the file and then slice-assigns."""

    def resolve(self, path: str) -> str:
        return reference_resolve(path, self.cwd)

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        path = self.resolve(path)
        if len(self._fds) >= self.max_open_files:
            raise FsError(Errno.EMFILE, "too many open files")
        if path in self._dirs:
            if flags & (O_WRONLY | O_RDWR):
                raise FsError(Errno.EISDIR, path)
            raise FsError(Errno.EISDIR, path)
        file = self._files.get(path)
        if file is None:
            if not flags & O_CREAT:
                raise FsError(Errno.ENOENT, path)
            self._require_parent_dir(path)
            file = _File()
            self._files[path] = file
        elif flags & O_CREAT and flags & O_EXCL:
            raise FsError(Errno.EEXIST, path)
        if flags & O_TRUNC and flags & (O_WRONLY | O_RDWR):
            file.data = bytearray()
        handle = _OpenFile(file, path, flags)
        if flags & O_APPEND:
            handle.offset = len(file.data)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        return fd

    def write(self, fd: int, data: bytes) -> int:
        handle = self._handle(fd)
        if not handle.flags & (O_WRONLY | O_RDWR):
            raise FsError(Errno.EBADF, f"fd {fd} is read-only")
        claimed = len(data)
        if self.disk_fault is not None:
            data = self.disk_fault.transform(data)
        if handle.flags & O_APPEND:
            handle.offset = len(handle.file.data)
        end = handle.offset + len(data)
        if end > len(handle.file.data):
            handle.file.data.extend(b"\x00" * (end - len(handle.file.data)))
        handle.file.data[handle.offset : end] = data
        handle.offset = end
        return claimed


class ReferenceLibc(SimLibc):
    """``fgets`` one ``read(fd, 1)`` per character."""

    def fgets(self, stream_id: int, max_len: int = 4096) -> str | None:
        fault = self._enter("fgets", "stream", stream_id)
        stream = self._streams.get(stream_id)
        if fault is not None:
            if stream is not None:
                stream.error = True
            return None
        if stream is None:
            self.errno = Errno.EBADF
            return None
        chars: list[str] = []
        while len(chars) < max_len - 1:
            try:
                chunk = self.fs.read(stream.fd, 1)
            except FsError as err:
                self.errno = err.errno
                stream.error = True
                return None
            if not chunk:
                stream.eof = True
                break
            ch = chr(chunk[0])
            chars.append(ch)
            if ch == "\n":
                break
        if not chars:
            return None
        return "".join(chars)


class ReferenceEnv(Env):
    """A new frame object for every ``env.frame`` entry."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._framed: set[str] = set()

    def frame(self, name: str):
        if name not in self._framed:
            self._framed.add(name)
            self.cov.hit(f"frame.{name}")
        return self.stack.frame(name)


def reference_store(heap: Heap, ptr: int, offset: int, data: bytes) -> None:
    """Every store through the full validation."""
    alloc = heap._checked(ptr, offset + len(data), "store")
    alloc.data[offset : offset + len(data)] = data


def outcome(call, *args):
    """A call's return value, or the errno it raised."""
    try:
        return ("ok", call(*args))
    except FsError as err:
        return ("err", err.errno)


# -- path resolution ---------------------------------------------------------

_SEGMENTS = st.sampled_from(["a", "b", "data", ".", "..", "", ".x", "..y", "a."])


@st.composite
def paths(draw) -> str:
    body = "/".join(draw(st.lists(_SEGMENTS, max_size=6)))
    lead = draw(st.sampled_from(["", "/", "//"]))
    tail = draw(st.sampled_from(["", "/", "/.", "/..", "//"]))
    return lead + body + tail


class TestResolve:
    @FAST
    @given(steps=st.lists(st.tuples(paths(), paths()), min_size=1, max_size=8))
    def test_matches_split_and_rebuild_under_a_changing_cwd(self, steps):
        fs = SimFilesystem()
        for path, move in steps:
            assert outcome(fs.resolve, path) == outcome(
                reference_resolve, path, fs.cwd
            )
            # Wander: make the directory ``move`` names (and its parents)
            # and step into it, so the next path resolves against it.
            target = reference_resolve(move or ".", fs.cwd)
            built = ""
            for part in target.strip("/").split("/"):
                if part:
                    built += "/" + part
                    if not fs.exists(built):
                        fs.mkdir(built)
            fs.chdir(target)

    @pytest.mark.parametrize("path", [
        "/a/./b", "/./a", "/a/../b", "/../a", "/a/.", "/a/..", "/a/", "//a",
        "/a//b", "/.", "/..", "/", "/a/.b/..c/c.", "a/b", ".", "..", "./a",
    ])
    @pytest.mark.parametrize("cwd", ["/", "/x/y"])
    def test_matches_split_and_rebuild_at_the_edges(self, path, cwd):
        fs = SimFilesystem()
        fs.cwd = cwd
        assert fs.resolve(path) == reference_resolve(path, cwd)

    def test_a_normal_path_comes_back_unchanged(self):
        fs = SimFilesystem()
        assert fs.resolve("/var/minidb/t1.MYD") == "/var/minidb/t1.MYD"
        assert fs.resolve("/.pipe1048576") == "/.pipe1048576"

    def test_an_empty_path_is_enoent(self):
        with pytest.raises(FsError) as info:
            SimFilesystem().resolve("")
        assert info.value.errno is Errno.ENOENT


# -- open / lseek / write ----------------------------------------------------

_FLAGS = st.sampled_from([
    O_RDONLY, O_WRONLY, O_RDWR,
    O_WRONLY | O_CREAT, O_RDWR | O_CREAT, O_WRONLY | O_CREAT | O_TRUNC,
    O_WRONLY | O_APPEND, O_WRONLY | O_CREAT | O_APPEND,
    O_RDWR | O_CREAT | O_APPEND, O_WRONLY | O_CREAT | O_EXCL,
])
_NAMES = st.sampled_from(["/f", "/d/g", "/d", "f", "/d/../f", "/missing/x"])
_OPS = st.one_of(
    st.tuples(st.just("open"), _NAMES, _FLAGS),
    st.tuples(st.just("lseek"), st.integers(0, 3), st.integers(-1, 40)),
    st.tuples(st.just("write"), st.integers(0, 3), st.binary(max_size=12)),
    st.tuples(st.just("read"), st.integers(0, 3), st.integers(0, 16)),
    st.tuples(st.just("close"), st.integers(0, 3), st.none()),
)


def _world(fs_class, disk_fault):
    fs = fs_class()
    fs.mkdir("/d")
    fs.create_file("/f", b"seed")
    if disk_fault is not None:
        fs.disk_fault = DiskFaultState(*disk_fault)
    return fs


def _replay(fs, ops) -> list:
    fds: list[int] = []
    log = []
    for op, a, b in ops:
        if op == "open":
            result = outcome(fs.open, a, b)
            if result[0] == "ok":
                fds.append(result[1])
        else:
            fd = fds[a % len(fds)] if fds else 99
            call = {"lseek": fs.lseek, "write": fs.write, "read": fs.read,
                    "close": fs.close}[op]
            result = outcome(call, fd) if op == "close" else outcome(call, fd, b)
        log.append(result)
    return log


class TestOpenWrite:
    @FAST
    @given(
        ops=st.lists(_OPS, max_size=25),
        disk_fault=st.none() | st.tuples(
            st.integers(1, 4), st.sampled_from(["torn", "corrupt"])
        ),
    )
    def test_matches_extend_then_slice_byte_for_byte(self, ops, disk_fault):
        fast = _world(SimFilesystem, disk_fault)
        slow = _world(ReferenceFilesystem, disk_fault)
        assert _replay(fast, ops) == _replay(slow, ops)
        assert dict(fast.iter_files()) == dict(slow.iter_files())
        assert {fd: h.offset for fd, h in fast._fds.items()} == {
            fd: h.offset for fd, h in slow._fds.items()
        }

    def test_a_sparse_write_reads_back_zeros(self):
        fs = SimFilesystem()
        fd = fs.open("/f", O_RDWR | O_CREAT)
        fs.write(fd, b"ab")
        fs.lseek(fd, 5)
        fs.write(fd, b"z")
        assert fs.read_file("/f") == b"ab\x00\x00\x00z"

    @pytest.mark.parametrize("flags", [O_RDONLY, O_WRONLY, O_RDWR | O_CREAT])
    def test_a_directory_is_eisdir_in_every_mode(self, flags):
        fs = SimFilesystem()
        fs.mkdir("/d")
        assert outcome(fs.open, "/d", flags) == ("err", Errno.EISDIR)


# -- fgets -------------------------------------------------------------------


def _stdio(libc_class, content: bytes, mode: str, plan):
    fs = SimFilesystem()
    fs.create_file("/log", content)
    libc = libc_class(fs)
    libc.set_plan(plan)
    return libc, libc.fopen("/log", mode)


def _fgets_log(libc, stream, lengths, close_after) -> list:
    """Each call's line, errno and stream flags, then the fd's offset
    and the call counters."""
    log = []
    for i, max_len in enumerate(lengths):
        if i == close_after:
            libc.close(libc.stream_fd(stream))
        line = libc.fgets(stream, max_len)
        state = libc._streams[stream]
        log.append((line, libc.errno, state.eof, state.error))
    handle = libc.fs._fds.get(libc.stream_fd(stream))
    log.append((handle and handle.offset, libc.call_counts))
    return log


class TestFgets:
    @FAST
    @given(
        content=st.binary(max_size=30).map(
            lambda b: b.replace(b"\x01", b"\n")
        ) | st.lists(st.sampled_from([b"put k v\n", b"del k\n", b"torn"]),
                     max_size=5).map(b"".join),
        lengths=st.lists(st.sampled_from([0, 1, 2, 3, 5, 4096]), max_size=8),
        mode=st.sampled_from(["r", "r+", "a+", "w", "a"]),
        fault=st.none() | st.integers(1, 4),
        close_after=st.none() | st.integers(0, 4),
    )
    def test_matches_a_read_per_character(self, content, lengths, mode, fault,
                                          close_after):
        plan = (
            InjectionPlan.none() if fault is None
            else InjectionPlan.single("fgets", fault, Errno.EIO, 0)
        )
        fast = _stdio(SimLibc, content, mode, plan)
        slow = _stdio(ReferenceLibc, content, mode, plan)
        assert _fgets_log(*fast, lengths, close_after) == _fgets_log(
            *slow, lengths, close_after
        )

    def test_a_write_only_stream_is_ebadf_and_flags_the_error(self):
        libc, stream = _stdio(SimLibc, b"line\n", "w", InjectionPlan.none())
        assert libc.fgets(stream) is None
        assert libc.errno is Errno.EBADF
        assert libc.ferror(stream) == 1

    def test_no_room_for_a_character_reads_nothing(self):
        libc, stream = _stdio(SimLibc, b"line\n", "w", InjectionPlan.none())
        assert libc.fgets(stream, 1) is None
        assert libc.errno is Errno.OK
        assert libc.ferror(stream) == 0 and libc.feof(stream) == 0

    def test_bytes_come_back_one_character_each(self):
        libc, stream = _stdio(SimLibc, b"\xe9t\xe9\n", "r", InjectionPlan.none())
        assert libc.fgets(stream) == "\xe9t\xe9\n"


# -- frames ------------------------------------------------------------------

_PROGRAMS = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.tuples(st.sampled_from(["main_loop", "mi_write", "log", "f"]),
                  children),
        max_size=3,
    ),
    max_leaves=12,
)


def _env(env_class) -> Env:
    fs = SimFilesystem()
    stack = CallStack()
    return env_class(fs, SimLibc(fs, stack), stack, Coverage(), "seed")


def _walk(env, program, crash_at: int, seen: list, depth: int = 0):
    """Enter the program's frames depth-first; crash on the
    ``crash_at``-th entry, recording what the stack showed on the way."""
    for name, body in program:
        with env.frame(name):
            seen.append(env.stack.snapshot())
            if len(seen) == crash_at:
                raise SegmentationFault("boom", env.stack.snapshot())
            _walk(env, body, crash_at, seen, depth + 1)
            if name == "f" and depth < 2:  # recursion through one frame
                _walk(env, [("f", body)], crash_at, seen, depth + 1)


def _run_program(env_class, program, crash_at):
    env = _env(env_class)
    seen: list = []
    crash = None
    try:
        _walk(env, program, crash_at, seen)
    except SegmentationFault as exc:
        crash = exc.stack
    return seen, crash, env.stack.snapshot(), env.cov.blocks


class TestFrames:
    @FAST
    @given(program=_PROGRAMS, crash_at=st.integers(0, 20))
    def test_reused_frames_match_fresh_ones(self, program, crash_at):
        assert _run_program(Env, program, crash_at) == _run_program(
            ReferenceEnv, program, crash_at
        )

    def test_one_frame_per_name_per_run(self):
        env = _env(Env)
        assert env.frame("mi_write") is env.frame("mi_write")
        assert env.frame("mi_write") is not _env(Env).frame("mi_write")


# -- heap stores -------------------------------------------------------------


class TestHeapStore:
    @FAST
    @given(
        size=st.integers(0, 8),
        offset=st.integers(0, 10),
        data=st.binary(max_size=6),
        pointer=st.sampled_from(["live", "null", "wild", "freed"]),
        bitflip=st.none() | st.integers(1, 3),
    )
    def test_matches_a_fully_checked_store(self, size, offset, data, pointer,
                                           bitflip):
        from repro.injection.models.bitflip import BitFlipState

        outcomes = []
        for store in (Heap.store, reference_store):
            heap = Heap()
            ptr = heap.alloc(size)
            if pointer == "freed":
                heap.free(ptr)
            ptr = {"null": NULL, "wild": ptr + 1}.get(pointer, ptr)
            if bitflip is not None:
                heap.bitflip = BitFlipState(bitflip, 0)
            try:
                store(heap, ptr, offset, data)
                result = "ok"
            except SegmentationFault as exc:
                result = str(exc)
            live = [bytes(a.data) for a in heap._allocations.values()]
            outcomes.append((result, live, heap.bitflip and heap.bitflip.accesses))
        assert outcomes[0] == outcomes[1]


# -- provenance capture ------------------------------------------------------


class TestProvenanceNumbering:
    """A row no longer carries its step, call number or injected flag:
    the log recounts them.  The call trace numbers every call
    independently, so it is the reference."""

    @pytest.mark.parametrize("target_name,test_id,plan", [
        ("replkv", 1, InjectionPlan.none()),
        ("replkv", 2, InjectionPlan.single("write", 2, Errno.EIO, -1)),
        ("minidb", 3, InjectionPlan.single("open", 3, Errno.ENOSPC, -1, True)),
        ("httpd", 1, InjectionPlan.single("fgets", 2, Errno.EIO, 0)),
    ])
    def test_records_match_the_trace(self, target_name, test_id, plan):
        target = target_by_name(target_name)
        result = run_test(target, target.suite[test_id], plan, trace=True,
                          provenance=True)
        assert result.provenance
        assert [
            (r.seq, r.function, r.call_number, r.injected)
            for r in result.provenance
        ] == [
            (c.seq, c.function, c.call_number,
             plan.lookup(c.function, c.call_number) is not None)
            for c in result.trace
        ]

    def test_a_torn_write_marks_its_own_row(self):
        fs = SimFilesystem()
        libc = SimLibc(fs, provenance=True)
        fd = libc.open("/f", O_WRONLY | O_CREAT)
        fs.disk_fault = DiskFaultState(2, "torn")
        libc.write(fd, b"first")
        libc.write(fd, b"second")
        libc.write(fd, b"third")
        assert [r.injected for r in libc.resolved_provenance()] == [
            False, False, True, False,
        ]
