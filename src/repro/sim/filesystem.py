"""An in-memory POSIX-ish filesystem for the simulated environment.

This is the state behind :class:`repro.sim.libc.SimLibc`: files,
directories, a file-descriptor table, and a working directory.  It
raises :class:`FsError` with real errno values for genuine error
conditions (missing files, reads on closed fds, full descriptor table),
so that programs under test contain *real* error-handling code even
before any fault is injected — injected faults then add failures on top.

The filesystem is deliberately small but honest about the semantics the
targets rely on: partial writes are possible, ``rename`` is atomic
within the tree, unlinked-but-open files keep their contents until
closed, and descriptor exhaustion (``EMFILE``) is enforced.
"""

from __future__ import annotations

from repro.sim.errnos import Errno

__all__ = ["FsError", "SimFilesystem", "StatResult"]

_MAX_OPEN_FILES = 256

# open(2) flag bits (subset), values as on Linux.
O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400

# Endings that make an otherwise plain absolute path need normalizing.
_UNNORMAL_ENDINGS = ("/", "/.", "/..")


class FsError(Exception):
    """A genuine filesystem error, carrying a POSIX errno."""

    def __init__(self, errno: Errno, message: str = "") -> None:
        super().__init__(f"[{errno.name}] {message}")
        self.errno = errno


class StatResult:
    """Subset of ``struct stat`` used by the targets."""

    __slots__ = ("path", "size", "is_dir", "nlink")

    def __init__(self, path: str, size: int, is_dir: bool, nlink: int) -> None:
        self.path = path
        self.size = size
        self.is_dir = is_dir
        self.nlink = nlink

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_dir else "file"
        return f"StatResult({self.path!r}, {kind}, size={self.size})"


class _File:
    __slots__ = ("data", "nlink")

    def __init__(self, data: bytes = b"") -> None:
        self.data = bytearray(data)
        self.nlink = 1


class _OpenFile:
    __slots__ = ("file", "path", "offset", "flags", "closed")

    def __init__(self, file: _File, path: str, flags: int) -> None:
        self.file = file
        self.path = path
        self.offset = 0
        self.flags = flags
        self.closed = False


class SimFilesystem:
    """In-memory tree of files and directories plus an fd table."""

    def __init__(self) -> None:
        # Directories are the set of paths; files map path -> _File.
        self._dirs: set[str] = {"/"}
        self._files: dict[str, _File] = {}
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved, as stdio
        self.cwd = "/"
        #: limit on simultaneously open descriptors (tests tighten this)
        self.max_open_files = _MAX_OPEN_FILES
        #: armed disk fault state (``repro.injection.models.disk``), or
        #: None; consulted on every write.
        self.disk_fault = None

    # -- path handling ------------------------------------------------------

    def resolve(self, path: str) -> str:
        """Normalize ``path`` (absolute or relative to the cwd).

        An absolute path with no empty, ``.`` or ``..`` segment and no
        trailing ``/`` is already normal and comes back as it is; only
        the others are split and rebuilt.
        """
        if not path:
            raise FsError(Errno.ENOENT, "empty path")
        if (
            path[0] == "/"
            and "//" not in path
            and "/./" not in path
            and "/../" not in path
            and not path.endswith(_UNNORMAL_ENDINGS)
        ):
            return path
        if not path.startswith("/"):
            path = self.cwd.rstrip("/") + "/" + path
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

    def _parent(self, path: str) -> str:
        return path.rsplit("/", 1)[0] or "/"

    def _require_parent_dir(self, path: str) -> None:
        parent = self._parent(path)
        if parent not in self._dirs:
            if parent in self._files:
                raise FsError(Errno.ENOTDIR, parent)
            raise FsError(Errno.ENOENT, parent)

    # -- queries ------------------------------------------------------------

    def exists(self, path: str) -> bool:
        path = self.resolve(path)
        return path in self._dirs or path in self._files

    def is_dir(self, path: str) -> bool:
        return self.resolve(path) in self._dirs

    def is_file(self, path: str) -> bool:
        return self.resolve(path) in self._files

    def stat(self, path: str) -> StatResult:
        path = self.resolve(path)
        if path in self._dirs:
            return StatResult(path, 0, True, 1)
        file = self._files.get(path)
        if file is None:
            raise FsError(Errno.ENOENT, path)
        return StatResult(path, len(file.data), False, file.nlink)

    def listdir(self, path: str) -> list[str]:
        path = self.resolve(path)
        if path in self._files:
            raise FsError(Errno.ENOTDIR, path)
        if path not in self._dirs:
            raise FsError(Errno.ENOENT, path)
        prefix = path.rstrip("/") + "/"
        names: set[str] = set()
        for candidate in list(self._dirs) + list(self._files):
            if candidate != path and candidate.startswith(prefix):
                names.add(candidate[len(prefix):].split("/", 1)[0])
        return sorted(names)

    # -- directory operations -------------------------------------------------

    def mkdir(self, path: str) -> None:
        path = self.resolve(path)
        if path in self._dirs or path in self._files:
            raise FsError(Errno.EEXIST, path)
        self._require_parent_dir(path)
        self._dirs.add(path)

    def rmdir(self, path: str) -> None:
        path = self.resolve(path)
        if path == "/":
            raise FsError(Errno.EBUSY, "cannot remove /")
        if path in self._files:
            raise FsError(Errno.ENOTDIR, path)
        if path not in self._dirs:
            raise FsError(Errno.ENOENT, path)
        if self.listdir(path):
            raise FsError(Errno.ENOTEMPTY, path)
        self._dirs.discard(path)

    def chdir(self, path: str) -> None:
        path = self.resolve(path)
        if path in self._files:
            raise FsError(Errno.ENOTDIR, path)
        if path not in self._dirs:
            raise FsError(Errno.ENOENT, path)
        self.cwd = path

    # -- file operations -------------------------------------------------------

    def create_file(self, path: str, data: bytes = b"") -> None:
        """Convenience used by test-setup code (not an injectable call)."""
        path = self.resolve(path)
        self._require_parent_dir(path)
        if path in self._dirs:
            raise FsError(Errno.EISDIR, path)
        self._files[path] = _File(data)

    def read_file(self, path: str) -> bytes:
        """Whole-file read for assertions in test bodies."""
        path = self.resolve(path)
        file = self._files.get(path)
        if file is None:
            raise FsError(Errno.ENOENT, path)
        return bytes(file.data)

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        path = self.resolve(path)
        if len(self._fds) >= self.max_open_files:
            raise FsError(Errno.EMFILE, "too many open files")
        file = self._files.get(path)
        if file is None:
            if path in self._dirs:
                # Any mode, O_RDONLY included (Linux would open the
                # directory read-only; DESIGN.md lists the difference).
                raise FsError(Errno.EISDIR, path)
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

    def _handle(self, fd: int) -> _OpenFile:
        handle = self._fds.get(fd)
        if handle is None or handle.closed:
            raise FsError(Errno.EBADF, f"fd {fd}")
        return handle

    def read(self, fd: int, count: int) -> bytes:
        handle = self._handle(fd)
        if handle.flags & O_WRONLY:
            raise FsError(Errno.EBADF, f"fd {fd} is write-only")
        data = bytes(handle.file.data[handle.offset : handle.offset + count])
        handle.offset += len(data)
        return data

    def readline(self, fd: int, limit: int) -> bytes:
        """Read up to ``limit`` bytes, stopping after the first newline."""
        handle = self._handle(fd)
        if handle.flags & O_WRONLY:
            raise FsError(Errno.EBADF, f"fd {fd} is write-only")
        buf = handle.file.data
        start = handle.offset
        newline = buf.find(b"\n", start, start + limit)
        end = start + limit if newline < 0 else newline + 1
        data = bytes(buf[start:end])
        handle.offset = start + len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        handle = self._fds.get(fd)
        if handle is None or handle.closed:
            raise FsError(Errno.EBADF, f"fd {fd}")
        flags = handle.flags
        if not flags & (O_WRONLY | O_RDWR):
            raise FsError(Errno.EBADF, f"fd {fd} is read-only")
        claimed = len(data)
        if self.disk_fault is not None:
            # Torn/corrupt writes are *silent*: the stored bytes change
            # but the syscall still claims full success below.
            data = self.disk_fault.transform(data)
        buf = handle.file.data
        if flags & O_APPEND or handle.offset == len(buf):
            buf += data
            handle.offset = len(buf)
            return claimed
        # A write inside the file, or past its end (the gap reads as
        # zeros, like a sparse file).
        end = handle.offset + len(data)
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[handle.offset : end] = data
        handle.offset = end
        return claimed

    def lseek(self, fd: int, offset: int) -> int:
        handle = self._handle(fd)
        if offset < 0:
            raise FsError(Errno.EINVAL, "negative offset")
        handle.offset = offset
        return offset

    def close(self, fd: int) -> None:
        handle = self._fds.get(fd)
        if handle is None or handle.closed:
            raise FsError(Errno.EBADF, f"fd {fd}")
        handle.closed = True
        del self._fds[fd]

    def fd_path(self, fd: int) -> str:
        return self._handle(fd).path

    def unlink(self, path: str) -> None:
        path = self.resolve(path)
        if path in self._dirs:
            raise FsError(Errno.EISDIR, path)
        if path not in self._files:
            raise FsError(Errno.ENOENT, path)
        # Open descriptors keep the _File object alive; dropping the name
        # is all unlink does, same as POSIX.
        del self._files[path]

    def rename(self, old: str, new: str) -> None:
        old = self.resolve(old)
        new = self.resolve(new)
        if old in self._dirs:
            if new in self._files:
                raise FsError(Errno.ENOTDIR, new)
            prefix = old.rstrip("/") + "/"
            moved_dirs = {d for d in self._dirs if d == old or d.startswith(prefix)}
            moved_files = {f for f in self._files if f.startswith(prefix)}
            for d in moved_dirs:
                self._dirs.discard(d)
                self._dirs.add(new + d[len(old):])
            for f in moved_files:
                self._files[new + f[len(old):]] = self._files.pop(f)
            return
        if old not in self._files:
            raise FsError(Errno.ENOENT, old)
        if new in self._dirs:
            raise FsError(Errno.EISDIR, new)
        self._require_parent_dir(new)
        self._files[new] = self._files.pop(old)

    def link(self, existing: str, new: str) -> None:
        existing = self.resolve(existing)
        new = self.resolve(new)
        if existing in self._dirs:
            raise FsError(Errno.EPERM, "hard link to directory")
        file = self._files.get(existing)
        if file is None:
            raise FsError(Errno.ENOENT, existing)
        if new in self._dirs or new in self._files:
            raise FsError(Errno.EEXIST, new)
        self._require_parent_dir(new)
        file.nlink += 1
        self._files[new] = file

    # -- accounting -----------------------------------------------------------

    @property
    def open_fd_count(self) -> int:
        return len(self._fds)

    def snapshot_paths(self) -> tuple[frozenset[str], frozenset[str]]:
        """(directories, files) — used by tests asserting cleanup."""
        return frozenset(self._dirs), frozenset(self._files)

    def iter_files(self):
        """Yield (path, content) for every file — for invariant checkers."""
        for file_path, node in self._files.items():
            yield file_path, bytes(node.data)
