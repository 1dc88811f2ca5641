"""A tracked heap for simulated programs.

Pointers are plain integers; ``0`` is NULL.  The heap validates every
access, so the classic recovery bugs the paper finds become observable:

* dereferencing NULL (the Apache ``strdup`` bug, Fig. 7) raises
  :class:`~repro.sim.crashes.SegmentationFault`;
* writing past the end of an allocation raises a segfault;
* double ``free`` raises :class:`~repro.sim.crashes.AbortCrash`
  (glibc aborts on heap corruption);
* use-after-free raises a segfault.

Allocation contents are byte arrays, which is enough for the programs
under test to copy strings and buffers around realistically.
"""

from __future__ import annotations

from repro.sim.crashes import AbortCrash, SegmentationFault

__all__ = ["Heap", "NULL"]

#: The null pointer.
NULL = 0


class _Allocation:
    __slots__ = ("data", "freed")

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)
        self.freed = False


class Heap:
    """Bounds- and lifetime-checked allocations addressed by integer id."""

    def __init__(self, stack_snapshot=None) -> None:
        self._allocations: dict[int, _Allocation] = {}
        self._next_addr = 0x1000
        self._bytes_in_use = 0
        # Optional callable returning the current simulated stack, used to
        # decorate crash signals with a trace.
        self._stack_snapshot = stack_snapshot or (lambda: ())
        #: armed bit-flip fault state (``repro.injection.models.bitflip``),
        #: or None; consulted on every checked access.
        self.bitflip = None

    # -- allocation -------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed bytes and return the pointer."""
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        addr = self._next_addr
        # Keep addresses disjoint and stable; alignment mimics malloc.
        self._next_addr = addr + (size or 1) + 16
        self._allocations[addr] = _Allocation(size)
        self._bytes_in_use += size
        return addr

    def free(self, ptr: int) -> None:
        """Free ``ptr``.  ``free(NULL)`` is a no-op, as in C."""
        if ptr == NULL:
            return
        alloc = self._allocations.get(ptr)
        if alloc is None:
            raise SegmentationFault(
                f"free of wild pointer {ptr:#x}", self._stack_snapshot()
            )
        if alloc.freed:
            raise AbortCrash(
                f"double free of {ptr:#x}", self._stack_snapshot()
            )
        alloc.freed = True
        self._bytes_in_use -= len(alloc.data)

    def realloc(self, ptr: int, size: int) -> int:
        """Resize an allocation, returning the (new) pointer."""
        if ptr == NULL:
            return self.alloc(size)
        old = self._checked(ptr, 0, "realloc")
        new_ptr = self.alloc(size)
        keep = min(len(old.data), size)
        self._allocations[new_ptr].data[:keep] = old.data[:keep]
        self.free(ptr)
        return new_ptr

    # -- access -----------------------------------------------------------

    def _checked(self, ptr: int, end: int, op: str) -> _Allocation:
        if ptr == NULL:
            raise SegmentationFault(
                f"{op} through NULL pointer", self._stack_snapshot()
            )
        alloc = self._allocations.get(ptr)
        if alloc is None:
            raise SegmentationFault(
                f"{op} through wild pointer {ptr:#x}", self._stack_snapshot()
            )
        if alloc.freed:
            raise SegmentationFault(
                f"{op} after free of {ptr:#x}", self._stack_snapshot()
            )
        if end > len(alloc.data):
            raise SegmentationFault(
                f"{op} out of bounds at {ptr:#x}+{end} (size {len(alloc.data)})",
                self._stack_snapshot(),
            )
        if self.bitflip is not None:
            # ZOFI-style transient fault: every validated access ticks
            # the counter; the Nth flips one bit of live data before the
            # operation proceeds.
            self.bitflip.on_access(alloc.data)
        return alloc

    def store(self, ptr: int, offset: int, data: bytes) -> None:
        """Write ``data`` at ``ptr + offset``."""
        end = offset + len(data)
        alloc = self._allocations.get(ptr)
        if (
            alloc is None
            or alloc.freed
            or end > len(alloc.data)
            or self.bitflip is not None
        ):
            # Every failed check, and every access an armed bit flip
            # counts, goes through the full validation.
            alloc = self._checked(ptr, end, "store")
        alloc.data[offset:end] = data

    def store_byte(self, ptr: int, offset: int, value: int) -> None:
        """Write a single byte — the idiom behind ``p[len] = '\\0'``."""
        alloc = self._checked(ptr, offset + 1, "store")
        alloc.data[offset] = value & 0xFF

    def load(self, ptr: int, offset: int, size: int) -> bytes:
        """Read ``size`` bytes from ``ptr + offset``."""
        alloc = self._checked(ptr, offset + size, "load")
        return bytes(alloc.data[offset : offset + size])

    def store_string(self, ptr: int, text: str) -> None:
        """Copy a NUL-terminated string into the allocation."""
        raw = text.encode() + b"\x00"
        self.store(ptr, 0, raw)

    def load_string(self, ptr: int) -> str:
        """Read a NUL-terminated string from the allocation."""
        alloc = self._checked(ptr, 1, "load")
        raw = bytes(alloc.data)
        nul = raw.find(b"\x00")
        if nul == -1:
            nul = len(raw)
        return raw[:nul].decode(errors="replace")

    def size_of(self, ptr: int) -> int:
        """The size of the allocation at ``ptr``."""
        return len(self._checked(ptr, 0, "size_of").data)

    # -- accounting ---------------------------------------------------------

    @property
    def bytes_in_use(self) -> int:
        return self._bytes_in_use

    @property
    def live_allocations(self) -> int:
        return sum(1 for a in self._allocations.values() if not a.freed)
