"""Host calibration kernel: the yardstick every benchmark time is divided by.

FROZEN.  Editing anything in this file -- the kernel, ``CAL_REF_S``, even a
comment -- changes ``SOURCE_SHA256`` and re-bases every number the benchmark
has ever reported.  Such an edit needs its own benchmark issue, lands alone,
claims no gain, and the baseline is measured again afterwards.
``bench/run.py`` asserts the digest below at start-up and records it in its
output, so two result files are comparable only when their digests agree.

The kernel is a fixed amount of pure-Python work in the mix the simulator
itself uses (attribute access, dict and bytearray traffic, method calls,
raised-and-caught exceptions), about 30 ms on the reference host.  A piece
of benchmark work is bracketed by two kernel runs; its wall time is scaled by
``CAL_REF_S / mean(before, after)`` so that a slow moment of the host (a busy
neighbour, a lower clock) stretches yardstick and work alike and cancels.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

#: kernel seconds on the reference host; normalised seconds are "seconds on
#: a host where the kernel takes exactly this long".
CAL_REF_S = 0.030

#: sha256 of this file with the digest line itself blanked (see source_sha256).
SOURCE_SHA256 = "1e2344cb9ab4590b7b065c09bbd07439ea5cdfd976e99b72cae04c0d065207dd"

_ROUNDS = 40_000


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        self.hits += 1
        return self.value


class _Miss(Exception):
    pass


def _probe(table: dict, key: int) -> int:
    if key not in table:
        raise _Miss(key)
    return table[key]


def kernel() -> int:
    """One fixed unit of work; returns a checksum (always the same)."""
    cells = [_Cell() for _ in range(16)]
    table: dict[int, int] = {}
    buffer = bytearray(256)
    checksum = 0
    for i in range(_ROUNDS):
        cell = cells[i & 15]
        value = cell.bump(i)
        table[value & 1023] = i
        buffer[i & 255] = value & 255
        try:
            checksum += _probe(table, (i * 7) & 2047)
        except _Miss:
            checksum += 1
        if i & 63 == 0:
            checksum += sum(buffer[:32]) + len(table)
            name = f"fd{i & 7}/{value}"
            checksum += len(name.split("/")[1])
    return checksum & 0xFFFFFFFF


KERNEL_CHECKSUM = 377956040


def measure() -> float:
    """Run the kernel once; its wall seconds."""
    t0 = time.perf_counter()
    checksum = kernel()
    wall = time.perf_counter() - t0
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(
            f"calibration kernel checksum {checksum} != {KERNEL_CHECKSUM}: "
            "the kernel no longer does its frozen work"
        )
    return wall


def source_sha256() -> str:
    """Digest of this file's bytes with the ``SOURCE_SHA256`` value zeroed."""
    lines = Path(__file__).read_bytes().splitlines(keepends=True)
    hasher = hashlib.sha256()
    for line in lines:
        if line.startswith(b"SOURCE_SHA256 = "):
            line = b'SOURCE_SHA256 = "' + b"0" * 64 + b'"\n'
        hasher.update(line)
    return hasher.hexdigest()


def assert_frozen() -> str:
    """Raise unless this file is byte-for-byte the frozen one."""
    digest = source_sha256()
    if digest != SOURCE_SHA256:
        raise RuntimeError(
            "bench/hostcal.py was edited: its sha256 is "
            f"{digest}, the frozen one is {SOURCE_SHA256}.  Editing the "
            "calibration kernel re-bases every benchmark number and needs "
            "its own benchmark issue (see the header of the file)."
        )
    return digest
