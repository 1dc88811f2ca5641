"""Timing that survives a noisy host: calibrated segments, tree-wide CPU/RSS.

Every timed piece of work is bracketed by two runs of the frozen kernel in
``bench/hostcal.py`` and its wall and CPU time are scaled by
``CAL_REF_S / mean(before, after)``.  A run's figure is the median over its
segments, so one disturbed segment moves nothing and a host that is slow
throughout is scaled back to the reference host.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bench import hostcal

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> "list[str] | None":
    """``/proc/<pid>/stat`` after the command name (field 3 onwards)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("latin-1")
    except OSError:
        return None  # the process ended between listing and reading
    return raw[raw.rindex(")") + 2:].split()


def process_tree() -> list[int]:
    """This process and every live descendant."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    root = os.getpid()
    tree = [root]
    frontier = [root]
    while frontier:
        frontier = [p for p, pp in parent_of.items() if pp in frontier]
        tree.extend(frontier)
    return tree


def tree_cpu_seconds() -> float:
    """user + sys CPU consumed so far by the process tree.

    This process is read at clock resolution; live descendants come from
    ``/proc`` (10 ms ticks), and children that already exited and were
    waited for are included through their parent's ``cutime``/``cstime``.
    """
    own = os.times()
    total = time.process_time() + own.children_user + own.children_system
    for pid in process_tree()[1:]:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime stime cutime cstime are fields 14-17 of the full line.
            total += sum(int(f) for f in fields[11:15]) / _TICK
    return total


def tree_peak_rss_mb(skip: "int | None" = None) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the live process tree,
    leaving out ``skip`` (the yardstick's helper is not the program)."""
    total_kb = 0
    for pid in process_tree():
        if pid == skip:
            continue
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


@dataclass(frozen=True)
class Sample:
    """One calibrated measurement."""

    wall_s: float
    cpu_s: float
    cal_before_s: float
    cal_after_s: float

    @property
    def scale(self) -> float:
        return hostcal.CAL_REF_S / ((self.cal_before_s + self.cal_after_s) / 2)

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.scale


#: a kernel reading this old is taken again before it brackets anything.
FRESH_S = 0.1


class Calibrated:
    """Measures pieces of work between two kernel readings.

    Consecutive pieces share the reading between them, and work much shorter
    than the kernel (a bulk replay of a microsecond function) reuses a
    reading while it is younger than ``FRESH_S``, so the yardstick never
    costs more than what it measures.

    With ``cores=2`` a reading is the mean of two kernel runs made at the
    same moment, one here and one in a helper process: work that keeps two
    cores busy is slowed by a neighbour on either, and a yardstick on one
    core would not see the other (measured on ``pool-minidb``: run-to-run
    spread 5.5 % with one core, 3.5 % with two).  Use as a context manager.
    """

    def __init__(self, cores: int = 1) -> None:
        #: every reading taken, for ``bench.host_speed_index``.
        self.kernel_s: list[float] = []
        self._taken_at = float("-inf")
        self._helper = None
        if cores > 1:
            self._helper = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("secondcore.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED="0"),
            )
        self._reading()

    def __enter__(self) -> "Calibrated":
        return self

    def __exit__(self, *exc_info) -> None:
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.stdin.close()  # end of input ends the helper
            try:
                helper.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()

    @property
    def helper_pid(self) -> "int | None":
        return self._helper.pid if self._helper is not None else None

    def _reading(self) -> float:
        if time.perf_counter() - self._taken_at > FRESH_S:
            if self._helper is not None:
                self._helper.stdin.write("go\n")
                self._helper.stdin.flush()
                here = hostcal.measure()
                reading = (here + float(self._helper.stdout.readline())) / 2
            else:
                reading = hostcal.measure()
            self.kernel_s.append(reading)
            self._taken_at = time.perf_counter()
        return self.kernel_s[-1]

    def run(self, work, *, tree_cpu: bool = True):
        """``(Sample, work())``.  The garbage collector runs before the
        clock starts, so no segment pays for its predecessor's litter."""
        gc.collect()
        before = self._reading()
        cpu = tree_cpu_seconds if tree_cpu else time.process_time
        cpu0 = cpu()
        t0 = time.perf_counter()
        value = work()
        wall = time.perf_counter() - t0
        cpu_s = cpu() - cpu0
        return Sample(wall, cpu_s, before, self._reading()), value


def cv(values) -> float:
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean else 0.0
