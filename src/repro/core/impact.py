"""Impact metrics: I_S : Φ → R, the fitness the search climbs (§2, §6.4).

The paper's recipe (§6.4 step 3): "allocate scores to each event of
interest, such as 1 point for each newly covered basic block, 10 points
for each hang bug found, 20 points for each crash."
:func:`standard_impact` builds exactly that metric.

Metrics score :class:`~repro.sim.process.RunResult` objects.  The
coverage component is *stateful* (it rewards blocks never seen in this
exploration session), so a fresh metric must be created per session —
:class:`~repro.core.session.ExplorationSession` asserts this by
accepting a factory or a not-yet-used metric.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.sim.process import RunResult

__all__ = [
    "ImpactMetric",
    "FailedTestImpact",
    "CrashImpact",
    "HangImpact",
    "CoverageImpact",
    "MeasurementImpact",
    "SlowdownImpact",
    "InvariantImpact",
    "ResourceLeakImpact",
    "CompositeImpact",
    "measure_leak_baseline",
    "measure_step_baseline",
    "standard_impact",
]


class ImpactMetric(ABC):
    """Maps a run outcome to a scalar impact."""

    @abstractmethod
    def score(self, result: RunResult) -> float:
        """The impact of the run (higher = more interesting to a tester)."""

    def __call__(self, result: RunResult) -> float:
        return self.score(result)


class FailedTestImpact(ImpactMetric):
    """Points when the test fails (for any reason, including crashes)."""

    def __init__(self, points: float = 5.0) -> None:
        self.points = points

    def score(self, result: RunResult) -> float:
        return self.points if result.failed else 0.0


class CrashImpact(ImpactMetric):
    """Points for process crashes (segfault / abort)."""

    def __init__(self, points: float = 20.0) -> None:
        self.points = points

    def score(self, result: RunResult) -> float:
        return self.points if result.crashed else 0.0


class HangImpact(ImpactMetric):
    """Points for hangs (step-budget exhaustion, self-deadlock)."""

    def __init__(self, points: float = 10.0) -> None:
        self.points = points

    def score(self, result: RunResult) -> float:
        return self.points if result.hung else 0.0


class CoverageImpact(ImpactMetric):
    """Points per basic block never covered before in this session.

    Stateful: remembers every block seen across scored runs, so early
    tests that open new territory score high and repeats score zero —
    this is what pushes the search to keep coverage growing alongside
    impact (§3's aging discussion, §7 impact metric).
    """

    def __init__(self, points_per_block: float = 1.0) -> None:
        self.points_per_block = points_per_block
        self._seen: set[str] = set()
        #: coverage sets already absorbed into ``_seen``: golden and memo
        #: answers share coverage objects, and a frozenset caches its
        #: hash, so a repeat is one probe instead of two set operations.
        self._absorbed: set[frozenset[str]] = set()

    @property
    def blocks_seen(self) -> frozenset[str]:
        return frozenset(self._seen)

    def score(self, result: RunResult) -> float:
        coverage = result.coverage
        if coverage in self._absorbed:
            return self.points_per_block * 0
        new = coverage - self._seen
        self._seen |= coverage
        self._absorbed.add(coverage)
        return self.points_per_block * len(new)


class MeasurementImpact(ImpactMetric):
    """Scores a named sensor measurement (e.g. latency degradation)."""

    def __init__(self, name: str, scale: float = 1.0, default: float = 0.0) -> None:
        self.name = name
        self.scale = scale
        self.default = default

    def score(self, result: RunResult) -> float:
        return self.scale * result.measurements.get(self.name, self.default)


class SlowdownImpact(ImpactMetric):
    """Scores performance degradation against a per-test baseline.

    §6 motivates exploration targets like "the top-50 worst faults
    performance-wise (i.e., faults that affect system performance the
    most)".  Execution cost here is the simulated step count (libc
    calls), which rises under injected faults exactly when the target
    burns work on retries, fallbacks, and re-processing.  The score is
    ``scale * max(0, steps/baseline - 1)`` — relative slowdown.

    Build the baseline with :func:`measure_step_baseline`.
    """

    def __init__(self, baseline: dict[int, int], scale: float = 10.0) -> None:
        if not baseline:
            raise ValueError("slowdown impact needs a non-empty baseline")
        if any(steps <= 0 for steps in baseline.values()):
            raise ValueError("baseline step counts must be positive")
        self.baseline = dict(baseline)
        self.scale = scale

    def score(self, result: RunResult) -> float:
        baseline = self.baseline.get(result.test_id)
        if baseline is None:
            return 0.0
        slowdown = result.steps / baseline - 1.0
        return self.scale * max(0.0, slowdown)


class InvariantImpact(ImpactMetric):
    """Points per violated always-true property (§7's fault-injection-
    oriented assertions — "under no circumstances should a file transfer
    be only partially completed when the system stops").

    These are the most severe findings a recovery test can produce:
    acknowledged state was lost or torn.  The default weight therefore
    exceeds even the crash weight.
    """

    def __init__(self, points: float = 30.0) -> None:
        self.points = points

    def score(self, result: RunResult) -> float:
        return self.points * len(result.invariant_violations)


class ResourceLeakImpact(ImpactMetric):
    """Scores resource leaks left behind by the run.

    A fault whose error path forgets to close descriptors or free
    buffers does not fail any test — it quietly poisons long-running
    processes.  The simulated world tracks both resources exactly, so
    leaks relative to a fault-free baseline are directly scorable.
    Baselines come from :func:`measure_leak_baseline`; without one,
    absolute end-of-run usage is scored (fine for programs that should
    exit clean).
    """

    def __init__(
        self,
        fd_points: float = 5.0,
        byte_points: float = 0.01,
        baseline: dict[int, tuple[int, int]] | None = None,
    ) -> None:
        self.fd_points = fd_points
        self.byte_points = byte_points
        self.baseline = dict(baseline) if baseline else {}

    def score(self, result: RunResult) -> float:
        base_fds, base_bytes = self.baseline.get(result.test_id, (0, 0))
        leaked_fds = max(0, result.open_fds - base_fds)
        leaked_bytes = max(0, result.leaked_heap_bytes - base_bytes)
        return self.fd_points * leaked_fds + self.byte_points * leaked_bytes


def measure_leak_baseline(target) -> dict[int, tuple[int, int]]:
    """Fault-free (open fds, heap bytes) per test at program end."""
    from repro.sim.process import run_test

    baseline = {}
    for test in target.suite:
        result = run_test(target, test)
        baseline[test.id] = (result.open_fds, result.leaked_heap_bytes)
    return baseline


def measure_step_baseline(target) -> dict[int, int]:
    """Fault-free step counts per test, for :class:`SlowdownImpact`."""
    from repro.sim.process import run_test

    return {
        test.id: max(run_test(target, test).steps, 1)
        for test in target.suite
    }


class CompositeImpact(ImpactMetric):
    """Sum of component metrics."""

    def __init__(self, components: Sequence[ImpactMetric]) -> None:
        if not components:
            raise ValueError("composite impact needs at least one component")
        self.components = tuple(components)

    def score(self, result: RunResult) -> float:
        return sum([component.score(result) for component in self.components])


def standard_impact(
    coverage_points: float = 1.0,
    failed_test_points: float = 5.0,
    hang_points: float = 10.0,
    crash_points: float = 20.0,
) -> CompositeImpact:
    """The paper's §6.4 example metric, freshly stateful."""
    return CompositeImpact(
        [
            CoverageImpact(coverage_points),
            FailedTestImpact(failed_test_points),
            HangImpact(hang_points),
            CrashImpact(crash_points),
        ]
    )
