"""Sensors: the measurements every recorded result carries (§6, Fig. 2).

"The sensors are instructed to run the developer-provided workload
scripts ... and perform measurements, which are then reported back to
the manager.  The manager aggregates these measurements into a single
impact value."  Here a sensor post-processes a completed
:class:`~repro.sim.process.RunResult` into named measurements;
:func:`measure` runs the default set for
:func:`~repro.core.runner.record`, wherever the test ran — a node
manager ships the measured record as its
:class:`~repro.cluster.messages.TestReport`'s ``result``, the in-process
loop records its runner's results the same way.  New sensor kinds plug
in by subclassing :class:`Sensor`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.sim.process import RunResult

__all__ = [
    "Sensor",
    "CoverageSensor",
    "ExitCodeSensor",
    "CrashSensor",
    "StepSensor",
    "InvariantSensor",
    "MeasurementPassthroughSensor",
    "default_sensors",
    "measure",
]


class Sensor(ABC):
    """Turns a run outcome into named scalar measurements."""

    #: measurement namespace prefix.
    name: str = "sensor"

    @abstractmethod
    def measure(self, result: RunResult) -> dict[str, float]:
        """Named measurements extracted from the run."""


class CoverageSensor(Sensor):
    """How many basic blocks the run covered."""

    name = "coverage"

    def measure(self, result: RunResult) -> dict[str, float]:
        return {"coverage.blocks": float(len(result.coverage))}


class ExitCodeSensor(Sensor):
    """The target's exit status."""

    name = "exit"

    def measure(self, result: RunResult) -> dict[str, float]:
        return {
            "exit.code": float(result.exit_code),
            "exit.failed": 1.0 if result.failed else 0.0,
        }


class CrashSensor(Sensor):
    """Crash/hang classification flags."""

    name = "crash"

    def measure(self, result: RunResult) -> dict[str, float]:
        return {
            "crash.segfault": 1.0 if result.crash_kind == "segfault" else 0.0,
            "crash.abort": 1.0 if result.crash_kind == "abort" else 0.0,
            "crash.hang": 1.0 if result.crash_kind == "hang" else 0.0,
        }


class StepSensor(Sensor):
    """Execution cost in simulated libc calls (a latency proxy)."""

    name = "steps"

    def measure(self, result: RunResult) -> dict[str, float]:
        return {"steps.total": float(result.steps)}


class InvariantSensor(Sensor):
    """Counts violated always-true properties (data loss, torn state)."""

    name = "invariant"

    def measure(self, result: RunResult) -> dict[str, float]:
        return {"invariant.violations": float(len(result.invariant_violations))}


class MeasurementPassthroughSensor(Sensor):
    """Forwards measurements the program under test published itself."""

    name = "app"

    def measure(self, result: RunResult) -> dict[str, float]:
        return {f"app.{k}": float(v) for k, v in result.measurements.items()}


def default_sensors() -> tuple[Sensor, ...]:
    """The sensor set every recorded result is measured by."""
    return (
        CoverageSensor(),
        ExitCodeSensor(),
        CrashSensor(),
        StepSensor(),
        InvariantSensor(),
        MeasurementPassthroughSensor(),
    )


_DEFAULT_SENSORS = default_sensors()


def measure(result: RunResult) -> dict[str, float]:
    """``result``'s measurements by the default sensors."""
    return {name: value for sensor in _DEFAULT_SENSORS
            for name, value in sensor.measure(result).items()}
