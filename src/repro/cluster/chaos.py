"""A chaos-injecting execution fabric: the fault injector's fault injector.

:class:`ChaosCluster` wraps any real fabric and sabotages a
configurable fraction of dispatches — killing the round (a raised
exception, as a dead worker produces), corrupting a report's payload,
or silently dropping one.  It exists to exercise
:class:`~repro.cluster.fault_tolerance.FaultTolerantFabric` the same
way AFEX exercises recovery code: by making the unlikely failure the
common case.

Every sabotage is keyed on the victim's ``request_id`` and fires **at
most once per request**, so a bounded retry policy always converges:
a wrapped exploration under chaos must produce a result history
byte-identical to a fault-free run (the simulated world is
deterministic), with the damage visible only in the fabric's
:class:`~repro.cluster.fault_tolerance.FabricHealth` counters.  Kills
fire *before* the inner fabric executes, so sabotaged work has no side
effects to double-apply on retry.
"""

from __future__ import annotations

import random

from repro.cluster.messages import TestReport, TestRequest
from repro.errors import ClusterError

__all__ = ["ChaosCluster", "ChaosError"]


class ChaosError(ClusterError):
    """Raised by a chaos kill: the worker executing the round 'died'."""


class _CorruptReport:
    """A garbled wire payload: right request id, wrong everything else."""

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<corrupt report for #{self.request_id}>"


class ChaosCluster:
    """Sabotages a fraction of dispatches against an inner fabric.

    Rates are probabilities in ``[0, 1]``, rolled once per request the
    first time it is dispatched (mutually exclusive, in the order kill,
    corrupt, drop).  A hung worker is not modelled: to the retry loop
    it is only a slow drop.
    """

    def __init__(
        self,
        inner: object,
        kill_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        drop_rate: float = 0.0,
        rng: random.Random | int | None = None,
    ) -> None:
        for name, rate in (("kill", kill_rate), ("corrupt", corrupt_rate),
                           ("drop", drop_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ClusterError(
                    f"{name}_rate must be in [0, 1], got {rate}"
                )
        if kill_rate + corrupt_rate + drop_rate > 1.0:
            raise ClusterError("sabotage rates must sum to <= 1")
        self.inner = inner
        self.kill_rate = kill_rate
        self.corrupt_rate = corrupt_rate
        self.drop_rate = drop_rate
        self._rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        #: request_id -> planned sabotage ("kill"/"corrupt"/"drop").
        self._plan: dict[int, str | None] = {}
        self._fired: set[int] = set()
        self.kills = 0
        self.corruptions = 0
        self.drops = 0

    def __len__(self) -> int:
        return len(self.inner)  # type: ignore[arg-type]

    @property
    def sabotages(self) -> int:
        """Total sabotages actually fired."""
        return self.kills + self.corruptions + self.drops

    def _decide(self, request_id: int) -> str | None:
        if request_id not in self._plan:
            roll = self._rng.random()
            edge = self.kill_rate
            if roll < edge:
                self._plan[request_id] = "kill"
            elif roll < (edge := edge + self.corrupt_rate):
                self._plan[request_id] = "corrupt"
            elif roll < edge + self.drop_rate:
                self._plan[request_id] = "drop"
            else:
                self._plan[request_id] = None
        return self._plan[request_id]

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        # Round-level sabotage (a kill) fires before the inner fabric
        # runs anything, so a retried request re-executes from scratch
        # exactly once, never twice.
        for request in requests:
            rid = request.request_id
            if rid in self._fired:
                continue
            mode = self._decide(rid)
            if mode == "kill":
                self._fired.add(rid)
                self.kills += 1
                raise ChaosError(
                    f"chaos: worker died executing request #{rid}"
                )
        reports = list(self.inner.run_batch(list(requests)))  # type: ignore[attr-defined]
        # Report-level sabotage (corrupt/drop) hits individual payloads.
        sabotaged: list[object] = []
        for report in reports:
            rid = report.request_id
            if rid not in self._fired:
                mode = self._decide(rid)
                if mode == "corrupt":
                    self._fired.add(rid)
                    self.corruptions += 1
                    sabotaged.append(_CorruptReport(rid))
                    continue
                if mode == "drop":
                    self._fired.add(rid)
                    self.drops += 1
                    continue
            sabotaged.append(report)
        return sabotaged

    def describe(self) -> str:
        inner = getattr(self.inner, "describe",
                        lambda: type(self.inner).__name__)
        return (
            f"chaos[{inner()}]: kill={self.kill_rate} "
            f"corrupt={self.corrupt_rate} drop={self.drop_rate} "
            f"({self.sabotages} fired)"
        )
