"""Serializable campaign specifications for the service API.

A :class:`CampaignSpec` is the JSON document a client submits to the
campaign service: which target to certify, under which fault model,
with which strategy/budget/seed, and on which fabric.  It deliberately
covers exactly the knobs ``afex run`` exposes for its *default* space —
so a served campaign and a direct ``afex run`` with the same spec are
the **same campaign** and produce byte-identical history digests (the
service acceptance gate).

Specs are validated and canonicalized at construction (unknown keys
rejected, fault-model composition order normalized), so two spellings
of the same campaign dedup to one identity everywhere downstream.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.errors import ReportError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.faultspace import FaultSpace
    from repro.core.search.base import SearchStrategy
    from repro.service.engine import CampaignEngine
    from repro.sim.testsuite import Target

__all__ = ["CampaignSpec", "SPEC_TARGETS", "SPEC_STRATEGIES", "SPEC_FABRICS"]

SPEC_TARGETS = (
    "coreutils", "minidb", "httpd", "docstore", "docstore-0.8",
    "docstore-2.0", "replkv",
)
SPEC_STRATEGIES = ("fitness", "random", "exhaustive", "genetic")
SPEC_FABRICS = ("serial", "threads", "processes", "virtual", "socket")


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, as submitted over the wire."""

    target: str
    strategy: str = "fitness"
    iterations: int = 250
    seed: int = 0
    fault_model: str = "errno"
    max_call: int = 2
    fabric: str = "serial"
    workers: int = 4
    #: socket fabric: explorer nodes to wait for (and, when the service
    #: launches them itself, to spawn).
    nodes: int = 1
    batch_size: "int | None" = None
    online_quality: bool = False
    cluster_distance: int = 1
    similarity_threshold: float = 0.0
    #: how many top faults the outcome document reports.
    top: int = 10
    #: free-form client label, echoed in job listings.
    label: str = ""

    def __post_init__(self) -> None:
        from repro.errors import InjectionError
        from repro.injection.models import canonical_spec

        if self.target not in SPEC_TARGETS:
            raise ReportError(
                f"unknown target {self.target!r}; available: {SPEC_TARGETS}"
            )
        if self.strategy not in SPEC_STRATEGIES:
            raise ReportError(
                f"unknown strategy {self.strategy!r}; "
                f"available: {SPEC_STRATEGIES}"
            )
        if self.fabric not in SPEC_FABRICS:
            raise ReportError(
                f"unknown fabric {self.fabric!r}; available: {SPEC_FABRICS}"
            )
        if self.iterations < 1:
            raise ReportError(f"iterations must be >= 1, got {self.iterations}")
        if self.workers < 1:
            raise ReportError(f"workers must be >= 1, got {self.workers}")
        if self.nodes < 1:
            raise ReportError(f"nodes must be >= 1, got {self.nodes}")
        if self.batch_size is not None and (
            not isinstance(self.batch_size, int) or self.batch_size < 1
        ):
            raise ReportError(
                f"batch_size must be an int >= 1, got {self.batch_size!r}"
            )
        try:
            object.__setattr__(
                self, "fault_model", canonical_spec(self.fault_model)
            )
        except InjectionError as exc:
            raise ReportError(f"fault_model: {exc}") from None

    # -- wire format -----------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "CampaignSpec":
        if not isinstance(raw, dict):
            raise ReportError(f"campaign spec must be an object, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(raw) - known
        if unknown:
            raise ReportError(
                f"unknown campaign spec keys: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        if "target" not in raw:
            raise ReportError("campaign spec needs a 'target'")
        try:
            return cls(**raw)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ReportError(f"bad campaign spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ReportError(f"unparseable campaign spec: {exc}") from None

    # -- identity --------------------------------------------------------------

    def engine_signature(self) -> tuple:
        """What must match for two campaigns to share a warm engine."""
        return (
            self.target, self.fabric, self.workers, self.nodes,
            self.fault_model,
        )

    # -- builders (the exact ``afex run`` construction path) -------------------

    def build_target(self) -> "Target":
        from repro.sim.targets import target_by_name

        return target_by_name(self.target)

    def build_space(self, target: "Target") -> "FaultSpace":
        from repro.injection.models import compose_models, model_space

        return model_space(
            target, compose_models(self.fault_model), max_call=self.max_call
        )

    def build_strategy(self) -> "SearchStrategy":
        from repro.core.search import strategy_by_name

        return strategy_by_name(self.strategy)

    def build_engine(self, **overrides) -> "CampaignEngine":
        """An engine configured exactly like ``afex run`` would be.

        ``overrides`` pass engine kwargs through (``on_fabric`` to
        launch socket nodes, ``metrics`` for service observability...).
        """
        import functools

        from repro.injection.models import model_injector
        from repro.service.engine import CampaignEngine
        from repro.sim.targets import target_by_name

        target = overrides.pop("target", None) or self.build_target()
        workers = self.nodes if self.fabric == "socket" else self.workers
        kwargs: dict = dict(
            fabric=self.fabric,
            workers=workers,
            injector_factory=functools.partial(
                model_injector, self.fault_model
            ),
            target_factory=functools.partial(target_by_name, self.target),
        )
        kwargs.update(overrides)
        return CampaignEngine(target, **kwargs)
