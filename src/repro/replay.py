"""One-command crash replay with call-level provenance.

A stored result's **crash id** is the store's scenario-key digest (see
:func:`repro.service.store.scenario_key_digest`): a SHA-256 over the
content address ``(target/version/fault-model, subspace, canonical
attribute vector, trial, step budget)``.  Because the simulated world is
deterministic, that address fully determines the execution — so the id
alone, resolved against any artifact that recorded it, is enough to
rebuild the exact injector spec and re-run the scenario.

Resolution order (first artifact that knows the id wins):

1. a service :class:`~repro.service.store.ResultStore` (``--store``);
2. a campaign checkpoint written by ``afex run --checkpoint`` or the
   service's server-side snapshots (``--checkpoint``);
3. a campaign outcome document written by ``--report-json``
   (``--report-json``; coarse — the document stores outcomes, not full
   payloads, so only the coarse outcome is diffed).

Ids may be abbreviated git-style: any unambiguous prefix resolves; an
ambiguous one raises :class:`~repro.errors.ReplayError` listing the
candidates.

The replayed execution always runs with provenance capture on, so a
divergence (or a reproduced crash) comes with a call-level explanation:
which sim-libc call, at which call index, on which resource, the fault
fired — and what it propagated to.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.fault import decanonical
from repro.errors import ReplayError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fault import Fault
    from repro.sim.process import RunResult

__all__ = [
    "ReplaySource",
    "ReplayOutcome",
    "crash_id_of",
    "result_digest",
    "resolve_crash_id",
    "replay_source",
    "replay",
    "format_outcome",
]

# -- identity ---------------------------------------------------------------


def crash_id_of(
    target_name: str,
    target_version: str,
    fault_model: str,
    subspace: str,
    attributes: tuple,
) -> str:
    """The stable crash id of one scenario (the store's digest formula).

    ``fault_model`` is the canonical plugin spec *without* the
    ``model:`` injector-name prefix — the identity
    :meth:`~repro.service.store.ResultStore.record_campaign` keys rows
    with.
    """
    from repro.service.store import scenario_key_digest, store_identity

    return scenario_key_digest(
        store_identity(target_name, target_version, fault_model),
        subspace, attributes,
    )


def result_digest(result: "RunResult") -> str:
    """Content digest of one execution outcome (canonical payload JSON).

    Two runs of the same scenario match iff their digests match; replay
    scripts and the smoke tests compare this instead of eyeballing
    summaries.
    """
    from repro.core.cache import result_to_json

    return hashlib.sha256(result_to_json(result).encode("utf-8")).hexdigest()


def _attributes_tuple(raw) -> tuple:
    return tuple((name, decanonical(value)) for name, value in raw)


# -- resolution -------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySource:
    """Everything a resolved crash id tells us about the original run."""

    crash_id: str
    target_name: str
    target_version: str
    #: canonical fault-model spec (no ``model:`` prefix).
    fault_model: str
    subspace: str
    attributes: tuple
    #: where the id resolved: ``store`` | ``checkpoint`` | ``report``.
    source: str
    #: full recorded RunResult wire payload (None for report documents,
    #: which store outcomes only).
    recorded_payload: dict | None = None
    #: coarse recorded outcome for payload-less sources.
    recorded_outcome: dict = field(default_factory=dict)


def _split_target_id(target_id: str) -> tuple[str, str, str]:
    """``name/version/fault_model`` → parts (fault model may hold '+')."""
    parts = target_id.split("/", 2)
    if len(parts) != 3:
        raise ReplayError(
            f"stored target id {target_id!r} is not name/version/model"
        )
    return parts[0], parts[1], parts[2]


def _resolve_in_store(store, prefix: str) -> ReplaySource | None:
    matches = store.resolve_digest(prefix)
    if not matches:
        return None
    if len(matches) > 1:
        listing = ", ".join(d[:16] for d in matches[:8])
        raise ReplayError(
            f"crash id {prefix!r} is ambiguous in the store "
            f"({len(matches)} matches: {listing}...)"
        )
    row = store.result_row(matches[0])
    name, version, fault_model = _split_target_id(row["target"])
    return ReplaySource(
        crash_id=row["digest"],
        target_name=name,
        target_version=version,
        fault_model=fault_model,
        subspace=row["subspace"],
        attributes=_attributes_tuple(row["attributes"]),
        source="store",
        recorded_payload=row["payload"],
    )


def _checkpoint_identity(meta: dict) -> tuple[str, str] | None:
    """``(target name, fault model)`` from either checkpoint meta shape.

    A spec's campaign (``afex run``, ``afex report``, a served job)
    nests the spec (``{"spec": {...}}``); journals ``afex run`` wrote
    before it did hold flat ``target``/``fault_model`` meta.
    """
    spec = meta.get("spec")
    if isinstance(spec, dict):
        meta = spec
    target = meta.get("target")
    if not target:
        return None
    return str(target), str(meta.get("fault_model", "errno"))


def _resolve_in_checkpoint(path, prefix: str) -> ReplaySource | None:
    from repro.core.checkpoint import load_checkpoint
    from repro.sim.targets import target_by_name

    checkpoint = load_checkpoint(path)
    identity = _checkpoint_identity(checkpoint.meta)
    if identity is None:
        raise ReplayError(
            f"checkpoint {path} has no target in its meta; cannot "
            "compute crash ids for its history"
        )
    target_name, fault_model = identity
    version = target_by_name(target_name).version
    matches: list[tuple[str, dict]] = []
    for payload in checkpoint.executed:
        fault_data = payload["fault"]
        attributes = _attributes_tuple(fault_data["attributes"])
        digest = crash_id_of(
            target_name, version, fault_model,
            fault_data["subspace"], attributes,
        )
        if digest.startswith(prefix):
            matches.append((digest, payload))
    if not matches:
        return None
    distinct = {digest for digest, _ in matches}
    if len(distinct) > 1:
        listing = ", ".join(sorted(d[:16] for d in distinct))
        raise ReplayError(
            f"crash id {prefix!r} is ambiguous in checkpoint {path} "
            f"({len(distinct)} matches: {listing})"
        )
    digest, payload = matches[0]
    fault_data = payload["fault"]
    return ReplaySource(
        crash_id=digest,
        target_name=target_name,
        target_version=version,
        fault_model=fault_model,
        subspace=fault_data["subspace"],
        attributes=_attributes_tuple(fault_data["attributes"]),
        source="checkpoint",
        recorded_payload=dict(payload["result"]),
    )


def _resolve_in_report(path, prefix: str) -> ReplaySource | None:
    from repro.sim.targets import target_by_name

    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReplayError(f"unreadable report document {path}: {exc}") from exc
    campaign = document.get("campaign") or {}
    target_name = campaign.get("target")
    fault_model = campaign.get("fault_model", "errno")
    if not target_name:
        raise ReplayError(
            f"report document {path} has no campaign target; cannot replay"
        )
    matches = [
        entry for entry in document.get("top", ())
        if str(entry.get("crash_id", "")).startswith(prefix)
        and entry.get("crash_id")
    ]
    if not matches:
        return None
    distinct = {entry["crash_id"] for entry in matches}
    if len(distinct) > 1:
        raise ReplayError(
            f"crash id {prefix!r} is ambiguous in report {path} "
            f"({len(distinct)} matches)"
        )
    entry = matches[0]
    if "subspace" not in entry or "attributes" not in entry:
        raise ReplayError(
            f"report {path} predates crash-id documents; re-generate it "
            "with --report-json to make its entries replayable"
        )
    return ReplaySource(
        crash_id=entry["crash_id"],
        target_name=str(target_name),
        target_version=target_by_name(str(target_name)).version,
        fault_model=str(fault_model),
        subspace=str(entry["subspace"]),
        attributes=_attributes_tuple(entry["attributes"]),
        source="report",
        recorded_outcome={
            "outcome": entry.get("outcome"),
            "crashed": entry.get("crashed"),
            "hung": entry.get("hung"),
            "failed": entry.get("failed"),
        },
    )


def resolve_crash_id(
    crash_id: str,
    store=None,
    checkpoint: str | Path | None = None,
    report: str | Path | None = None,
) -> ReplaySource:
    """Resolve a (possibly abbreviated) crash id against the artifacts.

    Tries the store, then the checkpoint, then the report document —
    the order of decreasing recorded fidelity — and raises
    :class:`ReplayError` when no artifact knows the id (or none was
    given).
    """
    prefix = crash_id.strip().lower()
    if not prefix or any(c not in "0123456789abcdef" for c in prefix):
        raise ReplayError(f"{crash_id!r} is not a hex crash id")
    tried = []
    if store is not None:
        source = _resolve_in_store(store, prefix)
        if source is not None:
            return source
        tried.append(f"store {getattr(store, 'path', '?')}")
    if checkpoint is not None:
        source = _resolve_in_checkpoint(checkpoint, prefix)
        if source is not None:
            return source
        tried.append(f"checkpoint {checkpoint}")
    if report is not None:
        source = _resolve_in_report(report, prefix)
        if source is not None:
            return source
        tried.append(f"report {report}")
    if not tried:
        raise ReplayError(
            "no artifact to resolve against: pass --store, --checkpoint, "
            "or --report-json"
        )
    raise ReplayError(
        f"crash id {prefix!r} not found in " + " or ".join(tried)
    )


# -- re-execution and divergence diffing ------------------------------------


@dataclass(frozen=True)
class ReplayOutcome:
    """One deterministic re-execution, diffed against the record."""

    source: ReplaySource
    result: "RunResult"
    #: ``[(payload key, recorded value, replayed value), ...]``; empty
    #: means the replay reproduced the record exactly (at whatever
    #: fidelity the source artifact recorded).
    divergences: list
    #: call-level explanation of the injection (or of the first
    #: divergence), derived from the replayed provenance log.
    explanation: str

    @property
    def matches(self) -> bool:
        return not self.divergences

    def document(self) -> dict[str, object]:
        """The machine-readable outcome: what ``afex replay --json``
        prints and ``POST /v1/results/<id>/replay`` returns."""
        from repro.core.cache import result_to_payload

        source = self.source
        return {
            "crash_id": source.crash_id,
            "source": source.source,
            "target": f"{source.target_name}/{source.target_version}",
            "fault_model": source.fault_model,
            "matches": self.matches,
            "divergences": [
                {"key": key, "recorded": recorded, "replayed": replayed}
                for key, recorded, replayed in self.divergences
            ],
            "explanation": self.explanation,
            "result_digest": result_digest(self.result),
            "result": result_to_payload(self.result),
        }


def _build_fault(source: ReplaySource) -> "Fault":
    from repro.core.fault import Fault

    return Fault(source.subspace, source.attributes)


def replay_source(source: ReplaySource) -> "RunResult":
    """Deterministically re-execute the resolved scenario.

    Rebuilds the exact :class:`~repro.injection.models.base.
    ModelInjector` from the recorded fault-model spec and runs the
    scenario uncached, with provenance capture on.
    """
    from repro.core.runner import TargetRunner
    from repro.errors import ReproError
    from repro.injection.models import model_injector
    from repro.sim.targets import target_by_name

    try:
        target = target_by_name(source.target_name)
    except ReproError as exc:
        raise ReplayError(
            f"unknown target {source.target_name!r}: {exc}"
        ) from exc
    if target.version != source.target_version:
        raise ReplayError(
            f"target {source.target_name} is now version "
            f"{target.version}, but the crash id was recorded against "
            f"{source.target_version}; the executions are not comparable"
        )
    runner = TargetRunner(
        target, model_injector(source.fault_model), provenance=True
    )
    return runner(_build_fault(source))


def _diff_payloads(recorded: dict, replayed: dict) -> list:
    """Ordered key-level differences between two result payloads.

    A record written before (or without) provenance capture is compared
    provenance-blind, so enabling capture never *manufactures* a
    divergence.
    """
    recorded = dict(recorded)
    replayed = dict(replayed)
    if "provenance" not in recorded:
        replayed.pop("provenance", None)
    divergences = []
    for key in sorted(set(recorded) | set(replayed)):
        if recorded.get(key) != replayed.get(key):
            divergences.append((key, recorded.get(key), replayed.get(key)))
    return divergences


def _diff_outcome(recorded: dict, result: "RunResult") -> list:
    """Coarse diff for report-document sources (no full payload)."""
    observed = {
        "crashed": result.crashed,
        "hung": result.hung,
        "failed": result.failed,
        "outcome": result.summary(),
    }
    return [
        (key, recorded[key], observed[key])
        for key in ("crashed", "hung", "failed", "outcome")
        if recorded.get(key) is not None and recorded[key] != observed[key]
    ]


def _propagation_summary(result: "RunResult") -> str:
    if result.crash_kind:
        return f"{result.crash_kind} ({result.crash_message or 'no message'})"
    if result.invariant_violations:
        return f"invariant violation: {result.invariant_violations[0]}"
    if result.failed:
        return result.failure_message or "test failure"
    return "a passing run"


def explain(result: "RunResult") -> str:
    """Call-level provenance explanation of one replayed execution.

    Narrates the first fired injection — which call, at which index, on
    which resource — and what it propagated to; falls back to the
    injection stack (or a clean-run note) when nothing fired or
    provenance is absent.
    """
    for record in result.provenance:
        if record.injected:
            where = (
                f" on {record.resource}" if record.resource is not None else ""
            )
            return (
                f"fault at {record.function} call #{record.call_number}"
                f"{where} propagated to {_propagation_summary(result)}"
            )
    if result.injected and result.injection_stack:
        return (
            f"fault under {' > '.join(result.injection_stack)} propagated "
            f"to {_propagation_summary(result)}"
        )
    return f"no injection fired; the run ended in {_propagation_summary(result)}"


def replay(
    crash_id: str,
    store=None,
    checkpoint: str | Path | None = None,
    report: str | Path | None = None,
) -> ReplayOutcome:
    """Resolve, re-execute, and diff one crash id — the whole pipeline:
    the record of the replayed run against the recorded one, or the full
    result against a store row written before every path kept one record
    (only a full result names its test); the explanation reads the full
    replayed result."""
    from repro.core.cache import result_to_payload
    from repro.core.runner import record

    source = resolve_crash_id(
        crash_id, store=store, checkpoint=checkpoint, report=report
    )
    result = replay_source(source)
    if source.recorded_payload is not None:
        replayed = (result if source.recorded_payload["test_name"]
                    else record(result))
        divergences = _diff_payloads(
            source.recorded_payload, result_to_payload(replayed))
    else:
        divergences = _diff_outcome(source.recorded_outcome, result)
    return ReplayOutcome(
        source=source,
        result=result,
        divergences=divergences,
        explanation=explain(result),
    )


def format_outcome(outcome: ReplayOutcome) -> str:
    """Human-readable replay verdict (what ``afex replay`` prints)."""
    source = outcome.source
    lines = [
        f"crash id:  {source.crash_id}",
        f"resolved:  via {source.source} — {source.target_name}/"
        f"{source.target_version} under fault model {source.fault_model}",
        f"scenario:  {_build_fault(source)}",
        f"outcome:   {outcome.result.summary()}",
        f"explain:   {outcome.explanation}",
    ]
    if outcome.matches:
        fidelity = (
            "full recorded payload" if source.recorded_payload is not None
            else "recorded outcome (report documents store no payloads)"
        )
        lines.append(f"verdict:   REPRODUCED — zero divergence from the "
                     f"{fidelity}")
    else:
        lines.append(
            f"verdict:   DIVERGED in {len(outcome.divergences)} field(s)"
        )
        for key, recorded, replayed in outcome.divergences[:10]:
            lines.append(f"  {key}: recorded {recorded!r}")
            lines.append(f"  {' ' * len(key)}  replayed {replayed!r}")
    return "\n".join(lines)
