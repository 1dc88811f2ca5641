"""The machine-readable campaign outcome document.

One JSON shape, built by :meth:`~repro.service.engine.EngineRun.document`
with the spec as the campaign echo, so scripts never scrape the text
report again:

* ``afex run --report-json PATH`` writes it after a direct run;
* ``afex submit`` returns it (wrapped in the job envelope) once the
  served campaign completes, with the job and tenant in the echo;
* the store persists it verbatim per campaign, so ``afex results`` can
  re-emit it later.

The document is versioned; consumers should ignore unknown keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.results import ResultSet
    from repro.sim.testsuite import Target

__all__ = ["DOCUMENT_VERSION", "campaign_document", "verdict_of"]

DOCUMENT_VERSION = 1


def verdict_of(results: "ResultSet") -> str:
    """The coarse certification verdict over one campaign's outcomes.

    Severity order: crashes dominate hangs dominate plain failures; a
    campaign with none of the three certifies CLEAN.
    """
    if results.crash_count() > 0:
        return "CRASHES"
    if len(results.hangs()) > 0:
        return "HANGS"
    if results.failed_count() > 0:
        return "FAILURES"
    return "CLEAN"


def campaign_document(
    results: "ResultSet",
    *,
    campaign: dict[str, object],
    elapsed_seconds: float,
    space_size: int | None = None,
    fabric_health: object | None = None,
    quality_stats: dict[str, object] | None = None,
    cache_stats: dict[str, object] | None = None,
    golden_stats: dict[str, int] | None = None,
    remembered: int | None = None,
    top: int = 10,
    target: "Target | None" = None,
) -> dict[str, object]:
    """Assemble the outcome document for one finished campaign.

    ``campaign`` is the caller's spec echo (target, strategy, seed,
    iterations, fault model, fabric, ...) — stored verbatim so a result
    is always traceable to the campaign that produced it.  A recorded
    result carries no test name; ``target``, when given, names each
    top test from its suite.
    """
    crash_id_of = _crash_id_resolver(campaign)
    summary = results.summary()
    throughput = (
        len(results) / elapsed_seconds if elapsed_seconds > 0 else None
    )
    health_dict = (
        fabric_health.as_dict()  # type: ignore[attr-defined]
        if hasattr(fabric_health, "as_dict")
        else fabric_health
    )
    document: dict[str, object] = {
        "version": DOCUMENT_VERSION,
        "campaign": dict(campaign),
        "summary": summary,
        "verdict": verdict_of(results),
        "digest": results.digest,
        "elapsed_seconds": elapsed_seconds,
        "throughput_tests_per_s": throughput,
        "top": [
            {
                "impact": test.impact,
                "fault": str(test.fault),
                "subspace": test.fault.subspace,
                "attributes": [[n, v] for n, v in test.fault.attributes],
                "crash_id": crash_id_of(test),
                "outcome": test.result.summary(),
                "test_id": test.result.test_id,
                "test_name": target.suite[test.result.test_id].name
                if target is not None else test.result.test_name,
                "crashed": test.crashed,
                "hung": test.hung,
                "failed": test.failed,
            }
            for test in results.top(max(int(top), 0))
        ],
        "fabric_health": health_dict,
        "quality": dict(quality_stats) if quality_stats else None,
        "cache": dict(cache_stats) if cache_stats else None,
        "golden": dict(golden_stats) if golden_stats else None,
        "remembered": remembered,
    }
    if space_size is not None:
        document["space_size"] = space_size
    return document


def _crash_id_resolver(campaign: dict[str, object]):
    """Map an executed test to its stable crash id, when derivable.

    The id is the store's scenario-key digest, computed over the same
    :func:`~repro.service.store.store_identity` :meth:`ResultStore.
    record_campaign` is given — so the ids printed in a report resolve
    against the store (``afex replay <id> --store``) without any
    database round-trip at document-build time.  Campaign echoes that
    lack a target or fault model (or name an unknown target) degrade to
    ``crash_id: null`` rather than failing the document.
    """
    target_name = campaign.get("target")
    fault_model = campaign.get("fault_model")
    if not target_name or not fault_model:
        return lambda test: None
    try:
        from repro.sim.targets import target_by_name

        target = target_by_name(str(target_name))
    except Exception:
        return lambda test: None
    from repro.service.store import scenario_key_digest, store_identity

    target_id = store_identity(target.name, target.version, str(fault_model))

    def crash_id_of(test) -> str:
        return scenario_key_digest(
            target_id, test.fault.subspace, test.fault.attributes
        )

    return crash_id_of
