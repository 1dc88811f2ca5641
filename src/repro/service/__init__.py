"""The campaign service layer: a long-running, multi-tenant AFEX.

The paper's prototype ran exploration campaigns as a *service* across a
14-node EC2 cluster; this package is the reproduction's equivalent on
top of the existing substrate:

* :mod:`repro.service.engine` — :class:`CampaignEngine`, the one
  campaign executor: ``afex run``, ``afex report`` and every served job
  run a :class:`CampaignSpec` on it.  It owns fabric lifecycle (and
  keeps fabrics *warm* across campaigns), checkpointing, online
  quality, and metrics;
* :mod:`repro.service.spec` — :class:`CampaignSpec`, the serializable
  description of one campaign that clients submit over the wire;
* :mod:`repro.service.store` — :class:`ResultStore`, the SQLite-backed
  persistent archive of campaigns, results (deduplicated across
  campaigns by scenario digest), and redundancy clusters;
* :mod:`repro.service.server` — :class:`CampaignService`, the asyncio
  multi-tenant scheduler (per-tenant priorities and quotas) plus the
  REST/JSON API behind ``afex serve`` / ``afex submit`` / ``afex jobs``
  / ``afex results``;
* :mod:`repro.service.documents` — the machine-readable campaign
  outcome document shared by ``afex run --report-json`` and the API.
"""

#: public name -> submodule.  Resolved on first use: ``repro.cli`` reads
#: the spec vocabulary on every start (``afex node`` included), and that
#: must not import the engine, the store and sqlite3 along with it.
_EXPORTS = {
    "CampaignEngine": "engine",
    "CampaignSpec": "spec",
    "EngineRun": "engine",
    "ResultStore": "store",
    "StoredJob": "store",
    "campaign_document": "documents",
    "verdict_of": "documents",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    from importlib import import_module

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
