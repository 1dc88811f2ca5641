"""Rendering a :class:`~repro.obs.metrics.MetricsRegistry` for humans,
scrapers, and scripts.

Three views of the same registry:

* :func:`render_table` — the operator view, a fixed-width
  :class:`~repro.util.tables.TextTable` like every other AFEX report;
* :func:`to_prometheus` — Prometheus text exposition (``# TYPE`` lines,
  ``_total`` counters, ``_bucket``/``_sum``/``_count`` histograms) so a
  real scraper — or the CI ``metrics-smoke`` job via
  :func:`parse_prometheus` — can consume a run's metrics;
* :func:`profile_payload` — the machine-readable ``--profile`` summary
  written to the ``afex-profile.json`` run artifact (histogram
  p50/p95/p99 digests, counters, gauges).
"""

from __future__ import annotations

import re

from repro.obs.metrics import MetricsRegistry
from repro.util.tables import TextTable

__all__ = [
    "render_table",
    "to_prometheus",
    "parse_prometheus",
    "profile_payload",
]

#: exported metric names get this prefix in Prometheus exposition.
PROMETHEUS_PREFIX = "afex_"

_SERIES = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                     r"(?P<labels>\{[^}]*\})?$")


def _split_series(series: str) -> tuple[str, str]:
    """``'a.b{k="v"}'`` → ``('a.b', '{k="v"}')`` (labels may be '')."""
    brace = series.find("{")
    if brace < 0:
        return series, ""
    return series[:brace], series[brace:]


def _prom_name(dotted: str, suffix: str = "") -> str:
    return PROMETHEUS_PREFIX + dotted.replace(".", "_").replace("-", "_") + suffix


def render_table(registry: MetricsRegistry, title: str = "metrics") -> str:
    """The whole registry as one operator-facing text table."""
    snapshot = registry.snapshot()
    table = TextTable(["series", "kind", "value", "p50", "p95", "p99"],
                      title=title)
    for series, value in snapshot["counters"].items():
        table.add_row([series, "counter", value, "-", "-", "-"])
    for series, value in snapshot["gauges"].items():
        table.add_row([series, "gauge", f"{value:.4g}", "-", "-", "-"])
    for series, digest in snapshot["histograms"].items():
        if digest["count"] == 0:
            table.add_row([series, "histogram", "0 obs", "-", "-", "-"])
            continue
        table.add_row([
            series, "histogram", f"{digest['count']} obs",
            f"{digest['p50']:.4g}", f"{digest['p95']:.4g}",
            f"{digest['p99']:.4g}",
        ])
    return table.render()


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (version 0.0.4).

    Dotted series names become underscore names under the ``afex_``
    prefix; counters gain the conventional ``_total`` suffix;
    histograms emit cumulative ``_bucket`` lines with the standard
    ``le`` label plus ``_sum`` and ``_count``.
    """
    snapshot = registry.snapshot()
    lines: list[str] = []
    typed: set[str] = set()

    def announce(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for series, value in snapshot["counters"].items():
        dotted, labels = _split_series(series)
        name = _prom_name(dotted, "_total")
        announce(name, "counter")
        lines.append(f"{name}{labels} {value}")
    for series, value in snapshot["gauges"].items():
        dotted, labels = _split_series(series)
        name = _prom_name(dotted)
        announce(name, "gauge")
        lines.append(f"{name}{labels} {_format_value(value)}")
    for series, digest in snapshot["histograms"].items():
        dotted, labels = _split_series(series)
        name = _prom_name(dotted)
        announce(name, "histogram")
        label_body = labels[1:-1] if labels else ""

        def with_le(bound: str, extra: str = label_body) -> str:
            le = f'le="{bound}"'
            return "{" + (f"{extra},{le}" if extra else le) + "}"

        cumulative = 0
        for bound, bucket_count in zip(
            digest["boundaries"], digest["bucket_counts"]
        ):
            cumulative += bucket_count
            lines.append(
                f"{name}_bucket{with_le(_format_value(bound))} {cumulative}"
            )
        cumulative += digest["bucket_counts"][-1]
        lines.append(f"{name}_bucket{with_le('+Inf')} {cumulative}")
        lines.append(f"{name}_sum{labels} {_format_value(digest['sum'])}")
        lines.append(f"{name}_count{labels} {digest['count']}")
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse exposition text back into ``{name: {"type": ...,
    "samples": {series: value}}}``.

    Only the subset :func:`to_prometheus` emits is supported — enough
    for the CI smoke step to assert the export round-trips and the
    core series exist, without a client library dependency.
    """
    metrics: dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            metrics.setdefault(name, {"type": kind, "samples": {}})
            continue
        if line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        if not series:
            raise ValueError(f"unparseable exposition line: {line!r}")
        base, _ = _split_series(series)
        if not _SERIES.match(series):
            raise ValueError(f"malformed series name: {series!r}")
        # bucket/sum/count samples belong to their histogram family.
        family = base
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = base.removesuffix(suffix)
            if stripped != base and stripped in metrics:
                family = stripped
                break
        metrics.setdefault(family, {"type": "untyped", "samples": {}})
        metrics[family]["samples"][series] = float(raw)
    return metrics


def profile_payload(
    registry: MetricsRegistry, meta: dict[str, object] | None = None
) -> dict[str, object]:
    """The ``--profile`` summary (``afex-profile.json``).

    Histograms are reduced to their :meth:`~repro.obs.metrics.
    Histogram.summary` digests (count/sum/min/max/mean/p50/p95/p99);
    counters and gauges are carried whole.  ``meta`` is the run
    configuration (target, fabric, iterations) recorded alongside.
    """
    snapshot = registry.snapshot()
    return {
        "benchmark": "observability",
        "schema": 1,
        "meta": dict(meta or {}),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            series: {
                key: value for key, value in digest.items()
                if key not in ("boundaries", "bucket_counts")
            }
            for series, digest in snapshot["histograms"].items()
        },
    }
