"""The full AFEX output report (§6.3).

"AFEX's output consists of a set of faults that satisfy the search
target, a characterization of the quality of this fault set, and
generated test cases ... In addition ... operational aspects, such as a
synopsis of the search algorithms used, exploration time, number of
explored faults."

:func:`build_report` assembles exactly that from a finished
:class:`~repro.core.results.ResultSet`:

* the top-N faults ranked by severity (impact);
* per-fault **redundancy cluster** membership, with one designated
  representative per cluster (§5);
* per-fault **impact precision** — 1/Var over repeated trials, ∞ for
  deterministic faults (§5), measured by re-executing each reported
  fault;
* per-fault **practical relevance** when a statistical environment
  model is supplied (§5);
* an auto-generated **replay script** per cluster representative;
* the operational synopsis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable

from typing import TYPE_CHECKING

from repro.errors import ReportError
from repro.quality.precision import ImpactPrecision, measure_precision
from repro.quality.relevance import EnvironmentModel
from repro.util.tables import TextTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> quality)
    from repro.core.impact import ImpactMetric
    from repro.core.results import ExecutedTest, ResultSet

__all__ = ["ReportedFault", "ExplorationReport", "build_report"]


def _stateless_metric() -> "ImpactMetric":
    """Default metric for precision trials: no stateful coverage term."""
    from repro.core.impact import (
        CompositeImpact,
        CrashImpact,
        FailedTestImpact,
        HangImpact,
    )

    return CompositeImpact([FailedTestImpact(), HangImpact(), CrashImpact()])


@dataclass(frozen=True)
class ReportedFault:
    """One fault in the report, with its full quality characterization."""

    executed: "ExecutedTest"
    cluster_id: int
    is_representative: bool
    precision: ImpactPrecision | None
    relevance: float | None

    @property
    def precision_label(self) -> str:
        if self.precision is None:
            return "-"
        if self.precision.deterministic:
            return "inf (deterministic)"
        return f"{self.precision.precision:.2f}"


@dataclass
class ExplorationReport:
    """Everything §6.3 says AFEX hands back to the developer."""

    target_name: str
    strategy_name: str
    injector_name: str
    explored: int
    failed: int
    crashes: int
    hangs: int
    cluster_count: int
    reported: list[ReportedFault]
    replay_scripts: dict[str, str]
    build_seconds: float
    relevance_modelled: bool = False
    extra_notes: list[str] = field(default_factory=list)
    #: fabric fault-tolerance counters (a ``FabricHealth.as_dict()``)
    #: when the exploration ran on a hardened fabric.
    fabric_health: dict[str, object] | None = None
    #: live clustering counters (an ``OnlineClusters.stats()``) when the
    #: exploration ran with the streaming quality stage on.
    quality_stats: dict[str, object] | None = None

    def render(self) -> str:
        lines = [
            f"AFEX exploration report — {self.target_name}",
            f"  strategy: {self.strategy_name or 'unknown'}; "
            f"injector: {self.injector_name or 'unknown'}",
            f"  explored {self.explored} faults: {self.failed} failed, "
            f"{self.crashes} crashed, {self.hangs} hung",
            f"  {self.cluster_count} redundancy clusters among the "
            f"reported faults; {len(self.replay_scripts)} replay scripts",
            f"  report built in {self.build_seconds:.2f}s",
        ]
        if self.fabric_health is not None:
            h = self.fabric_health
            lines.append(
                "  fabric health: "
                f"{h.get('retries', 0)} retries "
                f"({h.get('timeouts', 0)} timeouts, "
                f"{h.get('worker_deaths', 0)} worker deaths, "
                f"{h.get('corrupt_reports', 0)} corrupt reports); "
                f"{h.get('worker_replacements', 0)} worker replacements"
            )
        if self.quality_stats is not None:
            q = self.quality_stats
            ratio = float(q.get("novelty_ratio", 0.0) or 0.0)
            lines.append(
                "  online quality: "
                f"{q.get('clusters', 0)} live clusters over "
                f"{q.get('items', 0)} results "
                f"({100 * ratio:.0f}% non-redundant); "
                f"{q.get('comparisons', 0)} distances computed, "
                f"{q.get('comparisons_avoided', 0)} avoided"
            )
        lines.append("")
        headers = ["rank", "impact", "fault", "cluster", "precision"]
        if self.relevance_modelled:
            headers.append("relevance")
        table = TextTable(headers, title="top faults by severity")
        for rank, reported in enumerate(self.reported, start=1):
            row: list[object] = [
                rank,
                f"{reported.executed.impact:.1f}",
                str(reported.executed.fault),
                f"#{reported.cluster_id}"
                + ("*" if reported.is_representative else ""),
                reported.precision_label,
            ]
            if self.relevance_modelled:
                row.append(
                    "-" if reported.relevance is None
                    else f"{100 * reported.relevance:.0f}%"
                )
            table.add_row(row)
        lines.append(table.render())
        if self.extra_notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.extra_notes)
        return "\n".join(lines)


def build_report(
    results: "ResultSet",
    runner: Callable[..., object],
    target_name: str,
    strategy_name: str = "",
    injector_name: str | None = None,
    top_n: int = 10,
    precision_trials: int = 5,
    environment: EnvironmentModel | None = None,
    cluster_distance: int = 1,
    of: Callable[["ExecutedTest"], bool] | None = None,
    precision_metric_factory: Callable[[], "ImpactMetric"] = _stateless_metric,
    fabric_health: object | None = None,
    quality_stats: dict[str, object] | None = None,
) -> ExplorationReport:
    """Assemble the §6.3 report from a finished exploration.

    ``runner`` must accept ``(fault, trial=...)`` — a
    :class:`~repro.core.runner.TargetRunner` does — so precision can be
    measured by genuine re-execution.  ``of`` filters which executed
    tests are eligible for reporting (default: the failed ones; pass
    ``lambda t: True`` to rank everything).  ``injector_name`` defaults
    to the runner's own injector's name.
    """
    if top_n < 1:
        raise ReportError(f"top_n must be >= 1, got {top_n}")
    if len(results) == 0:
        raise ReportError("cannot report on an empty result set")
    started = time.perf_counter()

    eligible_filter = of if of is not None else (lambda t: t.failed)
    eligible = [t for t in results if eligible_filter(t)]
    notes: list[str] = []
    if not eligible:
        notes.append("no faults matched the report filter; ranking all tests")
        eligible = list(results)

    clusters = _cluster(eligible, cluster_distance)
    representatives = set(clusters.representatives())

    ranked = sorted(eligible, key=lambda t: t.impact, reverse=True)[:top_n]
    metric = precision_metric_factory()
    reported: list[ReportedFault] = []
    for executed in ranked:
        index_in_eligible = eligible.index(executed)
        precision = measure_precision(
            lambda fault, trial: runner(executed.fault, trial=trial),
            executed.fault,
            metric.score,
            trials=precision_trials,
        )
        relevance = (
            environment.relevance(executed.fault)
            if environment is not None else None
        )
        reported.append(ReportedFault(
            executed=executed,
            cluster_id=clusters.cluster_of(index_in_eligible),
            is_representative=index_in_eligible in representatives,
            precision=precision,
            relevance=relevance,
        ))

    if injector_name is None:
        injector_name = str(
            getattr(getattr(runner, "injector", None), "name", "")
        )
    crash_id_for = _crash_id_factory(runner)
    scripts: dict[str, str] = {}
    for rep_index in sorted(representatives):
        rep = eligible[rep_index]
        scripts[f"replay_{rep.index:05d}.py"] = results.replay_script(
            rep, target_name, crash_id=crash_id_for(rep),
            injector=getattr(runner, "injector", None),
        )

    return ExplorationReport(
        target_name=target_name,
        strategy_name=strategy_name,
        injector_name=injector_name,
        explored=len(results),
        failed=results.failed_count(),
        crashes=results.crash_count(),
        hangs=len(results.hangs()),
        cluster_count=clusters.cluster_count,
        reported=reported,
        replay_scripts=scripts,
        build_seconds=time.perf_counter() - started,
        relevance_modelled=environment is not None,
        extra_notes=notes,
        fabric_health=(
            fabric_health.as_dict()  # type: ignore[attr-defined]
            if hasattr(fabric_health, "as_dict")
            else fabric_health  # already a dict (or None)
        ),
        quality_stats=quality_stats,
    )


def _crash_id_factory(runner) -> Callable[["ExecutedTest"], "str | None"]:
    """Per-test crash ids when the runner carries the needed identity.

    A :class:`~repro.core.runner.TargetRunner` exposes its target and
    injector; anything else (a bare callable in tests) degrades to no
    crash-id line in the generated scripts rather than failing the
    report.
    """
    target = getattr(runner, "target", None)
    injector = getattr(runner, "injector", None)
    if target is None or injector is None:
        return lambda test: None
    from repro.replay import crash_id_of

    spec = str(getattr(injector, "name", ""))
    spec = spec.removeprefix("model:")

    def _id(test: "ExecutedTest") -> str:
        return crash_id_of(
            target.name, target.version, spec,
            test.fault.subspace, test.fault.attributes,
        )

    return _id


def _cluster(eligible: list["ExecutedTest"], cluster_distance: int):
    from repro.quality.clustering import cluster_stacks

    stacks = [
        tuple(t.result.injection_stack) if t.result.injection_stack else None
        for t in eligible
    ]
    return cluster_stacks(stacks, max_distance=cluster_distance)

