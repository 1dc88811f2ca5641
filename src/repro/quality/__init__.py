"""Result-quality metrics (§5): redundancy, precision, relevance.

* :mod:`~repro.quality.levenshtein` — the edit distance underlying
  redundancy detection;
* :mod:`~repro.quality.clustering` — equivalence classes of faults whose
  injection-point stack traces are near-identical;
* :mod:`~repro.quality.online` — the streaming clustering engine: each
  result is assigned to a cluster as it arrives (incremental union-find
  with memoized, pruned distance probes), yielding the live novelty
  signal sessions feed back into search;
* :mod:`~repro.quality.feedback` — the batch §7.4 loop: similarity to
  already-seen stack traces down-weights a candidate's fitness;
* :mod:`~repro.quality.precision` — impact precision = 1/Var across
  repeated trials of the same fault;
* :mod:`~repro.quality.relevance` — statistical environment models that
  weight faults by their probability of occurring in production (§7.5).
"""

from repro.quality.clustering import (
    RedundancyClusters,
    cluster_stacks,
    stack_similarity,
)
from repro.quality.feedback import RedundancyFeedback
from repro.quality.levenshtein import levenshtein
from repro.quality.online import (
    OnlineClusters,
    QualityDelta,
    QualityUpdate,
    stack_digest,
)
from repro.quality.precision import ImpactPrecision, measure_precision
from repro.quality.relevance import EnvironmentModel
from repro.quality.report import ExplorationReport, ReportedFault, build_report

__all__ = [
    "EnvironmentModel",
    "ExplorationReport",
    "ImpactPrecision",
    "OnlineClusters",
    "QualityDelta",
    "QualityUpdate",
    "ReportedFault",
    "build_report",
    "RedundancyClusters",
    "RedundancyFeedback",
    "cluster_stacks",
    "levenshtein",
    "measure_precision",
    "stack_digest",
    "stack_similarity",
]
