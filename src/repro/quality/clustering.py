"""Redundancy clusters: equivalence classes of faults by stack trace (§5).

"While executing a test that injects fault φ, AFEX captures the stack
trace corresponding to φ's injection point.  Subsequently, it compares
the stack traces of all injected faults by computing the edit distance
between every pair ...  Any two faults for which the distance is below a
threshold end up in the same cluster."

Clustering is transitive closure over the "distance below threshold"
relation, computed incrementally (:mod:`repro.quality.online`).  A
similarity in [0, 1] (1 = identical) is also exposed — the §7.4
feedback loop weighs fitness linearly by it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.quality.levenshtein import levenshtein

__all__ = [
    "RedundancyClusters",
    "cluster_stacks",
    "stack_similarity",
]

Stack = tuple[str, ...]


def stack_similarity(a: Stack, b: Stack) -> float:
    """1 - normalized edit distance: 1.0 means identical traces."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


@dataclass(frozen=True)
class RedundancyClusters:
    """The clustering result: groups of item indices plus their stacks."""

    #: cluster id per input index (cluster ids are dense, 0-based).
    assignment: tuple[int, ...]
    #: for each cluster, the indices of its members (sorted).
    clusters: tuple[tuple[int, ...], ...]

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def representatives(self) -> tuple[int, ...]:
        """One member index per cluster (the first seen — §6.4 step 8)."""
        return tuple(members[0] for members in self.clusters)

    def cluster_of(self, index: int) -> int:
        return self.assignment[index]


def cluster_stacks(
    stacks: Sequence[Stack | None],
    max_distance: int = 1,
) -> RedundancyClusters:
    """Cluster stack traces whose pairwise edit distance <= ``max_distance``.

    ``None`` entries (tests where no fault fired, so there is no
    injection point) each form their own singleton cluster — a test that
    injected nothing is not redundant with anything.

    This is a thin wrapper over the streaming
    :class:`~repro.quality.online.OnlineClusters` engine — the same
    incremental pass that assigns clusters while a session runs — so a
    repeated stack costs one dict probe and only a new distinct stack
    is compared with earlier ones.  The partition (and cluster numbering) is identical to
    the quadratic all-pairs pass, which the test suite keeps as the
    oracle a property test holds it to.
    """
    from repro.quality.online import OnlineClusters

    engine = OnlineClusters(max_distance=max_distance)
    for stack in stacks:
        engine.add(stack)
    return engine.partition()
