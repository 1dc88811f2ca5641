"""Online redundancy clustering: the streaming §5/§7.4 quality pipeline.

The batch :func:`~repro.quality.clustering.cluster_stacks` pass compares
every pair of distinct stack traces — O(n²) edit distances, paid in full
at report time.  That cannot steer a long-running campaign: the §7.4
feedback loop ("fitness weighed by novelty") needs the cluster
structure *while* results stream in.

:class:`OnlineClusters` maintains the same partition incrementally, over
a union-find of the distinct stacks.  As each executed fault's
injection-point stack arrives it is assigned to a cluster immediately:

* a **repeated stack** (the overwhelmingly common case: most faults fire
  at a handful of injection points) is one dict probe on the stack
  tuple, zero edit distances;
* a **new distinct stack** is compared with each live cluster in root
  order, member by member (a member whose length differs by more than
  ``max_distance`` cannot be within it and is skipped), with a banded
  edit distance; it joins every cluster where a member is within
  ``max_distance``, and a cluster's scan stops at its first such member.

A campaign holds few distinct stacks — real campaigns over every target
hold a few dozen of at most 8 frames — so a plain scan is as fast as
any index over them.  The partition is the transitive closure of the
batch pass's relation in the same numbering (see
``tests/test_online_quality.py`` for the property test), which is why
:func:`~repro.quality.clustering.cluster_stacks` is a thin wrapper over
this engine.

Each insert also yields a **novelty** signal in [0, 1] — the complement
of the similarity to the closest cluster-mate discovered — which
:class:`~repro.core.search.FitnessGuidedSearch` and
:class:`~repro.core.search.genetic.GeneticSearch` can consume as the
live §7.4 feedback loop (``use_novelty=True``).  Unlike the batch
:class:`~repro.quality.feedback.RedundancyFeedback` (which scans *all*
previous stacks per result), novelty here is measured against the
redundancy-cluster structure: an exact repeat scores 0.0, a stack that
joined an existing cluster scores ``1 - similarity`` to the closest
member that admitted it, and a brand-new cluster scores 1.0.
Similarities below ``similarity_threshold`` do not discount at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.quality.levenshtein import levenshtein

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (clustering -> online)
    from repro.quality.clustering import RedundancyClusters, Stack
else:
    Stack = tuple

__all__ = [
    "QUALITY_STATE_VERSION",
    "NOVELTY_BUCKETS",
    "OnlineClusters",
    "QualityUpdate",
    "QualityDelta",
]

#: bump on any incompatible change to the persisted cluster-state schema.
QUALITY_STATE_VERSION = 1

#: histogram boundaries for the per-test novelty signal (a fraction).
NOVELTY_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
)


class QualityUpdate(NamedTuple):
    """What one :meth:`OnlineClusters.add` did (a tuple: almost every
    add is an exact repeat, and a frozen dataclass cost half of one)."""

    #: item index of the added result (dense, 0-based).
    index: int
    #: ``exact`` (repeated stack), ``joined`` (entered an existing
    #: cluster), ``new`` (opened a cluster), ``bridged`` (merged two or
    #: more existing clusters), or ``none`` (no injection point).
    kind: str
    #: novelty in [0, 1]: 1.0 = nothing similar seen before.
    novelty: float
    #: pre-existing clusters merged away by this insert (only ``bridged``).
    merges: int = 0


@dataclass(frozen=True)
class QualityDelta:
    """Per-round cluster movement, published by the exploration layers."""

    round: int
    #: results fed to the engine this round.
    items: int
    #: clusters opened this round.
    new_clusters: int
    #: pre-existing cluster pairs merged by bridging stacks this round.
    merges: int
    #: total clusters after the round.
    clusters: int

    def as_dict(self) -> dict[str, int]:
        return {
            "round": self.round,
            "items": self.items,
            "new_clusters": self.new_clusters,
            "merges": self.merges,
            "clusters": self.clusters,
        }


class OnlineClusters:
    """Incremental redundancy clustering with a live novelty signal."""

    def __init__(
        self,
        max_distance: int = 1,
        similarity_threshold: float = 0.0,
    ) -> None:
        if max_distance < 0:
            raise ValueError(f"max_distance must be >= 0, got {max_distance}")
        if not 0.0 <= similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity_threshold must be in [0, 1], "
                f"got {similarity_threshold}"
            )
        self.max_distance = max_distance
        self.similarity_threshold = similarity_threshold
        #: distinct stacks in first-seen order (the union-find universe).
        self._keys: list[Stack] = []
        self._key_index: dict[Stack, int] = {}
        #: per item: the distinct-key index, or None for a no-injection item.
        self._item_keys: list[int | None] = []
        self._parent: list[int] = []
        #: members per cluster root, root first (merged on union; absorbed
        #: roots are popped, so this also enumerates the live clusters in
        #: root order).
        self._members_of: dict[int, list[int]] = {}
        # counters (exposed via stats() and the bound metrics):
        self._comparisons = 0
        self._avoided = 0
        self._exact_matches = 0
        self._merges = 0
        self._new_clusters = 0
        self._none_items = 0
        self._metrics: object | None = None

    # -- metrics ------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Report ``quality.*`` series into an
        :class:`~repro.obs.metrics.MetricsRegistry` (series resolved
        once; the per-result path must stay cheap)."""
        self._metrics = registry
        self._m_comparisons = registry.counter("quality.comparisons")
        self._m_avoided = registry.counter("quality.comparisons_avoided")
        self._m_exact = registry.counter("quality.exact_matches")
        self._m_clusters = registry.gauge("quality.clusters")
        self._m_novelty = registry.histogram(
            "quality.novelty", boundaries=NOVELTY_BUCKETS
        )

    # -- union-find ---------------------------------------------------------

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, cluster_root: int, key: int) -> None:
        ra, rb = self._find(cluster_root), self._find(key)
        if ra == rb:
            return
        # The earlier key stays the root, so a cluster's representative
        # — its first-seen member, §6.4 step 8 — survives merges.
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members_of[ra].extend(self._members_of.pop(rb))

    def _count(self, compared: int, avoided: int) -> None:
        self._comparisons += compared
        self._avoided += avoided
        if self._metrics is not None:
            self._m_comparisons.inc(compared)
            self._m_avoided.inc(avoided)

    # -- the streaming insert ----------------------------------------------

    def add(self, stack: "Stack | None") -> QualityUpdate:
        """Assign one newly executed result to a cluster, as it arrives."""
        index = len(self._item_keys)
        if stack is None:
            self._item_keys.append(None)
            self._none_items += 1
            self._publish_gauges()
            return QualityUpdate(index, "none", 1.0)

        stack = tuple(stack)
        key = self._key_index.get(stack)
        if key is not None:
            self._item_keys.append(key)
            self._exact_matches += 1
            self._count(0, len(self._keys) - 1)
            if self._metrics is not None:
                self._m_exact.inc()
            novelty = self._discounted(1.0)
            self._finish_add(novelty)
            return QualityUpdate(index, "exact", novelty)

        key = len(self._keys)
        clusters = list(self._members_of.items())
        self._keys.append(stack)
        self._key_index[stack] = key
        self._parent.append(key)
        self._members_of[key] = [key]
        self._item_keys.append(key)
        unions, best_similarity = self._link(key, stack, clusters)
        merges = max(0, unions - 1)
        self._merges += merges
        if unions == 0:
            kind = "new"
            self._new_clusters += 1
        elif merges == 0:
            kind = "joined"
        else:
            kind = "bridged"
        novelty = self._discounted(best_similarity)
        self._finish_add(novelty)
        return QualityUpdate(index, kind, novelty, merges)

    def _link(
        self, key: int, stack: "Stack", clusters: list[tuple[int, list[int]]]
    ) -> tuple[int, float]:
        """Union ``key`` with every cluster of ``clusters`` holding a
        member within ``max_distance``.

        Returns the number of clusters joined and the similarity to the
        closest of their first matching members (ties go to the earlier
        cluster), 0.0 when none matched.
        """
        bound = self.max_distance
        length = len(stack)
        keys = self._keys
        compared = unions = 0
        best: tuple[int, int] | None = None
        for root, members in clusters:
            for member in members:
                other = keys[member]
                if abs(len(other) - length) > bound:
                    continue
                compared += 1
                distance = levenshtein(stack, other, upper_bound=bound)
                if distance <= bound:
                    self._union(root, key)
                    unions += 1
                    if best is None or distance < best[0]:
                        best = distance, len(other)
                    break
        self._count(compared, key - compared)
        if best is None:
            return unions, 0.0
        return unions, 1.0 - best[0] / max(length, best[1], 1)

    def _discounted(self, similarity: float) -> float:
        if similarity < self.similarity_threshold:
            return 1.0
        return max(0.0, min(1.0, 1.0 - similarity))

    def _finish_add(self, novelty: float) -> None:
        if self._metrics is not None:
            self._m_novelty.observe(novelty)
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        if self._metrics is not None:
            self._m_clusters.set(self.cluster_count)

    # -- views --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._item_keys)

    @property
    def cluster_count(self) -> int:
        """Clusters so far (None items are singletons, as in the batch
        pass)."""
        return len(self._members_of) + self._none_items

    def novelty_ratio(self) -> float:
        """Fraction of results that were *not* exact repeats — the live
        non-redundancy figure surfaced on campaign scorecards."""
        if not self._item_keys:
            return 1.0
        return 1.0 - self._exact_matches / len(self._item_keys)

    def partition(self) -> "RedundancyClusters":
        """The current partition, identical to what the batch
        :func:`~repro.quality.clustering.cluster_stacks` produces over
        the same inputs in the same order."""
        from repro.quality.clustering import RedundancyClusters

        root_to_cluster: dict[int, int] = {}
        for key in range(len(self._keys)):
            root_to_cluster.setdefault(self._find(key), len(root_to_cluster))
        assignment: list[int] = [-1] * len(self._item_keys)
        next_id = len(root_to_cluster)
        for item, key in enumerate(self._item_keys):
            if key is None:
                assignment[item] = next_id
                next_id += 1
            else:
                assignment[item] = root_to_cluster[self._find(key)]
        members: dict[int, list[int]] = {}
        for item, cluster_id in enumerate(assignment):
            members.setdefault(cluster_id, []).append(item)
        clusters = tuple(
            tuple(sorted(members[cid])) for cid in range(next_id)
        )
        return RedundancyClusters(tuple(assignment), clusters)

    def stats(self) -> dict[str, object]:
        """Counters for round deltas, scorecards, and ``--profile``.

        ``comparisons_avoided`` counts the distinct stacks an insert
        did not compare — every one for an exact repeat, and for a new
        stack those skipped by length or after a cluster's first match
        — against the naive scan that compares every result with every
        distinct stack seen so far.
        """
        return {
            "items": len(self._item_keys),
            "distinct_stacks": len(self._keys),
            "clusters": self.cluster_count,
            "exact_matches": self._exact_matches,
            "comparisons": self._comparisons,
            "comparisons_avoided": self._avoided,
            "new_clusters": self._new_clusters,
            "merges": self._merges,
            "novelty_ratio": round(self.novelty_ratio(), 4),
        }

    def delta(self, round_number: int, previous: dict | None) -> QualityDelta:
        """The movement since a previous :meth:`stats` snapshot."""
        before = previous or {}
        current = self.stats()
        return QualityDelta(
            round=round_number,
            items=int(current["items"]) - int(before.get("items", 0)),
            new_clusters=(
                int(current["new_clusters"])
                - int(before.get("new_clusters", 0))
            ),
            merges=int(current["merges"]) - int(before.get("merges", 0)),
            clusters=int(current["clusters"]),
        )

    # -- checkpoint persistence ----------------------------------------------

    def state_digest(self) -> str:
        """Content digest of the partition (order-sensitive, like the
        checkpoint's ``history_digest``)."""
        payload = json.dumps(
            list(self.partition().assignment), separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def state_payload(self) -> dict[str, object]:
        """The versioned cluster-state summary persisted in checkpoint
        metadata.  Only the partition's digest is kept — replay
        rebuilds the engine from the recorded stacks — so the payload
        stays small and the history digest untouched (digest-safe)."""
        return {
            "version": QUALITY_STATE_VERSION,
            "max_distance": self.max_distance,
            "similarity_threshold": self.similarity_threshold,
            "items": len(self._item_keys),
            "clusters": self.cluster_count,
            "digest": self.state_digest(),
        }

    def verify_state(self, persisted: dict[str, object]) -> None:
        """Check a replay-rebuilt engine against a persisted payload.

        Raises :class:`ValueError` on any mismatch — a resumed run
        whose rebuilt clusters differ from the recorded ones means the
        clustering code (or the checkpoint) drifted.
        """
        version = persisted.get("version")
        if version != QUALITY_STATE_VERSION:
            raise ValueError(
                f"cluster state version {version!r} is not readable by "
                f"this build (expects {QUALITY_STATE_VERSION})"
            )
        current: dict[str, object] = {
            "max_distance": self.max_distance,
            "similarity_threshold": self.similarity_threshold,
            "items": len(self._item_keys),
        }
        for field_name, value in current.items():
            recorded = persisted.get(field_name)
            if recorded != value:
                raise ValueError(
                    f"cluster state {field_name} mismatch: checkpoint "
                    f"recorded {recorded!r}, replay produced {value!r}"
                )
        if persisted.get("digest") != self.state_digest():
            raise ValueError(
                "cluster partition after replay does not match the "
                "checkpointed digest; the clustering code drifted"
            )
