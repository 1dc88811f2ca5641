"""Online redundancy clustering: the streaming §5/§7.4 quality pipeline.

The batch :func:`~repro.quality.clustering.cluster_stacks` pass compares
every pair of distinct stack traces — O(n²) edit distances, paid in full
at report time.  That is fine for a post-hoc report over a few hundred
results but cannot steer a long-running campaign: the §7.4 feedback loop
("fitness weighed by novelty") needs the cluster structure *while*
results stream in, and the quadratic tax grows with every round.

:class:`OnlineClusters` maintains the same partition incrementally.  As
each executed fault's injection-point stack arrives it is assigned to a
cluster immediately, using three prunes layered over an incremental
union-find:

* **exact-match fast path** — repeated stacks (the overwhelmingly common
  case: most faults fire at a handful of injection points) are resolved
  with one dict probe, zero edit distances;
* **length buckets** — the edit distance is bounded below by the length
  difference, so only stacks within ``max_distance`` frames of the new
  stack's depth are candidates at all;
* **representative triangle pruning** — candidates are visited cluster
  by cluster.  The new stack is first compared against the cluster's
  *representative* (its first-seen member) with a band of
  ``2·max_distance``; by the triangle inequality, a representative more
  than ``2·max_distance`` away rules out every member within
  ``max_distance`` of it, and an exact representative distance combines
  with each member's memoized representative distance to skip most of
  the rest.  A match short-circuits the whole cluster.

Every edit distance ever computed lands in a **memoized pairwise
distance cache**, so bridging inserts and repeated probes never pay for
the same pair twice.  The common-case cost of an insert is O(k)
comparisons against the k cluster representatives instead of O(n)
against all stacks.

The resulting partition is **provably identical** to the batch pass —
the prunes are sound distance bounds, never heuristics (see
``tests/test_online_quality.py`` for the property test) — which is why
:func:`~repro.quality.clustering.cluster_stacks` is now a thin wrapper
over this engine.

Each insert also yields a **novelty** signal in [0, 1] — the complement
of the similarity to the closest cluster-mate discovered — which
:class:`~repro.core.search.FitnessGuidedSearch` and
:class:`~repro.core.search.genetic.GeneticSearch` can consume as the
live §7.4 feedback loop (``use_novelty=True``).  Unlike the batch
:class:`~repro.quality.feedback.RedundancyFeedback` (which scans *all*
previous stacks per result), novelty here is measured against the
redundancy-cluster structure: an exact repeat scores 0.0, a stack that
joined an existing cluster scores ``1 - similarity`` to the member that
admitted it, and a brand-new cluster scores 1.0.  Similarities below
``similarity_threshold`` do not discount at all.
"""

from __future__ import annotations

import hashlib
import json

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    "stack_digest",
]

#: bump on any incompatible change to the persisted cluster-state schema.
QUALITY_STATE_VERSION = 1

#: histogram boundaries for the per-test novelty signal (a fraction).
NOVELTY_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
)


def stack_digest(stack: "Stack | None") -> str | None:
    """A stable content digest of one injection-point stack trace.

    Computed worker-side so the explorer's exact-match fast path is one
    dict probe on a short string (``hash()`` is salted per process, so
    it cannot serve as a cross-process key).  ``None`` stacks (no fault
    fired) have no digest.
    """
    if stack is None:
        return None
    payload = "\x1e".join(stack).encode()
    return f"{len(stack)}:{hashlib.blake2b(payload, digest_size=16).hexdigest()}"


@dataclass(frozen=True)
class QualityUpdate:
    """What one :meth:`OnlineClusters.add` did."""

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
        self._digest_index: dict[str, int] = {}
        #: per item: the distinct-key index, or None for a no-injection item.
        self._item_keys: list[int | None] = []
        self._parent: list[int] = []
        #: stack length per key (lengths drive every cheap prune).
        self._lengths: list[int] = []
        #: members per cluster root (merged on union; absorbed roots are
        #: popped, so this also enumerates the live clusters).
        self._members_of: dict[int, list[int]] = {}
        #: (min, max) member length per cluster root — a whole cluster
        #: is skipped with two int compares when the new stack's length
        #: is outside [min - max_distance, max + max_distance].
        self._length_range: dict[int, tuple[int, int]] = {}
        #: memoized pairwise distances between distinct keys, keyed
        #: (min, max) -> (value, band).  A value is exact when
        #: ``value <= band``; otherwise it only proves "> band".
        self._dist: dict[tuple[int, int], tuple[int, int]] = {}
        #: exact distance from a member to its cluster's representative,
        #: when known (dropped for the absorbed side of a merge).
        self._rep_distance: dict[int, int] = {}
        # counters (exposed via stats() and the bound metrics):
        self._comparisons = 0
        self._avoided = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._exact_matches = 0
        self._unions = 0
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
        self._m_cache_hits = registry.counter("quality.distance_cache_hits")
        self._m_cache_misses = registry.counter("quality.distance_cache_misses")
        self._m_exact = registry.counter("quality.exact_matches")
        self._m_clusters = registry.gauge("quality.clusters")
        self._m_hit_ratio = registry.gauge("quality.distance_cache_hit_ratio")
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
        self._unions += 1
        absorbed = self._members_of.pop(rb)
        for member in absorbed:
            # These memos measured the distance to the *old*
            # representative; drop them rather than mix frames.
            self._rep_distance.pop(member, None)
        self._members_of[ra].extend(absorbed)
        lo_a, hi_a = self._length_range[ra]
        lo_b, hi_b = self._length_range.pop(rb)
        self._length_range[ra] = (min(lo_a, lo_b), max(hi_a, hi_b))

    # -- distances ----------------------------------------------------------

    def _distance(self, a: int, b: int, band: int) -> int:
        """Banded distance between two distinct keys, through the cache.

        Exact when ``<= band``, otherwise any value ``> band``.  A
        cached entry is reused when it is exact, or when its band was at
        least as wide as the one requested (then it still proves
        "> band")."""
        pair = (a, b) if a < b else (b, a)
        cached = self._dist.get(pair)
        if cached is not None:
            value, cached_band = cached
            if value <= cached_band or cached_band >= band:
                self._cache_hits += 1
                if self._metrics is not None:
                    self._m_cache_hits.inc()
                return value
        self._cache_misses += 1
        self._comparisons += 1
        if self._metrics is not None:
            self._m_cache_misses.inc()
            self._m_comparisons.inc()
        value = levenshtein(self._keys[a], self._keys[b], upper_bound=band)
        self._dist[pair] = (value, band)
        return value

    def _skip(self, count: int = 1) -> None:
        self._avoided += count
        if self._metrics is not None:
            self._m_avoided.inc(count)

    # -- the streaming insert ----------------------------------------------

    def add(
        self, stack: "Stack | None", digest: str | None = None
    ) -> QualityUpdate:
        """Assign one newly executed result to a cluster, as it arrives.

        ``digest`` is an optional precomputed :func:`stack_digest` (the
        cluster fabric ships it in
        :class:`~repro.cluster.messages.TestReport` so the explorer
        never rebuilds it).
        """
        index = len(self._item_keys)
        if stack is None:
            self._item_keys.append(None)
            self._none_items += 1
            self._publish_gauges()
            return QualityUpdate(index=index, kind="none", novelty=1.0)

        stack = tuple(stack)
        key = None
        if digest is not None:
            key = self._digest_index.get(digest)
        if key is None:
            key = self._key_index.get(stack)
        if key is not None:
            # Exact-match fast path: zero edit distances.
            if digest is not None:
                # Replayed histories carry no wire digests; register
                # late-arriving ones so future probes stay O(1).
                self._digest_index.setdefault(digest, key)
            self._item_keys.append(key)
            self._exact_matches += 1
            self._skip(len(self._keys) - 1)
            if self._metrics is not None:
                self._m_exact.inc()
            novelty = self._discounted(1.0)
            self._finish_add(novelty)
            return QualityUpdate(index=index, kind="exact", novelty=novelty)

        key = len(self._keys)
        self._keys.append(stack)
        self._key_index[stack] = key
        if digest is not None:
            self._digest_index[digest] = key
        self._parent.append(key)
        self._lengths.append(len(stack))
        self._members_of[key] = [key]
        self._length_range[key] = (len(stack), len(stack))
        self._item_keys.append(key)
        unions_before = self._unions
        best_similarity = self._link(key, stack)
        unions = self._unions - unions_before
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
        return QualityUpdate(
            index=index, kind=kind, novelty=novelty, merges=merges,
        )

    #: clusters at least this big get the wide-band representative probe
    #: (one band-2B comparison buying triangle prunes over the members);
    #: below it, direct band-B member comparisons are cheaper.
    _REP_PROBE_MIN_MEMBERS = 4

    def _link(self, key: int, stack: "Stack") -> float:
        """Union ``key`` with every cluster holding a member within
        ``max_distance``; returns the best similarity discovered.

        Iterates live *clusters*, not stacks: most are dismissed by the
        two-int length-range check, so the common-case cost is O(k) in
        the number of clusters, with edit distances only for the few
        whose representatives are within reach.
        """
        bound = self.max_distance
        length = len(stack)
        comparisons_before = self._comparisons
        # Naive online clustering compares the new stack against every
        # distinct stack seen so far; everything below that is pruning.
        naive = len(self._keys) - 1
        best_distance: int | None = None
        best_length = 0
        # Snapshot: _union pops absorbed roots while we iterate.
        for root, members in list(self._members_of.items()):
            if root == key:
                continue
            lo, hi = self._length_range[root]
            if length < lo - bound or length > hi + bound:
                # No member length within reach -> no member distance
                # within the bound (distance >= length difference).
                continue
            matched, distance, matched_length = self._probe_cluster(
                key, stack, root, members
            )
            if matched:
                self._union(root, key)
                if best_distance is None or distance < best_distance:
                    best_distance, best_length = distance, matched_length
        # A lazy back-fill can out-compare the naive pass; then nothing
        # was avoided (and counters only go up).
        self._skip(max(0, naive - (self._comparisons - comparisons_before)))
        final_root = self._find(key)
        if final_root != key:
            # Memoize the distance to the surviving representative when
            # it was measured exactly — fuel for future triangle prunes.
            cached = self._dist.get((final_root, key))
            if cached is not None and cached[0] <= cached[1]:
                self._rep_distance[key] = cached[0]
        if best_distance is None:
            return 0.0
        longest = max(length, best_length)
        if longest == 0:
            return 1.0
        return 1.0 - best_distance / longest

    def _probe_cluster(
        self,
        key: int,
        stack: "Stack",
        root: int,
        members: list[int],
    ) -> tuple[bool, int, int]:
        """Is any member of ``root``'s cluster within ``max_distance``?

        Returns ``(matched, distance, matched_member_length)``.  For
        large clusters the representative (the root itself — roots are
        always the first-seen member) is probed first with a band of
        ``2·bound``: by the triangle inequality, its exact distance
        combines with each member's memoized representative distance to
        rule members out without new edit distances.  A match
        short-circuits the whole cluster.
        """
        bound = self.max_distance
        lengths = self._lengths
        length = len(stack)
        if bound > 0 and len(members) >= self._REP_PROBE_MIN_MEMBERS:
            # The representative probe uses a band of 4·bound: wide
            # enough that a truncated probe (distance > 4·bound) rules
            # out every member within 3·bound of the representative,
            # and an exact value feeds the two-sided triangle bound.
            wide = 4 * bound
            rep_distance: int | None = None
            rep_gap = abs(lengths[root] - length)
            if rep_gap <= wide:
                probed = self._distance(key, root, wide)
                if probed <= bound:
                    return True, probed, lengths[root]
                if probed <= wide:
                    rep_distance = probed
                    rep_lower = probed
                else:
                    rep_lower = wide + 1
            else:
                # Never probed: the length gap alone bounds the
                # distance from below.
                rep_lower = rep_gap
            rep_memos = self._rep_distance
            for member in members:
                if member == root:
                    continue
                if abs(lengths[member] - length) > bound:
                    continue
                member_rep = rep_memos.get(member)
                if member_rep is None and abs(
                    lengths[member] - lengths[root]
                ) <= wide:
                    # Backfill a memo lost to a merge (or never taken):
                    # one member->representative distance now, through
                    # the cache, prunes this member on every later
                    # probe of the cluster.
                    probed_member = self._distance(member, root, wide)
                    if probed_member <= wide:
                        member_rep = rep_memos[member] = probed_member
                if member_rep is not None:
                    if rep_distance is not None:
                        if abs(rep_distance - member_rep) > bound:
                            # Triangle lower bound: out of range.
                            continue
                    elif rep_lower - member_rep > bound:
                        # d(key, root) >= rep_lower (truncated probe or
                        # length gap), so by the triangle inequality
                        # d(key, member) >= rep_lower - member_rep.
                        continue
                distance = self._distance(key, member, bound)
                if distance <= bound:
                    return True, distance, lengths[member]
            return False, 0, 0
        # Small cluster (or bound == 0): direct banded comparisons beat
        # the wide-band representative probe.
        for member in members:
            if abs(lengths[member] - length) > bound:
                continue
            distance = self._distance(key, member, bound)
            if distance <= bound:
                return True, distance, lengths[member]
        return False, 0, 0

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
            probes = self._cache_hits + self._cache_misses
            if probes:
                self._m_hit_ratio.set(self._cache_hits / probes)

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

        ``comparisons_avoided`` counts candidate distinct stacks ruled
        out without an edit distance — by the exact-match fast path,
        length buckets, cluster short-circuits, or triangle bounds —
        relative to the naive online scan that compares every result
        against every distinct stack seen so far.
        """
        probes = self._cache_hits + self._cache_misses
        return {
            "items": len(self._item_keys),
            "distinct_stacks": len(self._keys),
            "clusters": self.cluster_count,
            "exact_matches": self._exact_matches,
            "comparisons": self._comparisons,
            "comparisons_avoided": self._avoided,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache_hit_ratio": (self._cache_hits / probes) if probes else 0.0,
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
        metadata.  The pairwise cache is *not* serialized — replay
        rebuilds it from the recorded stacks — so the payload stays
        small and the history digest untouched (digest-safe)."""
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
