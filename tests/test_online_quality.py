"""Tests for the streaming quality pipeline (§5 online + §7.4 live loop).

The load-bearing guarantees:

* the incremental partition is *identical* to the batch pass over the
  same inputs in the same order (property-tested);
* turning ``online_quality`` on without opting the strategy into the
  novelty signal leaves exploration trajectories byte-identical;
* the cluster state persisted in checkpoints survives a kill-and-resume
  round trip, and a drifted partition is detected, not silently kept.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.checkpoint import history_digest, load_checkpoint
from repro.core.impact import standard_impact
from repro.core.runner import TargetRunner
from repro.core.search import FitnessGuidedSearch, GeneticSearch, RandomSearch
from repro.core.session import ExplorationSession
from repro.core.targets import IterationBudget
from repro.errors import CheckpointError
from repro.obs import RingBufferSink, Tracer
from repro.quality.clustering import RedundancyClusters, cluster_stacks
from repro.quality.levenshtein import levenshtein
from repro.quality.online import OnlineClusters


def quality_spans(ring: RingBufferSink) -> list[dict]:
    """The fields of every ``quality`` span a traced loop emitted."""
    return [e["attrs"] for e in ring.events if e["name"] == "quality"]


def assert_deltas_cover_every_round(ring, results, quality) -> None:
    """One ``quality`` span per round, numbered from 1, whose items sum
    to the history and whose last count is the engine's."""
    deltas = quality_spans(ring)
    rounds = [e for e in ring.events if e["name"] == "round"]
    assert deltas and len(deltas) == len(rounds)
    assert [d["round"] for d in deltas] == list(range(1, len(deltas) + 1))
    assert sum(d["items"] for d in deltas) == len(results)
    assert deltas[-1]["clusters"] == quality.cluster_count


def cluster_stacks_reference(stacks, max_distance=1) -> RedundancyClusters:
    """The quadratic all-pairs pass the online engine is held to: union
    every pair of distinct stacks within ``max_distance``; ``None``
    stacks are singletons, numbered after every stacked cluster."""
    distinct: dict[tuple, list[int]] = {}
    singletons: list[int] = []
    for i, stack in enumerate(stacks):
        if stack is None:
            singletons.append(i)
        else:
            distinct.setdefault(tuple(stack), []).append(i)
    keys = list(distinct)
    parent = list(range(len(keys)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if levenshtein(keys[i], keys[j],
                           upper_bound=max_distance) <= max_distance:
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    parent[root_j] = root_i
    assignment = [-1] * len(stacks)
    root_to_cluster: dict[int, int] = {}
    for key_index, key in enumerate(keys):
        cluster = root_to_cluster.setdefault(
            find(key_index), len(root_to_cluster))
        for item in distinct[key]:
            assignment[item] = cluster
    for cluster, item in enumerate(singletons, len(root_to_cluster)):
        assignment[item] = cluster
    members: dict[int, list[int]] = {}
    for index, cluster in enumerate(assignment):
        members.setdefault(cluster, []).append(index)
    return RedundancyClusters(
        tuple(assignment),
        tuple(tuple(members[c]) for c in range(len(members))))


def small_space(target, max_call=1):
    from repro.core.faultspace import FaultSpace

    return FaultSpace.product(
        test=range(1, len(target.suite) + 1),
        function=target.libc_functions(),
        call=range(0, max_call + 1),
    )


class TestOnlineClustersEngine:
    def test_none_stack_is_a_singleton(self):
        engine = OnlineClusters()
        update = engine.add(None)
        assert update.kind == "none"
        assert update.novelty == 1.0
        assert engine.cluster_count == 1

    def test_first_stack_opens_a_cluster(self):
        engine = OnlineClusters()
        update = engine.add(("main", "f"))
        assert update.kind == "new"
        assert update.novelty == 1.0
        assert engine.cluster_count == 1

    def test_exact_repeat_scores_zero_novelty(self):
        engine = OnlineClusters()
        engine.add(("main", "f"))
        update = engine.add(("main", "f"))
        assert update.kind == "exact"
        assert update.novelty == 0.0
        assert engine.cluster_count == 1

    def test_near_stack_joins_with_discounted_novelty(self):
        engine = OnlineClusters(max_distance=1)
        engine.add(("main", "f", "g"))
        update = engine.add(("main", "f", "h"))
        assert update.kind == "joined"
        assert update.novelty == pytest.approx(1 / 3)
        assert engine.cluster_count == 1

    def test_bridging_stack_merges_clusters(self):
        engine = OnlineClusters(max_distance=1)
        engine.add(("m", "a", "x"))
        engine.add(("m", "b", "y"))  # distance 2: separate clusters
        assert engine.cluster_count == 2
        update = engine.add(("m", "a", "y"))  # within 1 of both
        assert update.kind == "bridged"
        assert update.merges == 1
        assert engine.cluster_count == 1

    def test_similarity_threshold_makes_distant_joins_fully_novel(self):
        # similarity 1/3 < 0.5 threshold -> no discount despite joining.
        engine = OnlineClusters(max_distance=2, similarity_threshold=0.5)
        engine.add(("a", "b", "c"))
        update = engine.add(("a", "x", "y"))
        assert update.kind == "joined"
        assert update.novelty == 1.0

    def test_exact_repeat_skips_distances(self):
        engine = OnlineClusters()
        engine.add(("main", "f"))
        engine.add(("main", "g", "h", "i"))   # two frames longer: skipped
        engine.add(("main", "f"))
        stats = engine.stats()
        assert stats["exact_matches"] == 1
        assert stats["comparisons"] == 0
        assert stats["comparisons_avoided"] == 2

    def test_bound_zero_only_merges_identical(self):
        engine = OnlineClusters(max_distance=0)
        engine.add(("a", "b"))
        engine.add(("a", "c"))
        engine.add(("a", "b"))
        assert engine.cluster_count == 2

    def test_stats_counts(self):
        engine = OnlineClusters(max_distance=1)
        for stack in [("a", "b"), ("a", "b"), ("a", "c"), None]:
            engine.add(stack)
        stats = engine.stats()
        assert stats["items"] == 4
        assert stats["distinct_stacks"] == 2
        assert stats["clusters"] == 2  # {ab, ac} merged + the None item
        assert stats["exact_matches"] == 1
        assert stats["novelty_ratio"] == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineClusters(max_distance=-1)
        with pytest.raises(ValueError):
            OnlineClusters(similarity_threshold=1.5)

    def test_delta_tracks_round_movement(self):
        engine = OnlineClusters()
        engine.add(("a",))
        first = engine.delta(1, None)
        assert first.items == 1 and first.new_clusters == 1
        before = engine.stats()
        engine.add(("a",))
        engine.add(("z", "z", "z"))
        second = engine.delta(2, before)
        assert second.items == 2
        assert second.new_clusters == 1
        assert second.clusters == 2

    def test_metrics_bound_engine_reports_series(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        engine = OnlineClusters(max_distance=1)
        engine.bind_metrics(metrics)
        for stack in [("a", "b"), ("a", "b"), ("a", "c"), ("q", "r", "s", "t")]:
            engine.add(stack)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["quality.exact_matches"] == 1
        assert snapshot["gauges"]["quality.clusters"] == engine.cluster_count
        assert "quality.novelty" in snapshot["histograms"]


    def test_metric_bound_counters_never_go_down_on_real_histories(self):
        """Regression: the pruned engine's lazy back-fill could
        out-compare the naive pass, and ``comparisons_avoided`` then went
        negative — ``Counter.inc`` raised and killed the campaign (seed
        15 of these fifty)."""
        from repro.obs import MetricsRegistry
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(
            target="replkv", iterations=100, fault_model="errno+disk",
            max_call=2,
        )
        with spec.build_engine() as campaigns:
            space = spec.build_space(campaigns.target)
            for seed in range(50):
                run = campaigns.explore(
                    space, spec.build_strategy(), iterations=100, seed=seed
                )
                stacks = [t.result.injection_stack for t in run.results]
                metrics = MetricsRegistry()
                engine = OnlineClusters(max_distance=1)
                engine.bind_metrics(metrics)
                before = metrics.snapshot()["counters"]
                for stack in stacks:
                    engine.add(stack)
                    after = metrics.snapshot()["counters"]
                    assert all(after[k] >= before[k] for k in before)
                    before = after
                assert after["quality.comparisons_avoided"] == \
                    engine.stats()["comparisons_avoided"]
                reference = cluster_stacks_reference(stacks, max_distance=1)
                assert engine.partition().assignment == reference.assignment


# A vocabulary with collisions (few frames) so near-misses, exact dups,
# and bridges all appear in small hypothesis examples.
_stack_strategy = st.one_of(
    st.none(),
    st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
)

#: streams of up to 60 stacks over a 6–12-frame alphabet: long enough
#: for clusters of many members and for inserts that bridge them.
_streams = st.integers(min_value=6, max_value=12).flatmap(
    lambda frames: st.lists(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from("abcdefghijkl"[:frames]),
                     max_size=8).map(tuple),
        ),
        max_size=60,
    )
)


class TestPartitionIdentity:
    @given(st.one_of(st.lists(_stack_strategy, max_size=18), _streams),
           st.integers(min_value=0, max_value=3))
    def test_online_matches_batch_reference(self, stacks, max_distance):
        engine = OnlineClusters(max_distance=max_distance)
        for stack in stacks:
            engine.add(stack)
        online = engine.partition()
        batch = cluster_stacks_reference(stacks, max_distance=max_distance)
        assert online.assignment == batch.assignment
        assert online.clusters == batch.clusters

    @given(st.lists(_stack_strategy, max_size=14))
    def test_wrapper_is_the_engine(self, stacks):
        wrapped = cluster_stacks(stacks, max_distance=1)
        reference = cluster_stacks_reference(stacks, max_distance=1)
        assert wrapped.assignment == reference.assignment

    @given(st.lists(_stack_strategy, min_size=2, max_size=12),
           st.randoms(use_true_random=False))
    def test_any_arrival_order_yields_the_batch_partition(self, stacks, rnd):
        """Feeding the same stacks in any order matches the batch pass
        run over that order — the engine has no order-sensitive state
        beyond what the batch numbering itself encodes."""
        shuffled = list(stacks)
        rnd.shuffle(shuffled)
        engine = OnlineClusters(max_distance=1)
        for stack in shuffled:
            engine.add(stack)
        batch = cluster_stacks_reference(shuffled, max_distance=1)
        assert engine.partition().assignment == batch.assignment


#: history digests of 300-test ``FitnessGuidedSearch(use_novelty=True)``
#: campaigns at seed 3, keyed (target, cluster distance, threshold).
_NOVELTY_DIGESTS = {
    ("coreutils", 0, 0.0): "7a7cacada24d3e4e9e2cac72296e87726714cd5f00670bc0964f9c582bf762bb",
    ("coreutils", 0, 0.4): "7a7cacada24d3e4e9e2cac72296e87726714cd5f00670bc0964f9c582bf762bb",
    ("coreutils", 1, 0.0): "fc752c059275e6dab7d01916488167eb41a45ad5cf6100ce05a5dc8600521b91",
    ("coreutils", 1, 0.4): "fc752c059275e6dab7d01916488167eb41a45ad5cf6100ce05a5dc8600521b91",
    ("coreutils", 2, 0.0): "ecf02cd6d50c2f374e2e0085c3ae9d060ebb3946e79664db806d3824f8bd0386",
    ("coreutils", 2, 0.4): "ab8fc5dc6bcdf4a69273109edc7dd2e5c1efa38c4e12daf610150406ad30bb6a",
    ("minidb", 0, 0.0): "60d79b2f4eeea55e59ac6416bb3db5ba194219de121079942618960e446e49d1",
    ("minidb", 0, 0.4): "60d79b2f4eeea55e59ac6416bb3db5ba194219de121079942618960e446e49d1",
    ("minidb", 1, 0.0): "0479808f5b199a2aaec41fa9b0b9bf1550da5f28bcf0f41bfa1e8c09b576fe8b",
    ("minidb", 1, 0.4): "0479808f5b199a2aaec41fa9b0b9bf1550da5f28bcf0f41bfa1e8c09b576fe8b",
    ("minidb", 2, 0.0): "463cfc9ead7ba93d57310608fc3a5243069bf413be0e6d7e1c81ef30c41be02b",
    ("minidb", 2, 0.4): "f8a85c52b51b3b11a5c8743417d1ac40fae3857c832cc312cce2b343f0f79a17",
    ("httpd", 0, 0.0): "62058238c69ac3ccc7aae94254db8ab85e46d339daa54603275e5d0aa7e46ad9",
    ("httpd", 0, 0.4): "62058238c69ac3ccc7aae94254db8ab85e46d339daa54603275e5d0aa7e46ad9",
    ("httpd", 1, 0.0): "26734038328ce928be8b516efebf89a82321dfdcea84d3e3b835ba0044f6a9fc",
    ("httpd", 1, 0.4): "26734038328ce928be8b516efebf89a82321dfdcea84d3e3b835ba0044f6a9fc",
    ("httpd", 2, 0.0): "719bf3610ab92bc135ec9698f54c8f627a4a7a018d5c96fe6fb47f6e252a279f",
    ("httpd", 2, 0.4): "719bf3610ab92bc135ec9698f54c8f627a4a7a018d5c96fe6fb47f6e252a279f",
    ("replkv", 0, 0.0): "7e1d7902c92d6c961449c79e3f882c103b352797178590115eb1fdb4b78f04c3",
    ("replkv", 0, 0.4): "7e1d7902c92d6c961449c79e3f882c103b352797178590115eb1fdb4b78f04c3",
    ("replkv", 1, 0.0): "a7f425c8f4c05ff6ac2c098cdb7a794828fe87911af8f5294950247488ccbe0e",
    ("replkv", 1, 0.4): "a7f425c8f4c05ff6ac2c098cdb7a794828fe87911af8f5294950247488ccbe0e",
    ("replkv", 2, 0.0): "2d47bbe5ae17ea42cf3958379c268a3173f6bcf6c43d80ecfc403b268753bf04",
    ("replkv", 2, 0.4): "411be5b70b4551150d58de48533b93f1c2a4bd032734f72e883fe337debae1e2",
}


class TestSessionIntegration:
    def _run(self, target, *, online, iterations=40, seed=7, strategy=None,
             tracer=None):
        session = ExplorationSession(
            runner=TargetRunner(target),
            space=small_space(target),
            metric=standard_impact(),
            strategy=strategy or FitnessGuidedSearch(),
            target=IterationBudget(iterations),
            rng=seed,
            online_quality=online,
            tracer=tracer,
        )
        results = session.run()
        return session, results

    def test_online_quality_off_by_default_is_byte_identical(self, coreutils):
        """The differential guarantee: engine on (novelty unconsumed)
        and engine off produce byte-identical exploration histories."""
        _, off = self._run(coreutils, online=False)
        _, on = self._run(coreutils, online=True)
        assert history_digest(list(off)) == history_digest(list(on))

    def test_genetic_strategy_also_unaffected(self, coreutils):
        _, off = self._run(coreutils, online=False, strategy=GeneticSearch())
        _, on = self._run(coreutils, online=True, strategy=GeneticSearch())
        assert history_digest(list(off)) == history_digest(list(on))

    def test_session_partition_matches_batch_over_history(self, coreutils):
        session, results = self._run(coreutils, online=True)
        stacks = [
            tuple(t.result.injection_stack)
            if t.result.injection_stack else None
            for t in results
        ]
        batch = cluster_stacks_reference(stacks, max_distance=1)
        assert session.quality.partition().assignment == batch.assignment
        assert len(session.quality) == len(results)

    def test_use_novelty_changes_the_trajectory(self, coreutils):
        strategy = FitnessGuidedSearch(use_novelty=True)
        _, on = self._run(coreutils, online=True, strategy=strategy,
                          iterations=60)
        _, off = self._run(coreutils, online=False, iterations=60)
        # Not a guarantee in general, but on this space the discounting
        # provably reorders the frontier; a silent no-op would regress.
        assert history_digest(list(on)) != history_digest(list(off))

    @pytest.mark.parametrize(
        ("target_name", "distance", "threshold"),
        sorted(_NOVELTY_DIGESTS),
    )
    def test_novelty_steered_trajectories_are_pinned(
        self, request, target_name, distance, threshold
    ):
        """Novelty feeds the proposal order, so any change to a cluster
        decision or a novelty value moves these histories."""
        target = request.getfixturevalue(target_name)
        session = ExplorationSession(
            runner=TargetRunner(target),
            space=small_space(target, max_call=2),
            metric=standard_impact(),
            strategy=FitnessGuidedSearch(use_novelty=True),
            target=IterationBudget(300),
            rng=3,
            online_quality=True,
            cluster_distance=distance,
            similarity_threshold=threshold,
        )
        results = session.run()
        assert len(results) == 300
        assert history_digest(list(results)) == _NOVELTY_DIGESTS[
            target_name, distance, threshold]

    def test_quality_deltas_cover_every_round(self, coreutils):
        ring = RingBufferSink()
        session, results = self._run(coreutils, online=True, iterations=20,
                                     tracer=Tracer(sinks=[ring]))
        assert_deltas_cover_every_round(ring, results, session.quality)


class TestCheckpointedQuality:
    def _session(self, target, *, iterations, seed=11, path=None, every=0,
                 resume=None):
        return ExplorationSession(
            runner=TargetRunner(target),
            space=small_space(target),
            metric=standard_impact(),
            strategy=FitnessGuidedSearch(),
            target=IterationBudget(iterations),
            rng=seed,
            checkpoint_path=path,
            checkpoint_every=every,
            resume_from=resume,
            online_quality=True,
        )

    def test_cluster_state_lands_in_checkpoint_meta(self, coreutils, tmp_path):
        path = tmp_path / "ck.json"
        session = self._session(coreutils, iterations=25, path=path, every=10)
        session.run()
        checkpoint = load_checkpoint(path)
        persisted = checkpoint.meta["quality"]
        assert persisted["items"] == 25
        assert persisted["digest"] == session.quality.state_digest()

    def test_resume_replays_and_verifies_cluster_state(
        self, coreutils, tmp_path
    ):
        path = tmp_path / "ck.json"
        self._session(coreutils, iterations=25, path=path, every=10).run()
        checkpoint = load_checkpoint(path)
        resumed = self._session(
            coreutils, iterations=40, resume=checkpoint,
        )
        results = resumed.run()
        assert len(results) == 40
        # The resumed engine covers the full history, not just the tail.
        assert len(resumed.quality) == 40

    def test_tampered_cluster_digest_fails_the_resume(
        self, coreutils, tmp_path
    ):
        path = tmp_path / "ck.json"
        self._session(coreutils, iterations=20, path=path, every=10).run()
        checkpoint = load_checkpoint(path)
        checkpoint.meta["quality"]["digest"] = "0" * 64
        with pytest.raises(CheckpointError, match="drifted"):
            self._session(coreutils, iterations=30, resume=checkpoint).run()

    def test_unreadable_state_version_fails_the_resume(
        self, coreutils, tmp_path
    ):
        path = tmp_path / "ck.json"
        self._session(coreutils, iterations=20, path=path, every=10).run()
        checkpoint = load_checkpoint(path)
        checkpoint.meta["quality"]["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            self._session(coreutils, iterations=30, resume=checkpoint).run()

    def test_checkpoint_digest_unchanged_by_online_quality(
        self, coreutils, tmp_path
    ):
        """Digest safety: the cluster payload rides in ``meta``, which
        the history digest does not cover."""
        plain, quality = tmp_path / "a.json", tmp_path / "b.json"
        ExplorationSession(
            runner=TargetRunner(coreutils),
            space=small_space(coreutils),
            metric=standard_impact(),
            strategy=RandomSearch(),
            target=IterationBudget(20),
            rng=5,
            checkpoint_path=plain,
            checkpoint_every=10,
        ).run()
        self._session(coreutils, iterations=20, seed=5, path=quality,
                      every=10).run()
        # RandomSearch vs FitnessGuidedSearch propose differently, so
        # compare each against itself run with quality off:
        a = load_checkpoint(plain)
        resumed = ExplorationSession(
            runner=TargetRunner(coreutils),
            space=small_space(coreutils),
            metric=standard_impact(),
            strategy=RandomSearch(),
            target=IterationBudget(20),
            rng=5,
            resume_from=a,
            online_quality=True,  # engine on while resuming a plain run
        )
        results = resumed.run()
        assert history_digest(list(results)) == a.digest()


class TestFabricIntegration:
    def test_virtual_fabric_partition_matches_batch(self, coreutils):
        from repro.cluster import ClusterExplorer, NodeManager, VirtualCluster

        managers = [NodeManager(f"n{i}", coreutils) for i in range(3)]
        ring = RingBufferSink()
        explorer = ClusterExplorer(
            VirtualCluster(managers),
            small_space(coreutils),
            standard_impact(),
            FitnessGuidedSearch(),
            IterationBudget(24),
            rng=2,
            batch_size=3,
            online_quality=True,
            tracer=Tracer(sinks=[ring]),
        )
        results = explorer.run()
        stacks = [
            tuple(t.result.injection_stack)
            if t.result.injection_stack else None
            for t in results
        ]
        batch = cluster_stacks_reference(stacks, max_distance=1)
        assert explorer.quality.partition().assignment == batch.assignment
        assert_deltas_cover_every_round(ring, results, explorer.quality)

    def test_campaign_job_surfaces_quality_stats(self):
        """A spec with online quality on, run as a served job is: the
        counters reach the run, the §6.3 report and the job document."""
        from repro.quality import build_report
        from repro.service.documents import campaign_document
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(target="coreutils", iterations=20,
                            online_quality=True)
        with spec.build_engine() as engine:
            run = engine.explore(
                small_space(engine.target), spec.build_strategy(),
                iterations=spec.iterations, seed=spec.seed,
                online_quality=spec.online_quality,
            )
        stats = run.quality_stats
        assert stats is not None and stats["items"] == 20
        report = build_report(run.results, run.runner, "certify", top_n=3,
                              quality_stats=stats)
        assert "online quality" in report.render()
        document = campaign_document(
            run.results, campaign=spec.as_dict(), elapsed_seconds=run.seconds,
            quality_stats=stats,
        )
        assert document["quality"]["novelty_ratio"] == stats["novelty_ratio"]

    def test_live_feedback_flag_opts_the_strategy_in(self, coreutils):
        """With online quality on, every result's novelty reaches a
        strategy opted in with ``use_novelty``, on every kind of fabric."""
        from repro.service.engine import CampaignEngine

        class Recording(FitnessGuidedSearch):
            def observe(self, fault, impact, result, novelty=None):
                self.novelties.append(novelty)
                super().observe(fault, impact, result, novelty=novelty)

        for fabric in ("serial", "threads"):
            strategy = Recording(use_novelty=True)
            strategy.novelties = []
            with CampaignEngine(coreutils, fabric=fabric,
                                workers=2) as engine:
                run = engine.explore(small_space(coreutils), strategy,
                                     iterations=15, online_quality=True)
            assert run.quality_stats is not None
            assert len(strategy.novelties) == len(run.results) >= 15
            assert all(0.0 <= n <= 1.0 for n in strategy.novelties)
