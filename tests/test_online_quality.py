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
from repro.quality.clustering import cluster_stacks, cluster_stacks_reference
from repro.quality.online import OnlineClusters, stack_digest


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

    def test_digest_fast_path_skips_distances(self):
        engine = OnlineClusters()
        stack = ("main", "f")
        engine.add(stack, digest=stack_digest(stack))
        engine.add(stack, digest=stack_digest(stack))
        stats = engine.stats()
        assert stats["exact_matches"] == 1
        assert stats["comparisons"] == 0

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
        """Regression: a lazy back-fill can out-compare the naive pass,
        and ``comparisons_avoided`` then went negative — ``Counter.inc``
        raised and killed the campaign (seed 15 of these fifty)."""
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


class TestPartitionIdentity:
    @given(st.lists(_stack_strategy, max_size=18),
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


class TestSessionIntegration:
    def _run(self, target, *, online, iterations=40, seed=7, strategy=None):
        session = ExplorationSession(
            runner=TargetRunner(target),
            space=small_space(target),
            metric=standard_impact(),
            strategy=strategy or FitnessGuidedSearch(),
            target=IterationBudget(iterations),
            rng=seed,
            online_quality=online,
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

    def test_quality_deltas_cover_every_round(self, coreutils):
        session, results = self._run(coreutils, online=True, iterations=20)
        assert session.quality_deltas
        assert sum(d.items for d in session.quality_deltas) == len(results)
        final = session.quality_deltas[-1]
        assert final.clusters == session.quality.cluster_count


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
        explorer = ClusterExplorer(
            VirtualCluster(managers),
            small_space(coreutils),
            standard_impact(),
            FitnessGuidedSearch(),
            IterationBudget(24),
            rng=2,
            batch_size=3,
            online_quality=True,
        )
        results = explorer.run()
        stacks = [
            tuple(t.result.injection_stack)
            if t.result.injection_stack else None
            for t in results
        ]
        batch = cluster_stacks_reference(stacks, max_distance=1)
        assert explorer.quality.partition().assignment == batch.assignment
        assert explorer.quality_deltas

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
