"""End-to-end observability: traces, metrics, checkpoints, CLI, campaign.

The headline property (ISSUE acceptance): a recorded trace of a
process-pool exploration replays into a tree where propose / dispatch /
execute / inject / verdict spans nest correctly with matching trace ids
across the process boundary.
"""

from __future__ import annotations

import functools
import json

from repro.cluster import (
    ClusterExplorer,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    ProcessPoolCluster,
)
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.cache import ResultCache
from repro.core.checkpoint import CHECKPOINT_VERSION, load_checkpoint
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    assemble,
    parse_prometheus,
    read_jsonl,
)
from repro.sim.targets import target_by_name


def small_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 20), function=target.libc_functions(), call=[0, 1, 2],
    )


def serial_session(target, *, iterations=25, seed=2, metrics=None,
                   tracer=None, cache=None, **kwargs) -> ExplorationSession:
    return ExplorationSession(
        runner=TargetRunner(target, cache=cache, metrics=metrics,
                            tracer=tracer),
        space=small_space(target),
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(),
        target=IterationBudget(iterations),
        rng=seed,
        metrics=metrics,
        tracer=tracer,
        **kwargs,
    )


class TestTraceReconstruction:
    """Replay a recorded trace and verify the round pipeline nests."""

    def test_process_pool_spans_nest_across_the_process_boundary(self):
        target = target_by_name("coreutils")
        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])
        metrics = MetricsRegistry()
        pool = ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=2,
        )
        explorer = ClusterExplorer(
            pool, small_space(target), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(12), rng=3,
            batch_size=4, metrics=metrics, tracer=tracer,
        )
        try:
            results = explorer.run()
        finally:
            pool.close()
        assert len(results) == 12

        traces = assemble(ring.events)
        assert set(traces) == {tracer.trace_id}  # one trace id everywhere
        tree = traces[tracer.trace_id]

        rounds = tree["roots"]
        assert all(n["event"]["name"] == "round" for n in rounds)
        assert len(rounds) == 3  # 12 tests / batch 4

        executes_seen = 0
        injects_seen = 0
        for round_node in rounds:
            names = [c["event"]["name"] for c in round_node["children"]]
            assert names[0] == "propose"
            assert names[1] == "dispatch"
            assert names.count("verdict") == 4
            (dispatch,) = [c for c in round_node["children"]
                           if c["event"]["name"] == "dispatch"]
            for child in dispatch["children"]:
                event = child["event"]
                # Worker-side spans: produced in another process, with
                # request-derived ids, parented to this dispatch span.
                assert event["name"] == "execute"
                assert event["span"].startswith("w")
                assert event["parent"] == dispatch["event"]["span"]
                assert event["trace"] == tracer.trace_id
                executes_seen += 1
                for grandchild in child["children"]:
                    assert grandchild["event"]["name"] == "inject"
                    assert grandchild["event"]["parent"] == event["span"]
                    injects_seen += 1
        assert executes_seen == 12
        # The rng=3 trajectory injects at least one real fault.
        assert injects_seen >= 1

        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["fabric.dispatch_seconds"]["count"] == 3
        assert snapshot["counters"]["session.tests"] == 12

    def test_serial_trace_includes_cache_lookup(self):
        target = target_by_name("coreutils")
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        serial_session(target, iterations=6, tracer=tracer,
                       cache=ResultCache()).run()
        tree = assemble(ring.events)[tracer.trace_id]
        (dispatch,) = [
            c for c in tree["roots"][0]["children"]
            if c["event"]["name"] == "dispatch"
        ]
        names = [c["event"]["name"] for c in dispatch["children"]]
        assert "cache_lookup" in names and "execute" in names


class TestCheckpointMetadata:
    def test_metrics_snapshot_and_trace_schema_land_in_meta(self, tmp_path):
        target = target_by_name("coreutils")
        path = tmp_path / "ck.json"
        metrics = MetricsRegistry()
        session = serial_session(
            target, iterations=20, metrics=metrics,
            checkpoint_path=path, checkpoint_every=10,
        )
        session.run()
        checkpoint = load_checkpoint(path)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.meta["trace_schema"] == TRACE_SCHEMA_VERSION
        embedded = checkpoint.meta["metrics"]
        # The session answers from its golden store; the runner only
        # executes what it is handed.
        assert embedded["counters"]["session.tests"] == 20 == (
            embedded["counters"]["runner.tests"]
            + embedded["counters"]["sim.golden_hits"]
        )
        assert embedded["counters"]["runner.tests"] == (
            embedded["histograms"]["runner.execute_seconds"]["count"]
        )
        # The whole snapshot survives the JSON round trip verbatim.
        assert json.loads(json.dumps(embedded)) == embedded

    def test_resume_unaffected_by_observability_metadata(self, tmp_path):
        target = target_by_name("coreutils")
        path = tmp_path / "ck.json"
        serial_session(target, iterations=20, metrics=MetricsRegistry(),
                       checkpoint_path=path, checkpoint_every=5).run()
        resumed = serial_session(
            target, iterations=30, metrics=MetricsRegistry(),
            resume_from=load_checkpoint(path),
        ).run()
        uninterrupted = serial_session(target, iterations=30).run()
        from repro.core.checkpoint import history_digest

        assert history_digest(list(resumed)) == \
            history_digest(list(uninterrupted))


class TestDeterministicCounters:
    def test_identical_runs_report_identical_counters(self):
        target = target_by_name("coreutils")

        def counters():
            metrics = MetricsRegistry()
            serial_session(target, iterations=25, metrics=metrics,
                           cache=ResultCache()).run()
            return metrics.counters()

        first, second = counters(), counters()
        assert first == second
        assert first["session.tests"] == 25
        assert any(k.startswith("sim.injected_calls") for k in first)

    def test_instrumented_and_plain_runs_explore_identically(self):
        target = target_by_name("coreutils")
        plain = serial_session(target, iterations=25).run()
        observed = serial_session(
            target, iterations=25, metrics=MetricsRegistry(),
            tracer=Tracer(sinks=[RingBufferSink()]),
        ).run()
        from repro.core.checkpoint import history_digest

        assert history_digest(list(plain)) == history_digest(list(observed))


    def test_a_metrics_only_loop_meters_every_round_and_builds_no_tracer(
            self, monkeypatch):
        """The service binds metrics and never a tracer: its rounds must
        report the ``session.*`` series a traced loop reports, with the
        same history, and build no tracer or span to do it."""
        target = target_by_name("coreutils")

        def session_series(metrics):
            snapshot = metrics.snapshot()
            return {
                kind: {
                    name: value["count"] if kind == "histograms" else (
                        value if kind == "counters" else None)
                    for name, value in snapshot[kind].items()
                    if name.startswith("session.")
                }
                for kind in ("counters", "gauges", "histograms")
            }

        traced_metrics = MetricsRegistry()
        traced = serial_session(
            target, iterations=25, batch_size=4, metrics=traced_metrics,
            tracer=Tracer(sinks=[RingBufferSink()]),
        ).run()

        def no_tracer(*args, **kwargs):
            raise AssertionError("a metrics-only loop built a Tracer")

        monkeypatch.setattr(Tracer, "__init__", no_tracer)
        metered_metrics = MetricsRegistry()
        metered = serial_session(
            target, iterations=25, batch_size=4, metrics=metered_metrics,
        ).run()
        assert metered.digest == traced.digest
        series = session_series(metered_metrics)
        assert series == session_series(traced_metrics)
        assert series["counters"] == {
            "session.tests": 28, "session.rounds": 7,
        }
        assert series["histograms"]["session.round_seconds"] == 7
        assert "session.proposals_per_s" in series["gauges"]


class TestThreadFabricMetrics:
    def test_worker_utilization_gauges_collected(self):
        target = target_by_name("coreutils")
        target.suite  # pre-build once so managers share it
        metrics = MetricsRegistry()
        managers = [
            NodeManager(f"n{i}", target, metrics=metrics) for i in range(2)
        ]
        fabric = FaultTolerantFabric(LocalCluster(managers),
                                     sleep=lambda _: None)
        ClusterExplorer(
            fabric, small_space(target), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(10), rng=1,
            batch_size=2, metrics=metrics,
        ).run()
        snapshot = metrics.snapshot()
        gauges = snapshot["gauges"]
        assert gauges['fabric.worker_executed{worker="n0"}'] \
            + gauges['fabric.worker_executed{worker="n1"}'] == 10
        assert gauges["fabric.health.completed"] == 10
        assert snapshot["counters"]['manager.tests{manager="n0"}'] \
            + snapshot["counters"]['manager.tests{manager="n1"}'] == 10


class TestHotPathGauges:
    """The perf-tentpole series (encode cost, wire economy, batch size)
    must reach the Prometheus export (satellite)."""

    def test_socket_fabric_exports_wire_cost_gauges(self):
        from repro.cluster import ExplorerNode, SocketFabric
        from repro.obs import to_prometheus

        target = target_by_name("coreutils")
        metrics = MetricsRegistry()
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port),
            functools.partial(target_by_name, "coreutils"),
            name="obs", capacity=4,
        )
        thread = node.run_in_thread()
        try:
            net.wait_for_nodes(timeout=15)
            ClusterExplorer(
                net, small_space(target), standard_impact(),
                FitnessGuidedSearch(), IterationBudget(12), rng=2,
                batch_size=4, metrics=metrics,
            ).run()
            net.bind_metrics(metrics)
            parsed = parse_prometheus(to_prometheus(metrics))
        finally:
            net.close()
            node.stop()
            thread.join(timeout=10)
        encode = parsed["afex_fabric_dispatch_encode_seconds"]["samples"]
        assert encode["afex_fabric_dispatch_encode_seconds"] >= 0.0
        per_test = parsed["afex_fabric_net_bytes_per_test"]["samples"][
            "afex_fabric_net_bytes_per_test"]
        assert per_test > 0.0
        # The whole point of the binary data plane: a test costs tens
        # of bytes, not the ~1 kB the JSON one paid.
        assert per_test < 1000.0

        def gauge(name: str) -> float:
            return parsed[name]["samples"][name]

        # The redundancy the wire found: every report arrived either as
        # a whole body or as a reference to one the connection had seen.
        assert gauge("afex_fabric_net_report_bodies_inline") >= 1
        assert gauge("afex_fabric_net_report_bodies_inline") \
            + gauge("afex_fabric_net_report_bodies_referenced") == 12
        assert gauge("afex_fabric_net_steals_declined") == 0  # one node
        # Manager-clock turnaround, not the runner's own cost: it can
        # only be larger.
        (turnaround,) = parsed["afex_fabric_node_per_test_seconds"][
            "samples"].values()
        assert turnaround > 0.0

    def test_process_pool_exports_encode_seconds(self):
        from repro.obs import to_prometheus

        target = target_by_name("coreutils")
        metrics = MetricsRegistry()
        pool = ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=2,
        )
        pool.bind_metrics(metrics)
        try:
            ClusterExplorer(
                pool, small_space(target), standard_impact(),
                FitnessGuidedSearch(), IterationBudget(8), rng=2,
                batch_size=4, metrics=metrics,
            ).run()
            parsed = parse_prometheus(to_prometheus(metrics))
        finally:
            pool.close()
        samples = parsed["afex_fabric_dispatch_encode_seconds"]["samples"]
        assert samples["afex_fabric_dispatch_encode_seconds"] > 0.0


class TestCampaignWiring:
    def test_spec_engine_threads_metrics_tracer_and_cache(self):
        """What a served job attaches to its engine reaches every layer:
        the registry counts the campaign's tests, the cache publishes its
        hit ratio, and the tracer records one tree of rounds."""
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(target="coreutils", iterations=15, seed=1)
        metrics = MetricsRegistry()
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        with spec.build_engine(cache=ResultCache(), metrics=metrics,
                               tracer=tracer) as engine:
            run = engine.explore(
                small_space(engine.target), FitnessGuidedSearch(),
                iterations=15, seed=1,
            )
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["session.tests"] == 15
        assert "cache.hit_ratio" in snapshot["gauges"]
        # Golden answers never reach the runner's cache.
        assert run.cache_stats == {
            "hits": 0, "misses": 15 - run.golden_stats["hits"]}
        assert run.golden_stats["hits"] > 0
        rounds = assemble(ring.events)[tracer.trace_id]["roots"]
        assert len(rounds) == 15
        assert all(n["event"]["name"] == "round" for n in rounds)


class TestCliFlags:
    def test_profile_metrics_and_trace_outputs(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "run", "--target", "coreutils", "--iterations", "15",
            "--seed", "1", "--profile",
            "--metrics-out", str(tmp_path / "metrics.prom"),
            "--trace-out", str(tmp_path / "trace.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "history digest:" in out
        assert "profile: afex-profile.json" in out

        parsed = parse_prometheus((tmp_path / "metrics.prom").read_text())
        assert parsed["afex_session_tests_total"]["samples"][
            "afex_session_tests_total"] == 15.0
        assert "afex_runner_execute_seconds" in parsed

        events = read_jsonl(tmp_path / "trace.jsonl")
        assert {e["v"] for e in events} == {TRACE_SCHEMA_VERSION}
        tree = assemble(events)
        (trace_id,) = tree.keys()
        assert all(n["event"]["name"] == "round"
                   for n in tree[trace_id]["roots"])

        payload = json.loads((tmp_path / "afex-profile.json").read_text())
        assert payload["benchmark"] == "observability"
        assert payload["meta"]["target"] == "coreutils"
        assert payload["counters"]["session.tests"] == 15
        # Every scenario is either executed or answered from a golden
        # (fault-free) run by the session, never both; no cache is
        # attached here.
        assert payload["counters"]["session.tests"] == (
            payload["histograms"]["runner.execute_seconds"]["count"]
            + payload["counters"]["sim.golden_hits"]
        )
        assert payload["counters"]["runner.tests"] == (
            payload["histograms"]["runner.execute_seconds"]["count"]
        )

    def test_run_without_flags_collects_nothing(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--target", "coreutils", "--iterations", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "history digest:" in out
        assert "profile:" not in out
