"""The traced run: where a test's time goes, layer by layer.

Nothing under ``src/`` is instrumented.  The ledger is filled from outside,
three ways:

* **seams** -- the collaborators an explorer is handed (strategy, runner,
  impact metric, fabric) are wrapped in proxies that record in-memory spans
  ``campaign -> round -> call``; a layer's self time is its span minus its
  children;
* **replays** -- the history those campaigns recorded is pushed in bulk
  through each layer's public functions (world build, ``run_test``, plan
  compile, cache, wire codec, manager, online clustering, checkpoint, store,
  documents), each replay bracketed by the calibration kernel, median of 5;
* **the served path** is timed from its clients and read from ``/v1/stats``.

A traced run drives *every* path on the workload's campaign shape, so every
layer has a measured number on every workload; which of them matter for
which end-to-end figure is the interaction table in ``bench/README.md``.
The seam-built explorers must reproduce the digests of the engine-built
reference, or the run fails.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import shutil
import statistics
import time
from pathlib import Path

from bench import hostcal, measure, paths
from bench import workloads as wl

#: batch width of the cluster paths when the workload itself runs serially.
CLUSTER_BATCH = 32
#: a served job is this long on every workload (as on served-replkv).
SERVED_TESTS = 100
#: the recorded history replayed through the layers is at least this long.
HISTORY_TESTS = 500
#: bulk replays per layer function; the median is reported.
REPLAYS = 5
#: ``afex serve``'s default ``--checkpoint-every``.
SERVICE_CHECKPOINT_EVERY = 10
#: size of the fixed checkpoint-save probe.
CHECKPOINT_PROBE_TESTS = 250


# -- spans ------------------------------------------------------------------------


class SpanLog:
    """In-memory spans: ``[name, parent index, start, end]`` rows."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._open = -1
        self._round = -1

    def begin(self, name: str) -> int:
        index = len(self.rows)
        self.rows.append([name, self._open, time.perf_counter(), 0.0])
        self._open = index
        return index

    def end(self, index: int) -> None:
        row = self.rows[index]
        row[3] = time.perf_counter()
        self._open = row[1]

    def call(self, name: str, function, *args, **kwargs):
        index = self.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.end(index)

    def next_round(self) -> None:
        """Every ``propose_batch`` opens a round; the previous one ends."""
        self.end_round()
        self._round = self.begin("round")

    def end_round(self) -> None:
        if self._round >= 0:
            self.end(self._round)
            self._round = -1

    def drain(self) -> "tuple[dict[str, float], dict[str, float], float]":
        """Total and self seconds by span name, and the root seconds; the
        log is emptied."""
        rows, self.rows = self.rows, []
        children = [0.0] * len(rows)
        for _, parent, start, end in rows:
            if parent >= 0:
                children[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        roots = 0.0
        for (name, parent, start, end), inside in zip(rows, children):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start) - inside
            if parent < 0:
                roots += end - start
        return total, own, roots


class _Seam:
    """Base of the proxies: everything not timed passes straight through."""

    def __init__(self, inner, log: SpanLog) -> None:
        self.inner = inner
        self.log = log

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TracedStrategy(_Seam):
    def bind(self, space, rng) -> None:
        self.inner.bind(space, rng)

    def propose_batch(self, k: int):
        self.log.next_round()
        return self.log.call("propose", self.inner.propose_batch, k)

    def observe(self, *args, **kwargs):
        return self.log.call("observe", self.inner.observe, *args, **kwargs)


class TracedMetric(_Seam):
    def score(self, result):
        return self.log.call("score", self.inner.score, result)


class TracedRunner(_Seam):
    def __call__(self, fault, trial: int = 0):
        return self.log.call("runner", self.inner, fault, trial)


class TracedFabric(_Seam):
    """``run_batch`` under a span named after the fabric's module; also sums
    the execution cost the reports claim, for the dispatch overhead."""

    def __init__(self, inner, log: SpanLog, name: str) -> None:
        super().__init__(inner, log)
        self.name = name
        self.cost_s = 0.0

    def __len__(self) -> int:
        return len(self.inner)

    def run_batch(self, requests):
        reports = self.log.call(self.name, self.inner.run_batch, requests)
        self.cost_s += sum(report.cost for report in reports)
        return reports


# -- seam-built explorers -----------------------------------------------------------


class SeamKind:
    """One path rebuilt from public constructors with seams in place.

    ``serial`` is an ``ExplorationSession`` over a ``TargetRunner``;
    ``processes`` and ``socket`` are a ``ClusterExplorer`` over the fabric the
    engine would have built (the construction of
    ``CampaignEngine._ensure_cluster``, which offers no seam of its own).
    """

    def __init__(self, variant: wl.Workload) -> None:
        from repro.injection.models import model_injector, model_space
        from repro.sim.targets import target_by_name

        self.variant = variant
        self.log = SpanLog()
        self.target = target_by_name(variant.target)
        self.target.suite
        self.injector = model_injector(variant.fault_model)
        self.space = model_space(
            self.target, variant.fault_model, max_call=variant.max_call
        )
        self.fabrics: dict[str, TracedFabric] = {}
        self._net = None
        self._pool = None
        self._fleet = paths.NodeFleet(variant.target, variant.fault_model)
        self.cluster = None
        self.runner = None

    def open(self) -> None:
        from repro.cluster import (
            FaultTolerantFabric, ProcessPoolCluster, RetryPolicy, SocketFabric,
        )
        from repro.core.runner import TargetRunner
        from repro.injection.models import model_injector
        from repro.sim.targets import target_by_name

        kind = self.variant.path
        if kind == "serial":
            self.runner = TracedRunner(
                TargetRunner(self.target, self.injector), self.log
            )
        elif kind == "processes":
            self._pool = ProcessPoolCluster(
                functools.partial(target_by_name, self.variant.target),
                workers=wl.WORKERS,
                name="bench",
                retry_policy=RetryPolicy(),
                injector_factory=functools.partial(
                    model_injector, self.variant.fault_model
                ),
            )
            self.cluster = self._traced(self._pool, "cluster.process_pool")
        else:
            self._net = SocketFabric("127.0.0.1:0", expected_nodes=wl.WORKERS)
            try:
                self._fleet.launch(self._net)
                self._net.wait_for_nodes(timeout=60.0)
            except BaseException:
                self.close()
                raise
            inner = self._traced(self._net, "cluster.socket_fabric")
            self.cluster = self._traced(
                FaultTolerantFabric(inner, policy=RetryPolicy()),
                "cluster.fault_tolerance",
            )

    def _traced(self, fabric, name: str) -> TracedFabric:
        self.fabrics[name] = TracedFabric(fabric, self.log, name)
        return self.fabrics[name]

    def campaign(self, seed: int):
        """One traced campaign; returns its ``ResultSet``."""
        from repro.cluster import ClusterExplorer
        from repro.core.impact import standard_impact
        from repro.core.search import strategy_by_name
        from repro.core.session import ExplorationSession
        from repro.core.targets import IterationBudget

        metric = TracedMetric(standard_impact(), self.log)
        strategy = TracedStrategy(strategy_by_name("fitness"), self.log)
        budget = IterationBudget(self.variant.campaign_tests)
        root = self.log.begin("campaign")
        try:
            if self.variant.path == "serial":
                explorer = ExplorationSession(
                    self.runner, self.space, metric, strategy, budget,
                    rng=seed, batch_size=1,
                )
            else:
                explorer = ClusterExplorer(
                    self.cluster, self.space, metric, strategy, budget,
                    rng=seed, batch_size=self.variant.batch_size,
                )
            return explorer.run()
        finally:
            self.log.end_round()
            self.log.end(root)

    def health(self) -> dict[str, float]:
        """The fabric's own failure and retry counts."""
        if self._pool is not None:
            return {
                "cluster.process_pool.retries": self._pool.health.retries,
                "cluster.process_pool.degraded": int(self._pool.is_degraded),
            }
        if self._net is not None:
            fleet = self._net.fleet_stats()
            return {
                "cluster.socket_fabric.requeued": fleet["requeued"],
                "cluster.socket_fabric.steal_duplicates":
                    fleet["steal_duplicates"],
                "cluster.fault_tolerance.retries":
                    self.cluster.inner.health.retries,
            }
        return {}

    def close(self) -> None:
        pool, net = self._pool, self._net
        self._pool = self._net = None
        if pool is not None:
            pool.close()
        if net is not None:
            self._fleet.close(net)


# -- the ledger ------------------------------------------------------------------------


class Ledger:
    """Metric values plus the checks that decide ``correct``."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"CHECK FAILED: {what}")


def variants(workload: wl.Workload) -> dict[str, wl.Workload]:
    """The workload's campaign shape on each of the four paths."""
    batch = workload.batch_size or CLUSTER_BATCH
    engine = dataclasses.replace(
        workload, campaigns_per_segment=1,
        segments_per_second=wl.CAMPAIGNS_PER_SECOND,
    )
    replace = dataclasses.replace
    return {
        "serial": replace(engine, path="serial", batch_size=None),
        "processes": replace(engine, path="processes", batch_size=batch),
        "socket": replace(engine, path="socket", batch_size=batch),
        "served": replace(
            workload, path="served", batch_size=None,
            campaign_tests=min(workload.campaign_tests, SERVED_TESTS),
            campaigns_per_segment=len(wl.TENANTS),
            segments_per_second=wl.WAVES_PER_SECOND,
        ),
    }


def _per_test_medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Median over segments of each per-test figure (microseconds)."""
    names = {name for row in rows for name in row}
    return {
        name: statistics.median([row.get(name, 0.0) for row in rows]) * 1e6
        for name in names
    }


@dataclasses.dataclass
class KindTrace:
    """What tracing one path produced."""

    #: microseconds per test by span name, median over segments.
    total_us: dict[str, float]
    #: the same for self time (span minus children).
    self_us: dict[str, float]
    #: normalised wall seconds per test of each segment.
    wall_per_test: list[float]
    #: the fabric's own retry and failure counts.
    counters: dict[str, float]
    #: the executed tests of the first segments, at least ``HISTORY_TESTS``.
    history: list
    #: what the runner seam saw on exactly those tests, us per test.
    history_runner_us: float


def trace_kind(variant: wl.Workload, run_seed: int, segments: int,
               timer: measure.Calibrated, reference, ledger: Ledger) -> KindTrace:
    """Run one seam-built path, segment by segment, under spans."""
    from repro.core.checkpoint import history_digest

    kind = SeamKind(variant)
    totals: list[dict[str, float]] = []
    owns: list[dict[str, float]] = []
    wall_per_test: list[float] = []
    history: list = []
    history_runner_s = 0.0
    tree_ok = True
    kind.open()
    try:
        kind.campaign(wl.WARMUP_SEED)  # warm, not kept
        kind.log.drain()
        for fabric in kind.fabrics.values():
            fabric.cost_s = 0.0
        for index in range(segments):
            seeds = wl.segment_seeds(variant, run_seed, index)
            sample, results = timer.run(
                lambda: [kind.campaign(seed) for seed in seeds],
                tree_cpu=False,
            )
            total, own, roots = kind.log.drain()
            tests = sum(len(r) for r in results)
            tree_ok = tree_ok and abs(sum(own.values()) - roots) <= 1e-6 * roots
            for name, fabric in kind.fabrics.items():
                # What the fabric added to the work its reports paid for.
                total[f"{name}.overhead"] = (
                    total.get(name, 0.0) - fabric.cost_s / wl.WORKERS
                )
                fabric.cost_s = 0.0
            scale = sample.scale / tests
            totals.append({n: v * scale for n, v in total.items()})
            owns.append({n: v * scale for n, v in own.items()})
            wall_per_test.append(sample.norm_wall_s / tests)
            for seed, result_set in zip(seeds, results):
                ledger.check(
                    reference.matches(
                        index, seed, history_digest(list(result_set))
                    ),
                    f"{variant.path} seam campaign {seed} digest differs "
                    "from the engine-built reference",
                )
            if len(history) < HISTORY_TESTS:
                for result_set in results:
                    history.extend(result_set)
                history_runner_s += total.get("runner", 0.0) * sample.scale
        counters = kind.health()
    finally:
        kind.close()
    ledger.check(tree_ok, f"{variant.path}: span self times do not sum to "
                          "the campaign wall")
    return KindTrace(
        total_us=_per_test_medians(totals),
        self_us=_per_test_medians(owns),
        wall_per_test=wall_per_test,
        counters=counters,
        history=history,
        history_runner_us=history_runner_s / len(history) * 1e6,
    )


def untraced_own_path(variant: wl.Workload, run_seed: int, segments: int,
                      timer: measure.Calibrated, reference, ledger: Ledger,
                      workdir: Path) -> list[float]:
    """Per-test wall time of the workload's own engine-built path, tracing
    off: the base of ``bench.trace_overhead_ratio``."""
    path = paths.open_path(variant, workdir / "own")
    wall_per_test = []
    path.open()
    try:
        path.warm_up()
        path.prime(wl.campaign_seed(run_seed, 0))
        for index in range(segments):
            seeds = wl.segment_seeds(variant, run_seed, index)
            sample, raw = timer.run(lambda: path.segment(seeds), tree_cpu=False)
            done = path.outcomes(raw)
            wall_per_test.append(
                sample.norm_wall_s / max(sum(o.tests for o in done), 1)
            )
            for outcome in done:
                ledger.check(
                    outcome.ok
                    and reference.matches(index, outcome.seed, outcome.digest),
                    f"own path campaign {outcome.seed} failed or its digest "
                    "differs from the reference",
                )
    finally:
        path.close()
    return wall_per_test


def served_probe(variant: wl.Workload, run_seed: int, waves: int,
                 timer: measure.Calibrated, reference, ledger: Ledger,
                 workdir: Path) -> list[float]:
    """Drive ``afex serve`` with the workload's shape; fills ``service.*``
    and returns the per-test wall time of each wave."""
    path = paths.ServedPath(variant, workdir / "served")
    wall_per_test: list[float] = []
    scaled: dict[str, list[float]] = {"submit": [], "poll": [], "latency": []}
    path.open()
    try:
        path.warm_up()
        path.prime(wl.campaign_seed(run_seed, 0))
        first_job = len(path.jobs)
        for index in range(waves):
            marks = (len(path.submit_s), len(path.poll_s), len(path.latency_s))
            seeds = wl.segment_seeds(variant, run_seed, index)
            sample, raw = timer.run(lambda: path.segment(seeds), tree_cpu=False)
            done = path.outcomes(raw)
            wall_per_test.append(
                sample.norm_wall_s / max(sum(o.tests for o in done), 1)
            )
            scaled["submit"] += [s * sample.scale for s in path.submit_s[marks[0]:]]
            scaled["poll"] += [s * sample.scale for s in path.poll_s[marks[1]:]]
            scaled["latency"] += [
                s * sample.scale for s in path.latency_s[marks[2]:]
            ]
            for outcome in done:
                ledger.check(
                    outcome.ok
                    and reference.matches(index, outcome.seed, outcome.digest),
                    f"served job with seed {outcome.seed} failed or its digest "
                    "differs from a direct CampaignEngine run of its spec",
                )
        stats = path.client.stats()
        jobs = path.jobs[first_job:]
    finally:
        path.close()
    latencies = sorted(scaled["latency"])
    dedup = [job["document"]["dedup"] for job in jobs if job.get("document")]
    waits = [
        (job["started_s"] - job["created_s"]) * 1e3
        for job in jobs if job.get("started_s") and job.get("created_s")
    ]
    ledger.put("service.server.submit_ms", statistics.median(scaled["submit"]) * 1e3, "ms")
    ledger.put("service.server.poll_ms", statistics.median(scaled["poll"]) * 1e3, "ms")
    ledger.put("service.server.job_latency_p50_ms",
               statistics.median(latencies) * 1e3, "ms")
    ledger.put("service.server.job_latency_p90_ms",
               latencies[min(len(latencies) - 1, (len(latencies) * 9) // 10)] * 1e3,
               "ms")
    ledger.put("service.server.queue_wait_ms", statistics.median(waits), "ms")
    ledger.put("service.server.failed_jobs", stats["store"]["failed_jobs"], "count")
    ledger.put("service.engine.warm_reuses", stats["engines"]["reused"], "count")
    ledger.put(
        "service.store.dup_share",
        sum(d["duplicates"] for d in dedup) / max(sum(d["total"] for d in dedup), 1),
        "share",
    )
    return wall_per_test


# -- replays ---------------------------------------------------------------------------


def replay_layers(workload: wl.Workload, history: list, batch: int,
                  timer: measure.Calibrated, ledger: Ledger,
                  workdir: Path) -> dict[str, float]:
    """Push the recorded history through each layer's public functions.

    Every replay is one bulk call bracketed by the calibration kernel and
    repeated ``REPLAYS`` times; microseconds per test are the median.
    Returns the two per-test figures the self-test holds against the
    runner seam.
    """
    from repro.cluster.manager import NodeManager
    from repro.cluster.messages import TestRequest
    from repro.cluster.wire import (
        decode_binary_frame, encode_report_frame, encode_work_frame,
    )
    from repro.core.cache import ResultCache
    from repro.core.checkpoint import (
        CheckpointWriter, build_checkpoint, history_digest, save_checkpoint,
    )
    from repro.core.impact import standard_impact
    from repro.core.results import ResultSet
    from repro.injection.models import model_injector, model_space
    from repro.quality.online import OnlineClusters
    from repro.service.documents import campaign_document
    from repro.service.store import ResultStore
    from repro.sim.coverage import Coverage
    from repro.sim.filesystem import SimFilesystem
    from repro.sim.libc import DEFAULT_STEP_BUDGET, SimLibc
    from repro.sim.process import Env, run_test
    from repro.sim.stack import CallStack
    from repro.sim.targets import target_by_name

    target = target_by_name(workload.target)
    injector = model_injector(workload.fault_model)
    space = model_space(target, workload.fault_model, max_call=workload.max_call)
    count = len(history)
    workdir.mkdir(parents=True, exist_ok=True)

    def per_test(work, *, prepare=None, units: int = count, scale: float = 1e6):
        """Median normalised time of ``work(prepare())`` per unit."""
        seconds = []
        for _ in range(REPLAYS):
            argument = prepare() if prepare is not None else None
            sample, _ = timer.run(
                (lambda: work(argument)) if prepare is not None else work,
                tree_cpu=False,
            )
            seconds.append(sample.norm_wall_s)
        return statistics.median(seconds) / units * scale

    prepared = []
    for executed in history:
        attributes = executed.fault.as_dict()
        prepared.append((target.suite[int(attributes.pop("test"))], attributes))

    def compile_plans():
        return [injector.plan_for(dict(attributes)) for _, attributes in prepared]

    def build_worlds():
        for test, _ in prepared:
            fs = SimFilesystem()
            stack = CallStack()
            libc = SimLibc(fs, stack, step_budget=DEFAULT_STEP_BUDGET)
            rng = random.Random(f"{target.name}/{target.version}/{test.id}/0")
            target.setup(Env(fs, libc, stack, Coverage(), rng), test)

    replayed: list = []

    def run_tests(plans):
        replayed[:] = [
            run_test(target, test, plan)
            for (test, _), plan in zip(prepared, plans)
        ]

    plan_us = per_test(compile_plans)
    world_us = per_test(build_worlds)
    # Plans carry per-run hook state, so every replay gets fresh ones,
    # compiled outside the clock.
    run_us = per_test(run_tests, prepare=compile_plans)
    ledger.check(
        [(r.steps, r.failed) for r in replayed]
        == [(e.result.steps, e.result.failed) for e in history],
        "run_test replay does not reproduce the recorded steps and verdicts",
    )
    ledger.put("injection.plan_us_per_test", plan_us, "us")
    ledger.put("sim.world_build_us_per_test", world_us, "us")
    ledger.put("sim.run_test_us_per_test", run_us, "us")
    ledger.put("sim.body_us_per_test", run_us - world_us, "us")
    ledger.put("sim.steps_per_test",
               sum(e.result.steps for e in history) / count, "count")
    ledger.put(
        "sim.libc_calls_per_test",
        sum(sum(e.result.call_counts.values()) for e in history) / count,
        "count",
    )

    metric_us = per_test(lambda metric: [metric.score(e.result) for e in history],
                         prepare=standard_impact)
    ledger.put("core.impact.score_us_per_test", metric_us, "us")

    target_id = f"{target.name}/{target.version}/{injector.name}"
    keys: list = []

    def make_keys():
        keys[:] = [
            ResultCache.key_for(target_id, e.fault.subspace, e.fault.attributes,
                                0, DEFAULT_STEP_BUDGET)
            for e in history
        ]

    ledger.put("core.cache.key_us_per_test", per_test(make_keys), "us")
    cache = ResultCache(capacity=2 * count)

    def fill(fresh):
        nonlocal cache
        cache = fresh
        for key, executed in zip(keys, history):
            fresh.put(key, executed.result)

    ledger.put(
        "core.cache.put_us",
        per_test(fill, prepare=lambda: ResultCache(capacity=2 * count)), "us",
    )
    ledger.put("core.cache.hit_us",
               per_test(lambda: [cache.get(key) for key in keys]), "us")

    requests = [
        TestRequest(request_id=i, subspace=e.fault.subspace,
                    scenario=e.fault.as_dict())
        for i, e in enumerate(history)
    ]
    reports: list = []

    def manage(manager):
        reports[:] = [manager.execute(request) for request in requests]

    execute_us = per_test(
        manage,
        prepare=lambda: NodeManager(
            "bench", target, injector=model_injector(workload.fault_model)
        ),
    )
    ledger.put("cluster.manager.execute_us_per_test", execute_us, "us")
    ledger.put("cluster.manager.overhead_us_per_test",
               execute_us - run_us - plan_us, "us")

    batches = range(0, count, batch)
    work_frames: list = []
    report_frames: list = []

    def encode_work():
        work_frames[:] = [encode_work_frame(requests[i:i + batch]) for i in batches]

    def encode_reports():
        report_frames[:] = [
            encode_report_frame(reports[i:i + batch]) for i in batches
        ]

    def decode():
        # A frame is a 4-byte length prefix and the payload the codec reads.
        for frame in work_frames + report_frames:
            decode_binary_frame(frame[4:])

    ledger.put("cluster.wire.encode_work_us_per_test", per_test(encode_work), "us")
    ledger.put("cluster.wire.encode_report_us_per_test",
               per_test(encode_reports), "us")
    ledger.put("cluster.wire.decode_us_per_test", per_test(decode), "us")
    ledger.put("cluster.wire.bytes_per_test",
               sum(map(len, work_frames + report_frames)) / count, "B")
    ledger.put("cluster.wire.frames_per_test",
               (len(work_frames) + len(report_frames)) / count, "count")

    clusters: list = []

    def cluster(online):
        for executed in history:
            online.add(executed.result.injection_stack)
        clusters[:] = [online.cluster_count]

    ledger.put(
        "quality.online.add_us_per_test",
        per_test(cluster, prepare=lambda: OnlineClusters(max_distance=1)), "us",
    )
    ledger.put("quality.online.clusters", clusters[0], "count")

    rng = random.Random(0)
    probe = history[:CHECKPOINT_PROBE_TESTS]
    ledger.put(
        "core.checkpoint.save_ms_at_250",
        per_test(
            lambda: save_checkpoint(
                workdir / "probe.ckpt", build_checkpoint(probe, rng, space, 1)
            ),
            units=1, scale=1e3,
        ),
        "ms",
    )
    campaign = history[:workload.campaign_tests]
    writers: list = []

    def checkpointed_campaign(writer):
        grown: list = []
        for executed in campaign:
            grown.append(executed)
            writer.maybe_write(grown, rng)
        writer.maybe_write(grown, rng, force=True)
        writers[:] = [writer]

    ledger.put(
        "core.checkpoint.campaign_ms",
        per_test(
            checkpointed_campaign,
            prepare=lambda: CheckpointWriter(
                workdir / "campaign.ckpt", SERVICE_CHECKPOINT_EVERY, space, 1
            ),
            units=1, scale=1e3,
        ),
        "ms",
    )
    ledger.put("core.checkpoint.writes_per_campaign", writers[0].writes, "count")
    ledger.put("core.checkpoint.digest_us_per_test",
               per_test(lambda: history_digest(history)), "us")
    ledger.put("core.results.to_json_us_per_test",
               per_test(lambda: ResultSet(history).to_json()), "us")

    results = ResultSet(campaign)
    spec = paths.make_spec(workload, 0).as_dict()
    def record(job: str, store):
        return store.record_campaign(
            job, results, target_id=target_id,
            fault_model=workload.fault_model,
        )

    new_s, dup_s = [], []
    for replay in range(REPLAYS):
        store = ResultStore(workdir / f"ledger{replay}.db")
        for job in ("job-new", "job-dup"):
            store.create_job(job, "bench", spec)
        sample, _ = timer.run(lambda: record("job-new", store), tree_cpu=False)
        new_s.append(sample.norm_wall_s)
        sample, _ = timer.run(lambda: record("job-dup", store), tree_cpu=False)
        dup_s.append(sample.norm_wall_s)
    ledger.put("service.store.record_new_us_per_test",
               statistics.median(new_s) / len(campaign) * 1e6, "us")
    ledger.put("service.store.record_dup_us_per_test",
               statistics.median(dup_s) / len(campaign) * 1e6, "us")
    ledger.put(
        "service.store.results_query_ms",
        per_test(lambda: store.results(campaign="job-new", limit=100),
                 units=1, scale=1e3),
        "ms",
    )
    ledger.put(
        "service.documents.build_ms_per_campaign",
        per_test(
            lambda: campaign_document(
                results, campaign={"job": "job-new", "tenant": "bench", **spec},
                elapsed_seconds=1.0,
            ),
            units=1, scale=1e3,
        ),
        "ms",
    )
    return {"plan": plan_us, "run_test": run_us}


def instrumented_ratio(variant: wl.Workload, run_seed: int, segments: int,
                       timer: measure.Calibrated) -> float:
    """Serial campaigns with ``MetricsRegistry`` and ``Tracer`` attached,
    over the same campaigns without."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    per_test: dict[bool, list[float]] = {False: [], True: []}
    spec = paths.make_spec(variant, 0)
    engines = {
        False: spec.build_engine(),
        True: spec.build_engine(metrics=MetricsRegistry(), tracer=Tracer()),
    }
    space = spec.build_space(engines[False].target)
    try:
        for index in range(segments):
            for instrumented in (index % 2 == 0, index % 2 != 0):
                engine = engines[instrumented]

                def campaign(engine=engine):
                    return len(engine.explore(
                        space, spec.build_strategy(),
                        iterations=variant.campaign_tests,
                        seed=wl.campaign_seed(run_seed, 1 + index),
                    ).results)

                sample, tests = timer.run(campaign, tree_cpu=False)
                per_test[instrumented].append(sample.norm_wall_s / tests)
    finally:
        for engine in engines.values():
            engine.close()
    return _paired_ratio(per_test[True], per_test[False])


def run(workload: wl.Workload, run_seed: int, seconds: float,
        workdir: Path) -> dict:
    """One traced run of one workload; the result document."""
    frozen = hostcal.assert_frozen()
    timer = measure.Calibrated()
    ledger = Ledger()
    shapes = variants(workload)
    segments = {
        kind: wl.segments_for(shape, seconds, wl.TRACED_SHARE)
        for kind, shape in shapes.items()
    }
    serial_reference = paths.Reference(shapes["serial"])
    cluster_reference = paths.Reference(shapes["processes"])
    served_reference = paths.Reference(shapes["served"])
    references = {
        "serial": serial_reference, "processes": cluster_reference,
        "socket": cluster_reference, "served": served_reference,
    }
    traced_wall: dict[str, list[float]] = {}
    try:
        serial = trace_kind(
            shapes["serial"], run_seed, segments["serial"], timer,
            serial_reference, ledger,
        )
        traced_wall["serial"] = serial.wall_per_test
        history = serial.history
        ledger.put("core.search.propose_us_per_test",
                   serial.total_us["propose"], "us")
        ledger.put("core.search.observe_us_per_test",
                   serial.total_us["observe"], "us")
        ledger.put("core.session.self_us_per_test",
                   serial.self_us["campaign"] + serial.self_us["round"], "us")

        pool = trace_kind(
            shapes["processes"], run_seed, segments["processes"], timer,
            cluster_reference, ledger,
        )
        traced_wall["processes"] = pool.wall_per_test
        ledger.put("cluster.explorer.self_us_per_test",
                   pool.self_us["campaign"] + pool.self_us["round"], "us")
        ledger.put("cluster.process_pool.run_batch_us_per_test",
                   pool.total_us["cluster.process_pool"], "us")
        ledger.put("cluster.process_pool.dispatch_overhead_us_per_test",
                   pool.total_us["cluster.process_pool.overhead"], "us")

        fleet = trace_kind(
            shapes["socket"], run_seed, segments["socket"], timer,
            cluster_reference, ledger,
        )
        traced_wall["socket"] = fleet.wall_per_test
        ledger.put("cluster.socket_fabric.run_batch_us_per_test",
                   fleet.total_us["cluster.socket_fabric"], "us")
        ledger.put("cluster.socket_fabric.dispatch_overhead_us_per_test",
                   fleet.total_us["cluster.socket_fabric.overhead"], "us")
        ledger.put("cluster.fault_tolerance.wrap_us_per_test",
                   fleet.self_us["cluster.fault_tolerance"], "us")
        for name, value in {**pool.counters, **fleet.counters}.items():
            ledger.put(name, value, "count")

        traced_wall["served"] = served_probe(
            shapes["served"], run_seed, segments["served"], timer,
            served_reference, ledger, workdir,
        )
        untraced = untraced_own_path(
            shapes[workload.path], run_seed, segments[workload.path], timer,
            references[workload.path], ledger, workdir,
        )
        replays = replay_layers(
            workload, history, shapes["processes"].batch_size, timer, ledger,
            workdir / "replay",
        )
        ledger.put(
            "core.results.unique_failures_per_1k_tests",
            _unique_failures_per_1k(history, workload.campaign_tests), "count",
        )
        ledger.put(
            "obs.instrumented_ratio",
            instrumented_ratio(
                shapes["serial"], run_seed, segments["serial"], timer
            ),
            "ratio",
        )
    finally:
        for reference in set(references.values()):
            reference.close()
        shutil.rmtree(workdir, ignore_errors=True)

    ledger.put(
        "bench.trace_overhead_ratio",
        _paired_ratio(traced_wall[workload.path], untraced), "ratio",
    )
    ledger.put("bench.host_speed_index",
               hostcal.CAL_REF_S / statistics.median(timer.kernel_s), "ratio")
    ledger.put("bench.segment_cv", measure.cv(untraced), "ratio")
    return {
        "workload": workload.name,
        "trace": 1,
        "seed": run_seed,
        "seconds": seconds,
        "segments": segments[workload.path],
        "tests": len(history),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "correct": ledger.failed == 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(ledger.values.items())
        },
        # What the self-test compares: the runner seam against the replay
        # of the two things a cache-less runner does, on the same tests.
        "info": {
            "seam_runner_us_per_test": serial.history_runner_us,
            "replay_plan_us_per_test": replays["plan"],
            "replay_run_test_us_per_test": replays["run_test"],
        },
        "digest": "",
        "notes": ledger.notes,
        "hostcal_sha256": frozen,
    }


def _paired_ratio(numerators: list[float], denominators: list[float]) -> float:
    """Median of the ratios of two series that ran the same campaigns in
    the same order, so that what differs between campaigns cancels."""
    return statistics.median([n / d for n, d in zip(numerators, denominators)])


def _unique_failures_per_1k(history: list, campaign_tests: int) -> float:
    """``ResultSet.unique_failures()`` summed over the recorded campaigns,
    per 1000 executed tests."""
    from repro.core.results import ResultSet

    unique = 0
    for start in range(0, len(history), campaign_tests):
        unique += ResultSet(history[start:start + campaign_tests]).unique_failures()
    return unique / len(history) * 1e3
