"""Tests for the explorer/node-manager substrate (Fig. 2)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import (
    ClusterExplorer,
    LocalCluster,
    NodeManager,
    ScriptTarget,
    UserScripts,
    VirtualCluster,
)
from repro.cluster import TestRequest as ClusterTestRequest
from repro.core.sensors import MeasurementPassthroughSensor, default_sensors
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.search import FitnessGuidedSearch, RandomSearch
from repro.core.targets import IterationBudget
from repro.errors import ClusterError, SearchError, TargetError
from repro.sim.targets.coreutils import CoreutilsTarget


def coreutils_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=target.libc_functions(), call=[0, 1, 2]
    )


def request(scenario: dict, request_id: int = 0) -> ClusterTestRequest:
    return ClusterTestRequest(request_id=request_id, subspace="", scenario=scenario)


class FixedCostManager(NodeManager):
    """A manager whose every request costs ``COST`` virtual seconds, so
    virtual-time makespans do not depend on measured wall time."""

    COST = 0.25  # exact in binary: sums of it are exact

    def execute(self, request):
        return dataclasses.replace(super().execute(request), cost=self.COST)


class TestNodeManager:
    @pytest.fixture
    def manager(self) -> NodeManager:
        return NodeManager("node0", CoreutilsTarget())

    def test_execute_reports_outcome(self, manager):
        report = manager.execute(
            request({"test": 12, "function": "link", "call": 1})
        )
        assert report.result.failed and not report.result.crashed
        assert report.result.injected
        assert report.result.test_id == 12

    def test_measurements_include_all_default_sensors(self, manager):
        report = manager.execute(
            request({"test": 1, "function": "malloc", "call": 0})
        )
        keys = set(report.result.measurements)
        assert {"coverage.blocks", "exit.code", "exit.failed",
                "crash.segfault", "steps.total"} <= keys

    def test_load_accounting(self, manager):
        for i in range(3):
            manager.execute(request({"test": 1, "function": "malloc",
                                     "call": 0}, i))
        assert manager.executed == 3
        assert manager.busy_seconds > 0.0

    def test_cost_reported_per_test(self, manager):
        report = manager.execute(
            request({"test": 1, "function": "malloc", "call": 0})
        )
        assert report.cost > 0.0

    def test_name_required(self):
        with pytest.raises(ClusterError):
            NodeManager("", CoreutilsTarget())

    def test_describe_mentions_target(self, manager):
        assert "coreutils" in manager.describe()


class TestSensors:
    def test_crash_sensor_flags(self):
        manager = NodeManager("n", CoreutilsTarget())
        report = manager.execute(
            request({"test": 2, "function": "opendir", "call": 1})
        )
        assert report.result.measurements["crash.segfault"] == 0.0

    def test_exit_sensor(self):
        manager = NodeManager("n", CoreutilsTarget())
        report = manager.execute(
            request({"test": 2, "function": "opendir", "call": 1})
        )
        assert report.result.measurements["exit.failed"] == 1.0

    def test_coverage_and_step_sensors(self):
        manager = NodeManager("n", CoreutilsTarget())
        report = manager.execute(
            request({"test": 1, "function": "malloc", "call": 0})
        )
        assert report.result.measurements["coverage.blocks"] > 0
        assert report.result.measurements["steps.total"] > 0

    def test_default_sensor_set_is_complete(self):
        names = {type(s).__name__ for s in default_sensors()}
        assert "MeasurementPassthroughSensor" in names
        assert "InvariantSensor" in names
        assert len(default_sensors()) == 6

    def test_passthrough_forwards_app_measurements(self):
        sensor = MeasurementPassthroughSensor()
        from tests.test_core_components import make_result

        result = make_result(measurements={"latency": 2.5})
        assert sensor.measure(result) == {"app.latency": 2.5}


class TestLocalCluster:
    def test_round_robin_distribution(self):
        managers = [NodeManager(f"n{i}", CoreutilsTarget()) for i in range(3)]
        cluster = LocalCluster(managers)
        requests = [
            request({"test": 1, "function": "malloc", "call": 0}, i)
            for i in range(9)
        ]
        reports = cluster.run_batch(requests)
        assert len(reports) == 9
        assert [m.executed for m in managers] == [3, 3, 3]

    def test_reports_in_request_order(self):
        managers = [NodeManager(f"n{i}", CoreutilsTarget()) for i in range(2)]
        cluster = LocalCluster(managers)
        requests = [
            request({"test": 1 + i % 29, "function": "malloc", "call": 0}, i)
            for i in range(8)
        ]
        reports = cluster.run_batch(requests)
        assert [r.request_id for r in reports] == list(range(8))

    def test_empty_batch(self):
        cluster = LocalCluster([NodeManager("n", CoreutilsTarget())])
        assert cluster.run_batch([]) == []

    def test_needs_managers(self):
        with pytest.raises(ClusterError):
            LocalCluster([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ClusterError):
            LocalCluster([
                NodeManager("n", CoreutilsTarget()),
                NodeManager("n", CoreutilsTarget()),
            ])


class TestVirtualCluster:
    def test_virtual_time_accounting(self):
        managers = [NodeManager(f"n{i}", CoreutilsTarget()) for i in range(4)]
        cluster = VirtualCluster(managers)
        requests = [
            request({"test": 1, "function": "malloc", "call": 0}, i)
            for i in range(20)
        ]
        cluster.run_batch(requests)
        assert cluster.total_cost > 0
        assert cluster.makespan <= cluster.total_cost
        assert 1.0 <= cluster.speedup_over_serial() <= 4.0

    def test_scaling_improves_with_nodes(self):
        """§7.7's linear-scaling claim, in miniature: 60 equal requests
        take 60 costs on one node and ⌈60/8⌉ = 8 on eight."""
        def makespan(nodes: int) -> float:
            managers = [FixedCostManager(f"n{i}", CoreutilsTarget())
                        for i in range(nodes)]
            cluster = VirtualCluster(managers)
            cluster.run_batch([
                request({"test": 1 + i % 29, "function": "stat", "call": 1}, i)
                for i in range(60)
            ])
            return cluster.makespan

        assert makespan(1) == 60 * FixedCostManager.COST
        assert makespan(8) == 8 * FixedCostManager.COST

    def test_speedup_of_empty_cluster_is_one(self):
        cluster = VirtualCluster([NodeManager("n", CoreutilsTarget())])
        assert cluster.speedup_over_serial() == 1.0

    def test_heap_placement_matches_min_scan_reference(self):
        """Regression for the heap-based scheduler: placements — and so
        node_clocks, makespan, and speedup — must be identical to the
        original O(n) min() scan, including its tie-break on the lowest
        node index."""
        nodes = 5
        managers = [NodeManager(f"n{i}", CoreutilsTarget())
                    for i in range(nodes)]
        cluster = VirtualCluster(managers)
        reports = cluster.run_batch([
            request({"test": 1 + i % 29, "function": "stat", "call": 1}, i)
            for i in range(40)
        ])

        # Replay the observed cost sequence through the pre-heap
        # scheduler, verbatim.
        reference = [0.0] * nodes
        for report in reports:
            node = reference.index(min(reference))
            reference[node] += report.cost
        assert cluster.node_clocks == reference
        assert cluster.makespan == max(reference)
        assert cluster.speedup_over_serial() == pytest.approx(
            sum(reference) / max(reference))


class TestClusterExplorer:
    def test_end_to_end_exploration(self):
        target = CoreutilsTarget()
        managers = [NodeManager(f"n{i}", CoreutilsTarget()) for i in range(3)]
        explorer = ClusterExplorer(
            LocalCluster(managers),
            coreutils_space(target),
            standard_impact(),
            FitnessGuidedSearch(initial_batch=10),
            IterationBudget(60),
            rng=1,
        )
        results = explorer.run()
        assert len(results) >= 60
        assert results.failed_count() > 0

    def test_deterministic_given_seed_and_batching(self):
        def run(seed):
            target = CoreutilsTarget()
            managers = [NodeManager(f"n{i}", CoreutilsTarget())
                        for i in range(2)]
            explorer = ClusterExplorer(
                LocalCluster(managers), coreutils_space(target),
                standard_impact(), RandomSearch(), IterationBudget(30),
                rng=seed, batch_size=4,
            )
            return [t.fault for t in explorer.run()]

        assert run(7) == run(7)

    def test_cannot_run_twice(self):
        # Strategy and metric carry per-run state: a second run() must
        # refuse, not re-bind the strategy and append to the old history.
        target = CoreutilsTarget()
        explorer = ClusterExplorer(
            LocalCluster([NodeManager("n", target)]), coreutils_space(target),
            standard_impact(), RandomSearch(), IterationBudget(5), rng=1,
        )
        assert len(explorer.run()) == 5
        with pytest.raises(SearchError):
            explorer.run()
        assert len(explorer.executed) == 5

    def test_batch_size_defaults_to_cluster_width(self):
        target = CoreutilsTarget()
        managers = [NodeManager(f"n{i}", CoreutilsTarget()) for i in range(5)]
        explorer = ClusterExplorer(
            LocalCluster(managers), coreutils_space(target),
            standard_impact(), RandomSearch(), IterationBudget(10), rng=1,
        )
        assert explorer.batch_size == 5

    def test_invalid_batch_size(self):
        target = CoreutilsTarget()
        with pytest.raises(ClusterError):
            ClusterExplorer(
                LocalCluster([NodeManager("n", CoreutilsTarget())]),
                coreutils_space(target), standard_impact(), RandomSearch(),
                IterationBudget(5), batch_size=0,
            )


class TestScriptTarget:
    def test_script_triple_runs_in_order(self):
        order = []

        def startup(env):
            order.append("startup")
            env.fs.create_file("/input", b"data")

        def test_script(env):
            order.append("test")
            fd = env.libc.open("/input")
            env.check(fd >= 0, "open failed")
            env.libc.close(fd)

        def cleanup(env):
            order.append("cleanup")

        target = ScriptTarget(
            [UserScripts(test_script, startup, cleanup, name="wl1")],
            functions=("open", "close"),
        )
        from repro.sim.process import run_test

        result = run_test(target, target.suite[1])
        assert not result.failed
        assert order == ["startup", "test", "cleanup"]

    def test_cleanup_runs_even_on_failure(self):
        ran = []

        def failing(env):
            env.check(False, "nope")

        target = ScriptTarget(
            [UserScripts(failing, cleanup=lambda env: ran.append(1))],
        )
        from repro.sim.process import run_test

        result = run_test(target, target.suite[1])
        assert result.failed and ran == [1]

    def test_injectable_like_any_target(self):
        def workload(env):
            fd = env.libc.open("/f", 0x40 | 0x1)  # O_CREAT|O_WRONLY
            if fd < 0:
                env.exit(1)
            env.libc.close(fd)

        target = ScriptTarget([UserScripts(workload, name="w")],
                              functions=("open", "close"))
        from repro.injection.models import model_injector
        from repro.sim.process import run_test

        plan = model_injector("errno").plan_for({"function": "open", "call": 1})
        assert run_test(target, target.suite[1], plan).failed

    def test_needs_workloads(self):
        with pytest.raises(TargetError):
            ScriptTarget([])
