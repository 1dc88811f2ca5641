"""Chaos tests for the fault-tolerant fabric layer.

The headline property: an exploration whose fabric kills, corrupts, or
drops a sizeable fraction of dispatches must find exactly the same
faults as a fault-free run — byte-identical result history — with every
retry accounted for in the FabricHealth record.  The process pool runs
on the same retry loop; its workers are killed (and, past a deadline,
hung) for real, and so is the parent whose workers must not outlive it.
"""

from __future__ import annotations

import functools
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster import (
    ChaosCluster,
    ClusterExplorer,
    FabricHealth,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    ProcessPoolCluster,
    RetryPolicy,
)
from repro.cluster import TestReport as ClusterTestReport
from repro.cluster import TestRequest as ClusterTestRequest
from repro.cluster.chaos import ChaosError
from repro.core import FaultSpace, FitnessGuidedSearch, IterationBudget, standard_impact
from repro.core.checkpoint import history_digest
from repro.errors import ClusterError
from repro.service.engine import CampaignEngine
from repro.sim.targets import target_by_name
from repro.sim.targets.coreutils import CoreutilsTarget


def coreutils_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=target.libc_functions(), call=[0, 1, 2],
    )


def make_cluster(nodes: int = 3) -> LocalCluster:
    return LocalCluster([
        NodeManager(f"n{i}", CoreutilsTarget()) for i in range(nodes)
    ])


def explore(fabric, iterations: int = 60, seed: int = 7, **options):
    target = CoreutilsTarget()
    return ClusterExplorer(
        fabric,
        coreutils_space(target),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(iterations),
        rng=seed,
        batch_size=3,
        **options,
    ).run()


def request(request_id: int) -> ClusterTestRequest:
    return ClusterTestRequest(
        request_id=request_id, subspace="",
        scenario={"test": 1 + request_id % 28, "function": "malloc", "call": 1},
    )


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3, jitter=0.0)
        delays = [policy.delay_for(n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_adds_bounded_noise(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        rng = random.Random(1)
        for _ in range(50):
            delay = policy.delay_for(1, rng)
            assert 0.1 <= delay <= 0.1 * 1.5

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": -0.1},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ClusterError):
            RetryPolicy(**kwargs)


class TestFabricHealth:
    def test_every_retry_is_attributed(self):
        health = FabricHealth()
        health.record_retry("timeout", 2)
        health.record_retry("error")
        health.record_retry("missing", 3)
        health.record_retry("corrupt")
        assert health.retries == 7
        assert health.accounted()

    def test_unknown_cause_rejected(self):
        with pytest.raises(ClusterError):
            FabricHealth().record_retry("gremlins")


class TestChaosAcceptance:
    """The ISSUE's acceptance test: 20% chaos, same faults found."""

    RATES = {"kill_rate": 0.10, "corrupt_rate": 0.05, "drop_rate": 0.05}

    def test_chaotic_run_matches_fault_free_run(self):
        baseline = explore(make_cluster())
        chaos = ChaosCluster(make_cluster(), rng=13, **self.RATES)
        fabric = FaultTolerantFabric(
            chaos,
            policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        chaotic = explore(fabric)

        assert chaos.sabotages > 0, "chaos never fired; rates too low"
        # Same high-impact faults: byte-identical history, not just
        # overlapping top-N.
        assert history_digest(list(chaotic)) == history_digest(list(baseline))
        # ... and the health record accounts for every retry.
        health = fabric.health
        assert health.accounted()
        assert health.retries > 0
        assert health.completed == len(chaotic)

    @pytest.mark.parametrize("seed", range(5))
    def test_property_style_random_chaos_always_converges(self, seed):
        """Any sabotage mix under the sum-rate cap converges, because
        each request is sabotaged at most once and the policy allows
        max_attempts - 1 = 2 retries."""
        rng = random.Random(seed)
        rates = [rng.uniform(0, 0.12) for _ in range(3)]
        chaos = ChaosCluster(
            make_cluster(), kill_rate=rates[0], corrupt_rate=rates[1],
            drop_rate=rates[2], rng=seed,
        )
        fabric = FaultTolerantFabric(
            chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        results = explore(fabric, iterations=24, seed=seed)
        assert len(results) >= 24
        assert fabric.health.accounted()
        assert fabric.health.retries >= chaos.sabotages


class TestFaultTolerantFabricUnit:
    def test_reports_stay_in_request_order_under_chaos(self):
        chaos = ChaosCluster(make_cluster(), kill_rate=0.3, rng=5)
        fabric = FaultTolerantFabric(
            chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        requests = [request(i) for i in range(9)]
        reports = fabric.run_batch(requests)
        assert [r.request_id for r in reports] == list(range(9))
        assert all(isinstance(r, ClusterTestReport) for r in reports)

    def test_backoff_schedule_is_observable(self):
        naps: list[float] = []

        class AlwaysDies:
            def __len__(self):
                return 1

            def run_batch(self, batch):
                raise RuntimeError("boom")

        fabric = FaultTolerantFabric(
            AlwaysDies(),
            policy=RetryPolicy(max_attempts=3, base_delay=0.05,
                               multiplier=2.0, max_delay=10.0, jitter=0.0),
            sleep=naps.append,
        )
        with pytest.raises(ClusterError, match="still failing after 3"):
            fabric.run_batch([request(0)])
        assert naps == [0.05, 0.1]  # no sleep after the final attempt
        assert fabric.health.worker_deaths == 3
        assert fabric.health.retried_after_error == 2
        assert fabric.health.accounted()

    def test_corrupt_reports_are_discarded_and_retried(self):
        chaos = ChaosCluster(make_cluster(1), corrupt_rate=1.0, rng=0)
        fabric = FaultTolerantFabric(
            chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        reports = fabric.run_batch([request(0)])
        assert reports[0].request_id == 0
        assert isinstance(reports[0], ClusterTestReport)
        assert fabric.health.corrupt_reports == 1
        assert fabric.health.retried_corrupt == 1
        assert fabric.health.accounted()

    def test_gives_up_with_health_in_the_error(self):
        chaos = ChaosCluster(make_cluster(), kill_rate=1.0, rng=0)
        # Each request is only killed once, so the run *would* converge;
        # a 1-attempt policy must still fail fast.
        fabric = FaultTolerantFabric(chaos, policy=RetryPolicy(max_attempts=1))
        with pytest.raises(ClusterError, match="fabric health"):
            fabric.run_batch([request(0)])

    def test_empty_batch_is_a_noop(self):
        fabric = FaultTolerantFabric(make_cluster(1))
        assert fabric.run_batch([]) == []
        assert fabric.health.dispatches == 0


class TestChaosCluster:
    def test_sabotage_fires_at_most_once_per_request(self):
        chaos = ChaosCluster(make_cluster(1), kill_rate=1.0, rng=0)
        with pytest.raises(ChaosError):
            chaos.run_batch([request(0)])
        # Second dispatch of the same request goes through untouched.
        reports = chaos.run_batch([request(0)])
        assert len(reports) == 1 and reports[0].request_id == 0
        assert chaos.kills == 1

    def test_rates_validated(self):
        with pytest.raises(ClusterError):
            ChaosCluster(make_cluster(1), kill_rate=1.5)
        with pytest.raises(ClusterError):
            ChaosCluster(make_cluster(1), kill_rate=0.6, corrupt_rate=0.6)

    def test_drop_loses_exactly_the_victim(self):
        chaos = ChaosCluster(make_cluster(1), drop_rate=1.0, rng=0)
        reports = chaos.run_batch([request(0), request(1)])
        # Both were first-time dispatches, both dropped.
        assert reports == [] and chaos.drops == 2
        reports = chaos.run_batch([request(0), request(1)])
        assert [r.request_id for r in reports] == [0, 1]


class _StallOnce(CoreutilsTarget):
    """Coreutils whose test 1 stalls the first time any worker process
    runs it; ``marker`` is the file that remembers it already has."""

    def __init__(self, marker: str) -> None:
        super().__init__()
        self.marker = marker

    def setup(self, env, test) -> None:
        super().setup(env, test)
        if test.id == 1 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(30.0)  # far past the deadline; the pool kills it


def kill_workers(pool: ProcessPoolCluster) -> None:
    """SIGKILL every live worker process of ``pool``."""
    for pid in pool.worker_pids:
        os.kill(pid, signal.SIGKILL)


def pid_alive(pid: int) -> bool:
    """True while ``pid`` names a process that has not exited (a zombie
    has exited: only its parent's reaping is left)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestProcessPoolRecovery:
    """The pool's workers die and hang for real; its retry loop (the
    shared one) re-runs the lost round on fresh processes."""

    NO_BACKOFF = RetryPolicy(base_delay=0.0, jitter=0.0)

    def make_pool(self, factory=None, **kwargs) -> ProcessPoolCluster:
        return ProcessPoolCluster(
            factory or CoreutilsTarget, workers=2,
            retry_policy=self.NO_BACKOFF, **kwargs,
        )

    def test_killed_workers_are_replaced_and_the_round_rerun(self):
        requests = [request(i) for i in range(8)]
        with self.make_pool() as pool:
            first = pool.run_batch(requests)
            kill_workers(pool)
            second = pool.run_batch(requests)
            health = pool.health
        assert [r.request_id for r in second] == list(range(8))
        for got, want in zip(second, first, strict=True):
            assert got.result == want.result
        assert health.worker_deaths == 1
        assert health.worker_replacements == 1
        assert health.retried_after_error == 8
        assert health.accounted()

    def test_campaign_digest_survives_a_kill_between_rounds(self):
        with self.make_pool() as pool:
            baseline = explore(pool, iterations=30)
        with self.make_pool() as pool:
            seen = []

            def kill_after_twelve(executed) -> None:
                seen.append(executed)
                if len(seen) == 12:
                    kill_workers(pool)

            killed = explore(pool, iterations=30, on_test=kill_after_twelve)
            assert pool.health.worker_deaths == 1
        assert history_digest(list(killed)) == history_digest(list(baseline))

    def test_a_hung_worker_is_killed_at_the_deadline(self, tmp_path):
        marker = tmp_path / "stalled"
        requests = [request(i) for i in range(6)]
        factory = functools.partial(_StallOnce, str(marker))
        with self.make_pool(factory, dispatch_deadline=0.5) as pool:
            started = time.monotonic()
            reports = pool.run_batch(requests)
            elapsed = time.monotonic() - started
            health = pool.health
        assert marker.exists()
        assert elapsed < 15.0
        assert [r.request_id for r in reports] == list(range(6))
        assert health.timeouts == 1
        assert health.retried_after_timeout == len(requests)
        assert health.worker_replacements >= 1
        assert health.accounted()

    def test_close_is_prompt_leaves_no_worker_and_is_idempotent(self):
        pool = self.make_pool()
        pool.run_batch([request(i) for i in range(4)])
        pids = pool.worker_pids
        assert len(pids) == 2
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 1.0
        assert not any(pid_alive(pid) for pid in pids)
        assert pool.worker_pids == []
        pool.close()

    def test_an_exception_inside_a_worker_is_retried_without_replacement(self):
        unknown = ClusterTestRequest(
            request_id=0, subspace="",
            scenario={"test": 9999, "function": "malloc", "call": 1},
        )
        with self.make_pool() as pool:
            with pytest.raises(ClusterError, match="after 3 attempts"):
                pool.run_batch([unknown, request(1), request(2)])
            health = pool.health
            assert health.retried_after_error == 2 * 3
            assert health.worker_replacements == 0
            reports = pool.run_batch([request(i) for i in range(5)])
        assert [r.request_id for r in reports] == list(range(5))

    def test_spawned_workers_answer_like_forked_ones(self):
        requests = [request(i) for i in range(6)]
        with self.make_pool() as pool:
            forked = pool.run_batch(requests)
        with self.make_pool(mp_context="spawn") as pool:
            spawned = pool.run_batch(requests)
        assert [r.request_id for r in spawned] == list(range(6))
        for got, want in zip(spawned, forked, strict=True):
            assert got.result == want.result

    def test_workers_of_the_wrong_identity_are_refused(self):
        factory = functools.partial(target_by_name, "docstore-0.8")
        with self.make_pool(factory, identity="docstore/2.0/model:errno") as pool:
            with pytest.raises(ClusterError, match="identity mismatch") as err:
                pool.run_batch([request(0)])
            assert "docstore/2.0/model:errno" in str(err.value)
            assert "docstore/0.8/model:errno" in str(err.value)
            assert pool.health.dispatches == 0
            assert pool.worker_pids == []
        target = target_by_name("docstore-2.0")
        engine = CampaignEngine(target, fabric="processes", workers=2,
                                target_factory=factory)
        with engine, pytest.raises(ClusterError, match="identity mismatch"):
            engine.explore(coreutils_space(target), FitnessGuidedSearch(),
                           iterations=4, batch_size=2)

    def test_no_identity_accepts_any_worker(self):
        factory = functools.partial(target_by_name, "docstore-0.8")
        with self.make_pool(factory) as pool:
            assert pool.identity is None
            reports = pool.run_batch([request(0), request(1)])
        assert [r.request_id for r in reports] == [0, 1]


_ORPHAN_SCRIPT = """
import sys
from repro.cluster import ProcessPoolCluster, TestRequest
from repro.sim.targets.coreutils import CoreutilsTarget
pool = ProcessPoolCluster(CoreutilsTarget, workers=2)
pool.run_batch([
    TestRequest(request_id=i, subspace="",
                scenario={"test": 1 + i, "function": "malloc", "call": 1})
    for i in range(4)
])
print(*pool.worker_pids, flush=True)
sys.stdin.read()
"""


def test_a_killed_parent_takes_its_pool_workers_with_it():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    pids: list[int] = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5.0
        while any(map(pid_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(pid_alive, pids))
    finally:
        parent.kill()
        parent.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
