"""The four paths a user can take to run a campaign, driven from outside.

Each path opens the way a user would open it (``CampaignSpec.build_engine``
for the in-process, process-pool and socket paths -- the construction
``afex run`` uses -- and a real ``afex serve`` subprocess with HTTP clients
for the served path), runs whole campaigns, and closes leaving no child
process and no open port behind, whatever happened in between.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from bench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_LISTENING = re.compile(r"campaign service listening on ([\d.]+:\d+)")
#: a served job still running after this long is a failed operation, not a
#: reason to sit out the driver's 180 s.
JOB_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    """Environment of every child: hash seed and import path are explicit,
    so a child behaves the same whoever started the benchmark."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Children:
    """The subprocesses a run started; ``reap`` ends every one of them."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(self, args: list[str], **popen_kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            env=child_env(), cwd=ROOT, **popen_kwargs,
        )
        self._procs.append(proc)
        return proc

    def reap(self, grace: float = 5.0) -> None:
        """Wait for children that are exiting on their own, then terminate
        and finally kill whatever is left; returns with all of them waited."""
        deadline = time.monotonic() + grace
        for proc in self._procs:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self._procs.clear()


@dataclass(frozen=True)
class CampaignOutcome:
    """What the benchmark keeps of one finished campaign."""

    seed: int
    tests: int
    failed: int
    digest: str
    #: ``ResultSet.unique_failures()``; None where only the served job
    #: document is at hand.
    unique_failures: "int | None"
    #: whether the campaign itself reported success.
    ok: bool = True

    @classmethod
    def lost(cls, seed: int) -> "CampaignOutcome":
        """A campaign that raised or ended ``failed``: a failed operation."""
        return cls(seed, 0, 0, "", None, ok=False)


def make_spec(workload: wl.Workload, seed: int, *, fabric: "str | None" = None,
              workers: int = wl.WORKERS, iterations: "int | None" = None):
    """The ``CampaignSpec`` of one of the workload's campaigns."""
    from repro.service.spec import CampaignSpec

    if fabric is None:
        fabric = "serial" if workload.path == "served" else workload.path
    return CampaignSpec(
        target=workload.target,
        strategy="fitness",
        iterations=iterations or workload.campaign_tests,
        seed=seed,
        fault_model=workload.fault_model,
        max_call=workload.max_call,
        fabric=fabric,
        workers=workers,
        nodes=workers,
        batch_size=workload.batch_size,
    )


class NodeFleet:
    """The socket path's ``afex node`` subprocesses, and their fabric's end."""

    def __init__(self, target: str, fault_model: str) -> None:
        self.target = target
        self.fault_model = fault_model
        self.children = Children()
        self._listening: "tuple[str, int] | None" = None

    def launch(self, net) -> None:
        """Start the nodes against a ``SocketFabric`` that just bound."""
        self._listening = (net.host, net.port)
        for i in range(wl.WORKERS):
            self.children.spawn(
                ["node", "--connect", f"{net.host}:{net.port}",
                 "--target", self.target,
                 "--fault-model", self.fault_model,
                 "--name", f"bench{i}",
                 "--capacity", str(wl.NODE_CAPACITY),
                 "--wire-version", str(wl.WIRE_VERSION)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )

    def close(self, owner) -> None:
        """``owner.close()`` (an engine or the fabric itself), then reap.

        ``SocketFabric.close`` joins its accept thread with a 2 s timeout,
        and on Linux closing a listening socket does not wake a thread
        blocked in ``accept`` on it, so every close waits the timeout out.
        One throw-away connection makes ``accept`` return and the thread
        see the closed socket.  Teardown is never timed; this only keeps
        the set-up cycles from costing ten seconds of each run's budget.
        """
        try:
            if self._listening is None:
                owner.close()
                return
            closer = threading.Thread(target=owner.close)
            closer.start()
            while closer.is_alive():
                try:
                    socket.create_connection(self._listening, timeout=0.2).close()
                except OSError:
                    pass  # the port is gone: the accept thread has returned
                closer.join(timeout=0.05)
            self._listening = None
        finally:
            self.children.reap()


class EnginePath:
    """serial / processes / socket: one warm ``CampaignEngine``."""

    def __init__(self, workload: wl.Workload, fabric: "str | None" = None,
                 workers: int = wl.WORKERS) -> None:
        self.workload = workload
        self.spec = make_spec(workload, 0, fabric=fabric, workers=workers)
        self.fleet = NodeFleet(self.spec.target, self.spec.fault_model)
        self.engine = None
        self.space = None

    def open(self) -> None:
        """Target suite build and fabric bring-up (the engine is lazy, so
        the fabric itself comes up inside the first campaign)."""
        kwargs = {}
        if self.spec.fabric == "socket":
            kwargs["on_fabric"] = self.fleet.launch
        self.engine = self.spec.build_engine(**kwargs)
        self.engine.target.suite
        self.space = self.spec.build_space(self.engine.target)

    def explore(self, seed: int, tests: "int | None" = None):
        """One campaign on the warm fabric; returns the ``EngineRun``."""
        return self.engine.explore(
            self.space,
            self.spec.build_strategy(),
            iterations=tests or self.workload.campaign_tests,
            seed=seed,
            batch_size=self.spec.batch_size,
        )

    def warm_up(self) -> None:
        self.explore(wl.WARMUP_SEED, tests=wl.WARMUP_TESTS)

    def prime(self, seed: int) -> None:
        """Nothing to pre-load on an engine path."""

    def segment(self, seeds: list[int]) -> list:
        """The timed part: the segment's campaigns, one after the other."""
        return [(seed, self.explore(seed)) for seed in seeds]

    def outcomes(self, raw: list) -> list[CampaignOutcome]:
        """The untimed part: reduce each campaign to what is compared."""
        return [
            CampaignOutcome(
                seed=seed,
                tests=len(run.results),
                failed=run.results.failed_count(),
                digest=run.digest,
                unique_failures=run.results.unique_failures(),
            )
            for seed, run in raw
        ]

    def close(self) -> None:
        engine, self.engine = self.engine, None
        if engine is not None:
            self.fleet.close(engine)


class ServedPath:
    """served: an ``afex serve`` subprocess and one HTTP client per tenant."""

    def __init__(self, workload: wl.Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.children = Children()
        self.client = None
        #: client-side timings of the last segments, for the traced ledger.
        self.submit_s: list[float] = []
        self.poll_s: list[float] = []
        self.latency_s: list[float] = []
        self.jobs: list[dict] = []

    def open(self) -> None:
        from repro.service.server import ServiceClient

        self.workdir.mkdir(parents=True, exist_ok=True)
        args = ["serve", "--listen", "127.0.0.1:0",
                "--store", str(self.workdir / "store.db"),
                "--data-dir", str(self.workdir / "data"),
                "--workers", str(wl.WORKERS)]
        for tenant in wl.TENANTS:
            args += ["--tenant", f"{tenant}:0:1"]
        server = self.children.spawn(
            args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        seen = []
        while True:
            line = server.stdout.readline()
            if not line:
                raise RuntimeError(
                    "afex serve exited before listening:\n" + "".join(seen)
                )
            seen.append(line)
            match = _LISTENING.search(line)
            if match:
                break
        self.client = ServiceClient(match.group(1))

    def _job(self, tenant: str, seed: int, tests: "int | None" = None) -> dict:
        """Submit one job and poll it to a terminal state (closed loop)."""
        spec = make_spec(self.workload, seed, iterations=tests)
        t0 = time.perf_counter()
        job_id = self.client.submit(tenant, spec)["id"]
        t1 = time.perf_counter()
        self.submit_s.append(t1 - t0)
        while True:
            p0 = time.perf_counter()
            job = self.client.job(job_id)
            p1 = time.perf_counter()
            self.poll_s.append(p1 - p0)
            if job["state"] in ("done", "failed"):
                break
            if p1 - t0 > JOB_TIMEOUT_S:
                raise TimeoutError(f"job {job_id} still {job['state']}")
            time.sleep(wl.POLL_S)
        self.latency_s.append(p1 - t0)
        self.jobs.append(job)
        return job

    def warm_up(self) -> None:
        self._job(wl.TENANTS[0], wl.WARMUP_SEED, tests=wl.WARMUP_TESTS)

    def prime(self, seed: int) -> None:
        """Store campaign 0 in full, so that tenant ``b``'s first job is as
        much a duplicate as all its later ones."""
        self._job(wl.TENANTS[0], seed)

    def segment(self, seeds: list[int]) -> list:
        """The timed part: one wave, each tenant's job on its own thread."""
        jobs: list = [None] * len(seeds)

        def client(i: int) -> None:
            try:
                jobs[i] = self._job(wl.TENANTS[i], seeds[i])
            except Exception as exc:  # a failed op, counted by the caller
                jobs[i] = exc

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(len(seeds))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return list(zip(seeds, jobs))

    def outcomes(self, raw: list) -> list[CampaignOutcome]:
        result = []
        for seed, job in raw:
            if isinstance(job, Exception) or job["state"] != "done":
                result.append(CampaignOutcome.lost(seed))
                continue
            summary = job["summary"]
            result.append(CampaignOutcome(
                seed=seed,
                tests=int(summary["tests"]),
                failed=int(summary["failed"]),
                digest=job["digest"],
                unique_failures=None,
            ))
        return result

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.shutdown()
        except Exception:
            pass  # the server is gone or deaf; reap() ends it either way
        finally:
            self.client = None
            self.children.reap()


def open_path(workload: wl.Workload, workdir: Path):
    """The workload's own path; ``workdir`` holds the served path's store."""
    if workload.path == "served":
        return ServedPath(workload, workdir)
    return EnginePath(workload)


class Reference:
    """What a campaign's digest has to be, by seed.

    The reference is an engine-built in-process run: a one-manager
    ``LocalCluster`` at the same batch size for the fabric paths, a fresh
    in-process engine for the serial and served paths.  Re-running every
    campaign on it would double a run's wall time, so on every
    ``REFERENCE_EVERY``-th segment the campaign is re-run, and on the others
    the first report of a seed sets the digest every later report of it has
    to repeat (the served path submits each spec twice).
    """

    def __init__(self, workload: wl.Workload) -> None:
        fabric = "threads" if workload.path in ("processes", "socket") else "serial"
        self._path = EnginePath(workload, fabric=fabric, workers=1)
        self._digests: dict[int, str] = {}
        self._path.open()

    def matches(self, segment: int, seed: int, digest: str) -> bool:
        if seed not in self._digests:
            rerun = segment % wl.REFERENCE_EVERY == 0
            self._digests[seed] = (
                self._path.explore(seed).digest if rerun else digest
            )
        return self._digests[seed] == digest

    def close(self) -> None:
        self._path.close()
