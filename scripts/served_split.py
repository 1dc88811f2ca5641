"""Where a served test's time goes, in process and by count.

Drives one in-process :class:`~repro.service.server.CampaignService`
(two workers) with the traffic ``bench/`` fixes for ``served-replkv``:
per wave, tenant ``a`` submits campaign *k+1* (all new) while tenant
``b`` resubmits campaign *k* (already executed and stored), 100
``errno+disk`` ``replkv`` tests each.  The functions a served test
passes through are wrapped and reported per executed test:

* time is ``time.thread_time()`` — the calling thread's own CPU, so the
  other job thread holding the GIL does not inflate it;
* counts are calls of ``result_to_payload``, ``json.dumps`` and
  ``history_digest``.

It measures the checkout it sits in and only uses names that exist on
both sides of PR 22, so a copy dropped into ``scripts/`` of a checkout
of the parent measures the parent:

    python3 scripts/served_split.py [--waves 24] [--seed 31]

It is an indication (wrappers, one process, no HTTP); the claim is
``python3 bench/run.py --workload served-replkv`` and nothing else.

``--serve`` measures the real thing instead: it starts an ``afex serve``
subprocess of this checkout and drives the same waves over HTTP, each
tenant on its own thread with one shared ``ServiceClient`` polling its
job every 5 ms (the benchmark's client loop), and prints the server's
CPU per wave split by thread from ``/proc/<pid>/task`` — the event loop
(the main thread, which answers every HTTP request) against the job
threads — with the requests per wave:

    python3 scripts/served_split.py --serve [--waves 40] [--seed 31]
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import cache, checkpoint, results  # noqa: E402
from repro.core.runner import TargetRunner  # noqa: E402
from repro.service import documents, engine, server, store  # noqa: E402
from repro.service.server import CampaignService, TenantConfig  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402

SPENT: collections.Counter = collections.Counter()
CALLS: collections.Counter = collections.Counter()


def timed(name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = time.thread_time()
        try:
            return function(*args, **kwargs)
        finally:
            SPENT[name] += time.thread_time() - started
            CALLS[name] += 1
    return wrapper


def counted(name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        CALLS[name] += 1
        return function(*args, **kwargs)
    return wrapper


def everywhere(name: str, wrapped) -> None:
    """Rebind ``name`` in every module that imported it by value."""
    for module in (cache, checkpoint, results, store, engine, documents,
                   server):
        if hasattr(module, name):
            setattr(module, name, wrapped)


def instrument() -> None:
    TargetRunner.__call__ = timed("run_test", TargetRunner.__call__)
    checkpoint.CheckpointWriter.maybe_write = timed(
        "maybe_write", checkpoint.CheckpointWriter.maybe_write)
    CampaignService._run_job = timed("whole job", CampaignService._run_job)
    CampaignService._archive = timed("_archive", CampaignService._archive)
    ResultStore.record_campaign = timed(
        "  record_campaign", ResultStore.record_campaign)
    everywhere("campaign_document",
               timed("  campaign_document", documents.campaign_document))
    everywhere("history_digest",
               timed("history_digest", checkpoint.history_digest))
    everywhere("result_to_payload",
               counted("result_to_payload", cache.result_to_payload))
    json.dumps = counted("json.dumps", json.dumps)


async def drive(service: CampaignService, waves: int, seed: int) -> int:
    async def finished(jobs) -> None:
        for job in jobs:
            while service.store.job(job.id).state in ("queued", "running"):
                await service.settled(job.id, 5.0)
            done = service.store.job(job.id)
            if done.state != "done":
                raise SystemExit(f"job {job.id} ended {done.state}: {done.error}")

    scheduler = asyncio.ensure_future(service.run())
    await finished([service.submit("a", served_spec(seed, 0))])  # the bench's prime
    SPENT.clear()
    CALLS.clear()
    for wave in range(waves):
        await finished([service.submit("a", served_spec(seed, wave + 1)),
                        service.submit("b", served_spec(seed, wave))])
    scheduler.cancel()
    await asyncio.gather(scheduler, return_exceptions=True)
    return waves * 200


def served_spec(seed: int, index: int) -> dict:
    return {"target": "replkv", "fault_model": "errno+disk", "max_call": 2,
            "iterations": 100, "seed": seed * 100_000 + index}


def thread_cpu_s(pid: int) -> dict[int, float]:
    """user + system CPU seconds of every thread of ``pid``."""
    ticks = os.sysconf("SC_CLK_TCK")
    spent = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue  # the thread ended between listdir and open
        spent[int(tid)] = (int(fields[11]) + int(fields[12])) / ticks
    return spent


def serve_split(waves: int, seed: int) -> int:
    """Drive a real ``afex serve`` and split its CPU per wave by thread."""
    from repro.service.server import ServiceClient

    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                   PYTHONHASHSEED="0")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--store", f"{tmp}/store.db",
             "--data-dir", f"{tmp}/data", "--workers", "2",
             "--tenant", "a:0:1", "--tenant", "b:0:1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            for line in server.stdout:
                match = re.search(r"listening on ([\d.]+:\d+)", line)
                if match:
                    break
            else:
                raise SystemExit("afex serve exited before listening")
            client = ServiceClient(match.group(1))
            request = client._request

            def counted_request(*args, **kwargs):
                CALLS["requests"] += 1
                return request(*args, **kwargs)

            client._request = counted_request

            def job(tenant: str, index: int) -> None:
                job_id = client.submit(tenant, served_spec(seed, index))["id"]
                while client.job(job_id)["state"] not in ("done", "failed"):
                    time.sleep(0.005)

            def wave(index: int) -> None:
                threads = [
                    threading.Thread(target=job, args=("a", index + 1)),
                    threading.Thread(target=job, args=("b", index)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            job("a", 0)  # the bench's prime
            wave(0)  # and a warm-up wave
            CALLS.clear()
            before = thread_cpu_s(server.pid)
            started = time.perf_counter()
            for index in range(1, waves + 1):
                wave(index)
            wall = time.perf_counter() - started
            after = thread_cpu_s(server.pid)
            stats = client.stats()
            client.shutdown()
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    spent = {tid: after[tid] - before.get(tid, 0.0) for tid in after}
    loop = spent.pop(server.pid, 0.0)
    jobs = sum(spent.values())
    print(f"afex serve, {waves} waves of 2 x 100 replkv tests, seed {seed}: "
          f"{waves * 200 / wall:.0f} tests/s, "
          f"{stats['store']['done']} jobs done")
    print(f"  event loop   {loop / waves * 1e3:7.1f} ms/wave")
    print(f"  job threads  {jobs / waves * 1e3:7.1f} ms/wave "
          f"({len(spent)} threads)")
    print(f"  server total {(loop + jobs) / waves * 1e3:7.1f} ms/wave")
    print(f"  requests     {CALLS['requests'] / waves:7.1f} per wave")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--waves", type=int, default=24)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--serve", action="store_true",
                        help="drive a real afex serve subprocess over HTTP "
                             "and split its CPU per wave by thread")
    args = parser.parse_args()
    if args.serve:
        return serve_split(args.waves, args.seed)
    instrument()
    with tempfile.TemporaryDirectory() as tmp:
        service = CampaignService(
            ResultStore(Path(tmp) / "afex.db"),
            tenants=[TenantConfig("a"), TenantConfig("b")], workers=2,
        )
        try:
            tests = asyncio.run(drive(service, args.waves, args.seed))
        finally:
            service.shutdown()
            service.store.close()
    print(f"{args.waves} waves, {tests} tests, seed {args.seed}")
    for name, seconds in sorted(SPENT.items(), key=lambda item: -item[1]):
        print(f"  {name:22s} {seconds / tests * 1e6:8.1f} us/test "
              f"{CALLS[name]:7d} calls")
    for name in ("result_to_payload", "json.dumps"):
        print(f"  {name:22s} {CALLS[name] / tests:8.2f} calls/test "
              f"({CALLS[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
