"""CampaignService + HTTP API: end-to-end multi-tenant behaviour."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.core.runner import ReportMemory
from repro.errors import ReportError
from repro.service.server import (
    CampaignService,
    ServiceClient,
    TenantConfig,
    serve,
)
from repro.service.store import ResultStore

COREUTILS_40_SEED1 = (
    "a8c28e4a4114ee7a9d59de52cbd76ed505c0a0d2ae549ba09fa3b241b6a6e8d3"
)


@pytest.fixture
def service(tmp_path):
    store = ResultStore(tmp_path / "afex.db")
    svc = CampaignService(
        store,
        tenants=[
            TenantConfig("alice", priority=10, max_concurrent=2),
            TenantConfig("bob", priority=1, max_concurrent=1),
        ],
        workers=2,
        checkpoint_every=10,
    )
    yield svc
    svc.shutdown()


@pytest.fixture
def live(service):
    """The service behind a real HTTP endpoint, in a thread."""
    listen: dict = {}
    ready = threading.Event()

    def on_listen(host, port):
        listen.update(host=host, port=port)
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(
            serve(service, "127.0.0.1", 0, on_listen=on_listen)
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    client = ServiceClient(f"{listen['host']}:{listen['port']}")
    yield client, service
    try:
        client.shutdown()
    except ReportError:
        pass
    client.close()
    thread.join(timeout=15)


class TestHttpApi:
    def test_ping(self, live):
        client, _ = live
        assert client.ping()["ok"] is True

    def test_submit_runs_to_digest_parity(self, live):
        client, _ = live
        job = client.submit(
            "alice", {"target": "coreutils", "iterations": 40, "seed": 1}
        )
        assert job["state"] == "queued"
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done"
        # The service gate: a served campaign is the same campaign as a
        # direct `afex run` with the same spec.
        assert done["digest"] == COREUTILS_40_SEED1
        document = done["document"]
        assert document["version"] == 1
        assert document["digest"] == COREUTILS_40_SEED1
        assert document["campaign"]["tenant"] == "alice"
        assert document["dedup"]["total"] == 40
        assert document["first_result_s"] > 0
        # Named from the target's suite: a record carries no test name.
        assert all(entry["test_name"] for entry in document["top"])

    def test_two_tenants_concurrently(self, live):
        client, _ = live
        a = client.submit(
            "alice", {"target": "coreutils", "iterations": 40, "seed": 1}
        )
        b = client.submit(
            "bob",
            {"target": "minidb", "iterations": 60, "seed": 1,
             "fabric": "threads", "workers": 2, "batch_size": 4},
        )
        done_a = client.wait(a["id"], timeout=120)
        done_b = client.wait(b["id"], timeout=120)
        assert done_a["state"] == done_b["state"] == "done"
        assert done_a["digest"] != done_b["digest"]
        jobs = client.jobs()
        assert {j["tenant"] for j in jobs} == {"alice", "bob"}

    def test_jobs_table_prints_each_verdict(self, live, capsys):
        """The certification view: `afex jobs` lists every job with its
        verdict, tests and digest."""
        from repro.cli import main

        client, _ = live
        for target in ("coreutils", "docstore-0.8"):
            job = client.submit(
                "alice", {"target": target, "iterations": 40, "seed": 1})
            assert client.wait(job["id"], timeout=120)["state"] == "done"
        assert main(["jobs", "--endpoint", client.endpoint]) == 0
        table = capsys.readouterr().out
        assert "verdict" in table
        rows = [line for line in table.splitlines() if "job-" in line]
        assert len(rows) == 2
        # coreutils fails under injection but never crashes.
        assert any("FAILURES" in row and COREUTILS_40_SEED1[:12] in row
                   for row in rows)

    def test_results_and_stats_endpoints(self, live):
        client, _ = live
        job = client.submit(
            "alice", {"target": "coreutils", "iterations": 30, "seed": 2}
        )
        client.wait(job["id"], timeout=120)
        rows = client.results(campaign=job["id"], limit=1000)
        assert len(rows) == 30
        assert [row["seq"] for row in rows] == list(range(30))
        failed = client.results(campaign=job["id"], failed="1", limit=1000)
        assert all(row["failed"] for row in failed)
        stats = client.stats()
        assert stats["store"]["done"] == 1
        assert stats["queue"]["tenants"]["alice"]["priority"] == 10

    def test_warm_engine_reuse_across_submissions(self, live):
        client, service = live
        spec = {"target": "coreutils", "iterations": 30, "seed": 3}
        first = client.wait(
            client.submit("alice", spec)["id"], timeout=120
        )
        second = client.wait(
            client.submit("alice", spec)["id"], timeout=120
        )
        assert first["digest"] == second["digest"]
        assert service.engines_reused >= 1
        # Identical campaigns dedup to zero new stored rows.
        assert second["document"]["dedup"]["new"] == 0

    def test_bad_submissions_are_400(self, live):
        client, _ = live
        with pytest.raises(ReportError, match="400"):
            client.submit("alice", {"target": "nope"})
        with pytest.raises(ReportError, match="400"):
            client.submit("alice", {"iterations": 10})
        with pytest.raises(ReportError, match="400"):
            client.submit("", {"target": "coreutils"})
        with pytest.raises(ReportError, match="400"):
            client.submit(
                "alice", {"target": "coreutils", "bogus_knob": 1}
            )

    def test_unknown_routes_are_404(self, live):
        client, _ = live
        with pytest.raises(ReportError, match="404"):
            client.job("no-such-job")
        with pytest.raises(ReportError, match="404"):
            client._request("GET", "/v2/other")

    def test_metrics_exposition(self, live):
        client, _ = live
        job = client.submit(
            "alice", {"target": "coreutils", "iterations": 10, "seed": 0}
        )
        client.wait(job["id"], timeout=120)
        text = urllib.request.urlopen(
            f"{client.endpoint}/v1/metrics", timeout=10
        ).read().decode()
        assert "service_jobs_submitted" in text.replace(".", "_")
        assert "service_store_campaigns" in text.replace(".", "_")

    def test_failed_job_reports_error(self, live):
        client, service = live
        # Corrupt a queued job's stored spec to force a worker failure.
        job = service.store.create_job(
            "job-bad", "alice", {"target": "coreutils", "bogus": True}
        )
        service.queue.push(job.id, "alice")
        service._wake.set()
        done = client.wait("job-bad", timeout=60)
        assert done["state"] == "failed"
        assert "bad spec" in done["error"]


class TestLongPoll:
    """``GET /v1/jobs/<id>?wait=`` and the client loop built on it."""

    SPEC = {"target": "coreutils", "iterations": 40, "seed": 1}

    @pytest.fixture
    def gated(self, live):
        """A live service whose workers stall, job already ``running``,
        until the returned event is set."""
        client, service = live
        release = threading.Event()
        acquire = service._acquire_engine

        def stalled(spec):
            assert release.wait(60)
            return acquire(spec)

        service._acquire_engine = stalled
        yield client, service, release
        release.set()

    @staticmethod
    def running(client, job_id):
        deadline = time.monotonic() + 30
        while client.job(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def test_wait_is_answered_when_the_job_ends_not_on_a_poll_tick(
            self, gated):
        client, _, release = gated
        job_id = client.submit("alice", self.SPEC)["id"]
        self.running(client, job_id)
        paths: list[str] = []
        request = client._request

        def counted(method, path, *args, **kwargs):
            paths.append(path)
            if len(paths) == 1:
                # The job ends 0.7 s into the first (held) request: a
                # 0.5 s sleep-and-poll loop needs three requests for it.
                threading.Timer(0.7, release.set).start()
            return request(method, path, *args, **kwargs)

        client._request = counted
        done = client.wait(job_id, timeout=60)
        assert done["state"] == "done"
        assert done["digest"] == COREUTILS_40_SEED1
        assert len(paths) <= 2, paths
        assert all(path.startswith(f"/v1/jobs/{job_id}?wait=")
                   for path in paths)

    def test_a_wait_that_runs_out_returns_the_plain_envelope(self, gated):
        client, _, _ = gated
        job_id = client.submit("alice", self.SPEC)["id"]
        self.running(client, job_id)
        started = time.monotonic()
        held = client._request("GET", f"/v1/jobs/{job_id}?wait=0.1")
        assert time.monotonic() - started >= 0.1
        assert held["job"]["state"] == "running"
        assert held["job"] == client.job(job_id)

    def test_unknown_job_and_bad_wait(self, live):
        client, _ = live
        started = time.monotonic()
        with pytest.raises(ReportError, match="404"):
            client._request("GET", "/v1/jobs/no-such-job?wait=20")
        assert time.monotonic() - started < 10  # at once, not after 20 s
        job_id = client.submit("alice", self.SPEC)["id"]
        for bad in ("soon", "-1", "nan", ""):
            with pytest.raises(ReportError, match="400.*'wait'"):
                client._request("GET", f"/v1/jobs/{job_id}?wait={bad}")
        assert client.wait(job_id, timeout=60)["state"] == "done"

    def test_wait_times_out_on_a_job_that_never_ends(self, gated):
        client, _, _ = gated
        job_id = client.submit("alice", self.SPEC)["id"]
        with pytest.raises(ReportError, match="still (queued|running)"):
            client.wait(job_id, timeout=0.3)

    def test_a_server_that_dies_mid_wait_is_a_report_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def die_holding_the_request():
                conn, _ = listener.accept()
                conn.recv(65536)
                conn.close()

            thread = threading.Thread(target=die_holding_the_request)
            thread.start()
            client = ServiceClient(
                "127.0.0.1:%d" % listener.getsockname()[1]
            )
            with pytest.raises(ReportError, match="cannot reach service"):
                client.wait("job-1", timeout=30)
            thread.join(timeout=10)
            assert not thread.is_alive()


def _address(client: ServiceClient) -> tuple[str, int]:
    host, port = client.endpoint.split("://", 1)[1].rsplit(":", 1)
    return host, int(port)


def _reply(reader) -> tuple[int, dict[str, str], bytes]:
    """One HTTP response off a socket's file: status, headers, body."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


class _Served:
    """``serve()`` on a thread over a store file, on a chosen port."""

    def __init__(self, path, port: int = 0) -> None:
        self.service = CampaignService(ResultStore(path), workers=1)
        listening = threading.Event()

        def on_listen(host, bound):
            self.port = bound
            listening.set()

        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                serve(self.service, "127.0.0.1", port, on_listen=on_listen)
            ),
            daemon=True,
        )
        self.thread.start()
        assert listening.wait(10)

    def stop(self) -> None:
        """Ask for shutdown on a connection of its own; wait for the end."""
        client = ServiceClient(f"127.0.0.1:{self.port}")
        client.shutdown()
        client.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.service.store.close()


class TestKeepAlive:
    """One connection carries many requests; the client keeps one per
    thread; shutdown does not wait for idle connections."""

    SPEC = {"target": "coreutils", "iterations": 5, "seed": 1}

    def test_two_requests_on_one_socket_are_answered_in_order(self, live):
        client, _ = live
        with socket.create_connection(_address(client), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                b"GET /v1/ping HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /v1/jobs/no-such-job HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            status, headers, body = _reply(reader)
            assert (status, json.loads(body)["ok"]) == (200, True)
            assert "connection" not in headers
            status, _, body = _reply(reader)
            assert (status, json.loads(body)) == (404, {"error": "no such job"})
            # Still open: a third request on the same socket.
            sock.sendall(b"GET /v1/ping HTTP/1.1\r\n\r\n")
            assert _reply(reader)[0] == 200

    @pytest.mark.parametrize("request_head", [
        b"GET /v1/ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /v1/ping HTTP/1.0\r\n\r\n",
    ])
    def test_close_and_http_1_0_end_the_connection(self, live, request_head):
        client, _ = live
        with socket.create_connection(_address(client), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(request_head)
            status, headers, _ = _reply(reader)
            assert (status, headers["connection"]) == (200, "close")
            assert reader.read() == b""  # closed by the server

    @pytest.mark.parametrize("garbage", [
        b"NONSENSE\r\n\r\n",
        b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: many\r\n\r\n",
    ])
    def test_a_malformed_second_request_closes_only_its_connection(
            self, live, garbage):
        client, _ = live
        with socket.create_connection(_address(client), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"GET /v1/ping HTTP/1.1\r\n\r\n")
            assert _reply(reader)[0] == 200
            sock.sendall(garbage)
            rest = reader.read()
            assert rest == b"" or rest.startswith(b"HTTP/1.1 400 ")
        assert client.ping()["ok"] is True

    def test_one_client_shared_by_two_threads_long_polls_at_once(
            self, live):
        client, service = live
        release = threading.Event()
        acquire = service._acquire_engine

        def stalled(spec):
            assert release.wait(60)
            return acquire(spec)

        service._acquire_engine = stalled
        ids = [
            client.submit(tenant, TestLongPoll.SPEC)["id"]
            for tenant in ("alice", "bob")
        ]
        for job_id in ids:
            TestLongPoll.running(client, job_id)
        done: dict = {}

        def wait(job_id):
            done[job_id] = client.wait(job_id, timeout=60)

        waiters = [threading.Thread(target=wait, args=(i,)) for i in ids]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.3)
        # Both polls are held; this thread's own connection is not.
        started = time.monotonic()
        assert client.ping()["ok"] is True
        assert time.monotonic() - started < 0.25
        assert not done
        release.set()
        for waiter in waiters:
            waiter.join(timeout=60)
        assert [done[i]["digest"] for i in ids] == [COREUTILS_40_SEED1] * 2

    def test_a_restarted_server_gets_a_get_twice_and_a_post_once(
            self, tmp_path):
        first = _Served(tmp_path / "afex.db")
        client = ServiceClient(f"127.0.0.1:{first.port}")
        exchanges = []
        exchange = client._exchange

        def counted(conn, method, *args):
            exchanges.append(method)
            return exchange(conn, method, *args)

        client._exchange = counted
        assert client.ping()["ok"] is True  # this connection is kept
        first.stop()
        second = _Served(tmp_path / "afex.db", port=first.port)
        exchanges.clear()
        assert client.ping()["ok"] is True
        assert exchanges == ["GET", "GET"]  # the kept one, then a new one
        client.submit("alice", self.SPEC)  # kept again, after a POST
        second.stop()
        third = _Served(tmp_path / "afex.db", port=first.port)
        try:
            exchanges.clear()
            with pytest.raises(ReportError, match="cannot reach service"):
                client.submit("alice", self.SPEC)
            assert exchanges == ["POST"]
            assert len(third.service.store.jobs()) == 1
            # A failed POST leaves no broken connection behind.
            assert client.ping()["ok"] is True
        finally:
            client.close()
            third.stop()

    def test_close_ends_the_connection_of_every_thread(self, live):
        client, _ = live
        pinged, finish = threading.Event(), threading.Event()

        def other_thread():
            client.ping()
            pinged.set()
            assert finish.wait(10)
            assert client.ping()["ok"] is True

        thread = threading.Thread(target=other_thread)
        thread.start()
        assert pinged.wait(10)
        client.ping()
        connections = list(client._connections)
        assert len(connections) == 2
        assert all(conn.sock is not None for conn in connections)
        client.close()
        assert all(conn.sock is None for conn in connections)
        finish.set()  # each thread's next call opens a new connection
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert client.ping()["ok"] is True

    def test_shutdown_does_not_wait_for_an_idle_kept_connection(
            self, tmp_path):
        served = _Served(tmp_path / "afex.db")
        with socket.create_connection(
                ("127.0.0.1", served.port), timeout=10) as idle:
            reader = idle.makefile("rb")
            idle.sendall(b"GET /v1/ping HTTP/1.1\r\n\r\n")
            assert _reply(reader)[0] == 200
            started = time.monotonic()
            served.stop()
            assert time.monotonic() - started < 1.0
            assert reader.read() == b""  # closed by the server


class TestArchiveFailure:
    def test_a_job_whose_archive_step_raises_ends_failed(self, live):
        client, service = live

        def full_disk(*args, **kwargs):
            raise RuntimeError("database or disk is full")

        service.store.record_campaign = full_disk
        job = client.submit(
            "alice", {"target": "coreutils", "iterations": 40, "seed": 1}
        )
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "failed"
        assert "database or disk is full" in done["error"]
        assert service.metrics.counter("service.jobs.failed").value == 1
        # The exploration itself finished; its checkpoint is kept so the
        # work can still be recovered.
        from repro.core.checkpoint import load_checkpoint

        stored = service.store.job(job["id"])
        kept = load_checkpoint(stored.checkpoint)
        assert kept.digest() == COREUTILS_40_SEED1
        assert kept.meta["job"] == job["id"]


def test_fifty_quality_jobs_on_two_workers_all_end_done(tmp_path):
    """ROADMAP's gate: online quality with a bound registry used to kill
    about one served job in ten (a counter decremented); fifty in a row,
    two at a time, must all archive."""
    store = ResultStore(tmp_path / "afex.db")
    service = CampaignService(
        store,
        tenants=[TenantConfig("a"), TenantConfig("b")],
        workers=2,
    )

    async def drive() -> list:
        scheduler = asyncio.ensure_future(service.run())
        jobs = [
            service.submit("ab"[seed % 2], {
                "target": "replkv", "fault_model": "errno+disk",
                "iterations": 40, "seed": seed, "online_quality": True,
            })
            for seed in range(50)
        ]
        deadline = time.monotonic() + 300
        for job in jobs:
            while store.job(job.id).state in ("queued", "running"):
                assert time.monotonic() < deadline
                await service.settled(job.id, 5.0)
        scheduler.cancel()
        await asyncio.gather(scheduler, return_exceptions=True)
        return [store.job(job.id) for job in jobs]

    try:
        finished = asyncio.run(drive())
    finally:
        service.shutdown()
        store.close()
    assert [(job.state, job.error) for job in finished] == [
        ("done", None)
    ] * 50
    assert all(job.summary["tests"] == 40 for job in finished)


class TestDurability:
    def test_restart_requeues_and_resumes(self, tmp_path):
        """A killed service forgets nothing: jobs queued or mid-flight
        requeue on restart and finish with the uninterrupted digest."""
        store = ResultStore(tmp_path / "afex.db")
        job = store.create_job(
            "job-1", "alice",
            {"target": "coreutils", "iterations": 40, "seed": 1},
            checkpoint=str(tmp_path / "job-1.ckpt"),
        )
        store.mark_running("job-1")  # "the process died right here"
        service = CampaignService(store, workers=1)
        assert service.queue.queued_count() == 1
        entry = service.queue.pop()
        service._run_job(entry)
        done = store.job("job-1")
        assert done.state == "done"
        assert done.digest == COREUTILS_40_SEED1
        service.shutdown()

    def test_resume_from_server_checkpoint(self, tmp_path):
        """A job killed mid-campaign resumes from its checkpoint and
        still lands on the uninterrupted digest."""
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(target="coreutils", iterations=40, seed=1)
        checkpoint = tmp_path / "job-1.ckpt"
        # Simulate the killed first attempt: a partial campaign that
        # wrote server-style checkpoints.
        engine = spec.build_engine()
        engine.explore(
            spec.build_space(engine.target), spec.build_strategy(),
            iterations=20, seed=1,
            checkpoint_path=checkpoint, checkpoint_every=10,
        )
        engine.close()
        assert checkpoint.exists()
        store = ResultStore(tmp_path / "afex.db")
        store.create_job(
            "job-1", "alice", spec.as_dict(), checkpoint=str(checkpoint)
        )
        store.mark_running("job-1")
        service = CampaignService(store, workers=1)
        entry = service.queue.pop()
        service._run_job(entry)
        done = store.job("job-1")
        assert done.state == "done"
        assert done.digest == COREUTILS_40_SEED1
        assert not checkpoint.exists()  # consumed on completion
        service.shutdown()


class TestScheduling:
    def test_priority_order_in_execution(self, tmp_path):
        """With one worker, a later gold job runs before earlier
        bronze jobs."""
        store = ResultStore(tmp_path / "afex.db")
        service = CampaignService(
            store,
            tenants=[
                TenantConfig("gold", priority=10, max_concurrent=1),
                TenantConfig("bronze", priority=0, max_concurrent=1),
            ],
            workers=1,
        )
        spec = {"target": "coreutils", "iterations": 5, "seed": 0}
        b1 = service.submit("bronze", spec)
        b2 = service.submit("bronze", spec)
        g1 = service.submit("gold", spec)
        order = []
        while (entry := service.queue.pop()) is not None:
            order.append(entry.job_id)
            service._run_job(entry)
            service.queue.finish(entry.job_id)
        assert order[0] == g1.id
        assert order.index(b1.id) < order.index(b2.id)
        service.shutdown()


REPLKV_100 = {"target": "replkv", "fault_model": "errno+disk",
              "iterations": 100, "seed": 7}


def _run_now(service, tenant, spec, **submit):
    """Submit one job and run it to its end on the calling thread."""
    job = service.submit(tenant, spec, **submit)
    entry = service.queue.pop()
    assert entry is not None and entry.job_id == job.id
    try:
        service._run_job(entry)
    finally:
        service.queue.finish(entry.job_id)
    return service.store.job(job.id)


def _executions(service) -> int:
    histograms = service.metrics.snapshot()["histograms"]
    return histograms.get("runner.execute_seconds", {"count": 0})["count"]


def _comparable(document: dict) -> dict:
    """A job document without ids, timings, dedup and the cache block."""
    kept = {
        key: value for key, value in document.items()
        if key not in ("elapsed_seconds", "throughput_tests_per_s",
                       "first_result_s", "cache", "dedup")
    }
    kept["campaign"] = {
        key: value for key, value in document["campaign"].items()
        if key not in ("job", "tenant")
    }
    return kept


class TestResultMemory:
    """One memo per runner identity behind every engine the service
    pools, whatever its fabric: what any job of this process executed
    answers every later one, for every tenant, and no digest can tell."""

    def test_a_resubmission_by_another_tenant_executes_nothing(
            self, service):
        first = _run_now(service, "alice", REPLKV_100)
        executed = _executions(service)
        second = _run_now(service, "bob", REPLKV_100)
        assert first.state == second.state == "done"
        # One pooled engine ran both: what its golden store answered
        # never reached the memo.
        ran = 100 - first.document["golden"]["hits"]
        asked = 100 - (second.document["golden"]["hits"]
                       - first.document["golden"]["hits"])
        assert first.document["remembered"] == 0
        assert second.document["remembered"] == asked
        assert first.document["cache"] is second.document["cache"] is None
        assert _executions(service) == executed == ran
        assert second.document["dedup"]["new"] == 0
        assert second.digest == first.digest
        assert _comparable(second.document) == {
            **_comparable(first.document),
            "golden": second.document["golden"],
            "remembered": asked,
        }
        # The service's totals.
        assert service.stats()["cache"] == {
            "entries": ran, "hits": asked, "misses": ran, "evictions": 0,
        }
        # The verify skill's identities, on served jobs: a remembered
        # answer never reaches a runner.
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["runner.tests"] == _executions(service)
        assert snapshot["gauges"]["cache.hits"] == snapshot["counters"][
            "sim.remembered_hits"] == asked
        assert snapshot["counters"]["session.tests"] == 200 == (
            _executions(service)
            + snapshot["counters"]["sim.golden_hits"]
            + snapshot["gauges"]["cache.hits"]
        )

    def test_a_pooled_fleet_engine_remembers_its_own_reports(self, service):
        """A ``processes`` engine's runners live in its workers; the
        memo its loop asks is the service's, which a later ``serial``
        job of the same identity asks too, and learns its reach from."""
        spec = {**REPLKV_100, "fabric": "processes", "workers": 2}
        first = _run_now(service, "alice", spec)
        second = _run_now(service, "bob", spec)
        assert first.document["cache"] is second.document["cache"] is None
        golden = (second.document["golden"]["hits"]
                  - first.document["golden"]["hits"])
        assert first.document["remembered"] == 0
        assert second.document["remembered"] == 100 - golden > 0
        assert second.digest == first.digest
        assert _comparable(second.document) == {
            **_comparable(first.document),
            "golden": second.document["golden"],
            "remembered": second.document["remembered"],
        }
        held = service.stats()["cache"]["entries"]
        serial = _run_now(service, "alice", REPLKV_100)
        assert serial.document["remembered"] > 0
        # At batch 1 it proposes its own trajectory; it executes what
        # neither the memo nor its golden store answers, once.
        executed = service.stats()["cache"]["entries"] - held
        assert (serial.document["remembered"] + executed
                + serial.document["golden"]["hits"]) == 100
        assert service.stats()["cache"]["misses"] == held + executed

    def test_each_result_is_converted_once_and_digested_once(
            self, service, monkeypatch):
        """By count: the journal line, the digest input and the store row
        are one encoding (four conversions a test at the parent), and the
        history is digested once a job (twice)."""
        import repro.core.cache as cache_module
        import repro.core.checkpoint as checkpoint_module
        import repro.core.results as results_module

        calls = {"payload": 0, "digest": 0}
        convert = cache_module.result_to_payload
        digest = checkpoint_module.history_digest

        def counted_payload(result):
            calls["payload"] += 1
            return convert(result)

        def counted_digest(executed):
            calls["digest"] += 1
            return digest(executed)

        for module in (cache_module, checkpoint_module, results_module):
            monkeypatch.setattr(module, "result_to_payload", counted_payload)
        monkeypatch.setattr(
            checkpoint_module, "history_digest", counted_digest)
        first = _run_now(service, "alice", REPLKV_100)
        assert calls == {"payload": 100, "digest": 1}
        executed = _executions(service)
        resubmitted = _run_now(service, "bob", REPLKV_100)
        assert calls == {"payload": 200, "digest": 2}
        assert _executions(service) == executed
        assert resubmitted.document["remembered"] == 100 - (
            resubmitted.document["golden"]["hits"]
            - first.document["golden"]["hits"])

    def test_two_tenants_at_once_both_reach_the_direct_digest(self, live):
        client, service = live
        spec = {"target": "coreutils", "iterations": 40, "seed": 1}
        jobs = [client.submit(tenant, spec) for tenant in ("alice", "bob")]
        done = [client.wait(job["id"], timeout=120) for job in jobs]
        assert [job["digest"] for job in done] == [COREUTILS_40_SEED1] * 2
        # Every test was executed, remembered, or answered from a golden
        # run, and counted once.
        memo = client.stats()["cache"]
        assert memo["hits"] == sum(
            job["document"]["remembered"] for job in done)
        assert (memo["hits"] + memo["misses"]
                + service.metrics.counters()["sim.golden_hits"]) == 80
        from repro.service.spec import CampaignSpec

        direct = CampaignSpec.from_dict(spec)
        with direct.build_engine() as engine:
            cold = engine.explore(
                direct.build_space(engine.target), direct.build_strategy(),
                iterations=40, seed=1)
        # What a cold engine executes of the campaign, once: a hit
        # teaches either engine's golden store the reach the other's
        # execution measured.
        assert memo["entries"] == 40 - cold.golden_stats["hits"]

    def test_a_longer_campaign_hits_on_what_the_shorter_one_ran(
            self, service):
        short = _run_now(service, "alice", REPLKV_100)
        entries = service.stats()["cache"]["entries"]
        long = _run_now(service, "bob", {**REPLKV_100, "iterations": 250})
        short_golden = short.document["golden"]["hits"]
        long_golden = long.document["golden"]["hits"] - short_golden
        assert short.document["remembered"] == 0
        assert entries == 100 - short_golden
        # The same seed proposes the same first hundred scenarios, and a
        # campaign never proposes a scenario twice: what the long one
        # asks of its first hundred is remembered, the rest executed
        # (a new entry), and the warm golden store answers at least
        # what the cold one did of the first hundred.
        remembered = long.document["remembered"]
        executed = service.stats()["cache"]["entries"] - entries
        assert remembered + executed == 250 - long_golden
        assert 100 - long_golden <= remembered <= 100 - short_golden
        # Exactly what one engine with one memo does with the two.
        from repro.service.spec import CampaignSpec

        with CampaignSpec.from_dict(REPLKV_100).build_engine(
                memory=ReportMemory()) as engine:
            for served in (short, long):
                spec = CampaignSpec.from_dict(served.spec)
                run = engine.explore(
                    spec.build_space(engine.target), spec.build_strategy(),
                    iterations=spec.iterations, seed=spec.seed,
                    batch_size=spec.batch_size)
                assert run.remembered == served.document["remembered"]
                assert run.digest == served.digest

    def test_a_threads_job_shares_the_memory_with_a_serial_one(
            self, service):
        from repro.service.spec import CampaignSpec

        spec = {"target": "coreutils", "iterations": 40, "seed": 1,
                "batch_size": 1}
        serial = _run_now(service, "alice", spec)
        ran = 40 - serial.document["golden"]["hits"]
        threads = _run_now(
            service, "bob", {**spec, "fabric": "threads", "workers": 2})
        assert serial.digest == COREUTILS_40_SEED1
        assert serial.document["remembered"] == 0
        # Nothing is executed twice: the threads engine remembers what
        # the serial one executed, and its cold golden store learns from
        # the remembered reach to answer what the serial one's did.
        assert threads.document["golden"]["hits"] == 40 - ran
        assert threads.document["remembered"] == ran
        assert service.stats()["cache"] == {
            "entries": ran, "hits": ran, "misses": ran, "evictions": 0}
        # A hit is the execution it stands for: the digest is the one a
        # memo-less threads engine computes.
        direct = CampaignSpec.from_dict(
            {**spec, "fabric": "threads", "workers": 2})
        with direct.build_engine() as engine:
            run = engine.explore(
                direct.build_space(engine.target), direct.build_strategy(),
                iterations=40, seed=1, batch_size=1,
            )
        assert run.remembered == 0
        assert threads.digest == run.digest

    def test_a_killed_job_resumes_to_the_same_digest_warm_or_cold(
            self, service, monkeypatch):
        """Kill a served job right after its third journal record, twice:
        resumed on the same service the rest of it is remembered, resumed
        on a fresh one nothing is; both land on the uninterrupted digest."""
        from repro.core.checkpoint import CheckpointWriter, load_checkpoint

        reference = _run_now(service, "alice", REPLKV_100)

        class Killed(BaseException):
            pass

        journal = CheckpointWriter.maybe_write

        def dies_after_three_records(writer, executed, rng, force=False):
            wrote = journal(writer, executed, rng, force=force)
            if wrote and writer.writes == 3:
                raise Killed
            return wrote

        def killed_job(tenant):
            monkeypatch.setattr(
                CheckpointWriter, "maybe_write", dies_after_three_records)
            with pytest.raises(Killed):
                _run_now(service, tenant, REPLKV_100)
            monkeypatch.setattr(CheckpointWriter, "maybe_write", journal)
            (job,) = service.store.jobs(tenant=tenant, state="running")
            assert load_checkpoint(job.checkpoint).iterations == 30
            return job

        def run_next(resuming, job):
            entry = resuming.queue.pop()
            assert entry is not None and entry.job_id == job.id
            resuming._run_job(entry)
            resuming.queue.finish(entry.job_id)
            return resuming.store.job(job.id)

        job = killed_job("bob")
        service.store.requeue_incomplete()
        service.queue.push(job.id, job.tenant)
        golden = service.metrics.counters()["sim.golden_hits"]
        warm = run_next(service, job)
        assert (warm.state, warm.digest) == ("done", reference.digest)
        # What the warm golden store answers never reaches the memo.
        answered = service.metrics.counters()["sim.golden_hits"] - golden
        assert warm.document["remembered"] == 70 - answered

        job = killed_job("carol")
        fresh = CampaignService(service.store, workers=1)  # requeues it
        try:
            cold = run_next(fresh, job)
        finally:
            fresh.shutdown()
        assert (cold.state, cold.digest) == ("done", reference.digest)
        assert cold.document["remembered"] == 0
