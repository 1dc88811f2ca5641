"""CI smoke for the campaign service: real server, real tenants, one store.

Exercises the full ``afex serve`` stack the way an operator would:

1. Direct ``afex run`` references establish the expected history
   digests (one serial campaign, one batched parallel campaign).
2. An ``afex serve`` process takes two concurrent submissions from two
   tenants — one of them on the socket fabric with service-spawned
   ``afex node`` workers — and both campaigns must reproduce the direct
   digests byte for byte: serving a campaign is the same campaign.
   A third tenant then resubmits the first spec on the same pooled
   engine: same digest, nothing new in the store, every test answered
   from the service's memory or the engine's golden store, nothing
   executed.
3. The server is SIGKILLed mid-campaign, restarted on the same store,
   and must requeue the orphaned job, resume it from its server-side
   checkpoint, and still land on the uninterrupted digest — with a
   cold memory (a restart remembers nothing).

Exit code 0 on success; non-zero with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service.server import ServiceClient  # noqa: E402

LISTENING = re.compile(r"campaign service listening on ([\d.]+:\d+)")
RESUMING = re.compile(r"resuming (\d+) incomplete job\(s\)")
DIGEST = re.compile(r"^history digest: ([0-9a-f]{64})$", re.MULTILINE)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=cli_env(),
        cwd=REPO,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"afex {' '.join(args)} failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc.stdout


def digest_of(output: str, label: str) -> str:
    match = DIGEST.search(output)
    if not match:
        raise SystemExit(f"no history digest in {label} output:\n{output}")
    return match.group(1)


class Server:
    """One ``afex serve`` process and the lines it has printed."""

    def __init__(self, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=cli_env(), cwd=REPO,
        )
        self.captured: list[str] = []

    def wait_for(self, pattern: re.Pattern, what: str,
                 timeout: float = 60.0) -> re.Match:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            if time.monotonic() > deadline:
                raise SystemExit(
                    f"server never printed {what}:\n"
                    + "".join(self.captured)
                )
            line = self.proc.stdout.readline()
            if not line:
                raise SystemExit(
                    f"server exited before printing {what}:\n"
                    + "".join(self.captured)
                )
            self.captured.append(line)
            match = pattern.search(line)
            if match:
                return match

    def kill(self, sig: int = signal.SIGKILL) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)


def submit_cli(endpoint: str, tenant: str, spec_flags: list[str],
               timeout: float) -> str:
    """Submit through the real CLI and return the job id."""
    out = run_cli(
        ["submit", "--endpoint", endpoint, "--tenant", tenant,
         "--json", *spec_flags],
        timeout=timeout,
    )
    return json.loads(out)["id"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument(
        "--iterations", type=int, default=40,
        help="iteration budget for the two concurrent campaigns",
    )
    parser.add_argument(
        "--resume-iterations", type=int, default=3000,
        help="iteration budget for the kill/resume campaign: several "
        "seconds of work, so the SIGKILL lands mid-flight even on a "
        "warm engine (the simulator serves >1k tests/s)",
    )
    parser.add_argument("--workdir", default=None,
                        help="where the store and checkpoints live "
                        "(default: a fresh ./service-smoke dir)")
    args = parser.parse_args()

    workdir = Path(args.workdir or REPO / "service-smoke")
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / "afex-service.db"
    if store.exists():
        store.unlink()

    # -- 1: direct references ------------------------------------------------
    print("[1/3] direct `afex run` references")
    serial_flags = ["--target", "coreutils", "--strategy", "fitness",
                    "--iterations", str(args.iterations), "--seed", "1"]
    socket_flags = ["--target", "minidb", "--strategy", "fitness",
                    "--iterations", "60", "--seed", "1",
                    "--batch-size", "8"]
    # The resume campaign needs a big space (minidb's 2.18M points)
    # so its budget buys a multi-second window for the kill to land.
    resume_flags = ["--target", "minidb", "--strategy", "fitness",
                    "--iterations", str(args.resume_iterations),
                    "--seed", "7"]
    report_path = workdir / "run-report.json"
    out = run_cli(
        ["run", *serial_flags, "--top", "0",
         "--report-json", str(report_path)],
        timeout=args.timeout,
    )
    want_serial = digest_of(out, "serial reference")
    report = json.loads(report_path.read_text())
    if report["digest"] != want_serial:
        raise SystemExit(
            f"--report-json digest {report['digest']} does not match "
            f"stdout digest {want_serial}"
        )
    # The socket reference runs on threads: same batch size, same
    # trajectory — fabrics move placement, never outcomes.
    want_socket = digest_of(
        run_cli(["run", *socket_flags, "--top", "0", "--fabric",
                 "threads", "--workers", "2"], timeout=args.timeout),
        "threads reference",
    )
    want_resume = digest_of(
        run_cli(["run", *resume_flags, "--top", "0"],
                timeout=args.timeout),
        "resume reference",
    )
    print(f"      serial {want_serial}")
    print(f"      batched {want_socket}")
    print(f"      resume {want_resume}")

    # -- 2: two tenants, two concurrent campaigns ----------------------------
    print("[2/3] serve: two tenants, one campaign on the socket fabric")
    serve_args = [
        "--listen", "127.0.0.1:0", "--store", str(store),
        "--data-dir", str(workdir), "--workers", "2",
        "--tenant", "alice:10:2", "--tenant", "bob:1:1",
    ]
    server = Server(serve_args)
    try:
        endpoint = server.wait_for(LISTENING, "its endpoint").group(1)
        print(f"      service at {endpoint}")
        client = ServiceClient(endpoint)
        job_a = submit_cli(endpoint, "alice", serial_flags,
                           timeout=args.timeout)
        job_b = submit_cli(
            endpoint, "bob",
            socket_flags + ["--fabric", "socket", "--nodes", "2"],
            timeout=args.timeout,
        )
        done_a = client.wait(job_a, timeout=args.timeout)
        done_b = client.wait(job_b, timeout=args.timeout)
        for label, done, want in (
            ("alice/serial", done_a, want_serial),
            ("bob/socket", done_b, want_socket),
        ):
            if done["state"] != "done":
                raise SystemExit(
                    f"{label} job {done['id']} ended {done['state']}: "
                    f"{done.get('error')}"
                )
            if done["digest"] != want:
                raise SystemExit(
                    f"DIGEST MISMATCH ({label})\n  direct: {want}\n"
                    f"  served: {done['digest']}"
                )
            print(f"      {label} digest {done['digest']} (matches)")
        done_r = client.wait(
            submit_cli(endpoint, "carol", serial_flags, timeout=args.timeout),
            timeout=args.timeout,
        )
        document = done_r.get("document") or {}
        # The engine's golden store answers first and its lifetime
        # totals span alice's job: carol's answers are the difference.
        answered = (document["golden"]["hits"]
                    - done_a["document"]["golden"]["hits"])
        remembered = (
            done_r["state"] == "done"
            and done_r["digest"] == want_serial
            and document["dedup"]["new"] == 0
            and document["cache"] == {
                "hits": document["summary"]["tests"] - answered, "misses": 0}
        )
        if not remembered:
            raise SystemExit(
                "carol's resubmission of alice's spec was not answered "
                f"from the service's memory: state {done_r['state']}, "
                f"digest {done_r['digest']}, dedup {document.get('dedup')}, "
                f"cache {document.get('cache')}"
            )
        print(f"      carol/resubmitted digest {done_r['digest']} (matches; "
              f"{document['cache']['hits']} of "
              f"{document['summary']['tests']} tests remembered, "
              f"{answered} answered from golden runs)")

        # -- 3: kill the server mid-campaign ---------------------------------
        print("[3/3] SIGKILL mid-campaign, restart, resume from the store")
        job_c = submit_cli(endpoint, "alice", resume_flags,
                           timeout=args.timeout)
        checkpoint = workdir / f"{job_c}.ckpt"
        deadline = time.monotonic() + args.timeout
        while not checkpoint.exists():
            if time.monotonic() > deadline:
                raise SystemExit(
                    f"job {job_c} never wrote a checkpoint; state: "
                    f"{client.job(job_c)}"
                )
            if client.job(job_c)["state"] in ("done", "failed"):
                raise SystemExit(
                    f"job {job_c} finished before the kill could land; "
                    "raise --resume-iterations"
                )
            time.sleep(0.05)
    finally:
        server.kill()
    print(f"      killed the server pid {server.proc.pid} mid-campaign")

    restarted = Server(serve_args)
    try:
        resumed = int(
            restarted.wait_for(RESUMING, "the resume banner").group(1)
        )
        if resumed < 1:
            raise SystemExit(f"restart requeued {resumed} jobs, wanted >= 1")
        endpoint = restarted.wait_for(LISTENING, "its endpoint").group(1)
        client = ServiceClient(endpoint)
        done_c = client.wait(job_c, timeout=args.timeout)
        if done_c["state"] != "done":
            raise SystemExit(
                f"resumed job ended {done_c['state']}: {done_c.get('error')}"
            )
        if done_c["digest"] != want_resume:
            raise SystemExit(
                f"DIGEST MISMATCH (resumed)\n  direct:  {want_resume}\n"
                f"  resumed: {done_c['digest']}"
            )
        print(f"      resumed digest {done_c['digest']} (matches)")
        cache = done_c["document"]["cache"]
        if not 0 <= cache["hits"] < done_c["summary"]["tests"]:
            raise SystemExit(
                f"the restarted server's memory should be cold, but the "
                f"resumed job reports cache {cache}"
            )
        stats = client.stats()
        if stats["store"]["done"] != 4:
            raise SystemExit(
                f"store shows {stats['store']['done']} done jobs, wanted 4"
            )
        client.shutdown()
        restarted.proc.wait(timeout=30)
    finally:
        restarted.kill(signal.SIGTERM)
    print("OK: served campaigns are byte-identical to direct runs and "
          "survive a server kill")
    return 0


if __name__ == "__main__":
    sys.exit(main())
