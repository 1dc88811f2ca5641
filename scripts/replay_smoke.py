"""CI smoke for one-command crash replay with call-level provenance.

Exercises the full crash-id pipeline the way a developer chasing a bug
report would:

1. ``afex run`` on the replkv target under the composed ``errno+disk``
   model, writing a checkpoint and a ``--report-json`` document; a
   failing top entry's crash id is the bug report.
2. ``afex replay <id>`` against the checkpoint must reproduce the
   recorded payload with zero divergence (exit 0) and print a
   call-level provenance explanation; the report document must resolve
   the same id too.
3. The same campaign is served through ``afex serve`` into a SQLite
   store; ``afex replay <id> --store`` and the service's
   ``POST /v1/results/<id>/replay`` route must both reproduce the
   stored result, and every path must agree on the replayed result
   digest.  Once the server has stopped, ``afex replay <id> --store``
   runs again and must leave the store file's bytes unchanged and no
   ``-wal``/``-shm`` file beside it.
4. A provenance-overhead spot check: over interleaved on/off pairs of
   process CPU time, the capture must stay within the acceptance budget
   of the provenance-off baseline.

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

TARGET = "replkv"
FAULT_MODEL = "errno+disk"
#: on/off pairs the provenance-overhead check takes its median over.
OVERHEAD_PAIRS = 301


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(args: list[str], timeout: float,
            expect: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=cli_env(),
        cwd=REPO,
    )
    if proc.returncode != expect:
        raise SystemExit(
            f"afex {' '.join(args)} exited {proc.returncode}, wanted "
            f"{expect}:\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def replay_json(args: list[str], timeout: float) -> dict:
    proc = run_cli(["replay", *args, "--json"], timeout=timeout)
    outcome = json.loads(proc.stdout)
    if outcome["matches"] is not True:
        raise SystemExit(
            f"afex replay {' '.join(args)} diverged:\n{proc.stdout}"
        )
    return outcome


def measure_overhead(iterations: int) -> float:
    """Median per-pair overhead of provenance capture vs. baseline.

    Each pair times one block of ``iterations`` runs with capture off and
    one with it on, back to back and in alternating order, in process CPU
    time: a pair shares the host's state of the moment, so a slow stretch
    of the machine moves both sides instead of reading as overhead (two
    long sequential blocks read anywhere from -1 % to +40 % on one
    unchanged tree).  A block is long enough to carry its share of the
    garbage collector's work, and the median of many pairs is what a
    campaign pays per test.
    """
    import statistics

    from repro.sim.process import run_test
    from repro.sim.targets import target_by_name

    target = target_by_name(TARGET)
    test = target.suite[1]

    def clock(provenance: bool) -> float:
        started = time.process_time()
        for _ in range(iterations):
            run_test(target, test, provenance=provenance)
        return time.process_time() - started

    clock(False)  # warm caches/imports outside the measurement
    clock(True)
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            captured, baseline = clock(True), clock(False)
        else:
            baseline, captured = clock(False), clock(True)
        ratios.append(captured / baseline - 1)
    return statistics.median(ratios)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--iterations", type=int, default=250,
                        help="campaign iteration budget")
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="provenance-on overhead budget as a fraction (default "
        "0.05, the acceptance gate)",
    )
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()

    workdir = Path(args.workdir or REPO / "replay-smoke")
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / "afex-service.db"
    if store.exists():
        store.unlink()
    checkpoint = workdir / "campaign.ckpt"
    report_path = workdir / "report.json"

    # -- 1: campaign with checkpoint + report --------------------------------
    print("[1/4] campaign: replkv under errno+disk, checkpoint + report")
    campaign_flags = [
        "--target", TARGET, "--fault-model", FAULT_MODEL,
        "--strategy", "fitness", "--iterations", str(args.iterations),
        "--seed", "1",
    ]
    run_cli(
        ["run", *campaign_flags,
         "--checkpoint", str(checkpoint), "--checkpoint-every", "50",
         "--report-json", str(report_path)],
        timeout=args.timeout,
    )
    report = json.loads(report_path.read_text())
    failing = [
        entry for entry in report["top"]
        if entry.get("failed") and entry.get("crash_id")
    ]
    if not failing:
        raise SystemExit(
            "campaign produced no failing top entry with a crash id; "
            "raise --iterations"
        )
    crash_id = failing[0]["crash_id"]
    print(f"      crash id {crash_id}")

    # -- 2: replay from the checkpoint and the report ------------------------
    print("[2/4] replay from the checkpoint and the report document")
    from_ckpt = replay_json(
        [crash_id, "--checkpoint", str(checkpoint)], timeout=args.timeout
    )
    if "fault at " not in from_ckpt["explanation"]:
        raise SystemExit(
            "replay explanation names no provenance call: "
            f"{from_ckpt['explanation']!r}"
        )
    print(f"      checkpoint: zero divergence; {from_ckpt['explanation']}")
    short_id = crash_id[:12]
    from_report = replay_json(
        [short_id, "--report-json", str(report_path)], timeout=args.timeout
    )
    if from_report["result_digest"] != from_ckpt["result_digest"]:
        raise SystemExit(
            "replayed result digests differ between checkpoint and "
            f"report sources: {from_ckpt['result_digest']} vs "
            f"{from_report['result_digest']}"
        )
    print(f"      report (short id {short_id}): digests agree")

    # -- 3: replay from the service store, CLI and HTTP ----------------------
    print("[3/4] serve the same campaign; replay by id from the store")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0", "--store", str(store),
         "--data-dir", str(workdir), "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=cli_env(), cwd=REPO,
    )
    try:
        assert server.stdout is not None
        deadline = time.monotonic() + args.timeout
        endpoint = None
        captured = []
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            captured.append(line)
            match = LISTENING.search(line)
            if match:
                endpoint = match.group(1)
                break
        if endpoint is None:
            raise SystemExit(
                "server never printed its endpoint:\n" + "".join(captured)
            )
        client = ServiceClient(endpoint)
        run_cli(
            ["submit", "--endpoint", endpoint, "--tenant", "smoke",
             "--wait", "--timeout", str(args.timeout), *campaign_flags],
            timeout=args.timeout,
        )
        from_store = replay_json(
            [crash_id, "--store", str(store)], timeout=args.timeout
        )
        if from_store["result_digest"] != from_ckpt["result_digest"]:
            raise SystemExit(
                "store replay digest diverged from checkpoint replay: "
                f"{from_store['result_digest']} vs "
                f"{from_ckpt['result_digest']}"
            )
        served = client.replay(crash_id)
        if served["matches"] is not True:
            raise SystemExit(
                f"service-side replay diverged: {json.dumps(served)[:2000]}"
            )
        if served["result_digest"] != from_ckpt["result_digest"]:
            raise SystemExit(
                "service replay digest diverged: "
                f"{served['result_digest']} vs {from_ckpt['result_digest']}"
            )
        client.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
    print("      store + HTTP replay: zero divergence, digests agree")
    # The server has stopped: a replay reads the store and writes
    # nothing, neither into it nor beside it.
    before = store.read_bytes()
    again = replay_json([crash_id, "--store", str(store)], timeout=args.timeout)
    if again["result_digest"] != from_ckpt["result_digest"]:
        raise SystemExit(
            "replay of the stopped store diverged: "
            f"{again['result_digest']} vs {from_ckpt['result_digest']}"
        )
    if store.read_bytes() != before:
        raise SystemExit("afex replay --store changed the store file")
    left = [name for name in (f"{store.name}-wal", f"{store.name}-shm")
            if (store.parent / name).exists()]
    if left:
        raise SystemExit(f"afex replay --store left {left} beside the store")
    print("      replay of the stopped store: file unchanged, no -wal/-shm")

    # -- 4: provenance overhead ----------------------------------------------
    print("[4/4] provenance capture overhead")
    overhead = measure_overhead(iterations=40)
    print(f"      median overhead {overhead * 100:+.1f}% over on/off CPU-time "
          f"pairs (budget {args.max_overhead * 100:.0f}%)")
    if overhead > args.max_overhead:
        raise SystemExit(
            f"provenance capture overhead {overhead * 100:.1f}% exceeds "
            f"the {args.max_overhead * 100:.0f}% budget"
        )

    print("OK: crash ids replay identically from checkpoint, report, "
          "store, and the service API, with call-level provenance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
