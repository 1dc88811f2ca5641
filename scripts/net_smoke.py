"""CI smoke for the socket fabric: real processes, real TCP, one digest.

Runs the same exploration twice through the ``afex`` CLI:

1. an in-process reference (``--fabric threads``), and
2. a socket-fabric campaign — a manager process plus N ``afex node``
   subprocesses on localhost —

and requires their ``history digest:`` lines to be byte-identical: the
network moves placement, never outcomes.  With ``--kill-one``, one node
process is SIGKILLed mid-campaign; the digest must *still* match,
proving the requeue path loses and duplicates nothing.

Elastic-fleet churn: ``--join-one`` starts one node
short and lets the straggler join mid-campaign (the manager runs with
``--min-nodes``); ``--drain-one`` gives one node a ``--drain-after``
budget so it leaves gracefully mid-campaign.  Either way the digest
must still match — membership churn moves placement, never outcomes.

The manager's own ``golden hits`` and ``remembered answers`` rows
(``EngineRun.golden_stats`` and ``EngineRun.remembered``) say how many
scenarios it answered above the fabric instead of shipping;
``--max-shipped`` turns their sum into a gate.

Exit code 0 on success; non-zero with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENDPOINT = re.compile(r"socket fabric listening on ([\d.]+:\d+)")
REGISTERED = re.compile(r"node\(s\) registered; exploring")
DIGEST = re.compile(r"^history digest: ([0-9a-f]{64})$", re.MULTILINE)
TESTS = re.compile(r"^tests +\| (\d+)$", re.MULTILINE)
GOLDEN_HITS = re.compile(r"^golden hits +\| (\d+)$", re.MULTILINE)
REMEMBERED = re.compile(r"^remembered answers +\| (\d+)$", re.MULTILINE)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", default="minidb")
    parser.add_argument(
        "--fault-model", default="errno", metavar="SPEC",
        help="fault-model spec for both the manager and the node "
             "processes (e.g. 'errno+disk'); composed world models must "
             "digest identically across fabrics just like plain errno",
    )
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument(
        "--kill-one", action="store_true",
        help="SIGKILL one node mid-campaign; the digest must still match",
    )
    parser.add_argument(
        "--join-one", action="store_true",
        help="start one node short and let the straggler join "
             "mid-campaign (the manager runs with --min-nodes); the "
             "digest must still match",
    )
    parser.add_argument(
        "--drain-one", action="store_true",
        help="give one node a --drain-after budget so it leaves "
             "gracefully mid-campaign; the digest must still match",
    )
    parser.add_argument(
        "--drain-after", type=int, default=10, metavar="N",
        help="the drained node's test budget under --drain-one",
    )
    parser.add_argument(
        "--max-shipped", type=float, default=1.0, metavar="SHARE",
        help="fail when the socket campaign ships more than this share "
             "of its scenarios to the fleet (the rest are answered "
             "above the fabric from fault-free runs).  CI passes 0.5 on "
             "coreutils --batch-size 32 --iterations 2000 only: about "
             "70%% of that space cannot fire (docs/PERFORMANCE.md, "
             "'Never ship a scenario that cannot fire'; this run ships "
             "~18%%), so 0.5 is that measurement with slack, not a knob "
             "to retune — on another target or budget, measure first",
    )
    args = parser.parse_args()

    initial_nodes = args.nodes - 1 if args.join_one else args.nodes
    if initial_nodes < 1:
        raise SystemExit("--join-one needs --nodes >= 2")
    if args.kill_one and args.drain_one and initial_nodes < 2:
        raise SystemExit(
            "--kill-one with --drain-one needs two distinct victims"
        )

    common = [
        "run", "--target", args.target, "--strategy", "fitness",
        "--fault-model", args.fault_model,
        "--iterations", str(args.iterations), "--seed", str(args.seed),
        "--batch-size", str(args.batch_size), "--top", "0",
    ]

    print(f"[1/2] in-process reference ({args.nodes} thread workers)")
    reference = run_cli(
        common + ["--fabric", "threads", "--workers", str(args.nodes)],
        timeout=args.timeout,
    )
    want = digest_of(reference, "reference")
    print(f"      digest {want}")

    churn = [
        note for note, wanted in (
            ("killing one mid-run", args.kill_one),
            ("one joins mid-run", args.join_one),
            ("one drains mid-run", args.drain_one),
        ) if wanted
    ]
    print(f"[2/2] socket fabric: manager + {initial_nodes} node processes"
          + (f" ({', '.join(churn)})" if churn else ""))
    manager_args = [
        "--fabric", "socket", "--listen", "127.0.0.1:0",
        "--nodes", str(args.nodes), "--node-wait", "60",
    ]
    if args.join_one:
        # Start exploring as soon as the initial fleet is up; the
        # straggler is a mid-campaign join (--min-nodes implies
        # --allow-join).
        manager_args += ["--min-nodes", str(initial_nodes)]
    manager = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *common, *manager_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=cli_env(), cwd=REPO,
    )
    nodes: list[subprocess.Popen] = []
    try:
        captured: list[str] = []
        assert manager.stdout is not None

        def wait_for_line(pattern: re.Pattern, what: str,
                          timeout: float = 90.0) -> str:
            deadline = time.monotonic() + timeout
            while True:
                if time.monotonic() > deadline:
                    raise SystemExit(
                        f"manager never printed {what}:\n"
                        + "".join(captured)
                    )
                line = manager.stdout.readline()
                if not line:
                    raise SystemExit(
                        f"manager exited before printing {what}:\n"
                        + "".join(captured)
                    )
                captured.append(line)
                match = pattern.search(line)
                if match:
                    return match.group(1) if match.groups() else line

        endpoint = wait_for_line(ENDPOINT, "its endpoint", timeout=30.0)
        print(f"      manager at {endpoint}")

        def start_node(i: int, extra: list[str]) -> None:
            nodes.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "node",
                 "--connect", endpoint, "--target", args.target,
                 "--fault-model", args.fault_model,
                 "--name", f"smoke{i}", "--capacity", "4",
                 *extra],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=cli_env(), cwd=REPO,
            ))

        # The drain victim is the *last* initial node so it never
        # collides with the kill victim (node 0).
        drain_index = initial_nodes - 1 if args.drain_one else None
        for i in range(initial_nodes):
            start_node(i, ["--drain-after", str(args.drain_after)]
                       if i == drain_index else [])

        if args.kill_one or args.join_one:
            # Wait for the initial fleet to register and the campaign
            # to start dispatching, so churn lands mid-round.
            wait_for_line(REGISTERED, "the fleet registration")
            time.sleep(0.2)
        if args.join_one:
            start_node(args.nodes - 1, [])
            print(f"      joined node pid {nodes[-1].pid} mid-campaign")
        if args.kill_one:
            victim = nodes[0]
            victim.send_signal(signal.SIGKILL)
            print(f"      killed node pid {victim.pid}")

        remaining_output, _ = manager.communicate(timeout=args.timeout)
        captured.append(remaining_output)
        output = "".join(captured)
        if manager.returncode != 0:
            raise SystemExit(
                f"manager exited {manager.returncode}:\n{output}"
            )
        got = digest_of(output, "socket campaign")
        print(f"      digest {got}")
        if got != want:
            raise SystemExit(
                f"DIGEST MISMATCH\n  reference: {want}\n  socket:    {got}"
            )
        counts = (TESTS.search(output), GOLDEN_HITS.search(output),
                  REMEMBERED.search(output))
        if not all(counts):
            raise SystemExit(
                f"no tests / golden hits / remembered answers row in:\n"
                f"{output}")
        tests, golden, remembered = (int(match.group(1)) for match in counts)
        answered = golden + remembered
        print(f"      answered above the fabric: {answered} of {tests} "
              f"({golden} golden, {remembered} remembered)")
        if tests - answered > args.max_shipped * tests:
            raise SystemExit(
                f"SHIPPED TOO MUCH: {tests - answered} of {tests} scenarios "
                f"crossed the wire (limit {args.max_shipped:.0%})"
            )
        print("OK: socket-fabric history is byte-identical to in-process")
        return 0
    finally:
        if manager.poll() is None:
            manager.kill()
        for node in nodes:
            if node.poll() is None:
                node.terminate()
        for node in nodes:
            try:
                node.wait(timeout=10)
            except subprocess.TimeoutExpired:
                node.kill()


if __name__ == "__main__":
    sys.exit(main())
