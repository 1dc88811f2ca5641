"""Where a socket-fabric round's time goes, and what crosses the wire.

Runs ``socket-coreutils``-shaped campaigns (``bench/``'s own
``EnginePath``: coreutils, ``errno``, ``max_call=10``, batch 32, 256
tests each) on one warm engine with two real ``afex node``
subprocesses, and reports

* by count: scenarios proposed, shipped to the fleet (and shipped per
  proposed), and answered above the fabric — from golden runs and from
  the engine's memory of the reports its fleet already sent back;
  report bodies the manager received whole and as references;
  ``fabric.net`` bytes and frames per proposed test;
* by time, per round: ``propose_batch`` / ``run_batch`` / the busier
  node's summed report ``cost`` / ``_account``, and what the explorer
  itself spends in ``_execute`` outside ``run_batch`` per proposed
  scenario (request building, and since PR 23 plan compile + store probe
  + report copy).

It measures the checkout it sits in and only uses names that exist on
both sides of PR 23, so a copy dropped into ``scripts/`` of a checkout
of the parent measures the parent:

    python3 scripts/fleet_round_split.py [--campaigns 60] [--seed-base 500]

A checkout whose engine keeps no report memory reads 0 remembered.
It is an indication (wrappers around the hot calls, one run); the claim
is ``python3 bench/run.py --workload socket-coreutils`` and nothing else.
"""

from __future__ import annotations

import argparse
import collections
import functools
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "src"))

from bench import workloads  # noqa: E402
from bench.paths import EnginePath  # noqa: E402
from repro.cluster.explorer_node import ClusterExplorer  # noqa: E402
from repro.core.search.fitness_guided import FitnessGuidedSearch  # noqa: E402

SPENT: collections.Counter = collections.Counter()
COUNT: collections.Counter = collections.Counter()


def timed(name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            SPENT[name] += time.perf_counter() - started
            COUNT[name] += 1
    return wrapper


def watch_fabric(cluster, net) -> None:
    """Wrap the warm fabric's ``run_batch``: time, sizes, node costs
    (what each node's ``busy_seconds`` grew by in the round)."""
    run_batch = cluster.run_batch

    def busy() -> dict:
        return {s["node"]: s["busy_seconds"] for s in net.node_stats()}

    def wrapper(requests):
        before = busy()
        started = time.perf_counter()
        reports = run_batch(requests)
        SPENT["run_batch"] += time.perf_counter() - started
        COUNT["run_batch"] += 1
        COUNT["shipped"] += len(requests)
        SPENT["busiest node"] += max(
            seconds - before.get(node, 0.0)
            for node, seconds in busy().items())
        return reports

    cluster.run_batch = wrapper


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--campaigns", type=int, default=60)
    parser.add_argument("--seed-base", type=int, default=500)
    args = parser.parse_args()

    path = EnginePath(workloads.workload_by_name("socket-coreutils"))
    path.open()
    try:
        path.warm_up()
        engine = path.engine
        net = engine._net
        watch_fabric(engine._cluster, net)
        ClusterExplorer._execute = timed("_execute", ClusterExplorer._execute)
        ClusterExplorer._account = timed("account", ClusterExplorer._account)
        FitnessGuidedSearch.propose_batch = timed(
            "propose", FitnessGuidedSearch.propose_batch)
        wire = {k: getattr(net, k) for k in (
            "bytes_in", "bytes_out", "frames_in", "frames_out",
            "report_bodies_inline", "report_bodies_referenced")}
        golden = warm = engine._goldens.stats()
        for index in range(args.campaigns):
            run = path.explore(args.seed_base + index)
            COUNT["proposed"] += len(run.results)
            COUNT["remembered"] += getattr(run, "remembered", None) or 0
            golden = run.golden_stats
        wire = {k: getattr(net, k) - before for k, before in wire.items()}
    finally:
        path.close()

    proposed, shipped = COUNT["proposed"], COUNT["shipped"]
    rounds = COUNT["_execute"]
    print(f"campaigns {args.campaigns}, rounds {rounds} "
          f"({COUNT['run_batch']} reached the fabric)")
    remembered = COUNT["remembered"]
    print(f"scenarios proposed {proposed}, shipped {shipped} "
          f"({shipped / proposed:.3f} per proposed), "
          f"answered above the fabric {proposed - shipped}: "
          f"golden {golden['hits'] - warm['hits']}, "
          f"remembered {remembered}")
    print(f"golden_stats {golden}")
    print(f"report bodies inline {wire['report_bodies_inline']} + "
          f"referenced {wire['report_bodies_referenced']} = "
          f"{wire['report_bodies_inline'] + wire['report_bodies_referenced']}")
    print(f"fabric.net per proposed test: "
          f"{(wire['bytes_in'] + wire['bytes_out']) / proposed:.1f} B, "
          f"{(wire['frames_in'] + wire['frames_out']) / proposed:.3f} frames")
    print("per round, ms: " + " / ".join(
        f"{name} {1e3 * SPENT[name] / rounds:.2f}"
        for name in ("propose", "run_batch", "busiest node", "account")))
    print(f"explorer's own time in _execute, outside run_batch: "
          f"{1e6 * (SPENT['_execute'] - SPENT['run_batch']) / proposed:.1f} "
          f"us per proposed scenario")
    return 0


if __name__ == "__main__":
    sys.exit(main())
