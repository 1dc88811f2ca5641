"""Cluster-parallel exploration (§6, Fig. 2 architecture).

An explorer coordinates node managers, each owning a copy of the system
under test, a fault-injector plugin, and a sensor set.  This example
runs a real thread-pool cluster over MiniHttpd — hardened by the
fault-tolerance layer and checkpointed so a killed run can resume —
then models the same exploration on virtual 1/4/14-node clusters to
show the §7.7 linear scaling.

Run:  python examples/distributed_exploration.py

Crash-resume drill (what the CI chaos-smoke job does)::

    # run and die after 150 tests, leaving a checkpoint behind
    python examples/distributed_exploration.py \
        --checkpoint /tmp/ck.json --checkpoint-every 40 --die-after 150
    # resume: continues where the checkpoint left off, and the final
    # "history digest" line matches an uninterrupted run's exactly
    python examples/distributed_exploration.py \
        --checkpoint /tmp/ck.json --resume /tmp/ck.json
"""

import argparse
import os

from repro.cluster import (
    ClusterExplorer,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    RetryPolicy,
    VirtualCluster,
)
from repro.core import (
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    standard_impact,
)
from repro.core.checkpoint import history_digest, load_checkpoint
from repro.sim.targets.httpd import HTTPD_FUNCTIONS
from repro import target_by_name
from repro.util.tables import TextTable


def httpd_space() -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 59), function=HTTPD_FUNCTIONS, call=range(1, 11)
    )


def main(argv: list[str] | None = None) -> None:
    # argv=None means "no flags" (the test harness imports and calls
    # main() directly); the script entry point passes sys.argv[1:].
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=400)
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="write resume snapshots to PATH")
    parser.add_argument("--checkpoint-every", type=int, default=40,
                        help="snapshot interval in executed tests")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume from a checkpoint written earlier")
    parser.add_argument("--die-after", type=int, default=None, metavar="N",
                        help="simulate a crash: hard-exit (code 137) after "
                        "N executed tests")
    parser.add_argument("--profile", action="store_true",
                        help="collect metrics and write afex-profile.json")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write Prometheus exposition text to PATH")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record span events as JSON lines to PATH")
    args = parser.parse_args([] if argv is None else argv)

    metrics = tracer = None
    if args.profile or args.metrics_out or args.trace_out:
        from repro.obs import JsonLinesSink, MetricsRegistry, RingBufferSink, Tracer

        metrics = MetricsRegistry()
        sinks: list = [RingBufferSink()]
        if args.trace_out:
            sinks.append(JsonLinesSink(args.trace_out))
        tracer = Tracer(sinks=sinks)

    # -- a real (thread-pool) 4-node cluster, hardened ---------------------
    managers = [
        NodeManager(f"node{i}", target_by_name("httpd"), metrics=metrics)
        for i in range(4)
    ]
    fabric = FaultTolerantFabric(LocalCluster(managers), policy=RetryPolicy())

    die_after = args.die_after

    def maybe_die(executed) -> None:
        # A deterministic stand-in for `kill -9`: the checkpoint on disk
        # is all the next run gets.
        if die_after is not None and executed.index + 1 >= die_after:
            print(f"simulated crash after {executed.index + 1} tests "
                  f"(checkpoint: {args.checkpoint})", flush=True)
            os._exit(137)

    explorer = ClusterExplorer(
        fabric,
        httpd_space(),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(args.iterations),
        rng=5,
        on_test=maybe_die if die_after is not None else None,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=load_checkpoint(args.resume) if args.resume else None,
        metrics=metrics,
        tracer=tracer,
    )
    results = explorer.run()
    print(f"4-node cluster executed {len(results)} tests: "
          f"{results.failed_count()} failed, {results.crash_count()} crashed")
    for manager in managers:
        print(f"  {manager.describe()}")
    print(f"fabric health: {fabric.health.describe()}")
    print(f"history digest: {history_digest(list(results))}")

    if tracer is not None:
        tracer.close()
        if args.trace_out:
            print(f"trace: {args.trace_out}")
    if metrics is not None:
        from repro.obs import profile_payload, render_table, to_prometheus

        if args.metrics_out:
            from pathlib import Path

            Path(args.metrics_out).write_text(to_prometheus(metrics))
            print(f"metrics: {args.metrics_out}")
        if args.profile:
            from repro.core.cache import write_json_atomically

            print()
            print(render_table(metrics, title="metrics: distributed example"))
            write_json_atomically("afex-profile.json", profile_payload(
                metrics,
                meta={"example": "distributed_exploration",
                      "iterations": args.iterations, "tests": len(results)},
            ))
            print("profile: afex-profile.json")

    # -- virtual-time scaling, 1 vs 4 vs 14 nodes ---------------------------
    table = TextTable(["nodes", "virtual makespan (ms)", "speedup"],
                      title="\nmodelled cluster scaling (§7.7)")
    for nodes in (1, 4, 14):
        cluster = VirtualCluster([
            NodeManager(f"v{i}", target_by_name("httpd"))
            for i in range(nodes)
        ])
        ClusterExplorer(
            cluster, httpd_space(), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(280), rng=5,
            batch_size=28,
        ).run()
        table.add_row([
            nodes,
            f"{cluster.makespan * 1000:.1f}",
            f"{cluster.speedup_over_serial():.2f}x",
        ])
    print(table.render())


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
