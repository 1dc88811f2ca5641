"""The ``afex`` command-line interface.

Subcommands mirror the prototype workflow of §6.4:

* ``afex targets`` — list bundled systems under test;
* ``afex profile --target NAME`` — run the callsite analyzer and print a
  fault-space description in the Fig. 3 DSL (§6.4 step 2);
* ``afex run`` — explore a fault space with a chosen strategy, impact
  metric weights, and search target, then print the result summary and
  top faults (§6.4 steps 6-8).

Example::

    afex run --target coreutils --strategy fitness --iterations 250 --seed 1
"""

from __future__ import annotations

import argparse
import sys

from repro.core.dsl import parse_fault_space
from repro.injection.callsite import profile_target
from repro.service.spec import (
    SPEC_FABRICS,
    SPEC_STRATEGIES,
    SPEC_TARGETS,
    CampaignSpec,
)
from repro.sim.targets import target_by_name
from repro.util.tables import TextTable

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _campaign_flags() -> argparse.ArgumentParser:
    """The flags ``afex run`` and ``afex submit`` share: the
    :class:`~repro.service.spec.CampaignSpec` fields, declared once."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--target", required=True, choices=SPEC_TARGETS)
    flags.add_argument("--strategy", default="fitness",
                       choices=SPEC_STRATEGIES)
    flags.add_argument("--iterations", type=int, default=250)
    flags.add_argument("--seed", type=int, default=0)
    flags.add_argument("--max-call", type=int, default=2,
                       help="call-axis upper bound for the default space")
    flags.add_argument(
        "--fault-model", default="errno", metavar="SPEC",
        help="fault-model plugin spec: a registered model name or a "
        "'+'-composition such as 'errno+disk' (composition order is "
        "canonicalized, so 'disk+errno' is the same campaign); the "
        "default space gains each model's axes (default: errno)",
    )
    flags.add_argument("--top", type=int, default=10,
                       help="how many top-impact faults to report")
    flags.add_argument(
        "--online-quality", action="store_true",
        help="cluster results incrementally as they arrive (§5), report "
        "live non-redundancy, and persist the cluster state in "
        "checkpoints",
    )
    flags.add_argument(
        "--fabric", default="serial", choices=SPEC_FABRICS,
        help="execution fabric: in-process serial loop, GIL-bound "
        "thread pool, multi-core process pool, the deterministic "
        "virtual-time cluster model, or the networked multi-node "
        "socket fabric (default: serial)",
    )
    flags.add_argument(
        "--nodes", type=_positive_int, default=1,
        help="with --fabric socket: explorer nodes to wait for before "
        "exploring — start them with `afex node`; a served campaign's "
        "are spawned by the service (default 1)",
    )
    flags.add_argument(
        "--batch-size", type=_positive_int, default=None,
        help="speculative candidates proposed per round before feedback "
        "(default: 1 for the serial fabric, worker count otherwise)",
    )
    flags.add_argument(
        "--workers", type=_positive_int, default=4,
        help="node managers / worker processes for parallel fabrics",
    )
    return flags


def _campaign_spec(args: argparse.Namespace, **own) -> CampaignSpec:
    """The spec the shared flags describe, plus the caller's ``own``
    fields (raises :class:`~repro.errors.ReportError` on a bad one)."""
    return CampaignSpec(
        target=args.target,
        strategy=args.strategy,
        iterations=args.iterations,
        seed=args.seed,
        fault_model=args.fault_model,
        max_call=args.max_call,
        fabric=args.fabric,
        workers=args.workers,
        nodes=args.nodes,
        online_quality=args.online_quality,
        top=args.top,
        **own,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afex",
        description="AFEX: fitness-guided black-box fault-injection testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("targets", help="list bundled systems under test")

    profile = sub.add_parser(
        "profile", help="derive a fault-space description from a target"
    )
    profile.add_argument("--target", required=True, choices=SPEC_TARGETS)
    profile.add_argument(
        "--max-call", type=int, default=None,
        help="cap for the call-number axis (default: observed maximum)",
    )

    campaign_flags = _campaign_flags()
    run = sub.add_parser("run", parents=[campaign_flags],
                         help="explore a target's fault space")
    run.add_argument(
        "--space", default=None,
        help="path to a fault-space description file (default: derived "
        "from the target's known functions, calls 0-2)",
    )
    run.add_argument("--feedback", action="store_true",
                     help="enable the redundancy feedback loop (§7.4); "
                     "with --online-quality the live novelty signal is "
                     "used instead of the batch similarity weight")
    run.add_argument(
        "--cluster-distance", type=int, default=1, metavar="N",
        help="edit-distance bound for online clustering (default 1)",
    )
    run.add_argument(
        "--similarity-threshold", type=float, default=0.0, metavar="S",
        help="similarity below S counts as fully novel for the live "
        "feedback signal (default 0.0)",
    )
    run.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="with --fabric socket: endpoint the manager listens on "
        "(port 0 binds an ephemeral port, printed at startup; "
        "default 127.0.0.1:0)",
    )
    run.add_argument(
        "--node-wait", type=float, default=60.0, metavar="SECONDS",
        help="with --fabric socket: how long to wait for --nodes "
        "registrations before giving up (default 60)",
    )
    run.add_argument(
        "--min-nodes", type=_positive_int, default=None, metavar="M",
        help="with --fabric socket: start exploring once M nodes have "
        "registered instead of waiting for all --nodes; the rest may "
        "join mid-campaign (implies --allow-join)",
    )
    run.add_argument(
        "--allow-join", action="store_true",
        help="with --fabric socket: accept new explorer nodes after "
        "the campaign has started (the manager re-slices the remaining "
        "fault space for the joiner); without it the fleet is sealed "
        "at first dispatch — reconnects are always allowed",
    )
    run.add_argument(
        "--cache", default=None, metavar="PATH",
        help="warm the engine's memo from a checkpoint journal "
        "(--checkpoint) or a result store (afex serve --store) of the "
        "same target, version and fault model: what they recorded is "
        "answered, not executed (every fabric; the file is only read)",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write versioned resume snapshots to PATH between rounds",
    )
    run.add_argument(
        "--checkpoint-every", type=_positive_int, default=25,
        help="snapshot interval in executed tests (with --checkpoint; "
        "default 25)",
    )
    run.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a killed run from a checkpoint written with "
        "--checkpoint; target/strategy/seed/batch flags must match the "
        "original run",
    )
    run.add_argument(
        "--dispatch-deadline", type=float, default=None, metavar="SECONDS",
        help="per-chunk deadline on the processes fabric: a worker still "
        "running after SECONDS is killed and replaced and its round "
        "retried; refused on other fabrics (default: wait forever)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="collect metrics during the run, print the registry table, "
        "and write the machine-readable summary to afex-profile.json",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry as Prometheus exposition text "
        "(implies metrics collection)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record structured span events (JSON lines) so the run's "
        "rounds are reconstructable (implies metrics collection)",
    )
    run.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the machine-readable campaign outcome document "
        "(the same JSON `afex submit` returns) to PATH",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant campaign service (REST/JSON API)",
    )
    serve.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="endpoint the API listens on (port 0 binds an ephemeral "
        "port, printed at startup; default 127.0.0.1:0)",
    )
    serve.add_argument(
        "--store", default="afex-service.db", metavar="PATH",
        help="SQLite result store; campaigns and deduplicated results "
        "survive restarts (default afex-service.db)",
    )
    serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="directory for server-side campaign checkpoints "
        "(default: the store's directory)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="campaigns executed concurrently (default 2)",
    )
    serve.add_argument(
        "--tenant", action="append", default=None,
        metavar="NAME[:PRIORITY[:QUOTA]]",
        help="declare a tenant with a scheduling priority (higher runs "
        "first; default 0) and a concurrent-campaign quota (default "
        "--default-quota); repeatable.  Unknown tenants are admitted "
        "with priority 0",
    )
    serve.add_argument(
        "--default-quota", type=_positive_int, default=1,
        help="concurrent-campaign quota for undeclared tenants "
        "(default 1)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="server-side checkpoint interval in executed tests; 0 "
        "disables mid-campaign snapshots (default 10)",
    )
    serve.add_argument(
        "--node-wait", type=float, default=60.0, metavar="SECONDS",
        help="how long socket-fabric campaigns wait for their spawned "
        "explorer nodes (default 60)",
    )
    serve.add_argument(
        "--no-spawn-nodes", action="store_true",
        help="do not spawn `afex node` workers for socket-fabric "
        "campaigns (operate them out of band)",
    )

    submit = sub.add_parser(
        "submit", parents=[campaign_flags],
        help="submit a campaign to a running `afex serve`",
    )
    submit.add_argument(
        "--endpoint", required=True, metavar="HOST:PORT",
        help="service endpoint printed by `afex serve`",
    )
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--label", default="")
    submit.add_argument(
        "--priority", type=int, default=None,
        help="override the tenant's scheduling priority for this job",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the campaign finishes and print its outcome",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="with --wait: give up after SECONDS (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the raw job envelope instead of the summary lines",
    )

    jobs = sub.add_parser(
        "jobs", help="list campaigns known to a running `afex serve`"
    )
    jobs.add_argument("--endpoint", required=True, metavar="HOST:PORT")
    jobs.add_argument("--tenant", default=None)
    jobs.add_argument(
        "--state", default=None,
        choices=("queued", "running", "done", "failed"),
    )
    jobs.add_argument("--limit", type=_positive_int, default=200)
    jobs.add_argument("--json", action="store_true")

    results_cmd = sub.add_parser(
        "results", help="query the service's deduplicated result archive"
    )
    results_cmd.add_argument("--endpoint", required=True,
                             metavar="HOST:PORT")
    results_cmd.add_argument(
        "--campaign", default=None, metavar="JOB_ID",
        help="one campaign's results in execution order (with impact)",
    )
    results_cmd.add_argument("--target", default=None)
    results_cmd.add_argument("--crashed", action="store_true",
                             help="only crashing results")
    results_cmd.add_argument("--failed", action="store_true",
                             help="only failing results")
    results_cmd.add_argument("--min-impact", type=float, default=None)
    results_cmd.add_argument("--limit", type=_positive_int, default=100)
    results_cmd.add_argument("--json", action="store_true")

    structure = sub.add_parser(
        "map", help="print a Fig. 1-style fault-space structure map"
    )
    structure.add_argument("--target", required=True, choices=SPEC_TARGETS)
    structure.add_argument("--call", type=int, default=1,
                           help="which call number to fail (default 1)")
    structure.add_argument("--tests", default=None,
                           help="comma-separated test ids (default: all)")

    full_report = sub.add_parser(
        "report",
        help="explore, then emit the full §6.3 report with replay scripts",
    )
    full_report.add_argument("--target", required=True, choices=SPEC_TARGETS)
    full_report.add_argument("--strategy", default="fitness",
                             choices=SPEC_STRATEGIES)
    full_report.add_argument("--iterations", type=int, default=250)
    full_report.add_argument("--seed", type=int, default=0)
    full_report.add_argument("--max-call", type=int, default=2)
    full_report.add_argument("--top", type=int, default=10)
    full_report.add_argument("--trials", type=int, default=5,
                             help="re-execution trials for impact precision")
    full_report.add_argument(
        "--out", default=None,
        help="directory to write the report and replay scripts into",
    )

    node = sub.add_parser(
        "node",
        help="run an explorer node that serves a socket-fabric manager",
    )
    node.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="manager endpoint printed by `afex run --fabric socket`",
    )
    node.add_argument("--target", required=True, choices=SPEC_TARGETS)
    node.add_argument(
        "--name", default=None,
        help="node name for registration (default: hostname-pid); "
        "reconnects under the same name resume the registration",
    )
    node.add_argument(
        "--capacity", type=_positive_int, default=4,
        help="parallel slots this node advertises (default 4)",
    )
    node.add_argument(
        "--fault-model", default="errno", metavar="SPEC",
        help="fault-model plugin spec this node executes plans under; "
        "must match the manager's --fault-model (default: errno)",
    )
    node.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between wire heartbeats (default 1)",
    )
    # Vestige: bench/paths.py still passes it; wired to nothing.
    node.add_argument(
        "--wire-version", type=int, choices=(3,), help=argparse.SUPPRESS,
    )
    node.add_argument(
        "--reconnect-attempts", type=_positive_int, default=30,
        help="connection attempts (with exponential backoff) before "
        "giving up (default 30)",
    )
    node.add_argument(
        "--drain-after", type=_positive_int, default=None, metavar="N",
        help="leave the fleet gracefully after executing N tests: the "
        "node sends a drain frame, finishes its in-flight work, and "
        "exits when the manager deregisters it",
    )

    replay_cmd = sub.add_parser(
        "replay",
        help="deterministically re-execute a stored result by crash id, "
        "with a call-level provenance explanation",
    )
    replay_cmd.add_argument(
        "crash_id", metavar="CRASH_ID",
        help="scenario digest (any unambiguous hex prefix) printed in "
        "reports, replay scripts, and `afex results`",
    )
    replay_cmd.add_argument(
        "--store", default=None, metavar="PATH",
        help="resolve against a service SQLite store (afex-service.db)",
    )
    replay_cmd.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="resolve against a campaign checkpoint file",
    )
    replay_cmd.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="resolve against a --report-json outcome document "
        "(coarse: the document stores outcomes, not full payloads)",
    )
    replay_cmd.add_argument(
        "--json", action="store_true",
        help="print the machine-readable replay outcome",
    )

    trace = sub.add_parser(
        "trace",
        help="ltrace-style dump of one test's library calls (no injection)",
    )
    trace.add_argument("--target", required=True, choices=SPEC_TARGETS)
    trace.add_argument("--test", type=int, required=True,
                       help="test id to trace (1-based)")
    trace.add_argument("--stacks", action="store_true",
                       help="include the simulated stack for each call")
    return parser


def _cmd_targets() -> int:
    table = TextTable(["name", "version", "tests", "functions"])
    for name in ("coreutils", "minidb", "httpd", "docstore-0.8", "docstore-2.0",
                 "replkv"):
        target = target_by_name(name)
        table.add_row(
            [name, target.version, len(target.suite), len(target.libc_functions())]
        )
    print(table.render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    target = target_by_name(args.target)
    profile = profile_target(target)
    print(profile.fault_space_description(max_call=args.max_call))
    return 0


def _explore_on_fabric(args: argparse.Namespace, spec, target, space, strategy):
    """Run the exploration on the requested fabric.

    A thin client of :class:`~repro.service.engine.CampaignEngine`,
    built through the spec exactly as ``afex serve`` builds its own:
    the CLI's job is flag parsing and printing — fabric lifecycle,
    checkpointing, and quality/metrics threading live in the engine
    (shared with ``afex report`` and the campaign service, which keeps
    the fabric *warm* across runs; a one-shot ``afex run`` closes it on
    the way out).  What the spec cannot say
    (a warmed memo, observability, socket-fleet admission) rides along
    as run-only engine overrides.
    """
    from repro.core.runner import ReportMemory

    fabric = args.fabric
    memory = ReportMemory() if args.cache else None
    metrics = tracer = None
    if args.profile or args.metrics_out or args.trace_out:
        from repro.obs import JsonLinesSink, MetricsRegistry, RingBufferSink, Tracer

        metrics = MetricsRegistry()
        sinks: list = [RingBufferSink()]
        if args.trace_out:
            sinks.append(JsonLinesSink(args.trace_out))
        tracer = Tracer(sinks=sinks)
        if memory is not None:
            memory.bind_metrics(metrics)

    run_only: dict = dict(
        target=target, memory=memory, metrics=metrics, tracer=tracer,
        dispatch_deadline=args.dispatch_deadline,
    )
    if fabric == "socket":
        wait_count = (args.nodes if args.min_nodes is None
                      else min(args.min_nodes, args.nodes))
        model_hint = (f" --fault-model {spec.fault_model}"
                      if spec.fault_model != "errno" else "")

        def on_fabric(net):
            print(f"socket fabric listening on {net.host}:{net.port}; "
                  f"waiting for {wait_count} node(s) -- start each with: "
                  f"afex node --connect {net.host}:{net.port} "
                  f"--target {args.target}{model_hint}")

        def on_nodes(registered):
            print(f"socket fabric: {registered} node(s) registered; "
                  "exploring", flush=True)

        run_only.update(
            listen=args.listen,
            node_wait=args.node_wait,
            wait_count=wait_count,
            allow_join=args.allow_join or args.min_nodes is not None,
            on_fabric=on_fabric,
            on_nodes=on_nodes,
        )

    engine = spec.build_engine(**run_only)
    try:
        if memory is not None:
            print(_warm_memory(
                memory, args.cache, engine.identity,
                f"{target.name}/{target.version}/{spec.fault_model}"))
        run = engine.explore(
            space,
            strategy,
            iterations=spec.iterations,
            seed=spec.seed,
            batch_size=args.batch_size,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            checkpoint_meta={
                "target": spec.target, "strategy": spec.strategy,
                "seed": spec.seed, "iterations": spec.iterations,
                "fault_model": spec.fault_model,
            },
            resume_from=args.resume,
            online_quality=spec.online_quality,
            cluster_distance=spec.cluster_distance,
            similarity_threshold=spec.similarity_threshold,
        )
    finally:
        engine.close()
    return run, memory, metrics, tracer


def _warm_memory(memory, path: str, identity: str, stored_as: str) -> str:
    """Remember in ``memory`` what the journal or store at ``path``
    recorded of runner ``identity`` (a store names it ``stored_as``);
    returns the line to print.  Raises
    :class:`~repro.errors.ReportError` for a file that is neither.

    Reads ``path`` and writes nothing to it.  Warmed records only
    answer: they carry no reach, which is harvested from executions.
    """
    import sqlite3
    from contextlib import closing
    from pathlib import Path

    from repro.core.checkpoint import CHECKPOINT_VERSION, load_checkpoint
    from repro.errors import CheckpointError, ReportError
    from repro.service.store import StoreReader

    expected = (f"expected a version-{CHECKPOINT_VERSION} checkpoint "
                "journal (afex run --checkpoint) or a result store "
                "(afex serve --store)")
    source = Path(path)
    try:
        with source.open("rb") as handle:
            head = handle.read(16)
    except OSError as exc:
        raise ReportError(
            f"--cache {path}: {exc.strerror}; {expected}") from None
    if head == b"SQLite format 3\x00":
        try:
            with closing(StoreReader(source)) as store:
                executions = store.executions(stored_as)
        except sqlite3.DatabaseError as exc:
            raise ReportError(f"--cache {path}: {exc}; {expected}") from None
        if not executions:
            return (f"note: --cache {path} holds no results of "
                    f"{stored_as}; it warms nothing")
    else:
        try:
            checkpoint = load_checkpoint(source)
        except CheckpointError as exc:
            raise ReportError(f"--cache {path}: {exc}; {expected}") from None
        written_for = checkpoint.meta.get("identity")
        if written_for != identity:
            return (f"note: --cache {path} was written for "
                    f"{written_for or 'an unnamed runner'}, not {identity}; "
                    "it warms nothing")
        executions = [(test.fault, test.result)
                      for test in checkpoint.restore_executed()]
    for fault, result in executions:
        memory.remember(fault, result.outcome)
    return f"cache: {len(memory)} records warmed from {path}"


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError, InjectionError, ReportError

    try:
        spec = _campaign_spec(
            args,
            batch_size=args.batch_size,
            cluster_distance=args.cluster_distance,
            similarity_threshold=args.similarity_threshold,
        )
    except ReportError as exc:
        print(f"bad campaign spec: {exc}")
        return 2
    if args.dispatch_deadline is not None and args.fabric != "processes":
        print("--dispatch-deadline needs --fabric processes, the only "
              f"fabric that can replace a hung worker (got {args.fabric!r})")
        return 2
    target = spec.build_target()
    if args.space:
        with open(args.space) as handle:
            space = parse_fault_space(handle.read())
    else:
        space = spec.build_space(target)
    strategy = spec.build_strategy()
    if args.feedback:
        from repro.core.search import FitnessGuidedSearch
        from repro.quality import RedundancyFeedback

        if not isinstance(strategy, FitnessGuidedSearch):
            print("--feedback requires the fitness strategy")
            return 2
        if spec.online_quality:
            # With the streaming clustering stage on, the incremental
            # novelty signal replaces the quadratic batch similarity
            # weight — same §7.4 loop, O(1) amortized per result.
            strategy.use_novelty = True
        else:
            strategy.fitness_weight = RedundancyFeedback()
    try:
        if args.resume:
            from repro.core.checkpoint import load_checkpoint

            meta = load_checkpoint(args.resume).meta or {}
            recorded = meta.get("fault_model", "errno")
            if recorded != spec.fault_model:
                print(f"--resume checkpoint was written under --fault-model "
                      f"{recorded!r}, not {spec.fault_model!r}; the "
                      "campaigns are not comparable")
                return 2
        run, memory, metrics, tracer = _explore_on_fabric(
            args, spec, target, space, strategy
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}")
        return 2
    except ReportError as exc:   # a --cache file that is neither
        print(exc)
        return 2
    except InjectionError as exc:
        print(f"bad fault space: {exc}")
        return 2
    results, elapsed = run.results, run.seconds

    summary = results.summary()
    table = TextTable(["metric", "value"], title=f"afex run: {target.describe()}")
    for key, value in summary.items():
        table.add_row([key, value])
    table.add_row(["space size", space.size()])
    table.add_row(["fabric", args.fabric])
    table.add_row(["throughput (tests/s)",
                   f"{len(results) / elapsed:.0f}" if elapsed > 0 else "inf"])
    table.add_row(["golden hits", run.golden_stats["hits"]])
    table.add_row(["remembered answers", run.remembered])
    if run.health is not None:
        table.add_row(["fabric health", run.health.describe()])
    if run.quality_stats is not None:
        stats = run.quality_stats
        table.add_row(["live clusters", stats["clusters"]])
        table.add_row(["non-redundant",
                       f"{100 * stats['novelty_ratio']:.0f}%"])
        table.add_row(["distances computed/avoided",
                       f"{stats['comparisons']}/"
                       f"{stats['comparisons_avoided']}"])
    print(table.render())
    # Stable content digest of the result history: two runs print the
    # same line iff their histories are byte-identical (what the CI
    # kill-and-resume round-trip greps for).
    print(f"history digest: {run.digest}")
    if args.report_json:
        from pathlib import Path

        from repro.core.cache import write_json_atomically
        from repro.service.documents import campaign_document

        document = campaign_document(
            results,
            campaign={
                "target": spec.target, "strategy": spec.strategy,
                "iterations": spec.iterations, "seed": spec.seed,
                "fault_model": spec.fault_model, "fabric": args.fabric,
                "batch_size": args.batch_size,
            },
            elapsed_seconds=elapsed,
            space_size=space.size(),
            fabric_health=run.health,
            quality_stats=run.quality_stats,
            cache_stats=memory.stats() if memory is not None else None,
            golden_stats=run.golden_stats,
            remembered=run.remembered,
            top=args.top,
            target=target,
        )
        write_json_atomically(Path(args.report_json), document)
        print(f"report: {args.report_json}")
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint} "
              f"(resume with --resume {args.checkpoint})")
    if tracer is not None:
        tracer.close()
        if args.trace_out:
            print(f"trace: {args.trace_out}")
    if metrics is not None:
        _export_metrics(args, metrics, elapsed, len(results))

    top = results.top(args.top)
    if top:
        detail = TextTable(
            ["impact", "fault", "outcome"], title=f"top {len(top)} faults"
        )
        for test in top:
            detail.add_row([f"{test.impact:.1f}", str(test.fault), test.result.summary()])
        print()
        print(detail.render())
    return 0


def _export_metrics(
    args: argparse.Namespace, metrics, elapsed: float, tests: int
) -> None:
    """Render/persist the run's metrics per the --profile/--metrics-out flags."""
    from pathlib import Path

    from repro.obs import profile_payload, render_table, to_prometheus

    if args.metrics_out:
        Path(args.metrics_out).write_text(to_prometheus(metrics))
        print(f"metrics: {args.metrics_out}")
    if args.profile:
        from repro.core.cache import write_json_atomically

        print()
        print(render_table(metrics, title=f"metrics: afex run {args.target}"))
        payload = profile_payload(metrics, meta={
            "target": args.target,
            "fabric": args.fabric,
            "iterations": args.iterations,
            "seed": args.seed,
            "tests": tests,
            "elapsed_seconds": elapsed,
        })
        out = Path("afex-profile.json")
        write_json_atomically(out, payload)
        print(f"profile: {out}")


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.reporting import render_structure_map, structure_map

    target = target_by_name(args.target)
    functions = list(target.libc_functions())
    if args.tests:
        test_ids = [int(t) for t in args.tests.split(",")]
    else:
        test_ids = list(target.suite.ids)
    grid = structure_map(target, functions, test_ids=test_ids,
                         call_number=args.call)
    print(f"structure map for {target.describe()}, call #{args.call} "
          f"('#' = test failure):\n")
    print(render_structure_map(grid, functions, test_ids))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.search import FitnessGuidedSearch
    from repro.errors import ReportError
    from repro.quality import RedundancyFeedback, build_report

    try:
        spec = CampaignSpec(
            target=args.target, strategy=args.strategy,
            iterations=args.iterations, seed=args.seed,
            fault_model="errno", max_call=args.max_call,
        )
    except ReportError as exc:
        print(f"bad campaign spec: {exc}")
        return 2
    strategy = spec.build_strategy()
    if isinstance(strategy, FitnessGuidedSearch):
        strategy.fitness_weight = RedundancyFeedback()
    with spec.build_engine() as engine:
        run = engine.explore(
            spec.build_space(engine.target), strategy,
            iterations=spec.iterations, seed=spec.seed,
        )
    report = build_report(
        run.results,
        run.runner,
        args.target,
        strategy_name=args.strategy,
        top_n=args.top,
        precision_trials=args.trials,
    )
    print(report.render())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report.render() + "\n")
        for name, source in report.replay_scripts.items():
            (out_dir / name).write_text(source)
        print(f"\nwrote report + {len(report.replay_scripts)} replay "
              f"scripts to {out_dir}/")
    return 0


def _parse_tenant_flag(text: str):
    from repro.service.server import TenantConfig

    name, _, rest = text.partition(":")
    priority_text, _, quota_text = rest.partition(":")
    return TenantConfig(
        name,
        priority=int(priority_text) if priority_text else 0,
        max_concurrent=int(quota_text) if quota_text else 1,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import CampaignService, serve
    from repro.service.store import ResultStore

    host, _, port_text = args.listen.partition(":")
    try:
        tenants = [_parse_tenant_flag(t) for t in (args.tenant or [])]
    except ValueError as exc:
        print(f"--tenant: {exc}")
        return 2
    store = ResultStore(args.store)
    service = CampaignService(
        store,
        data_dir=args.data_dir,
        tenants=tenants,
        workers=args.workers,
        default_quota=args.default_quota,
        checkpoint_every=args.checkpoint_every,
        node_wait=args.node_wait,
        spawn_nodes=not args.no_spawn_nodes,
    )
    requeued = store.counters()["queued"]
    if requeued:
        print(f"campaign service: resuming {requeued} incomplete job(s) "
              "from the store", flush=True)

    def on_listen(bound_host, bound_port):
        print(f"campaign service listening on {bound_host}:{bound_port} "
              f"(store: {args.store}) -- submit with: afex submit "
              f"--endpoint {bound_host}:{bound_port} --tenant NAME "
              "--target TARGET", flush=True)

    try:
        asyncio.run(serve(
            service, host or "127.0.0.1",
            int(port_text) if port_text else 0,
            on_listen=on_listen,
        ))
    except KeyboardInterrupt:
        print("campaign service: interrupted; store is durable, "
              "restart resumes incomplete jobs")
    finally:
        store.close()
    return 0


def _job_lines(job: dict) -> list[str]:
    lines = [
        f"job {job['id']}: {job['state']} (tenant {job['tenant']}, "
        f"priority {job['priority']})"
    ]
    if job.get("digest"):
        lines.append(f"history digest: {job['digest']}")
    summary = job.get("summary") or {}
    if summary:
        lines.append(
            f"verdict: {summary.get('verdict', '?')} -- "
            f"{summary.get('tests', 0)} tests, "
            f"{summary.get('failed', 0)} failed, "
            f"{summary.get('crashes', 0)} crashes, "
            f"{summary.get('hangs', 0)} hangs"
        )
    if job.get("error"):
        lines.append(f"error: {job['error']}")
    return lines


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReportError
    from repro.service.server import ServiceClient

    try:
        spec = _campaign_spec(
            args, batch_size=args.batch_size, label=args.label
        )
    except ReportError as exc:
        print(f"bad campaign spec: {exc}")
        return 2
    client = ServiceClient(args.endpoint)
    try:
        job = client.submit(
            args.tenant, spec, priority=args.priority, label=args.label
        )
        if args.wait:
            job = client.wait(job["id"], timeout=args.timeout)
    except ReportError as exc:
        print(str(exc))
        return 1
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        for line in _job_lines(job):
            print(line)
        if not args.wait:
            print(f"poll with: afex jobs --endpoint {args.endpoint} "
                  f"--tenant {args.tenant}")
    return 0 if job["state"] != "failed" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReportError
    from repro.service.server import ServiceClient

    client = ServiceClient(args.endpoint)
    try:
        jobs = client.jobs(
            tenant=args.tenant, state=args.state, limit=args.limit
        )
    except ReportError as exc:
        print(str(exc))
        return 1
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    table = TextTable(
        ["job", "tenant", "state", "priority", "verdict", "tests",
         "digest"],
        title="campaign service jobs",
    )
    for job in jobs:
        summary = job.get("summary") or {}
        digest = job.get("digest") or ""
        table.add_row([
            job["id"], job["tenant"], job["state"], job["priority"],
            summary.get("verdict", "-"), summary.get("tests", "-"),
            digest[:12] or "-",
        ])
    print(table.render())
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReportError
    from repro.service.server import ServiceClient

    client = ServiceClient(args.endpoint)
    try:
        rows = client.results(
            campaign=args.campaign,
            target=args.target,
            crashed="1" if args.crashed else None,
            failed="1" if args.failed else None,
            min_impact=args.min_impact,
            limit=args.limit,
        )
    except ReportError as exc:
        print(str(exc))
        return 1
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    table = TextTable(
        ["digest", "target", "fault model", "outcome", "impact",
         "first campaign"],
        title="deduplicated result archive",
    )
    for row in rows:
        outcome = ("crash" if row["crashed"]
                   else "hang" if row["hung"]
                   else "fail" if row["failed"] else "pass")
        impact = row.get("impact")
        table.add_row([
            row["digest"][:12], row["target"], row["fault_model"],
            outcome,
            "-" if impact is None else f"{impact:.1f}",
            row["first_campaign"],
        ])
    print(table.render())
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    import functools

    from repro.cluster import ExplorerNode, RetryPolicy
    from repro.errors import ClusterError, InjectionError
    from repro.injection.models import canonical_spec, model_injector

    try:
        spec = canonical_spec(args.fault_model)
    except InjectionError as exc:
        print(f"--fault-model: {exc}")
        return 2
    node = ExplorerNode(
        args.connect,
        functools.partial(target_by_name, args.target),
        injector_factory=functools.partial(model_injector, spec),
        name=args.name,
        capacity=args.capacity,
        heartbeat_interval=args.heartbeat_interval,
        drain_after=args.drain_after,
        reconnect_policy=RetryPolicy(
            max_attempts=args.reconnect_attempts,
            base_delay=0.05,
            max_delay=2.0,
        ),
    )
    print(f"explorer node {node.name!r} (capacity {args.capacity}) "
          f"serving {args.connect}")
    try:
        node.run()
    except ClusterError as exc:
        print(f"node stopped: {exc}")
        return 1
    except KeyboardInterrupt:
        node.stop()
    print(f"node {node.name!r} finished: {node.describe()}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json
    import sqlite3
    from pathlib import Path

    from repro.errors import ReplayError
    from repro.replay import format_outcome, replay
    from repro.service.store import StoreReader

    if not (args.store or args.checkpoint or args.report_json):
        print("afex replay: pass at least one of --store, --checkpoint, "
              "--report-json to resolve the crash id against")
        return 2
    if args.store and not Path(args.store).exists():
        print(f"afex replay: no store at {args.store}")
        return 2
    store = None
    try:
        # Read-only: replaying a crash id changes nothing in the store.
        store = StoreReader(args.store) if args.store else None
        outcome = replay(
            args.crash_id,
            store=store,
            checkpoint=args.checkpoint,
            report=args.report_json,
        )
    except sqlite3.DatabaseError as exc:
        print(f"afex replay: --store {args.store}: {exc}")
        return 2
    except ReplayError as exc:
        print(f"afex replay: {exc}")
        return 2
    finally:
        if store is not None:
            store.close()
    if args.json:
        print(json.dumps(outcome.document(), indent=2, sort_keys=True))
    else:
        print(format_outcome(outcome))
    return 0 if outcome.matches else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.process import run_test

    target = target_by_name(args.target)
    test = target.suite[args.test]
    result = run_test(target, test, trace=True, trace_stacks=args.stacks)
    print(f"trace of {target.name} test #{test.id} ({test.name}): "
          f"{result.steps} library calls, {result.summary()}\n")
    for record in result.trace:
        line = f"{record.seq:5d}  {record.function}()  [call #{record.call_number}]"
        if args.stacks and record.stack:
            line += "   " + " > ".join(record.stack)
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "targets":
        return _cmd_targets()
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "map":
        return _cmd_map(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "node":
        return _cmd_node(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "results":
        return _cmd_results(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
