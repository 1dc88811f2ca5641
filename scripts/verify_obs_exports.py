#!/usr/bin/env python3
"""Verify a profiled run's observability exports (CI ``metrics-smoke``).

A run with ``--profile --metrics-out --trace-out`` must leave behind:

* a Prometheus exposition file that *parses* and contains the core
  series — tests, rounds, fitness, execution latency, golden-run hits —
  with a nonzero dispatch-latency histogram;
* an ``afex-profile.json`` profile summary of the same registry;
* a JSON-lines trace whose events all carry the current schema version
  and assemble into round-rooted trees.

``--require-cache`` checks a run warmed with ``afex run --cache`` from
its own journal instead: the memo's ``cache.*`` gauges are exported and
say that every test was remembered and none executed or dispatched.

Exits nonzero with a message on the first violation, so the CI step
fails loudly. Also runnable locally after any profiled run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    assemble,
    parse_prometheus,
    read_jsonl,
)

#: every profiled exploration must export these families.
CORE_SERIES = (
    "afex_session_tests_total",
    "afex_session_rounds_total",
    "afex_session_fitness",
    "afex_runner_execute_seconds",
    "afex_sim_golden_hits_total",
    "afex_fabric_dispatch_seconds",
)

#: what a profiled run warmed from its own journal must export.
MEMO_SERIES = (
    "afex_session_tests_total",
    "afex_session_rounds_total",
    "afex_sim_golden_hits_total",
    "afex_sim_remembered_hits_total",
    "afex_cache_entries",
    "afex_cache_hits",
    "afex_cache_misses",
    "afex_cache_evictions",
    "afex_cache_hit_ratio",
)


def sample(parsed: dict, family: str, name: str | None = None) -> float:
    """One sample's value (0 when the family or sample is absent)."""
    samples = parsed.get(family, {"samples": {}})["samples"]
    return samples.get(name or family, 0.0)


def fail(message: str) -> None:
    sys.exit(f"verify_obs_exports: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", default="metrics.prom",
                        help="Prometheus exposition file to check")
    parser.add_argument("--trace", default="trace.jsonl",
                        help="JSON-lines trace file to check")
    parser.add_argument("--profile-json", default="afex-profile.json",
                        help="profile summary file to check")
    parser.add_argument("--require-cache", action="store_true",
                        help="check a run warmed with --cache from its own "
                             "journal: the memo's cache.* series, every "
                             "test remembered, nothing executed")
    args = parser.parse_args(argv)

    parsed = parse_prometheus(Path(args.metrics).read_text())
    required = MEMO_SERIES if args.require_cache else CORE_SERIES
    missing = [series for series in required if series not in parsed]
    if missing:
        fail(f"{args.metrics} is missing required series: {missing}")
    tests = sample(parsed, "afex_session_tests_total")
    if not tests > 0:
        fail(f"afex_session_tests_total is {tests}, expected > 0")
    dispatch_count = sample(parsed, "afex_fabric_dispatch_seconds",
                            "afex_fabric_dispatch_seconds_count")
    executions = sample(parsed, "afex_runner_execute_seconds",
                        "afex_runner_execute_seconds_count")
    payload = json.loads(Path(args.profile_json).read_text())
    if payload.get("benchmark") != "observability":
        fail(f"{args.profile_json} is not an observability profile")
    if args.require_cache:
        memo = {name: sample(parsed, f"afex_cache_{name}")
                for name in ("hits", "misses", "entries")}
        remembered = sample(parsed, "afex_sim_remembered_hits_total")
        if not (memo["hits"] == remembered == tests == memo["entries"]
                and memo["misses"] == 0):
            fail(f"the memo answered {memo} and remembered {remembered} "
                 f"of {tests} tests; a run warmed from its own journal "
                 "remembers every test and misses none")
        if executions or dispatch_count:
            fail(f"{executions} executions and {dispatch_count} dispatches "
                 "on a run whose every test was remembered")
        if payload["counters"].get("sim.remembered_hits") != tests:
            fail(f"{args.profile_json} does not record {tests} remembered "
                 "answers")
    else:
        if not dispatch_count > 0:
            fail("the dispatch-latency histogram is empty")
        profiled_dispatch = payload["histograms"]["fabric.dispatch_seconds"]
        if not profiled_dispatch["count"] > 0:
            fail(f"{args.profile_json} records no dispatches")

    events = read_jsonl(args.trace)
    if not events:
        fail(f"{args.trace} is empty")
    versions = {event.get("v") for event in events}
    if versions != {TRACE_SCHEMA_VERSION}:
        fail(f"trace schema versions {versions}, "
             f"expected {{{TRACE_SCHEMA_VERSION}}}")
    trees = assemble(events)
    roots = [node for trace in trees.values() for node in trace["roots"]]
    if not roots or any(n["event"]["name"] != "round" for n in roots):
        fail("trace does not assemble into round-rooted trees")

    print(f"verify_obs_exports: OK — {int(tests)} tests, "
          f"{int(executions)} executions, {int(dispatch_count)} dispatches, "
          f"{len(events)} span events, {len(roots)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
