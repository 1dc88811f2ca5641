#!/usr/bin/env python3
"""Verify a profiled run's observability exports (CI ``metrics-smoke``).

A run with ``--profile --metrics-out --trace-out`` must leave behind:

* a Prometheus exposition file that *parses* and contains the core
  series — tests, rounds, fitness, execution latency, golden-run hits —
  with a nonzero dispatch-latency histogram;
* an ``afex-profile.json`` profile summary of the same registry;
* a JSON-lines trace whose events all carry the current schema version
  and assemble into round-rooted trees.

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
                        help="also require the cache.* series (the run "
                             "was given a result cache)")
    args = parser.parse_args(argv)

    parsed = parse_prometheus(Path(args.metrics).read_text())
    missing = [series for series in CORE_SERIES if series not in parsed]
    if missing:
        fail(f"{args.metrics} is missing core series: {missing}")
    tests = parsed["afex_session_tests_total"]["samples"][
        "afex_session_tests_total"]
    if not tests > 0:
        fail(f"afex_session_tests_total is {tests}, expected > 0")
    dispatch_count = parsed["afex_fabric_dispatch_seconds"]["samples"].get(
        "afex_fabric_dispatch_seconds_count", 0.0)
    if not dispatch_count > 0:
        fail("the dispatch-latency histogram is empty")
    if args.require_cache and "afex_cache_hit_ratio" not in parsed:
        fail(f"{args.metrics} has no afex_cache_hit_ratio series")

    payload = json.loads(Path(args.profile_json).read_text())
    if payload.get("benchmark") != "observability":
        fail(f"{args.profile_json} is not an observability profile")
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
          f"{int(dispatch_count)} dispatches, {len(events)} span events, "
          f"{len(roots)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
