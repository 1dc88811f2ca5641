"""The benchmark checks itself: ``python3 bench/selftest.py`` (under 20 s).

Not under ``tests/``: tier-1 stays what it was.  A one-second miniature (8 campaigns, 4 waves) of
every workload is run twice (with one set-up cycle each) and must

* print every end-to-end metric of ``BENCHMARK.json`` and nothing else in
  its contract line, with no failed operation;
* repeat its exact counts and every campaign digest from one run to the next.

On ``serial-minidb`` the tracing is checked too: the span tree's self times
sum to the campaign wall, and replaying the recorded history through
``plan_for`` + ``run_test`` lands within 15 % of what the runner seam saw
live (the runner does exactly those two things when no cache is attached).

Timings are not asserted (the miniatures share the host's two cores), only
counts, digests and the one ratio above, which is measured alone.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MINIATURE_SECONDS = 1.0
REPLAY_TOLERANCE = 0.15
#: the seam and the replay run seconds apart on a host whose speed wanders;
#: a slice missing from the ledger fails every attempt, a burst only one.
REPLAY_ATTEMPTS = 3


def _worker_init() -> None:
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from bench import ledger
    from bench import workloads as wl

    wl.SETUP_CYCLES = dict.fromkeys(wl.SETUP_CYCLES, 1)
    wl.SETUP_DISCARD = 0
    ledger.REPLAYS, ledger.HISTORY_TESTS = 1, 250


def miniature(task: tuple[str, int]) -> dict:
    """One untraced one-second run; ``task`` is (workload name, run number)."""
    from bench import endtoend, run
    from bench import workloads as wl

    name, number = task
    workdir = run.OUT / f"selftest-{os.getpid()}-{name}-{number}"
    return endtoend.run(
        wl.workload_by_name(name), wl.DEFAULT_SEED, MINIATURE_SECONDS, workdir
    )


def seams_against_replays() -> dict:
    """Trace serial-minidb's session and replay its history."""
    from bench import ledger, measure, paths, run
    from bench import workloads as wl

    workload = wl.workload_by_name("serial-minidb")
    workdir = run.OUT / f"selftest-{os.getpid()}-seams"
    book = ledger.Ledger()
    timer = measure.Calibrated()
    reference = paths.Reference(workload)
    try:
        traced = ledger.trace_kind(
            workload, wl.DEFAULT_SEED, wl.MIN_SEGMENTS, timer, reference, book
        )
        replays = ledger.replay_layers(
            workload, traced.history, ledger.CLUSTER_BATCH, timer, book,
            workdir / "replay",
        )
    finally:
        reference.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "failed_checks": book.notes,
        "runner_us": traced.history_runner_us,
        "replay_us": replays["plan"] + replays["run_test"],
    }


def main() -> int:
    started = time.perf_counter()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    wanted = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    problems: list[str] = []

    # The one timing check runs alone; the miniatures, which assert no
    # timing, then share the two cores.
    _worker_init()
    for _ in range(REPLAY_ATTEMPTS):
        traced = seams_against_replays()
        ratio = traced["replay_us"] / traced["runner_us"]
        if traced["failed_checks"] or abs(ratio - 1.0) <= REPLAY_TOLERANCE:
            break
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=2, mp_context=context, initializer=_worker_init
    ) as pool:
        tasks = [(name, number) for name in names for number in (1, 2)]
        documents = dict(zip(tasks, pool.map(miniature, tasks)))

    for name in names:
        first, second = documents[name, 1], documents[name, 2]
        for document in (first, second):
            units = {n: m["unit"] for n, m in document["metrics"].items()}
            if units != wanted:
                problems.append(f"{name}: metrics {units} != contract {wanted}")
            if not document["correct"] or document["failed"]:
                problems.append(f"{name}: {document['failed']} failed operations")
            if any(not m["value"] > 0 for m in document["metrics"].values()):
                problems.append(f"{name}: a metric is zero or not a number")
        for exact in ("tests", "attempted", "digest", "campaign_digests"):
            if first[exact] != second[exact]:
                problems.append(f"{name}: {exact} differs between two runs")
        for exact in ("failures_per_1k_tests",):
            if first["metrics"][exact] != second["metrics"][exact]:
                problems.append(f"{name}: {exact} differs between two runs")
        if (first["info"]["unique_failures_per_1k_tests"]
                != second["info"]["unique_failures_per_1k_tests"]):
            problems.append(f"{name}: unique failures differ between two runs")
        print(f"{name:18s} {first['tests']:5d} tests  digest {first['digest'][:16]}  "
              f"repeats: {first['digest'] == second['digest']}")

    problems += traced["failed_checks"]
    print(f"serial-minidb      plan + run_test replay / runner seam = {ratio:.3f}")
    if abs(ratio - 1.0) > REPLAY_TOLERANCE:
        problems.append(
            f"replay sums to {ratio:.2f} of the runner span in each of "
            f"{REPLAY_ATTEMPTS} attempts (tolerance {REPLAY_TOLERANCE:.0%})"
        )

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print(f"selftest {'FAILED' if problems else 'ok'} "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    os.environ.setdefault("PYTHONHASHSEED", "0")
    sys.exit(main())
