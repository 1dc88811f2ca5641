"""The untraced run: set-up cycles, calibrated segments, digest checks.

End-to-end numbers come only from here; tracing is a separate run
(``bench/ledger.py``) whose overhead is reported, never mixed in.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
from pathlib import Path

from bench import hostcal, measure, paths
from bench import workloads as wl


def measure_setup(workload: wl.Workload, workdir: Path,
                  timer: measure.Calibrated):
    """``SETUP_CYCLES`` timed cold starts (suite build, fabric or server
    bring-up, one warm-up campaign); returns the normalised seconds of each
    and the last cycle's path, still open and warm."""
    seconds = []
    cycles = wl.SETUP_DISCARD + wl.SETUP_CYCLES[workload.path]
    for cycle in range(cycles):
        path = paths.open_path(workload, workdir / f"cycle{cycle}")

        def cold_start(path=path) -> None:
            path.open()
            path.warm_up()

        try:
            sample, _ = timer.run(cold_start, tree_cpu=False)
        except BaseException:
            path.close()
            raise
        if cycle >= wl.SETUP_DISCARD:
            seconds.append(sample.norm_wall_s)
        if cycle < cycles - 1:
            path.close()
    return seconds, path


def run_segments(path, workload: wl.Workload, run_seed: int, segments: int,
                 timer: measure.Calibrated):
    """The measured phase: per segment, its calibrated sample (None where
    the segment raised) and the outcomes of its campaigns."""
    measured: list = []
    for index in range(segments):
        seeds = wl.segment_seeds(workload, run_seed, index)
        try:
            sample, raw = timer.run(lambda: path.segment(seeds))
            done = path.outcomes(raw)
        except Exception as exc:
            print(f"segment {index} raised: {exc!r}")
            sample = None
            done = [paths.CampaignOutcome.lost(seed) for seed in seeds]
        measured.append((sample, done))
    return measured


def check_digests(workload: wl.Workload, measured) -> set[int]:
    """Seeds of campaigns whose digest is not what ``paths.Reference`` says
    it has to be."""
    reference = paths.Reference(workload)
    try:
        return {
            outcome.seed
            for index, (_, done) in enumerate(measured)
            for outcome in done
            if outcome.ok
            and not reference.matches(index, outcome.seed, outcome.digest)
        }
    finally:
        reference.close()


def run(workload: wl.Workload, run_seed: int, seconds: float,
        workdir: Path) -> dict:
    """One untraced run of one workload; the result document."""
    frozen = hostcal.assert_frozen()
    segments = wl.segments_for(workload, seconds)
    try:
        with measure.Calibrated(workload.yardstick_cores) as timer:
            setup_s, path = measure_setup(workload, workdir, timer)
            try:
                path.prime(wl.campaign_seed(run_seed, 0))
                measured = run_segments(
                    path, workload, run_seed, segments, timer
                )
                peak_rss_mb = measure.tree_peak_rss_mb(skip=timer.helper_pid)
            finally:
                path.close()
        wrong = check_digests(workload, measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    campaigns = [o for _, done in measured for o in done]
    failed_ops = sum(1 for o in campaigns if not o.ok or o.seed in wrong)
    tests = sum(o.tests for o in campaigns)
    # Per-test time of each whole segment; a segment with a failed
    # campaign is counted in ``failed`` and gives no timing.
    timed = [
        (sample, sum(o.tests for o in done))
        for sample, done in measured
        if sample is not None and all(o.ok for o in done)
    ]
    if not timed:
        raise RuntimeError(f"{workload.name}: no segment completed")
    wall_per_test = [s.norm_wall_s / n for s, n in timed]
    cpu_per_test = [s.norm_cpu_s / n for s, n in timed]
    unique = [o.unique_failures for o in campaigns
              if o.unique_failures is not None]

    metrics = {
        "tests_per_s": (1.0 / statistics.median(wall_per_test), "1/s"),
        "cpu_ms_per_test": (statistics.median(cpu_per_test) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
        "failures_per_1k_tests":
            (sum(o.failed for o in campaigns) / max(tests, 1) * 1e3, "count"),
    }
    return {
        "workload": workload.name,
        "trace": 0,
        "seed": run_seed,
        "seconds": seconds,
        "segments": segments,
        "tests": tests,
        "attempted": len(campaigns),
        "failed": failed_ops,
        "correct": failed_ops == 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        # For the reader; not part of the contract line (bench/README.md).
        "info": {
            "failed_ops_share": failed_ops / len(campaigns),
            "unique_failures_per_1k_tests": (
                sum(unique) / max(tests, 1) * 1e3 if unique else None
            ),
            "segment_cv": measure.cv(wall_per_test),
            "host_speed_index":
                hostcal.CAL_REF_S / statistics.median(timer.kernel_s),
            "setup_cycles_s": setup_s,
        },
        "digest": hashlib.sha256(
            "\n".join(o.digest for o in campaigns).encode()
        ).hexdigest(),
        "campaign_digests": [o.digest for o in campaigns],
        "hostcal_sha256": frozen,
        "segment_us_per_test": [w * 1e6 for w in wall_per_test],
    }
