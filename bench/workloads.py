"""The benchmark's constants: four workloads, their shapes, their seeds.

Nothing here is tuned at run time.  The amount of work is fixed before a run
starts (``segments_for``), campaign seeds are a pure function of ``--seed``
(``campaign_seed``), and worker counts are constants, so two runs with the
same arguments execute byte-identical campaigns and their exact counts and
digests can be compared.

One *segment* is the unit that gets timed: one whole campaign (or one wave of
served jobs), 0.1-0.4 s, bracketed by the calibration kernel.  Short segments
because the host's speed wanders within tenths of a second (measured: a
kernel reading around every campaign leaves half the run-to-run error of one
around every third).  Segments of one run use *different* campaign seeds: a
fitness-guided campaign's cost depends on where its search wanders (time per
test varies about 19 % from seed to seed on MiniDB), so a run has to average
over many campaigns before ``--seed`` stops deciding the result.
"""

from __future__ import annotations

from dataclasses import dataclass

#: what ``--seed`` defaults to when the benchmark is run by hand.
DEFAULT_SEED = 3
#: worker processes / explorer nodes / service workers (``nproc`` of the
#: reference host).
WORKERS = 2
#: what ``--seconds`` buys: at BENCHMARK.json's ``run_seconds`` of 15, 120
#: campaigns on an engine path or 48 waves on the served path.
CAMPAIGNS_PER_SECOND = 8.0
WAVES_PER_SECOND = 3.2
#: the self-test's miniature; real runs never go this low.
MIN_SEGMENTS = 4
#: the traced run times every path on the workload's campaign shape, so
#: each gets a tenth of the segments (12 campaigns or 5 waves at 15 s); its
#: timings are per-layer indications, end-to-end figures never come from it.
TRACED_SHARE = 0.1
#: cold-start cycles measured for ``setup_s`` (the last one is kept warm
#: and runs the measured phase), after ``SETUP_DISCARD`` untimed ones that
#: take the once-per-process costs (lazy imports, first fork, page cache).
#: The in-process paths start in 50 ms, less than one kernel reading, and
#: need more cycles for a median as steady as the half-second spawns get.
SETUP_CYCLES = {"serial": 15, "processes": 15, "socket": 5, "served": 5}
SETUP_DISCARD = 1
#: the warm-up campaign that ends a set-up cycle: its length, and its seed,
#: which ``--seed`` does not move (a 64-test campaign's cost varies by a
#: quarter from seed to seed, and set-up is about the bring-up).
WARMUP_TESTS = 64
WARMUP_SEED = 0
#: every N-th segment is re-run on the in-process reference and its
#: digests compared (a full re-run would double the run's wall time).
REFERENCE_EVERY = 6
#: how often the served workload's clients poll for their job.  The
#: library default (``ServiceClient.wait``) is 0.5 s, which would put a
#: quantisation of up to half a second into every 0.1 s job.
POLL_S = 0.005
#: explorer-node slots and wire dialect of the socket fleet.
NODE_CAPACITY = 4
WIRE_VERSION = 3
#: the served workload's tenants, both with a quota of one running job.
TENANTS = ("a", "b")


@dataclass(frozen=True)
class Workload:
    """One campaign shape driven through one user path."""

    name: str
    #: one line, copied into BENCHMARK.json.
    why: str
    #: which user path: serial | processes | socket | served.
    path: str
    target: str
    fault_model: str
    max_call: int
    #: tests dispatched per exploration round (None = the path's default).
    batch_size: "int | None"
    #: tests per campaign (250 is ``afex run``'s own default length; a
    #: batched campaign overshoots to the next whole round).
    campaign_tests: int
    #: campaigns (served: concurrent jobs) in one timed segment.
    campaigns_per_segment: int
    segments_per_second: float
    #: how many cores the calibration kernel occupies at once: as many as
    #: the path keeps busy.  This box delivers anything between one and two
    #: cores' worth to its two vCPUs (two kernels side by side take 1x to
    #: 2.5x a single one), and only a yardstick loaded like the work sees it.
    yardstick_cores: int


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="serial-minidb",
        why="ExplorationSession in-process at batch 1: sim and core.search do "
            "all the work, no fabric, wire, store or quality; the control for "
            "every transport or service change",
        path="serial", target="minidb", fault_model="errno", max_call=10,
        batch_size=None, campaign_tests=250, campaigns_per_segment=1,
        segments_per_second=CAMPAIGNS_PER_SECOND, yardstick_cores=1,
    ),
    Workload(
        name="pool-minidb",
        why="the same MiniDB campaigns through CampaignEngine on a 2-worker "
            "process pool at batch 32: adds process_pool, manager and "
            "ClusterExplorer; answers pool-vs-serial on identical work",
        path="processes", target="minidb", fault_model="errno", max_call=10,
        batch_size=32, campaign_tests=250, campaigns_per_segment=1,
        segments_per_second=CAMPAIGNS_PER_SECOND, yardstick_cores=WORKERS,
    ),
    Workload(
        name="socket-coreutils",
        why="socket fabric with two afex node subprocesses on cheap coreutils "
            "tests at batch 32: wire, socket_fabric and fault_tolerance "
            "dominate and sim does little; where a transport gain shows",
        path="socket", target="coreutils", fault_model="errno", max_call=10,
        batch_size=32, campaign_tests=250, campaigns_per_segment=1,
        segments_per_second=CAMPAIGNS_PER_SECOND, yardstick_cores=WORKERS,
    ),
    Workload(
        name="served-replkv",
        why="a real afex serve subprocess, two tenants each submitting one "
            "100-test errno+disk replkv job per wave over HTTP, one all-new "
            "and one already stored: service, store, checkpoint, fault models",
        path="served", target="replkv", fault_model="errno+disk", max_call=2,
        batch_size=None, campaign_tests=100, campaigns_per_segment=2,
        # One server process whose two job threads share a GIL.
        segments_per_second=WAVES_PER_SECOND, yardstick_cores=1,
    ),
)


def workload_by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; known: "
        f"{', '.join(w.name for w in WORKLOADS)}"
    )


def segments_for(workload: Workload, seconds: float, share: float = 1.0) -> int:
    """How many segments ``--seconds`` buys (fixed before the run starts:
    the clock never stops a run, so counts repeat exactly)."""
    return max(
        MIN_SEGMENTS, round(seconds * workload.segments_per_second * share)
    )


def campaign_seed(run_seed: int, index: int) -> int:
    """Seed of the run's ``index``-th campaign.

    Runs with different ``--seed`` share no campaign; index 0 is the served
    path's pre-wave, measured campaigns start at 1.
    """
    return run_seed * 100_000 + index


def segment_seeds(workload: Workload, run_seed: int, segment: int) -> list[int]:
    """Campaign seeds of one segment.

    Engine paths run ``campaigns_per_segment`` fresh campaigns.  The served
    path runs a wave: tenant ``a`` submits campaign ``segment + 1`` (new to
    the store) while tenant ``b`` resubmits campaign ``segment`` (which
    ``a`` stored one wave earlier; the pre-wave stores campaign 0).
    """
    if workload.path == "served":
        return [
            campaign_seed(run_seed, segment + 1),
            campaign_seed(run_seed, segment),
        ]
    first = 1 + segment * workload.campaigns_per_segment
    return [
        campaign_seed(run_seed, first + i)
        for i in range(workload.campaigns_per_segment)
    ]
