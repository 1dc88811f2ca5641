"""Fault-injection-oriented assertions (§7 "Metrics", realized).

"Once fault injection becomes more widely adopted in test suites, we
expect developers to write fault injection-oriented assertions, such as
'under no circumstances should a file transfer be only partially
completed when the system stops,' in which case one can count the number
of failed assertions."

This bench does that counting for two shipped invariant contracts:

* **DocStore snapshot durability** — acknowledged snapshots must survive
  any later failure.  v0.8's truncate-in-place snapshot violates the
  contract across its persist group; v2.0's atomic temp+rename never
  does (verified sweep).
* **mv no-data-loss** — and the sweep's by-product: the invariant
  machinery *discovered* a check-then-act window in ``mv -b`` (a failed
  ``stat`` skips the backup and the rename clobbers the destination
  silently).
"""

from __future__ import annotations

from conftest import run_once
from repro.core import (
    CompositeImpact,
    ExplorationSession,
    FailedTestImpact,
    FaultSpace,
    FitnessGuidedSearch,
    InvariantImpact,
    IterationBudget,
    TargetRunner,
)
from repro.injection.models import model_injector
from repro.sim.process import run_test
from repro.sim.targets.coreutils import CoreutilsTarget
from repro.sim.targets.docstore import DocStoreTarget
from repro.util.tables import TextTable

PERSIST_TESTS = range(36, 51)
SWEEP_FUNCTIONS = ("open", "write", "close", "rename", "fsync", "unlink")
SWEEP_CALLS = range(1, 8)


def _violation_sweep(version: str) -> tuple[int, int]:
    """(injections swept, assertion violations) over the persist group."""
    target = DocStoreTarget(version)
    injector = model_injector("errno")
    swept = violated = 0
    for test_id in PERSIST_TESTS:
        for function in SWEEP_FUNCTIONS:
            for call in SWEEP_CALLS:
                plan = injector.plan_for({"function": function, "call": call})
                result = run_test(target, target.suite[test_id], plan)
                swept += 1
                if result.violated:
                    violated += 1
    return swept, violated


def test_assertion_counting_docstore(benchmark, report):
    def experiment():
        return {v: _violation_sweep(v) for v in ("0.8", "2.0")}

    rows = run_once(benchmark, experiment)

    table = TextTable(
        ["version", "injections swept", "assertion violations"],
        title=(
            "§7-style assertion counting — DocStore snapshot-durability "
            "contract over the persist group"
        ),
    )
    for version, (swept, violated) in rows.items():
        table.add_row([f"v{version}", swept, violated])
    report("invariant_assertions", table.render())

    # v0.8 loses acknowledged data; v2.0 provably (within the sweep) never.
    assert rows["0.8"][1] > 0
    assert rows["2.0"][1] == 0
    assert rows["0.8"][0] == rows["2.0"][0]  # identical sweeps


def test_invariant_guided_search_finds_mv_toctou(benchmark, report):
    """Invariant-scored exploration surfaces the discovered mv -b bug."""
    target = CoreutilsTarget()
    space = FaultSpace.product(
        test=range(21, 30),
        function=target.libc_functions(),
        call=[0, 1, 2],
    )

    def explore(seed):
        return ExplorationSession(
            runner=TargetRunner(target),
            space=space,
            # Failures give the search a gradient toward error-handling
            # regions; the (rare) invariant violation dominates the score.
            metric=CompositeImpact([InvariantImpact(30.0),
                                    FailedTestImpact(1.0)]),
            strategy=FitnessGuidedSearch(initial_batch=20),
            target=IterationBudget(250),
            rng=seed,
        ).run()

    def experiment():
        all_hits = []
        tested = 0
        for seed in (1, 2, 3, 4):
            results = explore(seed)
            tested += len(results)
            all_hits += [t for t in results if t.result.violated]
            if all_hits:
                break  # found: the search target is met
        return tested, all_hits

    tested, hits = run_once(benchmark, experiment)
    report(
        "invariant_mv_toctou",
        (
            f"invariant-guided search over mv: {tested} tests across "
            f"restarts, {len(hits)} data-loss scenario(s) found\n"
            + "\n".join(
                f"  {t.fault} -> {t.result.invariant_violations[0]}"
                for t in hits[:3]
            )
        ),
    )
    assert hits, "expected the mv -b stat TOCTOU to be discovered"
    assert all(
        t.fault.value("function") == "stat" and t.fault.value("test") == 27
        for t in hits
    )
    # Found well before exhausting the 513-point space x 4 restarts.
    assert tested <= 2 * space.size()
