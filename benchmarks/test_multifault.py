"""Multi-fault scenario exploration (§4/§7: beyond single faults).

The paper's language and prototype support "fault injection scenarios of
arbitrary complexity", but §7 evaluates single faults only ("we limit
our evaluation to only single-fault scenarios").  This bench completes
the picture: some recovery code only runs when *two* things go wrong —
mv's copy-fallback error handling requires a cross-device rename failure
AND a failure inside the fallback.  Single-fault exploration provably
cannot execute those blocks; multi-fault exploration reaches them.
"""

from __future__ import annotations

from conftest import run_once
from repro.core import (
    ExhaustiveSearch,
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.sim.targets.coreutils import COREUTILS_FUNCTIONS, CoreutilsTarget
from repro.util.tables import TextTable

#: recovery blocks in mv's copy fallback that need >= 2 simultaneous faults.
DEEP_RECOVERY_BLOCKS = (
    "mv.copy.abort",
    "mv.copy.read_failed",
    "mv.copy.write_failed",
    "mv.copy.close_dest_failed",
)


def _single_fault_coverage() -> frozenset[str]:
    target = CoreutilsTarget()
    space = FaultSpace.product(
        test=range(21, 30), function=COREUTILS_FUNCTIONS, call=[0, 1, 2]
    )
    results = ExplorationSession(
        runner=TargetRunner(target),
        space=space,
        metric=standard_impact(),
        strategy=ExhaustiveSearch(),
        target=IterationBudget(10**9),
        rng=0,
    ).run()
    return results.coverage_union()


def _multi_fault_coverage(iterations: int, seed: int) -> frozenset[str]:
    target = CoreutilsTarget()
    space = FaultSpace.product(
        test=range(21, 30),
        function_a=["rename"], call_a=[0, 1], errno_a=["EXDEV"],
        function_b=["open", "read", "write", "close", "unlink"],
        call_b=[0, 1, 2, 3],
    )
    results = ExplorationSession(
        runner=TargetRunner(target),
        space=space,
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(initial_batch=15),
        target=IterationBudget(min(iterations, space.size())),
        rng=seed,
    ).run()
    return results.coverage_union()


def test_multifault_reaches_deep_recovery(benchmark, report):
    def experiment():
        single = _single_fault_coverage()
        multi = _multi_fault_coverage(150, seed=5)
        return single, multi

    single, multi = run_once(benchmark, experiment)

    table = TextTable(
        ["deep recovery block", "single-fault", "multi-fault"],
        title=(
            "Multi-fault exploration vs the *entire* single-fault space "
            "(mv tests): blocks requiring two simultaneous faults"
        ),
    )
    for block in DEEP_RECOVERY_BLOCKS:
        table.add_row([
            block,
            "covered" if block in single else "-",
            "covered" if block in multi else "-",
        ])
    report("multifault_recovery", table.render())

    # Exhaustive single-fault exploration cannot reach any of them...
    for block in DEEP_RECOVERY_BLOCKS:
        assert block not in single, block
    # ...while 150 sampled two-fault scenarios reach several.
    reached = sum(1 for block in DEEP_RECOVERY_BLOCKS if block in multi)
    assert reached >= 2
    # And the multi-fault run still covers the single-fault-reachable
    # copy-path entry (rename-EXDEV alone).
    assert "mv.copy.enter" in multi
