"""AFEX reproduction: fast black-box testing of system recovery code.

Reproduces Banabic & Candea, "Fast Black-Box Testing of System Recovery
Code" (EuroSys 2012): a fitness-guided fault-injection explorer, the
fault-space description language, result-quality metrics (redundancy
clustering, impact precision, practical relevance), and a cluster-style
parallel execution substrate — plus simulated systems under test
(coreutils, MiniDB, MiniHttpd, DocStore) standing in for the paper's
real targets.

Quickstart::

    from repro import (
        TargetRunner, FaultSpace, FitnessGuidedSearch,
        ExplorationSession, IterationBudget, standard_impact,
        target_by_name,
    )

    target = target_by_name("coreutils")
    space = FaultSpace.product(
        test=range(1, len(target.suite) + 1),
        function=target.libc_functions(),
        call=[0, 1, 2],
    )
    session = ExplorationSession(
        runner=TargetRunner(target),
        space=space,
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(),
        target=IterationBudget(250),
        rng=1,
    )
    results = session.run()
    print(results.summary())
"""

from repro.core import (
    Axis,
    CollectMatching,
    CompositeImpact,
    CoverageImpact,
    CrashImpact,
    ExecutedTest,
    ExhaustiveSearch,
    ExplorationSession,
    FailedTestImpact,
    Fault,
    FaultSpace,
    FitnessGuidedSearch,
    GeneticSearch,
    HangImpact,
    ImpactMetric,
    ImpactThreshold,
    InvariantImpact,
    IterationBudget,
    RandomSearch,
    ResultCache,
    ResultSet,
    SearchStrategy,
    ResourceLeakImpact,
    SearchTarget,
    SlowdownImpact,
    Subspace,
    TargetRunner,
    TimeBudget,
    measure_leak_baseline,
    measure_step_baseline,
    parse_fault_space,
    standard_impact,
)
from repro.injection import AtomicFault, InjectionPlan
from repro.quality import (
    EnvironmentModel,
    RedundancyFeedback,
    build_report,
    cluster_stacks,
    levenshtein,
    measure_precision,
)
from repro.sim import RunResult, run_test
from repro.sim.targets import target_by_name

__version__ = "1.0.0"

__all__ = [
    "AtomicFault",
    "Axis",
    "CollectMatching",
    "CompositeImpact",
    "CoverageImpact",
    "CrashImpact",
    "EnvironmentModel",
    "ExecutedTest",
    "ExhaustiveSearch",
    "ExplorationSession",
    "FailedTestImpact",
    "Fault",
    "FaultSpace",
    "FitnessGuidedSearch",
    "GeneticSearch",
    "HangImpact",
    "ImpactMetric",
    "ImpactThreshold",
    "InjectionPlan",
    "InvariantImpact",
    "IterationBudget",
    "RandomSearch",
    "RedundancyFeedback",
    "ResourceLeakImpact",
    "ResultCache",
    "ResultSet",
    "RunResult",
    "SearchStrategy",
    "SearchTarget",
    "SlowdownImpact",
    "Subspace",
    "TargetRunner",
    "TimeBudget",
    "build_report",
    "cluster_stacks",
    "levenshtein",
    "measure_leak_baseline",
    "measure_precision",
    "measure_step_baseline",
    "parse_fault_space",
    "run_test",
    "standard_impact",
    "target_by_name",
    "__version__",
]


def __getattr__(name: str):
    # Target classes are lazy: building some suites is expensive.
    if name in ("CoreutilsTarget", "MiniDbTarget", "HttpdTarget", "DocStoreTarget"):
        from repro.sim import targets as _targets

        return getattr(_targets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
