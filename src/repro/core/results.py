"""Exploration results: the output side of AFEX (§6.3).

A :class:`ResultSet` holds every executed test with its fault, outcome,
and impact, and provides the analyses the prototype reports: counts of
failed tests and crashes, redundancy clusters (with representatives),
rankings by severity, and generated replay scripts that reproduce an
injection outside the explorer — the "test suites" output the paper
highlights as saving "considerable human time in constructing regression
test suites."
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property

from repro.core.cache import (
    canonical_json,
    result_from_payload,
    result_to_json,
    result_to_payload,
)
from repro.core.fault import Fault, canonical, decanonical
from repro.quality.clustering import RedundancyClusters, cluster_stacks
from repro.sim.process import RunResult

__all__ = ["ExecutedTest", "ResultSet"]

#: result keys a ``version: 1`` :meth:`ResultSet.to_json` document did
#: not write, with the value each reads back as.
_V1_MISSING_KEYS = {
    "stdout": (), "stderr": (), "call_counts": {},
    "invariant_violations": (), "open_fds": 0, "leaked_heap_bytes": 0,
}


@dataclass(frozen=True)
class ExecutedTest:
    """One executed fault-injection test and its evaluation."""

    index: int  # execution order, 0-based
    fault: Fault
    result: RunResult
    impact: float
    fitness: float  # impact after feedback weighting (== impact without)

    @property
    def failed(self) -> bool:
        return self.result.failed

    @property
    def crashed(self) -> bool:
        return self.result.crashed

    @property
    def hung(self) -> bool:
        return self.result.hung

    def scoring_payload(self) -> dict[str, object]:
        """The JSON view of everything but the result (and the index,
        which is the test's position, not its content)."""
        return {
            "fault": {
                "subspace": self.fault.subspace,
                "attributes": [
                    [name, canonical(value)]
                    for name, value in self.fault.attributes
                ],
            },
            "impact": self.impact,
            "fitness": self.fitness,
        }

    @cached_property
    def _canonical(self) -> tuple[str, int]:
        """``(canonical_json, where its result starts)``, built once."""
        # "result" is the one key that sorts after the others.
        head = canonical_json(self.scoring_payload())[:-1] + ',"result":'
        return f"{head}{result_to_json(self.result)}}}", len(head)

    @property
    def canonical_json(self) -> str:
        """This test as compact, key-sorted JSON: :meth:`scoring_payload`
        around the result's canonical text.  The checkpoint journal
        stores this text and the history digest hashes it."""
        return self._canonical[0]

    @property
    def result_json(self) -> str:
        """The ``result`` member of :attr:`canonical_json`: what
        :func:`~repro.core.cache.result_to_json` returns, not re-encoded
        (the store's ``payload`` column)."""
        text, start = self._canonical
        return text[start:-1]


class ResultSet:
    """Ordered collection of executed tests with quality analyses."""

    def __init__(self, executed: Sequence[ExecutedTest]) -> None:
        self._executed = list(executed)

    @cached_property
    def digest(self) -> str:
        """The history digest of the set, computed once (see
        :func:`repro.core.checkpoint.history_digest`)."""
        from repro.core.checkpoint import history_digest

        return history_digest(self._executed)

    def __len__(self) -> int:
        return len(self._executed)

    def __iter__(self) -> Iterator[ExecutedTest]:
        return iter(self._executed)

    def __getitem__(self, index: int) -> ExecutedTest:
        return self._executed[index]

    # -- counts (the numbers Tables 1-5 report) ---------------------------------

    def failed_tests(self) -> list[ExecutedTest]:
        return [t for t in self._executed if t.failed]

    def crashes(self) -> list[ExecutedTest]:
        return [t for t in self._executed if t.crashed]

    def hangs(self) -> list[ExecutedTest]:
        return [t for t in self._executed if t.hung]

    def failed_count(self) -> int:
        return sum(1 for t in self._executed if t.failed)

    def crash_count(self) -> int:
        return sum(1 for t in self._executed if t.crashed)

    def coverage_union(self) -> frozenset[str]:
        blocks: set[str] = set()
        for t in self._executed:
            blocks |= t.result.coverage
        return frozenset(blocks)

    def matching(self, predicate: Callable[[ExecutedTest], bool]) -> list[ExecutedTest]:
        return [t for t in self._executed if predicate(t)]

    # -- ranking ----------------------------------------------------------------

    def top(self, n: int) -> list[ExecutedTest]:
        """The n highest-impact tests (severity ranking, §1)."""
        return sorted(self._executed, key=lambda t: t.impact, reverse=True)[:n]

    # -- redundancy (§5) -----------------------------------------------------------

    def cluster(
        self,
        of: Callable[[ExecutedTest], bool] | None = None,
        max_distance: int = 1,
    ) -> RedundancyClusters:
        """Cluster (a filtered subset of) tests by injection-point stack."""
        subset = self._executed if of is None else [t for t in self._executed if of(t)]
        stacks = [
            tuple(t.result.injection_stack) if t.result.injection_stack else None
            for t in subset
        ]
        return cluster_stacks(stacks, max_distance=max_distance)

    def unique_failures(self, max_distance: int = 0) -> int:
        """Failures with distinct injection-point stack traces (Table 5)."""
        return self.cluster(of=lambda t: t.failed, max_distance=max_distance).cluster_count

    def unique_crashes(self, max_distance: int = 0) -> int:
        """Crashes with distinct injection-point stack traces (Table 5)."""
        return self.cluster(of=lambda t: t.crashed, max_distance=max_distance).cluster_count

    def cluster_representatives(
        self, of: Callable[[ExecutedTest], bool] | None = None, max_distance: int = 1
    ) -> list[ExecutedTest]:
        """One test per redundancy cluster, ready for a regression suite."""
        subset = self._executed if of is None else [t for t in self._executed if of(t)]
        clusters = self.cluster(of=of, max_distance=max_distance)
        return [subset[i] for i in clusters.representatives()]

    # -- replay scripts (§6.3 "Test Suites") ------------------------------------------

    def replay_script(
        self, test: ExecutedTest, target_name: str, crash_id: str | None = None,
        injector: "object | None" = None,
    ) -> str:
        """Source of a standalone script reproducing one injection.

        The plan is compiled from ``test.fault`` by ``injector``, the
        campaign's (the ``errno`` model when None): a record has no plan.
        When ``crash_id`` is given (the store's scenario-key digest for
        this result) it is embedded in the header so the script and the
        one-command path stay cross-referenced: ``afex replay <id>``
        against the producing store or checkpoint reproduces the same
        scenario with call-level provenance.
        """
        from repro.core.runner import compile_scenario
        from repro.injection.models import model_injector

        _, plan = compile_scenario(
            injector or model_injector("errno"), test.fault.as_dict())
        plan_text = plan.format() or "# (no injection)"
        plan_lines = "\n".join(plan_text.splitlines())
        crash_line = f"\nCrash id:  {crash_id}" if crash_id else ""
        replay_hint = (
            f"\n# One-command equivalent (against the producing store or"
            f"\n# checkpoint): afex replay {crash_id}\n"
            if crash_id
            else ""
        )
        return f'''"""Auto-generated AFEX replay script.

Fault:     {test.fault}
Outcome:   {test.result.summary()}
Impact:    {test.impact:.2f}{crash_line}
"""
{replay_hint}

from repro.injection.plan import InjectionPlan
from repro.sim.process import run_test
from repro.sim.targets import target_by_name

PLAN = InjectionPlan.parse("""\\
{plan_lines}
""")

def replay():
    target = target_by_name("{target_name}")
    test = target.suite[{test.result.test_id}]
    return run_test(target, test, PLAN)

if __name__ == "__main__":
    result = replay()
    print(result.summary())
'''

    def regression_suite(
        self,
        target_name: str,
        of: Callable[[ExecutedTest], bool] | None = None,
        max_distance: int = 1,
        crash_id_for: Callable[[ExecutedTest], str | None] | None = None,
        injector: "object | None" = None,
    ) -> dict[str, str]:
        """Replay scripts for one representative per redundancy cluster.

        Returns a mapping of suggested file name -> script source.
        ``crash_id_for`` optionally maps each representative to its
        stable crash id so the scripts embed an ``afex replay`` hint;
        ``injector`` is :meth:`replay_script`'s.
        """
        scripts: dict[str, str] = {}
        for rep in self.cluster_representatives(of=of, max_distance=max_distance):
            name = f"replay_{rep.index:05d}.py"
            crash_id = crash_id_for(rep) if crash_id_for is not None else None
            scripts[name] = self.replay_script(
                rep, target_name, crash_id=crash_id, injector=injector)
        return scripts

    # -- persistence (§6.3: results outlive the exploration session) -----------------

    def to_json(self) -> str:
        """Serialize the result set (full results, traces excluded).

        Each result is written with the codec checkpoints, the store
        and replay share (:func:`repro.core.cache.result_to_payload`),
        so everything the quality analyses and invariant reports
        consume survives: a saved run can be re-clustered, re-ranked,
        and re-reported later without re-executing anything.
        """
        payload = [
            {
                "index": t.index,
                "fault": {
                    "subspace": t.fault.subspace,
                    "attributes": [[n, v] for n, v in t.fault.attributes],
                },
                "impact": t.impact,
                "fitness": t.fitness,
                "result": result_to_payload(t.result),
            }
            for t in self._executed
        ]
        return json.dumps({"version": 2, "tests": payload})

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a result set saved with :meth:`to_json`.

        ``version: 1`` documents (a hand-copied subset of the result
        fields) still load: the keys they lack default to empty.
        """
        data = json.loads(text)
        executed = []
        for entry in data["tests"]:
            raw_fault = entry["fault"]
            fault = Fault(
                raw_fault["subspace"],
                tuple(
                    (n, decanonical(v)) for n, v in raw_fault["attributes"]
                ),
            )
            executed.append(ExecutedTest(
                index=entry["index"],
                fault=fault,
                result=result_from_payload(
                    {**_V1_MISSING_KEYS, **entry["result"]}
                ),
                impact=entry["impact"],
                fitness=entry["fitness"],
            ))
        return cls(executed)

    def save(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ResultSet":
        from pathlib import Path

        return cls.from_json(Path(path).read_text())

    # -- summary ---------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        return {
            "tests": len(self._executed),
            "failed": self.failed_count(),
            "crashes": self.crash_count(),
            "hangs": len(self.hangs()),
            "covered_blocks": len(self.coverage_union()),
            "max_impact": max((t.impact for t in self._executed), default=0.0),
        }
