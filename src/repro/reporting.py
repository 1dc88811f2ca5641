"""Paper-style reporting helpers.

The evaluation benches regenerate each of the paper's tables and
figures; these helpers turn :class:`~repro.core.results.ResultSet`
objects into the corresponding rows, series, and ASCII fault-space maps
(the Fig. 1 rendering).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.results import ExecutedTest, ResultSet
from repro.injection.models import model_injector
from repro.sim.process import run_test
from repro.sim.testsuite import Target
from repro.util.tables import TextTable

__all__ = [
    "comparison_table",
    "cumulative_counts",
    "structure_map",
    "render_structure_map",
]


def comparison_table(
    columns: dict[str, ResultSet],
    title: str = "",
    coverage_universe: frozenset[str] | None = None,
) -> TextTable:
    """The Tables 1-3 layout: one column per strategy, one row per metric.

    When ``coverage_universe`` is given (usually the blocks an
    exhaustive run covered), a coverage percentage row is included.
    """
    table = TextTable(["metric", *columns.keys()], title=title)
    if coverage_universe is not None:
        table.add_row([
            "coverage %",
            *(
                f"{100.0 * len(rs.coverage_union() & coverage_universe) / max(len(coverage_universe), 1):.1f}"
                for rs in columns.values()
            ),
        ])
    table.add_row(["# tests executed", *(len(rs) for rs in columns.values())])
    table.add_row(["# failed tests", *(rs.failed_count() for rs in columns.values())])
    table.add_row(["# crashes", *(rs.crash_count() for rs in columns.values())])
    table.add_row(["# hangs", *(len(rs.hangs()) for rs in columns.values())])
    return table


def cumulative_counts(
    results: ResultSet,
    predicate: Callable[[ExecutedTest], bool] = lambda t: t.failed,
) -> list[int]:
    """The Fig. 8 series: matching-test count after each iteration."""
    counts = []
    total = 0
    for test in results:
        if predicate(test):
            total += 1
        counts.append(total)
    return counts


def structure_map(
    target: Target,
    functions: Sequence[str],
    test_ids: Sequence[int] | None = None,
    call_number: int = 1,
) -> list[list[bool]]:
    """The Fig. 1 grid: does failing call #``call_number`` to function x
    during test y make the test fail?

    Returns ``grid[test_index][function_index]`` booleans.
    """
    injector = model_injector("errno")
    ids = list(test_ids) if test_ids is not None else list(target.suite.ids)
    grid: list[list[bool]] = []
    for test_id in ids:
        row = []
        for function in functions:
            plan = injector.plan_for({"function": function, "call": call_number})
            result = run_test(target, target.suite[test_id], plan)
            row.append(result.failed)
        grid.append(row)
    return grid


def render_structure_map(
    grid: list[list[bool]],
    functions: Sequence[str],
    test_ids: Sequence[int],
) -> str:
    """ASCII rendering of a Fig. 1 structure map (# = failure, . = none)."""
    lines = []
    width = max(len(str(t)) for t in test_ids)
    for test_id, row in zip(test_ids, grid):
        cells = "".join("#" if failed else "." for failed in row)
        lines.append(f"test {str(test_id).rjust(width)} | {cells}")
    lines.append(f"{' ' * (7 + width)}+-{'-' * len(functions)}")
    # Vertical function labels, paper-style.
    tallest = max(len(f) for f in functions)
    for i in range(tallest):
        chars = "".join(
            f[i] if i < len(f) else " " for f in functions
        )
        lines.append(f"{' ' * (9 + width)}{chars}")
    return "\n".join(lines)
