"""Tests for reporting helpers and the afex CLI."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main
from repro.core.fault import Fault
from repro.core.results import ExecutedTest, ResultSet
from repro.injection.plan import InjectionPlan
from repro.reporting import (
    comparison_table,
    cumulative_counts,
    render_structure_map,
    structure_map,
)
from repro.sim.process import RunResult


def executed(index: int, failed: bool, impact: float = 0.0,
             coverage: frozenset = frozenset()) -> ExecutedTest:
    result = RunResult(
        test_id=1, test_name="t", plan=InjectionPlan.none(),
        exit_code=1 if failed else 0, crash_kind=None, crash_message=None,
        crash_stack=None, injection_stack=None, injected=True,
        coverage=coverage, steps=1,
    )
    return ExecutedTest(index, Fault.of(i=index), result, impact, impact)


class TestComparisonTable:
    def test_rows_and_columns(self):
        results = ResultSet([executed(0, True), executed(1, False)])
        table = comparison_table({"fitness": results, "random": results})
        text = table.render()
        assert "fitness" in text and "random" in text
        assert "# failed tests" in text

    def test_coverage_row_with_universe(self):
        covered = ResultSet([executed(0, False, coverage=frozenset({"a"}))])
        table = comparison_table(
            {"x": covered}, coverage_universe=frozenset({"a", "b"})
        )
        assert "coverage %" in table.render()
        assert "50.0" in table.render()


class TestCumulativeCounts:
    def test_monotone_and_correct(self):
        results = ResultSet([
            executed(0, True), executed(1, False), executed(2, True),
        ])
        series = cumulative_counts(results)
        assert series == [1, 1, 2]

    def test_custom_predicate(self):
        results = ResultSet([executed(0, False, impact=10.0),
                             executed(1, False, impact=0.0)])
        series = cumulative_counts(results, lambda t: t.impact > 5)
        assert series == [1, 1]

    def test_empty(self):
        assert cumulative_counts(ResultSet([])) == []


class TestStructureMap:
    def test_grid_shape(self, coreutils):
        functions = ["malloc", "opendir"]
        grid = structure_map(coreutils, functions, test_ids=[1, 2, 12])
        assert len(grid) == 3
        assert all(len(row) == 2 for row in grid)

    def test_render_contains_markers(self, coreutils):
        functions = ["malloc", "opendir"]
        grid = structure_map(coreutils, functions, test_ids=[2, 12])
        text = render_structure_map(grid, functions, [2, 12])
        assert "#" in text  # at least one failing injection
        assert "test" in text


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--target", "coreutils"])
        assert args.command == "run" and args.strategy == "fitness"

    def test_targets_command(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "coreutils" in out and "minidb" in out

    def test_run_command_prints_summary(self, capsys):
        code = main([
            "run", "--target", "coreutils", "--iterations", "20",
            "--seed", "1", "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "space size" in out and "1653" in out
        assert "top" in out

    def test_run_random_strategy(self, capsys):
        assert main([
            "run", "--target", "coreutils", "--strategy", "random",
            "--iterations", "10", "--seed", "2",
        ]) == 0

    def test_run_with_space_file(self, tmp_path, capsys):
        space_file = tmp_path / "space.fs"
        space_file.write_text(
            "test : [ 1 , 29 ]\nfunction : { malloc, stat }\n"
            "call : [ 0 , 2 ] ;\n"
        )
        assert main([
            "run", "--target", "coreutils", "--space", str(space_file),
            "--iterations", "15", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "174" in out  # 29*2*3 space size

    def test_uncompilable_space_file_is_a_usage_error(self, tmp_path, capsys):
        space_file = tmp_path / "bad.afex"
        space_file.write_text(
            "test : [ 1 , 3 ]\nfunction : { malloc }\n"
            "call : [ 1 , 2 ]\nerrno : { EXDEV } ;\n"
        )
        assert main([
            "run", "--target", "coreutils", "--space", str(space_file),
        ]) == 2
        assert capsys.readouterr().out == (
            "bad fault space: malloc cannot fail with EXDEV; "
            "profile allows ['ENOMEM']\n"
        )

    def test_run_online_quality_prints_live_rows(self, capsys):
        assert main([
            "run", "--target", "coreutils", "--iterations", "25",
            "--seed", "1", "--online-quality",
        ]) == 0
        out = capsys.readouterr().out
        assert "live clusters" in out
        assert "non-redundant" in out
        assert "distances computed/avoided" in out

    def test_run_online_quality_leaves_history_unchanged(self, capsys):
        args = ["run", "--target", "coreutils", "--iterations", "20",
                "--seed", "4"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--online-quality"]) == 0
        online = capsys.readouterr().out
        digest = [line for line in plain.splitlines()
                  if line.startswith("history digest:")]
        assert digest and digest[0] in online

    def test_feedback_with_online_quality_uses_live_novelty(self, capsys):
        assert main([
            "run", "--target", "coreutils", "--iterations", "20",
            "--seed", "2", "--feedback", "--online-quality",
            "--similarity-threshold", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "live clusters" in out

    def test_run_cache_report_keeps_the_cache_totals(self, tmp_path, capsys):
        """``--report-json``'s ``cache`` block is the warmed memo's own
        totals (no block without ``--cache``)."""
        import json

        journal, report = tmp_path / "ck.json", tmp_path / "r.json"
        args = ["run", "--target", "coreutils", "--iterations", "20",
                "--seed", "4", "--report-json", str(report)]
        assert main([*args, "--checkpoint", str(journal)]) == 0
        first = capsys.readouterr().out
        assert json.loads(report.read_text())["cache"] is None
        assert main([*args, "--cache", str(journal)]) == 0
        second = capsys.readouterr().out
        # Golden answers of the first run were journaled too: the warm
        # memo answers all 20, and the cold golden store none.
        assert int(re.search(r"golden hits +\| (\d+)", first)[1]) > 0
        assert re.search(r"golden hits +\| 0$", second, re.MULTILINE)
        assert re.search(r"remembered answers +\| 20$", second, re.MULTILINE)
        cache = json.loads(report.read_text())["cache"]
        assert 1 <= cache.pop("bodies") <= 20
        assert cache == {
            "entries": 20, "hits": 20, "misses": 0, "evictions": 0,
        }

    @pytest.mark.parametrize("fabric", ["serial", "threads"])
    def test_report_json_names_each_top_test(self, tmp_path, capsys, fabric):
        """A record carries no test name; the document names each top
        test from the target's suite, whichever fabric ran it."""
        import json

        path = tmp_path / "r.json"
        assert main(["run", "--target", "replkv", "--fault-model",
                     "errno+disk", "--iterations", "40", "--seed", "3",
                     "--fabric", fabric, "--workers", "2",
                     "--report-json", str(path)]) == 0
        capsys.readouterr()
        top = json.loads(path.read_text())["top"]
        assert "failover-003" in [entry["test_name"] for entry in top]
        assert all(entry["test_name"] for entry in top)

    def test_profile_command_emits_dsl(self, capsys):
        assert main(["profile", "--target", "coreutils",
                     "--max-call", "2"]) == 0
        out = capsys.readouterr().out
        from repro.core.dsl import parse_fault_space

        space = parse_fault_space(out)
        assert "test" in space.axis_names()

    def test_unknown_target_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--target", "nonsense"])

    def test_dispatch_deadline_refused_off_the_process_pool(self, capsys):
        assert main(["run", "--target", "coreutils", "--fabric", "threads",
                     "--dispatch-deadline", "1"]) == 2
        out = capsys.readouterr().out
        assert "--dispatch-deadline needs --fabric processes" in out
        assert "history digest" not in out
