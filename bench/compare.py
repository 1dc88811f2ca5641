"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

A set is what ``bench/run.py --aa`` writes (``{"runs": [document, ...]}``) or
a plain list of the documents ``bench/run.py`` leaves in ``bench/out/``.
Runs pair up by workload and order.  For every workload x metric the table
gives both medians with their quartiles, the change as a share of A's
median, how many pairs B won, and a verdict by the rule of the
choosing-metrics guide, with the bounds of ``BENCHMARK.json``:

* ``better``      B wins at least nine tenths of the pairs (ties count for
                  neither) and the medians differ by more than the distance
                  between A's own quartiles;
* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  neither, but A's own quartiles are further apart than the
                  bound, so "no change" cannot be told from "a change the
                  noise hides" -- unless every run of B beats every run of A;
* ``same``        within the bound, and the bound is wider than the noise.

Metrics without a bound (the per-layer ledger) are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_contract() -> dict[str, dict]:
    """``name -> {unit, better, bound?}`` for every metric of BENCHMARK.json."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric
        for metric in contract["end_to_end"] + contract["per_layer"]
    }


def load_set(path: "str | Path") -> list[dict]:
    raw = json.loads(Path(path).read_text())
    return raw["runs"] if isinstance(raw, dict) else raw


def series(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` in run order."""
    table: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str,
            bound: "float | None") -> tuple[str, float, int, int]:
    """``(verdict, worsening as a share of A's median, B's wins, decided
    pairs)`` for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    q1, mid_a, q3 = quartiles(a)
    mid_b = statistics.median(b)
    worsening = sign * (mid_a - mid_b) / abs(mid_a) if mid_a else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    decided = sum(1 for x, y in pairs if x != y)
    if bound is None:
        return "-", worsening, wins, decided
    if (decided and wins >= 0.9 * decided and worsening < 0
            and abs(mid_b - mid_a) > q3 - q1):
        return "better", worsening, wins, decided
    if worsening > bound:
        return "worse", worsening, wins, decided
    noise = (q3 - q1) / abs(mid_a) if mid_a else 0.0
    clean_sweep = all(sign * (y - x) > 0 for x in a for y in b)
    if noise > bound and not clean_sweep:
        return "unresolved", worsening, wins, decided
    return "same", worsening, wins, decided


def compare(runs_a: list[dict], runs_b: list[dict]) -> tuple[list[str], list[str]]:
    """The table's lines, and the ``workload metric`` pairs judged worse."""
    contract = load_contract()
    a, b = series(runs_a), series(runs_b)
    lines = [
        f"{'workload':18s} {'metric':40s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'B vs A':>8s} {'bound':>6s} "
        f"{'B wins':>7s}  verdict"
    ]
    worse = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = contract.get(name, {})
        bound = metric.get("bound")
        outcome, worsening, wins, decided = verdict(
            a[key], b[key], metric.get("better", "lower"), bound
        )
        if outcome == "worse":
            worse.append(f"{workload} {name}")

        def cell(values):
            q1, mid, q3 = quartiles(values)
            return f"{mid:11.5g} [{q1:9.5g}, {q3:9.5g}]"

        lines.append(
            f"{workload:18s} {name:40s} {cell(a[key]):>34s} {cell(b[key]):>34s} "
            f"{-worsening:+8.2%} "
            f"{'' if bound is None else format(bound, '.0%'):>6s} "
            f"{wins:>3d}/{decided:<3d}  {outcome}"
        )
    return lines, worse


def run_aa(pairs: int, names: list[str], seed: int, seconds: float) -> int:
    """Run ``pairs`` alternating pairs of sets of this one tree.

    Pair ``i`` runs every workload with seed ``seed + i`` once for set A and
    once for set B, swapping which goes first.  The same tree must agree
    with itself: no metric ``worse`` beyond its bound, and -- the seeds being
    equal -- identical counts and digests.  Returns the exit status.
    """
    from bench import run

    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for pair in range(pairs):
        for side in ("AB", "BA")[pair % 2]:
            for name in names:
                document = run.run_fresh(
                    name, seed + pair, seconds, trace=0, quiet=True
                )
                print(f"set {side} pair {pair}: {name} "
                      f"{'ok' if document['correct'] else 'INCORRECT'}", flush=True)
                sets[side].append(document)
    run.OUT.mkdir(parents=True, exist_ok=True)
    for side, runs in sets.items():
        (run.OUT / f"aa-{side}.json").write_text(
            json.dumps({"runs": runs}, indent=1) + "\n"
        )
    lines, worse = compare(sets["A"], sets["B"])
    print("\n".join(lines))
    problems = [f"worse beyond its bound: {entry}" for entry in worse]
    for run_a, run_b in zip(sets["A"], sets["B"]):
        where = f"{run_a['workload']} seed {run_a['seed']}"
        if not (run_a["correct"] and run_b["correct"]):
            problems.append(f"incorrect run: {where}")
        if run_a["digest"] != run_b["digest"]:
            problems.append(f"digests differ: {where}")
        exact = "failures_per_1k_tests"
        if run_a["metrics"][exact] != run_b["metrics"][exact]:
            problems.append(f"{exact} differs: {where}")
    for problem in problems:
        print(f"A/A FAILED: {problem}")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    lines, worse = compare(load_set(argv[0]), load_set(argv[1]))
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
