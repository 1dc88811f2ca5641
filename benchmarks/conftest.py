"""Shared benchmark harness utilities.

Every benchmark regenerates one of the paper's tables or figures.  The
reproduced rows are printed (visible with ``pytest -s``) and also written
to ``benchmarks/out/<experiment>.txt`` so EXPERIMENTS.md can cite them.

Benchmarks run their experiment exactly once inside the timing harness
(``benchmark.pedantic(..., rounds=1)``): the measured quantity is the
wall-clock of the whole experiment, which is itself a reproduction datum
(the paper contrasts 250-iteration searches against CPU-years of
exhaustive exploration).
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report():
    """report(name, text): print and persist an experiment's output."""
    OUT_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n=== {name} ===\n{text}\n")
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, func):
    """Execute ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
