"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

is what the driver runs (one workload, one JSON object on the last line).
By hand, ``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``)
runs all four workloads and prints every metric by name with its unit;
``--traced`` fills the per-layer ledger instead; ``--aa N`` runs N
alternating pairs of sets of the same tree and fails if they disagree.
Exits non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def _bootstrap() -> None:
    """Pin the hash seed (string hashing decides dict and set layout, hence
    timing) and make ``bench`` and ``repro`` importable from a checkout."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        sys.exit("bench/run.py: no src/repro beside bench/ -- the benchmark "
                 "measures the repository it sits in and cannot run alone")


def document_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh scratch directory; returns its document."""
    from bench import endtoend, ledger
    from bench import workloads as wl

    workload = wl.workload_by_name(name)
    workdir = OUT / f"tmp-{os.getpid()}-{name}"
    module = ledger if trace else endtoend
    document = module.run(workload, seed, seconds, workdir)
    OUT.mkdir(parents=True, exist_ok=True)
    document_path(name, seed, trace).write_text(
        json.dumps(document, indent=1) + "\n"
    )
    return document


def run_fresh(name: str, seed: int, seconds: float, trace: int,
              quiet: bool = False) -> dict:
    """Run one workload in a process of its own, as the driver does, and
    load the document it left: peak RSS and warm state must not leak from
    one run into the next."""
    document_path(name, seed, trace).unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.DEVNULL if quiet else None,
    )
    if not document_path(name, seed, trace).exists():
        raise RuntimeError(f"{name} seed {seed} left no result document")
    return json.loads(document_path(name, seed, trace).read_text())


def print_document(document: dict) -> None:
    print(f"== {document['workload']}  seed {document['seed']}  "
          f"{document['segments']} segments  {document['tests']} tests  "
          f"trace {document['trace']}")
    for name, metric in document["metrics"].items():
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in document.get("info", {}).items():
        if isinstance(value, (int, float)):
            print(f"  ({name:46s} {value:>14.6g})")
    print(f"  digest {document['digest']}  "
          f"failed ops {document['failed']}/{document['attempted']}  "
          f"hostcal {document['hostcal_sha256'][:12]}")


def contract_line(document: dict) -> str:
    """The driver's last line: exactly these four keys."""
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    })


def main(argv: "list[str] | None" = None) -> int:
    from bench import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default=None,
                        choices=[w.name for w in wl.WORKLOADS],
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="run N alternating pairs of sets of this tree "
                             "and compare them (bench/compare.py)")
    args = parser.parse_args(argv)
    trace = 1 if args.traced else args.trace
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = [args.workload] if args.workload else [w.name for w in wl.WORKLOADS]

    if args.aa:
        from bench import compare

        return compare.run_aa(args.aa, names, args.seed, seconds)

    if args.workload is None:
        documents = [run_fresh(name, args.seed, seconds, trace) for name in names]
        return 0 if all(d["correct"] for d in documents) else 1
    document = run_one(args.workload, args.seed, seconds, trace)
    print_document(document)
    print(contract_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    _bootstrap()
    # A terminated run unwinds like any other, so that every ``finally``
    # reaps its children and closes its ports.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
