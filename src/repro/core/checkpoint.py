"""Versioned campaign checkpoints: crash-resumable exploration.

A long certification campaign that dies at generation 9,000 should not
restart at generation zero — least of all in a tool whose thesis is
that recovery code must be exercised.  This module snapshots a running
exploration's state to a versioned JSON file and restores it so that a
killed campaign, resumed, produces a result history **byte-identical**
to an uninterrupted run with the same seed.

The snapshot holds the *observable* state of the session: the full
result history (fault, impact, and the same
:class:`~repro.sim.process.RunResult` wire payload the result cache
uses), the RNG state, a fingerprint of the fault space, the batch
size, and free-form caller metadata (target name, strategy, seed,
cache statistics).  Strategy internals are deliberately *not*
serialized — every bundled strategy is a deterministic function of
``(space, rng, observations)``, so resume **replays** the recorded
history through a freshly-bound strategy: each replayed round re-asks
the strategy for its proposals, checks them against the record (a
divergence means code drift or a foreign checkpoint and raises
:class:`~repro.errors.CheckpointError`), feeds back the recorded
results without executing anything, and finally verifies the RNG
landed in exactly the recorded state.  Replay of ``n`` tests costs
``n`` cache-speed observations, no simulator time.

On disk a checkpoint is a version-3 **append-only journal** of JSON
lines, so a periodic write costs the round it records, not the history
behind it (version 3 holds the one record every path keeps, see
:func:`~repro.core.runner.record`; a serial version 2 held another):

* line 1, the header: ``kind``, ``version``, ``batch_size``, ``space``
  and the static caller ``meta``;
* every further line, one record per write: ``tests`` (only those
  absorbed since the previous record), ``n`` (the running count),
  ``rng_state``, the dynamic ``meta`` of that moment, and ``chain`` —
  the sha256 of the canonical history through ``n``, which *is*
  ``history_digest(executed[:n])``.  One hasher is fed the very text
  each record stores — every test's own
  :attr:`~repro.core.results.ExecutedTest.canonical_json`, comma-joined
  — so a test is encoded once, for file, digest and store.

A writer's **first** write replaces whatever is at the path atomically
(temp file + fsync + ``os.replace`` — see
:func:`~repro.core.cache.write_text_atomically`), so the fault being
survived — a kill mid-write — cannot corrupt the file that enables
surviving it, and a resumed run starts from a compacted one-record
journal.  Every later write appends one line, flushed and fsync'd
before :meth:`CheckpointWriter.maybe_write` returns.
:func:`load_checkpoint` folds the records back into one
:class:`Checkpoint`, re-verifying ``chain`` on every record; a torn
*final* line (a kill mid-append) is dropped, any earlier damage raises
:class:`~repro.errors.CheckpointError`, and so does any other version.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.core.cache import (
    canonical_json,
    record_from_payload,
    result_to_payload,
    write_text_atomically,
)
from repro.core.fault import Fault, decanonical
from repro.core.faultspace import FaultSpace
from repro.core.results import ExecutedTest
from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "space_fingerprint",
    "build_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "replay_history",
    "history_digest",
]

#: bump on any incompatible change to the checkpoint schema.
CHECKPOINT_VERSION = 3
_KIND = "afex-checkpoint"


def space_fingerprint(space: FaultSpace) -> dict[str, object]:
    """A cheap identity for a fault space: axes and total size.

    Enough to reject resuming a checkpoint against the wrong space
    before replay even starts (replay itself then catches any deeper
    mismatch fault by fault).
    """
    return {
        "axes": sorted(space.axis_names()),
        "size": space.size(),
    }


def _executed_to_payload(test: ExecutedTest) -> dict[str, object]:
    """What ``test.canonical_json`` is the canonical JSON of."""
    return {**test.scoring_payload(), "result": result_to_payload(test.result)}


def _executed_from_payload(payload: dict, index: int) -> ExecutedTest:
    fault_data = payload["fault"]
    fault = Fault(
        subspace=fault_data["subspace"],
        attributes=tuple(
            (name, decanonical(value))
            for name, value in fault_data["attributes"]
        ),
    )
    return ExecutedTest(
        index=index,
        fault=fault,
        result=record_from_payload(payload["result"]),
        impact=payload["impact"],
        fitness=payload["fitness"],
    )


def _rng_state_to_json(state: object) -> list:
    version, internal, gauss_next = state  # type: ignore[misc]
    return [version, list(internal), gauss_next]


def _rng_state_from_json(data: Sequence) -> tuple:
    return (data[0], tuple(data[1]), data[2])


@dataclass
class Checkpoint:
    """One snapshot of a running exploration, ready to resume from."""

    version: int
    batch_size: int
    space: dict[str, object]
    executed: list[dict]
    rng_state: list | None = None
    #: free-form caller configuration (target, strategy, seed,
    #: iterations, cache statistics) — round-tripped verbatim.
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """How many executed tests the snapshot holds."""
        return len(self.executed)

    def restore_executed(self) -> list[ExecutedTest]:
        """The recorded result history, as live :class:`ExecutedTest`s."""
        return [
            _executed_from_payload(payload, index)
            for index, payload in enumerate(self.executed)
        ]

    def digest(self) -> str:
        """Content digest of the recorded history (see
        :func:`history_digest`)."""
        return _Chain(map(canonical_json, self.executed)).digest()


def build_checkpoint(
    executed: Sequence[ExecutedTest],
    rng: random.Random,
    space: FaultSpace,
    batch_size: int,
    meta: dict[str, object] | None = None,
) -> Checkpoint:
    """Snapshot a session's state between two exploration rounds."""
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        batch_size=batch_size,
        space=space_fingerprint(space),
        executed=[_executed_to_payload(test) for test in executed],
        rng_state=_rng_state_to_json(rng.getstate()),
        meta=dict(meta or {}),
    )


class _Chain:
    """sha256 of the canonical history, fed one test at a time.

    :meth:`feed` takes the canonical JSON of each test; the hasher sees
    them comma-joined between brackets — the canonical JSON of the whole
    list, never built — so :meth:`digest` after ``count`` tests equals
    ``history_digest(executed[:count])``.
    """

    def __init__(self, texts: Iterable[str] = ()) -> None:
        self._hasher = hashlib.sha256(b"[")
        self.count = 0
        self.feed(texts)

    def feed(self, texts: Iterable[str]) -> None:
        for text in texts:
            if self.count:
                self._hasher.update(b",")
            self._hasher.update(text.encode())
            self.count += 1

    def digest(self) -> str:
        closed = self._hasher.copy()
        closed.update(b"]")
        return closed.hexdigest()


def _header_line(
    batch_size: int, space: dict[str, object], meta: dict[str, object]
) -> str:
    return json.dumps({
        "kind": _KIND,
        "version": CHECKPOINT_VERSION,
        "batch_size": batch_size,
        "space": space,
        "meta": meta,
    }) + "\n"


def _record_line(
    chain: _Chain,
    texts: Sequence[str],
    rng_state: list | None,
    meta: dict[str, object],
) -> str:
    """Feed the tests' ``texts`` to the chain; lay them out as a record."""
    chain.feed(texts)
    head = json.dumps({
        "n": chain.count,
        "chain": chain.digest(),
        "rng_state": rng_state,
        "meta": meta,
    })
    return f'{head[:-1]}, "tests": [{",".join(texts)}]}}\n'


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> Path:
    """Atomically persist a checkpoint as a one-record journal; returns
    the written path."""
    destination = Path(path)
    write_text_atomically(
        destination,
        _header_line(checkpoint.batch_size, checkpoint.space, checkpoint.meta)
        + _record_line(
            _Chain(), [canonical_json(p) for p in checkpoint.executed],
            checkpoint.rng_state, {},
        ),
    )
    return destination


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint journal."""
    source = Path(path)
    try:
        lines = source.read_bytes().split(b"\n")
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {source}") from None
    except OSError as exc:
        raise CheckpointError(
            f"unreadable checkpoint {source}: {exc}"
        ) from exc
    # Whatever follows the last newline is a torn append (a kill
    # mid-write) or nothing.
    tail = lines.pop()
    try:
        data = json.loads(lines[0] if lines else tail)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise CheckpointError(
            f"unreadable checkpoint {source}: {exc}"
        ) from exc
    if not isinstance(data, dict) or data.get("kind") != _KIND:
        raise CheckpointError(f"{source} is not an AFEX checkpoint")
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {source} has version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    try:
        checkpoint = Checkpoint(
            version=version,
            batch_size=int(data["batch_size"]),
            space=dict(data["space"]),
            executed=[],
            meta=dict(data.get("meta") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint {source}: {exc!r}"
        ) from exc
    if not lines:
        raise CheckpointError(
            f"checkpoint {source} is truncated inside its header"
        )
    _fold_records(source, checkpoint, lines[1:])
    return checkpoint


def _fold_records(
    source: Path, checkpoint: Checkpoint, lines: Sequence[bytes]
) -> None:
    """Fold a journal's records into ``checkpoint``, verifying each
    record's ``chain`` against the history accumulated so far."""
    chain = _Chain()
    record: dict = {}
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            tests = list(record["tests"])
            chain.feed(map(canonical_json, tests))
            intact = (
                record["n"] == chain.count
                and record["chain"] == chain.digest()
            )
        except (KeyError, TypeError, ValueError):
            intact = False
        if not intact:
            raise CheckpointError(
                f"checkpoint {source}: record {number} is damaged (bad "
                "JSON or broken chain); only a torn final line is "
                "recoverable"
            )
        checkpoint.executed.extend(tests)
    checkpoint.rng_state = record.get("rng_state")
    checkpoint.meta.update(record.get("meta") or {})


def replay_history(
    checkpoint: Checkpoint,
    strategy: object,
    batch_size: int,
    space: FaultSpace,
    account: Callable[[Fault, object], ExecutedTest],
    rng: random.Random | None = None,
) -> int:
    """Drive a freshly-bound strategy through the recorded history.

    ``account`` is the session's scoring path — ``(fault, result) ->
    ExecutedTest`` — called with each *recorded* result so the
    strategy, impact metric, and result history end up in exactly the
    state they had when the checkpoint was written, without touching
    the simulator.  Returns the number of replayed tests.

    Raises :class:`CheckpointError` when the checkpoint cannot belong
    to this configuration: wrong space, wrong batch size, a strategy
    that proposes different faults (code drift), an impact that scores
    differently, or an RNG that lands in a different state.
    """
    fingerprint = space_fingerprint(space)
    if checkpoint.space != fingerprint:
        raise CheckpointError(
            f"checkpoint space {checkpoint.space} does not match the "
            f"session's space {fingerprint}"
        )
    if checkpoint.batch_size != batch_size:
        raise CheckpointError(
            f"checkpoint was written at batch_size="
            f"{checkpoint.batch_size}, session uses {batch_size}; "
            "resume with the original batch size for byte-identical "
            "trajectories"
        )
    recorded = checkpoint.restore_executed()
    replayed = 0
    while replayed < len(recorded):
        batch = strategy.propose_batch(batch_size)  # type: ignore[attr-defined]
        if not batch:
            raise CheckpointError(
                "strategy exhausted the space during replay; the "
                "checkpoint records more history than this "
                "configuration can produce"
            )
        for fault in batch:
            if replayed >= len(recorded):
                raise CheckpointError(
                    "strategy proposed past the recorded history; the "
                    "checkpoint was not written on a round boundary "
                    "for this batch size"
                )
            record = recorded[replayed]
            if fault != record.fault:
                raise CheckpointError(
                    f"replay diverged at test #{replayed}: strategy "
                    f"proposed {fault}, checkpoint recorded "
                    f"{record.fault} — the checkpoint belongs to a "
                    "different configuration or code version"
                )
            executed = account(fault, record.result)
            if executed.impact != record.impact:
                raise CheckpointError(
                    f"replay diverged at test #{replayed}: impact "
                    f"scored {executed.impact}, checkpoint recorded "
                    f"{record.impact}"
                )
            replayed += 1
    if rng is not None and checkpoint.rng_state is not None:
        if rng.getstate() != _rng_state_from_json(checkpoint.rng_state):
            raise CheckpointError(
                "RNG state after replay does not match the checkpoint; "
                "a stochastic component drifted and the resumed run "
                "would not be byte-identical"
            )
    return replayed


class CheckpointWriter:
    """Periodic snapshot policy: write every N executed tests.

    Sessions call :meth:`maybe_write` between rounds; the writer
    journals whenever at least ``every`` new tests accumulated since
    the last write (and always on ``force=True``, used at session
    end).  ``every=0`` disables periodic writes but still allows the
    final forced one.

    The first write replaces the file atomically and holds the whole
    history so far; every later one appends a record holding only the
    tests since the previous write (see the module docstring).  Each
    record carries ``meta_provider()`` — what a resume verifies;
    ``closing_meta()`` is observability a resume never reads, so only
    the forced closing record pays for it, and a run killed before its
    end has none.  :meth:`close` the writer when the run ends.
    """

    def __init__(
        self,
        path: str | Path,
        every: int,
        space: FaultSpace,
        batch_size: int,
        meta: dict[str, object] | None = None,
        meta_provider: Callable[[], dict[str, object]] | None = None,
        closing_meta: Callable[[], dict[str, object]] | None = None,
    ) -> None:
        if every < 0:
            raise CheckpointError(
                f"checkpoint interval must be >= 0, got {every}"
            )
        self.path = Path(path)
        self.every = every
        self.space = space
        self.batch_size = batch_size
        self.meta = dict(meta or {})
        self.meta_provider = meta_provider
        self.closing_meta = closing_meta
        self.writes = 0
        #: running digest and count of the tests journaled so far.
        self._chain = _Chain()
        self._handle: IO[str] | None = None

    def maybe_write(
        self,
        executed: Sequence[ExecutedTest],
        rng: random.Random,
        force: bool = False,
    ) -> bool:
        count = len(executed)
        due = self.every > 0 and count - self._chain.count >= self.every
        closing = (
            self.closing_meta()
            if force and self.closing_meta is not None else {}
        )
        unwritten = count > self._chain.count or not self.writes
        if not (due or (force and (unwritten or closing))):
            return False
        meta = self.meta_provider() if self.meta_provider is not None else {}
        meta.update(closing)
        line = _record_line(
            self._chain,
            [t.canonical_json for t in executed[self._chain.count:]],
            _rng_state_to_json(rng.getstate()),
            meta,
        )
        if self._handle is None:
            write_text_atomically(
                self.path,
                _header_line(
                    self.batch_size, space_fingerprint(self.space), self.meta
                ) + line,
            )
            self._handle = open(self.path, "a")
        else:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self.writes += 1
        return True

    def close(self) -> None:
        """Release the journal's file handle; the writer is spent."""
        if self._handle is not None:
            self._handle.close()


def history_digest(executed: Sequence[ExecutedTest]) -> str:
    """Content digest of a result history.

    Two runs with byte-identical histories — same faults, same
    impacts, same simulated outcomes, in the same order — produce the
    same digest; this is what the kill-and-resume round-trip in CI
    compares against an uninterrupted run.  Wall-clock noise (report
    costs) is excluded by construction: the digest covers the same
    wire payloads the checkpoint persists — each test's own canonical
    text, folded in one at a time.
    """
    return _Chain(test.canonical_json for test in executed).digest()
