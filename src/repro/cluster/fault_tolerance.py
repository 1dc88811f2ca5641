"""Fault tolerance for execution fabrics: retries and health.

AFEX's premise is that recovery code is where systems break — and a
fault-exploration harness is itself a system whose recovery code runs
constantly: workers die under the very faults they inject, dispatches
hang, and wire payloads get corrupted.  This module makes crashed,
timed-out, and garbled dispatches *first-class outcomes* instead of
campaign-ending events (the ZOFI lesson: fault-coverage campaigns only
scale when the harness tolerates its own failures).

Two cooperating pieces:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic jitter; pure arithmetic, shared by every fabric;
* :class:`FabricHealth` — an auditable counter record (retries by
  cause, timeouts, worker deaths, requeues) surfaced through reports,
  with the invariant that every retry is attributed to exactly one
  cause.

:class:`FaultTolerantFabric` is the one recovery loop, around *any*
execution fabric (thread pool, virtual, socket, a chaos-injecting test
double, and the process pool's raw round): it validates every report
against the requests it sent, requeues what is missing or corrupt, and
gives up only after the policy's attempt bound — at which point the
failure is a :class:`~repro.errors.ClusterError` with the full health
record attached.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, fields

from repro.cluster.messages import TestReport, TestRequest
from repro.errors import ClusterError

__all__ = [
    "RetryPolicy",
    "FabricHealth",
    "FaultTolerantFabric",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    ``max_attempts`` counts *dispatch* attempts, so ``3`` means one
    initial dispatch plus at most two retries.  The delay before retry
    ``n`` (1-based) is ``base_delay * multiplier**(n-1)``, capped at
    ``max_delay``, plus a uniform jitter of up to ``jitter`` times the
    capped delay — the standard decorrelation trick so requeued work
    from many explorers does not stampede a recovering fabric.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ClusterError(
                f"retry policy needs >= 1 attempt, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ClusterError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ClusterError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter < 0:
            raise ClusterError(f"jitter must be >= 0, got {self.jitter}")

    def delay_for(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to back off before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ClusterError(f"retry attempts are 1-based, got {attempt}")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if self.jitter and rng is not None:
            delay += delay * self.jitter * rng.random()
        return delay

    def describe(self) -> str:
        return (
            f"{self.max_attempts} attempts, backoff "
            f"{self.base_delay}s x{self.multiplier} (cap {self.max_delay}s)"
        )


@dataclass
class FabricHealth:
    """Auditable counters for a fabric's fault-tolerance machinery.

    Invariant (checked by :meth:`accounted`): every requeued request is
    attributed to exactly one cause, so ``retries`` always equals the
    sum of the per-cause ``retried_after_*`` counters — "FabricHealth
    counters account for every retry".
    """

    #: dispatch rounds handed to the underlying fabric (incl. retries).
    dispatches: int = 0
    #: individual test requests sent, counting each re-dispatch.
    requests: int = 0
    #: requests that came back with a valid report.
    completed: int = 0
    #: requests requeued after a failed round (== sum of causes below).
    retries: int = 0
    retried_after_timeout: int = 0
    retried_after_error: int = 0
    retried_missing: int = 0
    retried_corrupt: int = 0
    #: dispatch rounds that hit the per-dispatch deadline.
    timeouts: int = 0
    #: dispatch rounds killed by a raised exception (dead worker).
    worker_deaths: int = 0
    #: worker pools torn down and rebuilt after a death or hang.
    worker_replacements: int = 0
    #: nodes that left gracefully (drain-then-deregister) — counted
    #: apart from ``worker_deaths`` because a drained node finished its
    #: backlog first: nothing was requeued and nothing was lost.
    graceful_exits: int = 0
    #: requests re-dispatched because their round outlived the deadline.
    stragglers: int = 0
    #: malformed or misaddressed reports discarded by validation.
    corrupt_reports: int = 0
    #: times a fabric degraded to its in-process fallback.
    fallbacks: int = 0

    _CAUSES = ("timeout", "error", "missing", "corrupt")

    def record_retry(self, cause: str, count: int = 1) -> None:
        """Attribute ``count`` requeued requests to one failure cause."""
        if cause not in self._CAUSES:
            raise ClusterError(f"unknown retry cause {cause!r}")
        self.retries += count
        name = f"retried_after_{cause}" if cause in ("timeout", "error") \
            else f"retried_{cause}"
        setattr(self, name, getattr(self, name) + count)

    def accounted(self) -> bool:
        """True iff every retry is attributed to exactly one cause."""
        return self.retries == (
            self.retried_after_timeout + self.retried_after_error
            + self.retried_missing + self.retried_corrupt
        )

    #: counters that describe *distinct failure events* rather than
    #: request flow.  When two layers observe the same traffic (a
    #: wrapper and the fabric it wraps), flow counters (``dispatches``,
    #: ``requests``, ``completed``) describe the *same* logical requests
    #: twice, but each retry/timeout/death is a distinct event seen by
    #: exactly one layer — so only these may be summed across layers.
    _LAYER_COUNTERS = (
        "retries", "retried_after_timeout", "retried_after_error",
        "retried_missing", "retried_corrupt", "timeouts", "worker_deaths",
        "worker_replacements", "graceful_exits", "stragglers",
        "corrupt_reports", "fallbacks",
    )

    def merge_layer(self, other: "FabricHealth") -> "FabricHealth":
        """Fold an *inner layer's* record into this one without
        double-counting request flow.

        Only failure/recovery event counters are summed (each such
        event happens at exactly one layer); ``dispatches`` /
        ``requests`` / ``completed`` keep this record's values, since
        the inner layer saw the same logical requests this one did.
        Preserves the :meth:`accounted` invariant: both records satisfy
        it individually and the cause counters sum alongside
        ``retries``.
        """
        for name in self._LAYER_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def describe(self) -> str:
        return (
            f"{self.completed}/{self.requests} ok, {self.retries} retried "
            f"({self.retried_after_timeout} timeout, "
            f"{self.retried_after_error} error, "
            f"{self.retried_missing} missing, "
            f"{self.retried_corrupt} corrupt), "
            f"{self.worker_deaths} worker deaths, "
            f"{self.worker_replacements} replaced, "
            f"{self.fallbacks} fallbacks"
        )


class FaultTolerantFabric:
    """Wraps any execution fabric with report validation and retry.

    The wrapper owns the whole recovery loop so inner fabrics stay
    simple: it dispatches the pending requests, validates every report
    that comes back (right type, right request id), requeues whatever
    is missing — because the round raised, or a report was dropped or
    corrupt — backs off per the :class:`RetryPolicy`, and re-dispatches.
    Requests succeed independently: one poisoned request cannot lose
    its round-mates' results.

    A round that raises the builtin :class:`TimeoutError` outlived a
    deadline the inner fabric enforces itself (the process pool kills
    and replaces a hung worker first); it is attributed to ``timeout``.
    Any other exception is a dead worker, attributed to ``error``.
    ``sleep`` is injectable so tests can assert backoff schedules
    without waiting them out.
    """

    def __init__(
        self,
        inner: object,
        policy: RetryPolicy | None = None,
        health: FabricHealth | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.health = health or FabricHealth()
        # Jitter only affects how long we sleep, never what we execute,
        # so a fixed default seed keeps whole runs reproducible.
        self._rng = rng or random.Random(0)
        self._sleep = sleep

    def __len__(self) -> int:
        return len(self.inner)  # type: ignore[arg-type]

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        """Execute a batch, recovering lost work until the policy gives up.

        Reports return in request order, exactly like the raw fabrics,
        so explorer bookkeeping cannot tell recovery happened — except
        through :attr:`health`.
        """
        if not requests:
            return []
        reports: dict[int, TestReport] = {}
        pending = list(requests)
        attempt = 0
        while True:
            self.health.dispatches += 1
            self.health.requests += len(pending)
            received, round_cause = self._dispatch_once(pending)
            expected = {r.request_id for r in pending}
            corrupt_ids = self._absorb(received, expected, reports)
            pending = [r for r in pending if r.request_id not in reports]
            if not pending:
                break
            attempt += 1
            if attempt >= self.policy.max_attempts:
                raise ClusterError(
                    f"{len(pending)} dispatches still failing after "
                    f"{attempt} attempts ({self.policy.describe()}); "
                    f"fabric health: {self.health.describe()}"
                )
            for request in pending:
                if round_cause is not None:
                    self.health.record_retry(round_cause)
                elif request.request_id in corrupt_ids:
                    self.health.record_retry("corrupt")
                else:
                    self.health.record_retry("missing")
            delay = self.policy.delay_for(attempt, self._rng)
            if delay > 0:
                self._sleep(delay)
        return [reports[r.request_id] for r in requests]

    # -- internals -------------------------------------------------------------

    def _dispatch_once(
        self, pending: list[TestRequest]
    ) -> tuple[list[object], str | None]:
        """One round against the inner fabric.

        Returns the raw reports plus the round-level failure cause:
        ``"timeout"`` (the inner fabric's deadline fired), ``"error"``
        (the fabric raised — a dead worker), or ``None`` (the round
        returned; individual requests may still be missing or corrupt).
        """
        try:
            return list(self.inner.run_batch(list(pending))), None  # type: ignore[attr-defined]
        except TimeoutError:
            self.health.timeouts += 1
            self.health.stragglers += len(pending)
            return [], "timeout"
        except Exception:
            self.health.worker_deaths += 1
            return [], "error"

    def _absorb(
        self,
        received: list[object],
        expected: set[int],
        reports: dict[int, TestReport],
    ) -> set[int]:
        """Validate a round's reports; returns ids with corrupt payloads."""
        corrupt_ids: set[int] = set()
        for report in received:
            request_id = getattr(report, "request_id", None)
            if (not isinstance(report, TestReport)
                    or request_id not in expected):
                self.health.corrupt_reports += 1
                if request_id in expected:
                    corrupt_ids.add(request_id)  # type: ignore[arg-type]
                continue
            reports[request_id] = report
            self.health.completed += 1
        return corrupt_ids

    def combined_health(self) -> FabricHealth:
        """This layer's record folded with the inner fabric's own.

        A wrapped :class:`~repro.cluster.socket_fabric.SocketFabric`
        requeues a dead node's chunk within the round before the
        wrapper ever sees a problem; those retries live in the socket
        fabric's own health record.  The combined view layers them in
        via :meth:`FabricHealth.merge_layer`, so every retry appears
        exactly once and request flow is not double-counted.  Returns a
        copy — neither layer's live record is mutated.
        """
        combined = FabricHealth(**self.health.as_dict())
        inner_health = getattr(self.inner, "health", None)
        if isinstance(inner_health, FabricHealth):
            combined.merge_layer(inner_health)
        return combined

    def describe(self) -> str:
        inner = getattr(self.inner, "describe", lambda: type(self.inner).__name__)
        return f"fault-tolerant[{inner()}]: {self.policy.describe()}"
