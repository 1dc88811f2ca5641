"""Execute one test of a system under test in a fresh simulated process.

:func:`run_test` is the moral equivalent of the paper's node manager
running the user's *test script* (§6): it builds a pristine environment
(filesystem, heap, libc), lets the target's startup code populate it,
installs the injection plan, runs the test body, and converts whatever
happens — normal exit, graceful error exit, assertion failure, segfault,
abort, hang — into a :class:`RunResult` that sensors and impact metrics
consume.

Every run is hermetic: nothing is shared between runs except the target
definition itself, which is immutable.  Determinism: given (target,
test, plan, trial) the result is reproducible; the per-run RNG exposed
as :attr:`Env.rng` is seeded from exactly those values, so targets with
deliberately "flaky" subsystems vary across *trials* but not across
re-runs of the same trial (this is what gives the paper's impact
precision metric, §5, something to measure).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.injection.plan import InjectionPlan
from repro.sim.coverage import Coverage
from repro.sim.crashes import ExitProgram, SimCrash, TestFailure
from repro.sim.filesystem import FsError, SimFilesystem
from repro.sim.libc import DEFAULT_STEP_BUDGET, SimLibc
from repro.sim.stack import CallStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.testsuite import Target, TestCase

__all__ = ["Env", "RunResult", "Verdicts", "run_test"]

#: frame name -> its coverage block name (``frame.<name>``), built once
#: so every run, golden and memo body holds the one ``str``.  Bounded by
#: the frame names the shipped targets' code enters.
_FRAME_BLOCKS: dict[str, str] = {}


class Env:
    """Everything a simulated program sees: its libc, coverage, stdout.

    Test bodies receive an ``Env`` and interact with the world only
    through it.  ``env.libc`` is the injectable application–library
    interface; ``env.frame`` pushes simulated stack frames; ``env.exit``
    terminates the program gracefully with a status code.
    """

    def __init__(
        self,
        fs: SimFilesystem,
        libc: SimLibc,
        stack: CallStack,
        cov: Coverage,
        rng: "random.Random | str",
    ) -> None:
        self.fs = fs
        self.libc = libc
        self.stack = stack
        self.cov = cov
        #: the run's generator, or the seed it is built from on first use
        #: (seeding costs more than most tests spend in it: only MiniDB's
        #: flaky network path draws from it).
        self._rng = rng
        self.stdout: list[str] = []
        self.stderr: list[str] = []
        #: scratch space for target state that outlives a single frame
        #: (e.g. the MiniDB server object), keyed by name.
        self.state: dict[str, object] = {}
        #: sensor measurements published by the program under test.
        self.measurements: dict[str, float] = {}
        #: one frame per name entered so far; a frame holds no state of
        #: its own, so recursion and re-entry share it.
        self._frames: dict[str, object] = {}

    @property
    def rng(self) -> random.Random:
        """The per-run RNG (see the module docstring)."""
        rng = self._rng
        if isinstance(rng, str):
            rng = self._rng = random.Random(rng)
        return rng

    def frame(self, name: str):
        """``with env.frame("mi_create"):`` — push a stack frame.

        Entering a function is also a coverage event (``frame.<name>``),
        so function-level coverage comes for free and the happy-path
        block population dominates the universe, as it does for real
        targets (the paper: the fault-free suite alone covers 35.53% of
        coreutils vs 36.17% under exhaustive injection).
        """
        frame = self._frames.get(name)
        if frame is None:  # coverage is a set: once says it all
            frame = self._frames[name] = self.stack.frame(name)
            block = _FRAME_BLOCKS.get(name)
            if block is None:
                block = _FRAME_BLOCKS[name] = f"frame.{name}"
            self.cov.hit(block)
        return frame

    def print(self, text: str) -> None:
        self.stdout.append(text)

    def error(self, text: str) -> None:
        self.stderr.append(text)

    def exit(self, code: int) -> None:
        """Simulated ``exit(code)`` — unwinds the whole program."""
        raise ExitProgram(code)

    def check(self, condition: bool, message: str) -> None:
        """Test-suite assertion: failure is a *test* failure, not a crash."""
        if not condition:
            raise TestFailure(message)


class Verdicts:
    """What an outcome says of its test, from its ``crash_kind``,
    ``exit_code`` and ``invariant_violations`` (a :class:`RunResult`,
    and a history's :class:`~repro.core.runner.Outcome`)."""

    __slots__ = ()

    @property
    def violated(self) -> bool:
        """Did the run break an always-true property (e.g. lose data)?"""
        return bool(self.invariant_violations)

    @property
    def crashed(self) -> bool:
        return self.crash_kind in ("segfault", "abort", "exception")

    @property
    def hung(self) -> bool:
        return self.crash_kind == "hang"

    @property
    def failed(self) -> bool:
        """Did the test suite report failure (crash, hang, or bad exit)?"""
        return self.crash_kind is not None or self.exit_code != 0

    def summary(self) -> str:
        if self.crash_kind:
            return f"{self.crash_kind}: {self.crash_message}"
        if self.exit_code != 0:
            reason = self.failure_message or "non-zero exit"
            return f"failed (exit {self.exit_code}): {reason}"
        return "passed"


@dataclass
class RunResult(Verdicts):
    """The complete observable outcome of one test execution."""

    test_id: int
    test_name: str
    plan: InjectionPlan
    exit_code: int
    crash_kind: str | None  # "segfault" | "abort" | "exception" | "hang" | None
    crash_message: str | None
    crash_stack: tuple[str, ...] | None
    #: simulated stack at the (first) injection point; None if no fault fired
    injection_stack: tuple[str, ...] | None
    #: did a *libc* fault of the plan fire?  A world hook (disk, net,
    #: bitflip) that fires leaves this False.
    injected: bool
    coverage: frozenset[str]
    steps: int
    stdout: tuple[str, ...] = ()
    stderr: tuple[str, ...] = ()
    failure_message: str | None = None
    #: sensor measurements (latency, throughput, fd counts...), by name
    measurements: dict[str, float] = field(default_factory=dict)
    #: per-function call counts observed during the run
    call_counts: dict[str, int] = field(default_factory=dict)
    #: full call trace (only populated when run with trace=True)
    trace: tuple = ()
    #: file descriptors still open when the program ended (leak signal)
    open_fds: int = 0
    #: heap bytes still allocated when the program ended (leak signal)
    leaked_heap_bytes: int = 0
    #: violated always-true properties (§7's fault-injection-oriented
    #: assertions), evaluated post-mortem — even after a crash.
    invariant_violations: tuple[str, ...] = ()
    #: call-level provenance log (only populated when run with
    #: provenance=True): which call touched which sim-FS/heap resource.
    provenance: tuple = ()
    #: libc calls ``Target.setup`` made before the plan was armed: they
    #: count in ``steps`` and ``call_counts``, but no fault can fire on
    #: them (0 for every shipped target — they set up through ``env.fs``).
    setup_steps: int = 0


#: where the simulated programs live: an exception whose innermost frame
#: is in here was raised by the program under test.
_TARGETS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "targets", ""
)


def _raised_in_target(exc: Exception) -> bool:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    filename = os.path.abspath(tb.tb_frame.f_code.co_filename)
    return filename.startswith(_TARGETS_DIR)


def run_test(
    target: "Target",
    test: "TestCase",
    plan: InjectionPlan | None = None,
    trial: int = 0,
    trace: bool = False,
    trace_stacks: bool = False,
    step_budget: int = DEFAULT_STEP_BUDGET,
    provenance: bool = False,
) -> RunResult:
    """Run one test of ``target`` under ``plan`` in a fresh environment."""
    # `is None`, not truthiness: a hooks-only ScenarioPlan has zero atomic
    # faults and is therefore falsy (``__len__``), but must not be dropped.
    if plan is None:
        plan = InjectionPlan.none()
    fs = SimFilesystem()
    stack = CallStack()
    libc = SimLibc(
        fs, stack, step_budget=step_budget, trace=trace,
        trace_stacks=trace_stacks, provenance=provenance,
    )
    cov = Coverage()
    env = Env(
        fs, libc, stack, cov, f"{target.name}/{target.version}/{test.id}/{trial}"
    )

    # Startup script: populate the environment without injection active.
    target.setup(env, test)
    setup_steps = libc.steps
    libc.set_plan(plan)
    # World hooks (fault-model plugins): armed alongside the libc plan,
    # disarmed before post-mortem invariants run over pristine machinery.
    hooks = tuple(getattr(plan, "hooks", ()))
    for hook in hooks:
        hook.arm(env)

    exit_code = 0
    crash_kind: str | None = None
    crash_message: str | None = None
    crash_stack: tuple[str, ...] | None = None
    failure_message: str | None = None
    try:
        test.body(env)
    except ExitProgram as exc:
        exit_code = exc.code
    except TestFailure as exc:
        exit_code = 1
        failure_message = exc.message
    except FsError as exc:
        # A test-script assertion hit a filesystem error (e.g. an expected
        # output file never materialized): the test fails, no crash.
        exit_code = 1
        failure_message = str(exc)
    except SimCrash as exc:
        crash_kind = exc.kind
        crash_message = str(exc)
        crash_stack = exc.stack or stack.snapshot()
        exit_code = 139 if exc.kind == "segfault" else 134
    except Exception as exc:
        # An uncaught exception in the program under test (a parser fed
        # a bit-flipped config, say) is how that program dies: an abort,
        # not a harness failure.  Raised anywhere else, it is a bug here.
        if not _raised_in_target(exc):
            raise
        crash_kind = "exception"
        crash_message = f"{type(exc).__name__}: {exc}"
        crash_stack = getattr(exc, "sim_stack", None) or stack.snapshot()
        exit_code = 134
    finally:
        for hook in hooks:
            hook.disarm(env)

    # Post-mortem invariant evaluation: always-true properties are checked
    # against the final world state no matter how the run ended — a crash
    # is precisely when data-loss invariants earn their keep.
    try:
        violations = tuple(target.invariants(env, test))
    except Exception as exc:  # an invariant checker must never kill the run
        violations = (f"invariant checker raised: {exc!r}",)

    first = libc.first_injection
    result = RunResult(
        test_id=test.id,
        test_name=test.name,
        plan=plan,
        exit_code=exit_code,
        crash_kind=crash_kind,
        crash_message=crash_message,
        crash_stack=crash_stack,
        injection_stack=first.stack if first else None,
        injected=first is not None,
        coverage=cov.blocks,
        steps=libc.steps,
        stdout=tuple(env.stdout),
        stderr=tuple(env.stderr),
        failure_message=failure_message,
        measurements=env.measurements,
        call_counts=libc.call_counts,
        trace=tuple(libc.trace),
        open_fds=fs.open_fd_count,
        leaked_heap_bytes=libc.heap.bytes_in_use,
        invariant_violations=violations,
        provenance=libc.resolved_provenance(),
        setup_steps=setup_steps,
    )
    # Target objects kept in ``env.state`` point back at ``env``; dropping
    # them lets the world go with its last reference instead of waiting,
    # and costing, a pass of the cycle collector.
    env.state.clear()
    return result
