"""Simulated call stack for programs under test.

The paper's redundancy clustering (§5) compares the *stack traces at
injection points* with Levenshtein distance.  Real AFEX obtains these
from the injector; we obtain them from an explicit stack maintained by
the programs under test, which push a frame for every (simulated C)
function they enter via :meth:`CallStack.frame`.

Keeping the stack explicit (rather than inspecting the Python
interpreter stack) makes traces stable across refactorings of the
simulation code and keeps them looking like the C traces the paper
clusters, e.g. ``("main", "mi_create", "my_close")``.

A frame is a slotted ``__enter__``/``__exit__`` object, not a generator
context manager: an executed MiniDB test enters ~30 frames (177 k over
the 5 908 tests thirty serial 250-test campaigns execute), and the
generator protocol cost more per frame than the push and pop it wrapped.
A frame holds no state between entries, so one object can serve every
entry of its name in a run (``Env.frame`` keeps one per name), recursion
included.
"""

from __future__ import annotations

__all__ = ["CallStack"]


class _Frame:
    """One ``with stack.frame(name):`` block: push on entry, pop on exit."""

    __slots__ = ("_frames", "_name")

    def __init__(self, frames: list[str], name: str) -> None:
        self._frames = frames
        self._name = name

    def __enter__(self) -> None:
        self._frames.append(self._name)

    def __exit__(self, exc_type, exc, traceback) -> None:
        frames = self._frames
        if exc is not None and not hasattr(exc, "sim_stack"):
            # The innermost frame an exception leaves knows where the
            # program was: what run_test reports if the program dies of it.
            exc.sim_stack = tuple(frames)
        frames.pop()


class CallStack:
    """An explicit stack of function-frame names."""

    def __init__(self, root: str = "main") -> None:
        self._frames: list[str] = [root]

    def frame(self, name: str) -> _Frame:
        """Push ``name`` for the duration of the ``with`` block.

        The frame is popped even when the block unwinds with a simulated
        crash, matching how a debugger reports the crash stack: crash
        signals capture :meth:`snapshot` at raise time, and any other
        exception gets the stack it left as its ``sim_stack``.
        """
        return _Frame(self._frames, name)

    def push(self, name: str) -> None:
        """Push a frame without a context manager (caller must pop)."""
        self._frames.append(name)

    def pop(self) -> str:
        if len(self._frames) == 1:
            raise IndexError("cannot pop the root frame")
        return self._frames.pop()

    def snapshot(self) -> tuple[str, ...]:
        """The current stack, outermost frame first."""
        return tuple(self._frames)

    @property
    def depth(self) -> int:
        return len(self._frames)

    @property
    def top(self) -> str:
        return self._frames[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallStack({' > '.join(self._frames)})"
