"""Composable fault-model plugins.

AFEX is black-box and tool-independent (§3): the search engine only ever
sees a :class:`~repro.core.faultspace.FaultSpace` of named axes, and the
node managers only see scenario attribute dicts.  A :class:`FaultModel`
is the pluggable piece in between.  It

* declares which axes it contributes to the fault space
  (:meth:`FaultModel.axes`), and
* compiles a scenario's attribute values into concrete injection
  machinery (:meth:`FaultModel.compile`): libc-plan atomic faults, plus
  *world hooks* — small frozen objects that arm fault state on the
  simulated world (filesystem, network, heap) for one run and disarm it
  afterwards.

Everything a model produces is plain attribute values on the wire, so
``TestRequest`` scenarios, checkpoints, wire frames, result
caches, and every fabric carry model-driven campaigns unchanged.

Models compose.  ``compose_models("errno+disk")`` yields both models'
axes in one subspace and :class:`ModelInjector` merges their compiled
outputs into one :class:`ScenarioPlan`.  Composition order is
canonicalized (each model carries a ``rank``), so ``"disk+errno"`` and
``"errno+disk"`` describe the same space, compile the same scenarios,
and therefore produce the same campaign digests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.faultspace import FaultSpace
from repro.errors import InjectionError
from repro.injection.injector import FaultInjector
from repro.injection.plan import AtomicFault, InjectionPlan

__all__ = [
    "FaultModel",
    "ModelInjector",
    "ScenarioPlan",
    "WorldHook",
    "canonical_spec",
    "compose_models",
    "model_by_name",
    "model_injector",
    "model_space",
    "register_model",
    "registered_models",
]


class WorldHook(ABC):
    """World-side fault state for one run: armed after target setup,
    disarmed before post-mortem invariants.

    Implementations are frozen dataclasses (plans are cached and reused
    across runs); any per-run mutable state — call counters and the
    like — is created inside :meth:`arm` and installed on the simulated
    world, never stored on the hook itself.
    """

    @abstractmethod
    def arm(self, env) -> None:
        """Install this hook's fault state on ``env``'s world."""

    @abstractmethod
    def disarm(self, env) -> None:
        """Remove the fault state, leaving the world pristine."""

    def label(self) -> str:
        """Short low-cardinality identity for metric labels and replay
        explanations (``disk:torn``, ``net:partition``...).

        Concrete hooks override this; the default keeps third-party
        hooks identifiable without requiring the method.
        """
        return type(self).__name__


@dataclass(frozen=True)
class ScenarioPlan(InjectionPlan):
    """An injection plan that also carries world hooks.

    The inherited Fig. 5 :meth:`~InjectionPlan.format` covers only the
    atomic faults; hooks are re-derived from the scenario attributes on
    replay, so a hook-free errno scenario formats — and digests —
    byte-identically to a plain :class:`InjectionPlan`.
    """

    hooks: tuple[WorldHook, ...] = ()


class FaultModel(ABC):
    """One composable fault dimension: axes in, injection machinery out."""

    #: registry key and the token used in ``--fault-model`` specs.
    name: str = ""
    #: canonical composition order (lower ranks compile first).  The
    #: built-ins claim 0–3; third-party models default higher.
    rank: int = 100

    @abstractmethod
    def axes(self, target, max_call: int = 2) -> dict[str, Sequence[object]]:
        """The axes this model contributes, in declaration order.

        Axis order is load-bearing: it fixes proposal order and thereby
        campaign digests, exactly like hand-built ``FaultSpace.product``
        keyword order.
        """

    @abstractmethod
    def compile(
        self, attributes: dict[str, object]
    ) -> tuple[tuple[AtomicFault, ...], tuple[WorldHook, ...]]:
        """Compile one scenario's attribute values.

        Returns ``(atomic_faults, world_hooks)``; either may be empty
        (every model reserves an explicit no-injection point).  Raises
        :class:`InjectionError` when the model's own axes are missing
        or malformed.
        """

    def describe(self) -> str:
        return self.name or type(self).__name__


_MODELS: dict[str, Callable[[], FaultModel]] = {}


def register_model(name: str, factory: Callable[[], FaultModel]) -> None:
    """Register a fault model under ``name`` (its ``--fault-model`` token)."""
    if not name:
        raise InjectionError("fault model must have a non-empty name")
    if name in _MODELS:
        raise InjectionError(f"fault model {name!r} already registered")
    if "+" in name:
        raise InjectionError(f"fault model name {name!r} may not contain '+'")
    _MODELS[name] = factory


def _ensure_builtins() -> None:
    # The built-in model modules self-register on import; importing the
    # package pulls them all in regardless of which symbol the caller
    # reached first.
    import repro.injection.models  # noqa: F401


def registered_models() -> tuple[str, ...]:
    """All registered model names, in canonical composition order."""
    _ensure_builtins()
    return tuple(
        name
        for name in sorted(_MODELS, key=lambda n: (_MODELS[n]().rank, n))
    )


def model_by_name(name: str) -> FaultModel:
    _ensure_builtins()
    factory = _MODELS.get(name)
    if factory is None:
        raise InjectionError(
            f"no fault model named {name!r}; registered: "
            f"{sorted(_MODELS)}"
        )
    return factory()


def compose_models(spec: str | Sequence[str]) -> tuple[FaultModel, ...]:
    """Resolve a ``"errno+disk"`` spec into model instances.

    Duplicates are rejected; order is canonicalized by ``(rank, name)``
    so every spelling of the same composition behaves — and digests —
    identically.
    """
    if isinstance(spec, str):
        names = [token.strip() for token in spec.split("+")]
    else:
        names = [str(token) for token in spec]
    names = [name for name in names if name]
    if not names:
        raise InjectionError("empty fault-model spec")
    if len(set(names)) != len(names):
        raise InjectionError(f"duplicate model in fault-model spec: {names}")
    models = [model_by_name(name) for name in names]
    models.sort(key=lambda m: (m.rank, m.name))
    return tuple(models)


def canonical_spec(spec: str | Sequence[str]) -> str:
    """The canonical ``+``-joined spelling of a fault-model spec."""
    return "+".join(model.name for model in compose_models(spec))


class ModelInjector(FaultInjector):
    """Adapter: a composed model stack behind the injector interface.

    The injector ``name`` (``model:errno+disk``) namespaces result-cache
    keys; campaign digests depend only on the compiled plans.
    """

    def __init__(self, spec: str | Sequence[str] = "errno") -> None:
        self.models = compose_models(spec)
        self.spec = "+".join(model.name for model in self.models)
        self.name = f"model:{self.spec}"

    def plan_for(self, attributes: dict[str, object]) -> ScenarioPlan:
        faults: list[AtomicFault] = []
        hooks: list[WorldHook] = []
        for model in self.models:
            model_faults, model_hooks = model.compile(attributes)
            faults.extend(model_faults)
            hooks.extend(model_hooks)
        return ScenarioPlan(tuple(faults), tuple(hooks))

    def describe(self) -> str:
        return self.name


def model_injector(spec: str | Sequence[str] = "errno") -> ModelInjector:
    """Module-level factory — picklable via ``functools.partial`` for
    process-pool worker initializers and socket-fabric nodes."""
    return ModelInjector(spec)


def model_space(
    target,
    models: str | Sequence[str] | Sequence[FaultModel],
    max_call: int = 2,
) -> FaultSpace:
    """The fault space for ``target`` under a composed model stack.

    The ``test`` axis (workload selector) always comes first, then each
    model's axes in canonical composition order — for the plain errno
    model this reproduces the CLI's historical default space exactly.
    """
    if isinstance(models, str):
        stack: Sequence[FaultModel] = compose_models(models)
    elif models and isinstance(models[0], FaultModel):
        stack = tuple(models)  # type: ignore[arg-type]
    else:
        stack = compose_models(models)  # type: ignore[arg-type]
    axes: dict[str, Sequence[object]] = {
        "test": range(1, len(target.suite) + 1)
    }
    for model in stack:
        for axis_name, values in model.axes(target, max_call=max_call).items():
            if axis_name in axes:
                raise InjectionError(
                    f"axis {axis_name!r} declared by more than one model "
                    f"in {[m.name for m in stack]}"
                )
            axes[axis_name] = values
    return FaultSpace.product(**axes)
