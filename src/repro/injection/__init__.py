"""Fault-injection substrate: plans, injectors, profiles, callsite analysis.

This package plays the role LFI [16] plays in the paper: it defines the
injectable fault model (fail the *n*-th call to libc function *f* with a
given errno/return value), applies injection plans to the simulated C
library, and provides the profiling machinery (an ``ltrace``-like tracer
plus a callsite analyzer) used to construct fault-space descriptions
mechanically, mirroring the paper's "Fault Space Definition Methodology"
(§7).
"""

from repro.injection.plan import AtomicFault, InjectionPlan
from repro.injection.injector import FaultInjector
from repro.injection.profiles import FaultProfile, fault_profile, profiled_functions
from repro.injection.models import (
    FaultModel,
    ModelInjector,
    ScenarioPlan,
    WorldHook,
    canonical_spec,
    compose_models,
    model_by_name,
    model_injector,
    model_space,
    register_model,
    registered_models,
)
from repro.injection.models.errno_model import atomic_for

__all__ = [
    "AtomicFault",
    "FaultInjector",
    "FaultModel",
    "FaultProfile",
    "InjectionPlan",
    "ModelInjector",
    "ScenarioPlan",
    "WorldHook",
    "atomic_for",
    "canonical_spec",
    "compose_models",
    "fault_profile",
    "model_by_name",
    "model_injector",
    "model_space",
    "profiled_functions",
    "register_model",
    "registered_models",
]
