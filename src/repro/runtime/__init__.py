"""Run-lifecycle guardrails: budgets, cancellation, checkpoint/resume.

See ``docs/run-lifecycle.md`` for the guard semantics, the
partial-result contract, and the checkpoint format.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_FILENAME,
    Checkpoint,
    CheckpointManager,
    CountEvent,
    dataset_digest,
    run_fingerprint,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
)
from repro.runtime.faults import active as active_fault_plan
from repro.runtime.faults import install as install_fault_plan
from repro.runtime.faults import installed as installed_fault_plan
from repro.runtime.faults import uninstall as uninstall_fault_plan
from repro.runtime.guard import NULL_GUARD, GuardTrip, RunGuard, resolve_guard

__all__ = [
    "CHECKPOINT_FILENAME",
    "Checkpoint",
    "CheckpointManager",
    "CountEvent",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "GuardTrip",
    "InjectedFault",
    "NULL_GUARD",
    "RunGuard",
    "active_fault_plan",
    "dataset_digest",
    "install_fault_plan",
    "installed_fault_plan",
    "resolve_guard",
    "run_fingerprint",
    "uninstall_fault_plan",
]
