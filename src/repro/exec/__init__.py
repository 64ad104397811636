"""Fault-contained parallel task execution (supervisor + chaos).

See :mod:`repro.exec.supervisor` for the execution engine, which
supervises forked workers and runs every in-process task as one plain
call, and :mod:`repro.exec.chaos` for deterministic fault injection
into those workers.
"""

from repro.exec.chaos import (CHAOS_ENV, ChaosFault, ChaosPlan,
                              CorruptPayload, FAULT_KINDS,
                              SEEDED_MAX_ATTEMPT)
from repro.exec.supervisor import Supervisor, SupervisorConfig, TaskOutcome

__all__ = [
    "CHAOS_ENV",
    "ChaosFault",
    "ChaosPlan",
    "CorruptPayload",
    "FAULT_KINDS",
    "SEEDED_MAX_ATTEMPT",
    "Supervisor",
    "SupervisorConfig",
    "TaskOutcome",
]
