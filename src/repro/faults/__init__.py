"""Runtime fault injection, bad-block management and recovery.

The paper evaluates a fault-free device; real NAND grows bad blocks,
fails programs and erases, and suffers raw-BER read excursions.  This
package injects those faults *during* simulation — deterministically,
from a seeded plan — and implements the management layer that keeps
the device serving I/O: block retirement against a spare reserve,
write re-drive and live-page salvage, the read-retry ladder, parity
reconstruction, and graceful degradation to read-only mode when the
reserve runs dry.

Everything defaults to off: a run without an armed
:class:`~repro.faults.injector.FaultInjector` is byte-identical to one
built before this package existed.

Measured runs arm a plan with ``run_workload(faults=...)`` and
power-loss/resume with ``run_workload(power_cuts=...)`` (see
:mod:`repro.experiments.runner`).
"""

from repro.faults.badblocks import BadBlockManager
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.plan import (
    FAULT_KINDS,
    READ_SEVERITIES,
    FaultEvent,
    FaultPlan,
)
from repro.faults.recovery import (
    PowerLossRecovery,
    recover_after_power_loss,
)

__all__ = [
    "BadBlockManager",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "PowerLossRecovery",
    "READ_SEVERITIES",
    "recover_after_power_loss",
]
