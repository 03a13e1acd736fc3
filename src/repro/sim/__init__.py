"""Discrete-event simulation of the NAND storage system.

The layer that turns the state-level NAND model into a timed storage
device: an event-queue kernel (:mod:`repro.sim.kernel`), the flash
operation vocabulary FTLs emit (:mod:`repro.sim.ops`), the host write
buffer and request bookkeeping (:mod:`repro.sim.queues`), the open-
and closed-loop hosts (:mod:`repro.sim.host`), the storage controller
that dispatches operations to chips over shared channels
(:mod:`repro.sim.controller`), and metric collection
(:mod:`repro.sim.stats`).
"""

from repro.sim.kernel import Event, Simulator
from repro.sim.ops import FlashOp, OpKind
from repro.sim.queues import Request, RequestKind, WriteBuffer
from repro.sim.stats import SimStats, WindowedBandwidth
from repro.sim.controller import StorageController
from repro.sim.tracing import OpLog, OpRecord
from repro.sim.powerloss import (
    PowerLossReport,
    ScheduledPowerLoss,
    verify_flexftl_protection,
)
from repro.sim.host import (
    ClosedLoopHost,
    StreamOp,
    TraceReplayHost,
)

__all__ = [
    "Event",
    "Simulator",
    "FlashOp",
    "OpKind",
    "Request",
    "RequestKind",
    "WriteBuffer",
    "SimStats",
    "WindowedBandwidth",
    "StorageController",
    "TraceReplayHost",
    "ClosedLoopHost",
    "StreamOp",
    "ScheduledPowerLoss",
    "PowerLossReport",
    "verify_flexftl_protection",
    "OpLog",
    "OpRecord",
]
