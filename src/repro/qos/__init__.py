"""Multi-tenant QoS front-end: queues, arbitration, SLO accounting.

A host-interface layer in front of the storage controller, modelled on
the NVMe submission-queue architecture: every tenant owns a submission
queue (:mod:`repro.qos.queues`), a pluggable arbiter picks which
queue the device serves next (:mod:`repro.qos.arbiter`), token buckets
and an admission gate keep backlog in the queues where arbitration can
act on it (:mod:`repro.qos.throttle`), and a per-tenant accountant
turns completions into latency percentiles and SLO-violation counts
(:mod:`repro.qos.slo`).

The layer is strictly opt-in: nothing here runs unless a
:class:`~repro.qos.host.MultiTenantHost` (or an explicitly attached
:class:`~repro.qos.slo.SloAccountant`) is put in front of the
controller, and untagged requests behave exactly as before.  Measured
multi-tenant runs go through
:func:`repro.experiments.runner.run_workload` with ``tenants=`` (or a
tenant-tagged scenario plus ``arbiter=``).

See ``docs/QOS.md`` for the design discussion and
``examples/multi_tenant.py`` for a quickstart.
"""

from repro.qos.arbiter import (
    ARBITERS,
    Arbiter,
    DeficitRoundRobinArbiter,
    FifoArbiter,
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)
from repro.qos.host import (
    MultiTenantHost,
    TenantSpec,
    tenant_specs_from_scenario,
)
from repro.qos.queues import QueuedCommand, SubmissionQueue
from repro.qos.slo import (
    SloAccountant,
    SloTarget,
    TenantAccount,
    tenant_table_rows,
)
from repro.qos.throttle import AdmissionGate, TokenBucket

__all__ = [
    "ARBITERS",
    "Arbiter",
    "FifoArbiter",
    "RoundRobinArbiter",
    "WeightedRoundRobinArbiter",
    "DeficitRoundRobinArbiter",
    "make_arbiter",
    "SubmissionQueue",
    "QueuedCommand",
    "TokenBucket",
    "AdmissionGate",
    "SloTarget",
    "TenantAccount",
    "SloAccountant",
    "TenantSpec",
    "MultiTenantHost",
    "tenant_specs_from_scenario",
    "tenant_table_rows",
]
