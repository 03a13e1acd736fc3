"""Per-tenant service-level accounting.

Aggregate IOPS hides exactly the thing a multi-tenant study cares
about: *which* tenant absorbed the queueing delay.  The
:class:`SloAccountant` keeps per-tenant read/write latency samples,
counts violations against optional per-tenant latency targets, and
summarises each tenant with the p50/p95/p99 machinery from
:mod:`repro.metrics.latency`.

It can ride on any host model: attach it to a
:class:`~repro.sim.controller.StorageController` via :meth:`attach`
and every completed request carrying a ``tenant`` tag is recorded —
the :class:`~repro.qos.host.MultiTenantHost` does this for you, but a
plain :class:`~repro.sim.host.TraceReplayHost` replaying a
tenant-tagged trace, or a :class:`~repro.sim.host.ClosedLoopHost`
fed tenant-tagged ops, works just as well.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional

from repro.metrics.latency import latency_summary
from repro.sim.controller import StorageController
from repro.sim.queues import (
    REQUEST_FAILED,
    REQUEST_RECOVERED,
    Request,
    RequestKind,
)


@dataclasses.dataclass(frozen=True)
class SloTarget:
    """Per-tenant latency targets in seconds (None = untracked)."""

    read_latency: Optional[float] = None
    write_latency: Optional[float] = None


@dataclasses.dataclass
class TenantAccount:
    """Everything recorded for one tenant."""

    tenant: str
    target: SloTarget = dataclasses.field(default_factory=SloTarget)
    completed_reads: int = 0
    completed_writes: int = 0
    read_pages: int = 0
    written_pages: int = 0
    read_violations: int = 0
    write_violations: int = 0
    #: requests that failed outright — rejected in read-only degraded
    #: mode or reads whose data was lost (:mod:`repro.faults`)
    failed_requests: int = 0
    #: requests served only after a fault-recovery ladder
    recovered_requests: int = 0
    first_arrival: Optional[float] = None
    last_completion: float = 0.0
    read_latencies: List[float] = dataclasses.field(default_factory=list)
    write_latencies: List[float] = dataclasses.field(default_factory=list)

    def record(self, request: Request, now: float) -> None:
        """Fold one completed request into the account.

        Failed requests are counted but excluded from the completion
        and latency statistics — a rejected write's instant turnaround
        would otherwise *improve* the tenant's percentiles.
        """
        if request.status == REQUEST_FAILED:
            self.failed_requests += 1
            if self.first_arrival is None \
                    or request.time < self.first_arrival:
                self.first_arrival = request.time
            return
        if request.status == REQUEST_RECOVERED:
            self.recovered_requests += 1
        latency = now - request.time
        if self.first_arrival is None \
                or request.time < self.first_arrival:
            self.first_arrival = request.time
        if now > self.last_completion:
            self.last_completion = now
        if request.kind is RequestKind.READ:
            self.completed_reads += 1
            self.read_pages += request.npages
            self.read_latencies.append(latency)
            target = self.target.read_latency
            if target is not None and latency > target:
                self.read_violations += 1
        else:
            self.completed_writes += 1
            self.written_pages += request.npages
            self.write_latencies.append(latency)
            target = self.target.write_latency
            if target is not None and latency > target:
                self.write_violations += 1

    @property
    def elapsed(self) -> float:
        """First arrival to last completion, 0.0 before any traffic."""
        if self.first_arrival is None:
            return 0.0
        return max(0.0, self.last_completion - self.first_arrival)

    def summary(self) -> Dict[str, object]:
        """JSON-safe per-tenant report (NaN percentiles when empty)."""
        elapsed = self.elapsed
        completed = self.completed_reads + self.completed_writes
        iops = completed / elapsed if elapsed > 0.0 else float("nan")
        return {
            "completed_reads": self.completed_reads,
            "completed_writes": self.completed_writes,
            "read_pages": self.read_pages,
            "written_pages": self.written_pages,
            "read_violations": self.read_violations,
            "write_violations": self.write_violations,
            "failed_requests": self.failed_requests,
            "recovered_requests": self.recovered_requests,
            "iops": iops,
            "read_latency": latency_summary(self.read_latencies),
            "write_latency": latency_summary(self.write_latencies),
        }


class _ChainedHook:
    """Two completion hooks in sequence, as a picklable object.

    A local closure would work but could not ride into a fleet
    snapshot; this class pickles along with the controller.
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def __call__(self, request: Request, now: float) -> None:
        self.first(request, now)
        self.second(request, now)

    def __getstate__(self):
        return (self.first, self.second)

    def __setstate__(self, state) -> None:
        self.first, self.second = state


class SloAccountant:
    """Routes completed requests into per-tenant accounts.

    Args:
        targets: optional per-tenant latency targets; tenants not
            listed are still recorded, just without violation counts.

    Unknown tenants get an account on first sight, so the accountant
    needs no enrolment step.  Untagged requests (``tenant is None``)
    are ignored — single-host experiments stay invisible to it.
    """

    def __init__(self,
                 targets: Optional[Mapping[str, SloTarget]] = None) -> None:
        self.accounts: Dict[str, TenantAccount] = {}
        self._targets = dict(targets) if targets else {}
        for tenant, target in self._targets.items():
            self.accounts[tenant] = TenantAccount(tenant, target)

    def account(self, tenant: str) -> TenantAccount:
        """The (auto-created) account for one tenant."""
        existing = self.accounts.get(tenant)
        if existing is None:
            existing = TenantAccount(
                tenant, self._targets.get(tenant, SloTarget()))
            self.accounts[tenant] = existing
        return existing

    def record(self, request: Request, now: float) -> None:
        """Record one completed request (no-op when untagged)."""
        if request.tenant is None:
            return
        self.account(request.tenant).record(request, now)

    def attach(self, controller: StorageController) -> None:
        """Observe every completion via the controller's hook.

        Chains an already-installed hook rather than replacing it, so
        several observers can coexist.
        """
        previous = controller.completion_hook
        if previous is None:
            controller.completion_hook = self.record
            return
        controller.completion_hook = _ChainedHook(previous, self.record)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant summaries, in tenant registration order."""
        return {tenant: account.summary()
                for tenant, account in self.accounts.items()}


def tenant_table_rows(tenants: Mapping[str, Mapping[str, object]],
                      unit: float = 1e-3) -> List[List[str]]:
    """Per-tenant report rows from a run's ``tenants`` section
    (latency columns in ``unit`` seconds)."""
    rows: List[List[str]] = []
    for name, summary in tenants.items():
        write = summary["write_latency"]
        read = summary["read_latency"]
        rows.append([
            name,
            str(summary["completed_writes"]),
            f"{float(write['p50']) / unit:.3f}",  # type: ignore[index]
            f"{float(write['p99']) / unit:.3f}",  # type: ignore[index]
            str(summary["completed_reads"]),
            f"{float(read['p99']) / unit:.3f}",  # type: ignore[index]
            str(int(summary["read_violations"])  # type: ignore[call-overload]
                + int(summary["write_violations"])),  # type: ignore[call-overload]
        ])
    return rows
