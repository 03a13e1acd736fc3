"""Submission-queue arbitration policies.

The arbiter answers one question, one command at a time: *given the
current submission-queue heads, which tenant does the device serve
next?*  Four policies are provided, mirroring the NVMe arbitration
ladder plus the classic fair-queueing upgrade:

``fifo``
    Global arrival order across all queues — byte-for-byte what a
    single shared queue would do.  This is the baseline every other
    policy is measured against: a bursty tenant's backlog sits in
    front of everyone else's commands.
``rr``
    Plain round-robin over non-empty queues: one command per tenant
    per turn, regardless of command size or configured weight.
``wrr``
    Weighted round-robin: tenant ``i`` may issue up to ``weight_i``
    commands per round.  Cheap, but counts commands, not pages, so a
    tenant issuing 8-page writes gets 8x the bandwidth of one issuing
    1-page writes at equal weight.
``drr``
    Deficit round-robin (Shreedhar & Varghese): each visit credits a
    tenant's deficit counter with ``quantum * weight`` *pages* and
    serves while the head command's page cost fits.  Fair in pages,
    which is the currency the flash back-end actually spends.

Arbiters are deterministic and allocation-free per decision; ties
break by tenant registration order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.qos.queues import SubmissionQueue

#: Default DRR quantum in pages, credited per visit and scaled by the
#: tenant's weight.  Comparable to the largest common request size so
#: a standard-weight tenant can issue one large command per round.
DEFAULT_QUANTUM = 8


class Arbiter:
    """Base class: owns the tenant order and per-tenant weights."""

    #: registry name, set by subclasses.
    name = "base"

    def __init__(self, tenants: Sequence[str],
                 weights: Optional[Sequence[float]] = None) -> None:
        if not tenants:
            raise ValueError("arbiter needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise ValueError(f"duplicate tenant names in {tenants!r}")
        if weights is None:
            weights = [1.0] * len(tenants)
        if len(weights) != len(tenants):
            raise ValueError(
                f"{len(tenants)} tenants but {len(weights)} weights")
        for weight in weights:
            if weight <= 0:
                raise ValueError(
                    f"weights must be positive, got {weight}")
        self.tenants = list(tenants)
        self.weights = [float(w) for w in weights]

    def select(self, queues: Sequence[SubmissionQueue],
               eligible: Sequence[bool]) -> Optional[int]:
        """Index of the queue to serve next, or None if none eligible.

        ``eligible[i]`` is False for queues that are empty or whose
        tenant is currently rate-throttled; the arbiter only ever
        returns an eligible index.  Calling ``select`` commits the
        choice: stateful policies update their counters assuming the
        head command of the returned queue is issued.
        """
        raise NotImplementedError

    def note_empty(self, index: int) -> None:
        """Hook: queue ``index`` ran empty after a pop (no-op here)."""


class FifoArbiter(Arbiter):
    """Serve the eligible head command that arrived first overall."""

    name = "fifo"

    def select(self, queues: Sequence[SubmissionQueue],
               eligible: Sequence[bool]) -> Optional[int]:
        best: Optional[int] = None
        best_seq = -1
        for index, queue in enumerate(queues):
            if not eligible[index]:
                continue
            seq = queue.head.seq
            if best is None or seq < best_seq:
                best = index
                best_seq = seq
        return best


class RoundRobinArbiter(Arbiter):
    """One command per tenant per turn, skipping ineligible queues."""

    name = "rr"

    def __init__(self, tenants: Sequence[str],
                 weights: Optional[Sequence[float]] = None) -> None:
        super().__init__(tenants, weights)
        self._pos = 0

    def select(self, queues: Sequence[SubmissionQueue],
               eligible: Sequence[bool]) -> Optional[int]:
        n = len(queues)
        for offset in range(n):
            index = (self._pos + offset) % n
            if eligible[index]:
                self._pos = (index + 1) % n
                return index
        return None


class WeightedRoundRobinArbiter(Arbiter):
    """Up to ``weight_i`` commands for tenant ``i`` per round.

    Credits refresh by ``weight_i`` at each round boundary (a full
    cycle of the scan position), so fractional weights work: a tenant
    with weight 0.5 is served every other round.
    """

    name = "wrr"

    def __init__(self, tenants: Sequence[str],
                 weights: Optional[Sequence[float]] = None) -> None:
        super().__init__(tenants, weights)
        self._pos = 0
        self._credits = list(self.weights)

    def select(self, queues: Sequence[SubmissionQueue],
               eligible: Sequence[bool]) -> Optional[int]:
        if not any(eligible):
            return None
        n = len(queues)
        # A round adds at least min(weight) credit to every queue, so
        # any eligible queue is served within ceil(1/min_weight) + 1
        # rounds; the bound below can never be hit with the positive
        # weights the constructor enforces.
        min_weight = min(self.weights)
        max_rounds = int(1.0 / min_weight) + 2
        for _ in range(max_rounds * n + n):
            index = self._pos
            if eligible[index] and self._credits[index] >= 1.0:
                self._credits[index] -= 1.0
                return index
            self._pos = (index + 1) % n
            if self._pos == 0:
                for i in range(n):
                    self._credits[i] += self.weights[i]
        raise RuntimeError("WRR failed to make progress")  # pragma: no cover


class DeficitRoundRobinArbiter(Arbiter):
    """Deficit round-robin, fair in *pages* rather than commands."""

    name = "drr"

    def __init__(self, tenants: Sequence[str],
                 weights: Optional[Sequence[float]] = None,
                 quantum: int = DEFAULT_QUANTUM) -> None:
        super().__init__(tenants, weights)
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self._pos = 0
        #: pages each tenant may still spend this visit.
        self._deficit = [0.0] * len(self.tenants)
        #: whether the current position was already credited (serving
        #: several commands in one visit must not re-credit).
        self._credited = False
        #: pages credited per visit, per tenant.
        self._credit = [quantum * weight for weight in self.weights]

    def select(self, queues: Sequence[SubmissionQueue],
               eligible: Sequence[bool]) -> Optional[int]:
        if not any(eligible):
            return None
        n = len(queues)
        deficit = self._deficit
        index = self._pos
        credited = self._credited
        steps = 0
        bound = n
        while True:
            if eligible[index]:
                cost = queues[index].head.request.npages
                if not credited:
                    deficit[index] += self._credit[index]
                    credited = True
                if deficit[index] >= cost:
                    deficit[index] -= cost
                    self._pos = index
                    self._credited = True
                    return index
            index += 1
            if index == n:
                index = 0
            credited = False
            steps += 1
            if steps == bound:
                if bound != n:
                    raise RuntimeError(
                        "DRR failed to make progress")  # pragma: no cover
                # A full cycle passed without a pick; from here on
                # every cycle credits each eligible queue at least
                # min(credit) pages, so some deficit reaches its head
                # cost within ceil(max_cost / min(credit)) cycles.
                max_cost = max(queues[i].head.request.npages
                               for i in range(n) if eligible[i])
                bound = (int(max_cost / min(self._credit)) + 3) * n

    def note_empty(self, index: int) -> None:
        """Classic DRR: an emptied queue forfeits its leftover deficit."""
        self._deficit[index] = 0.0
        if self._pos == index:
            self._pos = (index + 1) % len(self.tenants)
            self._credited = False


#: name -> arbiter class, in documentation order.
ARBITERS: Dict[str, Callable[..., Arbiter]] = {
    FifoArbiter.name: FifoArbiter,
    RoundRobinArbiter.name: RoundRobinArbiter,
    WeightedRoundRobinArbiter.name: WeightedRoundRobinArbiter,
    DeficitRoundRobinArbiter.name: DeficitRoundRobinArbiter,
}


def make_arbiter(name: str, tenants: Sequence[str],
                 weights: Optional[Sequence[float]] = None,
                 **kwargs: object) -> Arbiter:
    """Instantiate an arbitration policy by registry name."""
    if name not in ARBITERS:
        raise KeyError(
            f"unknown arbiter {name!r}; choose from {sorted(ARBITERS)}")
    return ARBITERS[name](tenants, weights, **kwargs)
