"""Deterministic runtime fault injection.

The :class:`FaultInjector` sits in the controller's operation
completion path: after each flash operation finishes, the controller
asks it whether the operation failed.  Decisions come from one seeded
``random.Random`` plus the plan's explicit event schedule, and the
simulation itself is deterministic, so a given ``(workload, plan)``
pair always produces the same faults in the same order.

Read-fault severity follows the ECC model of
:mod:`repro.reliability.ecc`: the injector draws a raw BER from the
plan's excursion interval, then walks the retry ladder the controller
implements — does the re-read decode under the baseline code?  does
the escalated (stronger/slow) decode clear it?  — leaving only the
truly uncorrectable residue to parity reconstruction or data loss.
The ECC math is imported on the first read fault, and
:mod:`repro.reliability.ecc` defers scipy to its first curve
evaluation, so a plan without read faults never loads scipy, and one
with read faults loads only :mod:`scipy.special`, never
:mod:`scipy.stats` (``tests/test_import_weight.py`` checks both in a
fresh interpreter).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.ops import FlashOp, OpKind


class InjectedFault:
    """One fault the injector decided to fire (controller-facing)."""

    __slots__ = ("kind", "severity")

    def __init__(self, kind: str, severity: Optional[str] = None) -> None:
        self.kind = kind
        self.severity = severity

    def __repr__(self) -> str:
        return f"InjectedFault(kind={self.kind!r}, severity={self.severity!r})"


class FaultInjector:
    """Executes a :class:`~repro.faults.plan.FaultPlan` during a run.

    The controller calls :meth:`on_op_complete` for every finished
    flash operation; a non-None return is the fault to handle.  The
    injector never mutates device state itself — it only decides.
    """

    def __init__(self, plan: FaultPlan, page_size: int = 4096) -> None:
        self.plan = plan
        self.page_size = page_size
        self.rng = random.Random(plan.seed)
        # per-chip completed-op counters, by op kind
        self._programs: Dict[int, int] = {}
        self._erases: Dict[int, int] = {}
        self._reads: Dict[int, int] = {}
        #: (kind, chip, op_index) -> scheduled event
        self._schedule: Dict[Tuple[str, int, int], FaultEvent] = {}
        for event in plan.events:
            self._schedule[(event.kind, event.chip, event.op_index)] = event
        #: injected-fault counts by kind (introspection/reports)
        self.injected: Dict[str, int] = {kind: 0 for kind in
                                         ("program_fail", "erase_fail",
                                          "read_fault", "grown_bad")}
        self._ecc_probs: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------

    def on_op_complete(self, chip_id: int, op: FlashOp
                       ) -> Optional[InjectedFault]:
        """Decide whether the just-completed op suffered a fault."""
        plan = self.plan
        rng = self.rng
        kind = op.kind
        if kind is OpKind.PROGRAM:
            index = self._programs.get(chip_id, 0)
            self._programs[chip_id] = index + 1
            fail = ("program_fail", chip_id, index) in self._schedule \
                or (plan.program_fail_rate > 0.0
                    and rng.random() < plan.program_fail_rate)
            grown = ("grown_bad", chip_id, index) in self._schedule \
                or (plan.grown_bad_rate > 0.0
                    and rng.random() < plan.grown_bad_rate)
            if fail:
                # A failed program retires the block anyway; a
                # same-op grown-bad detection adds nothing.
                self.injected["program_fail"] += 1
                return InjectedFault("program_fail")
            if grown:
                self.injected["grown_bad"] += 1
                return InjectedFault("grown_bad")
            return None
        if kind is OpKind.READ:
            index = self._reads.get(chip_id, 0)
            self._reads[chip_id] = index + 1
            event = self._schedule.get(("read_fault", chip_id, index))
            if event is not None:
                severity = event.severity or self._draw_severity()
                self.injected["read_fault"] += 1
                return InjectedFault("read_fault", severity)
            if plan.read_fault_rate > 0.0 \
                    and rng.random() < plan.read_fault_rate:
                self.injected["read_fault"] += 1
                return InjectedFault("read_fault", self._draw_severity())
            return None
        # ERASE
        index = self._erases.get(chip_id, 0)
        self._erases[chip_id] = index + 1
        if ("erase_fail", chip_id, index) in self._schedule \
                or (plan.erase_fail_rate > 0.0
                    and rng.random() < plan.erase_fail_rate):
            self.injected["erase_fail"] += 1
            return InjectedFault("erase_fail")
        return None

    # ------------------------------------------------------------------

    def _ladder_probabilities(self, ber: float) -> Tuple[float, float]:
        """(P[baseline decode fails], P[escalated decode fails])."""
        from repro.reliability.ecc import (  # lazy: scipy.special-backed
            EccConfig,
            page_failure_probability,
        )

        plan = self.plan
        base = page_failure_probability(
            ber, self.page_size,
            EccConfig(correctable_bits=plan.ecc_correctable_bits))
        escalated = page_failure_probability(
            ber, self.page_size,
            EccConfig(correctable_bits=plan.ecc_escalated_bits))
        return base, escalated

    def _draw_severity(self) -> str:
        """Walk the ECC ladder for a BER drawn from the excursion
        interval: transient (re-read decodes), ecc (escalated decode
        needed) or uncorrectable."""
        rng = self.rng
        low, high = self.plan.read_fault_ber
        if high > low:
            ber = low + (high - low) * rng.random()
            base, escalated = self._ladder_probabilities(ber)
        else:
            # Fixed BER: the ladder probabilities are constants; cache
            # them so severity draws stay scipy-free after the first.
            if self._ecc_probs is None:
                self._ecc_probs = self._ladder_probabilities(low)
            base, escalated = self._ecc_probs
        if rng.random() >= base:
            return "transient"
        if rng.random() >= escalated:
            return "ecc"
        return "uncorrectable"
