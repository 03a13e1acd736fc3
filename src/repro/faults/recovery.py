"""Reboot recovery after a mid-run power cut.

:func:`recover_after_power_loss` is the glue between
:class:`~repro.sim.powerloss.ScheduledPowerLoss` (which models the cut)
and a resumed run: it clears the volatile FTL/controller state, walks
the cut's destroyed pages, and turns every parity-covered loss into a
re-drive — the runtime analogue of the Section 3.3 reboot procedure of
:mod:`repro.core.parity_backup` (whose read-overhead estimate prices
the reboot scan here).

In-flight writes are a different story on every FTL: the interrupted
program's payload lived only in controller RAM, so no backup scheme
recovers it — those pages are counted as lost in-flight writes, never
as data loss (the host never got a durable acknowledgement for a page
that was still being programmed; buffered pages *were* acknowledged,
which is exactly the risk buffered-write semantics take).
"""

from __future__ import annotations

import dataclasses
from typing import List, Set, Tuple

from repro.core.parity_backup import estimate_reboot_read_overhead
from repro.ftl.backup import ParitySlot
from repro.sim.controller import StorageController
from repro.sim.ops import OpKind
from repro.sim.powerloss import PowerLossReport


@dataclasses.dataclass
class PowerLossRecovery:
    """Outcome of one reboot recovery.

    Attributes:
        time: simulation time of the cut.
        dropped_buffered_pages: acknowledged host pages that died in
            the controller's RAM write buffer.
        lost_inflight_pages: interrupted in-flight programs whose
            payload died with the controller (plus rolled-back
            relocations with no durable source).
        reconstructed_pages: destroyed durable pages recovered through
            parity (re-driven to fresh locations on resume).
        lost_pages: destroyed durable pages with no parity cover —
            actual data loss.
        reboot_read_overhead: Section 3.3 estimate of the reboot
            parity-scan time, in seconds.
    """

    time: float
    dropped_buffered_pages: int
    lost_inflight_pages: int
    reconstructed_pages: int
    lost_pages: int
    reboot_read_overhead: float

    @property
    def clean(self) -> bool:
        """True when no *durable* data was lost."""
        return self.lost_pages == 0


def recover_after_power_loss(controller: StorageController,
                             report: PowerLossReport
                             ) -> PowerLossRecovery:
    """Bring a cut device back to a consistent, resumable state.

    Order matters: the FTL first rolls pending relocation programs
    back to their durable source copies, then the controller drops its
    volatile queues (RAM buffer, read queues, in-flight table), and
    only then are the cut's destroyed pages triaged — unmapped, and
    queued for re-drive when a live parity page covers them.

    All outcomes land in the run's :class:`~repro.sim.stats.FaultStats`
    (created on demand), so a resumed run's statistics tell the whole
    story across cuts.
    """
    ftl = controller.ftl
    faults = controller.ensure_fault_stats()
    if ftl.fault_stats is None:
        ftl.fault_stats = faults
    mapping = ftl.mapping
    geometry = ftl.geometry
    lost_inflight = 0

    # Roll in-flight relocation programs back to their durable source
    # copy — before the controller reset forgets them.  An in-flight
    # *host* program's payload existed only in controller RAM.
    for op in controller.in_flight.values():
        if op.kind is not OpKind.PROGRAM or op.lpn is None:
            continue
        lpn = op.lpn
        if mapping.lookup(lpn) != ftl._ppn(op.addr):
            continue
        mapping.unmap(lpn)
        if op.source is not None \
                and ftl.array.is_programmed(op.source):
            mapping.map_write(lpn, ftl._ppn(op.source))
        else:
            lost_inflight += 1

    rolled_back: List[int] = ftl.reset_after_power_loss()
    dropped_buffered = controller.reset_after_power_loss()
    lost_inflight += len(rolled_back)

    interrupted = set(report.interrupted_programs)
    # Parity slots the cut itself destroyed protect nothing anymore;
    # drop them before any parity_covers decision below (a destroyed
    # slot in the block being filled also seals that block).
    for addr in interrupted | set(report.destroyed_pages):
        if addr.block < ftl.backup_block_start:
            continue
        chip_id = geometry.chip_id(addr.channel, addr.chip)
        backup = ftl.chips[chip_id].backup
        if backup is not None:
            backup.discard([ParitySlot(addr.block, addr.page)])

    reconstructed = 0
    lost = 0
    for addr in report.destroyed_pages:
        if addr.block >= ftl.backup_block_start:
            continue  # a parity page: handled above
        ppn = ftl._ppn(addr)
        lpn = mapping.lpn_of(ppn)
        if lpn is None:
            continue  # page held no live data (or was rolled back)
        mapping.unmap(lpn)
        if addr in interrupted:
            # An in-flight host program with no relocation source: its
            # payload died in controller RAM.
            lost_inflight += 1
            continue
        chip_id = geometry.chip_id(addr.channel, addr.chip)
        if ftl.parity_covers(chip_id, addr):
            ftl._fault_work(chip_id).redrive.append(lpn)
            reconstructed += 1
        else:
            lost += 1

    # Interrupted data blocks now have a hole in their program
    # sequence: close them (no spare consumed; GC reclaims them).
    quarantined: Set[Tuple[int, int]] = set()
    for addr in interrupted:
        if addr.block >= ftl.backup_block_start:
            continue
        chip_id = geometry.chip_id(addr.channel, addr.chip)
        if (chip_id, addr.block) not in quarantined:
            quarantined.add((chip_id, addr.block))
            ftl.quarantine_interrupted_block(chip_id, addr.block)

    faults.lost_inflight_writes += dropped_buffered + lost_inflight
    faults.reconstructed_pages += reconstructed
    faults.redriven_writes += reconstructed
    faults.lost_pages += lost

    overhead = estimate_reboot_read_overhead(
        chips=geometry.total_chips,
        # One fast and one slow active block per chip — the paper's
        # Section 3.3 worst case for the reboot parity scan.
        active_blocks_per_chip=2,
        lsb_pages_per_block=ftl.wordlines,
        t_read=controller.timing.t_read,
    )
    return PowerLossRecovery(
        time=report.time,
        dropped_buffered_pages=dropped_buffered,
        lost_inflight_pages=lost_inflight,
        reconstructed_pages=reconstructed,
        lost_pages=lost,
        reboot_read_overhead=overhead,
    )
