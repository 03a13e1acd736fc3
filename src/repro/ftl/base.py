"""Machinery shared by all evaluated FTLs.

:class:`BaseFtl` implements everything the paper's four FTLs have in
common: page-level mapping, per-chip block pools, greedy garbage
collection (foreground when a write cannot be placed, background during
idle times when free blocks drop under 10 % of capacity, as Section 4.1
specifies for *all* FTLs), and the controller-facing operation
interface.  Subclasses decide page placement — which block, which page
type, in which program order — and their backup policy.
"""

from __future__ import annotations

import abc
import dataclasses
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.faults.badblocks import BadBlockManager
from repro.ftl.backup import BackupBlockManager, ParitySlot
from repro.ftl.mapping import MappingTable
from repro.nand.array import NandArray
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.page_types import PageType
from repro.nand.power import apply_power_loss_to_in_flight
from repro.sim.ops import FlashOp, OpKind
from repro.sim.queues import WriteBuffer

# OpKind members hoisted to module level: the per-op paths build
# FlashOps positionally, about half the cost of the keyword form with
# an enum attribute lookup.
_PROGRAM = OpKind.PROGRAM
_READ = OpKind.READ
_ERASE = OpKind.ERASE

if False:  # typing-only import; repro.sim.stats needs no runtime binding
    from repro.sim.stats import FaultStats


@dataclasses.dataclass(frozen=True)
class FtlConfig:
    """Tunables shared by all FTLs (paper values as defaults).

    Attributes:
        op_ratio: fraction of data capacity withheld from the logical
            view (over-provisioning).
        gc_threshold_fraction: background GC triggers when a chip's
            free blocks fall below this fraction of its data blocks
            (paper: 10 % of total capacity).
        gc_reserve_blocks: free blocks kept back from host allocation
            so garbage collection always has room to relocate into.
        backup_blocks_per_chip: blocks reserved per chip for parity
            backup pages (only used by FTLs with ``uses_backup``).
        bg_gc_enabled: allow background GC during idle times.
        bg_gc_min_invalid_fraction: a background GC only starts when
            its victim has at least this fraction of invalid pages —
            idle-time collection should reclaim cheap blocks, not churn
            nearly-full ones (foreground GC, which is forced, has no
            such floor).
        gc_policy: victim selection policy — ``"greedy"`` (most
            invalid pages; what the paper's FTLs use) or
            ``"cost_benefit"`` (age-weighted benefit/cost after
            Kawaguchi et al., which separates hot and cold blocks).
        wear_aware_allocation: pick the least-worn free block instead
            of recycling in FIFO order (a light static wear-levelling
            substitute; off by default to match the paper's FTLs).
        spare_blocks_per_chip: blocks held back per chip as the
            bad-block replacement reserve (:mod:`repro.faults`).  Zero
            (the default, matching the paper's fault-free evaluation)
            means the first retired block already degrades the device
            to read-only.
    """

    op_ratio: float = 0.20
    gc_threshold_fraction: float = 0.10
    gc_reserve_blocks: int = 2
    backup_blocks_per_chip: int = 2
    bg_gc_enabled: bool = True
    bg_gc_min_invalid_fraction: float = 0.25
    gc_policy: str = "greedy"
    wear_aware_allocation: bool = False
    spare_blocks_per_chip: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.op_ratio < 1.0):
            raise ValueError("op_ratio must be in (0, 1)")
        if not (0.0 <= self.gc_threshold_fraction < 1.0):
            raise ValueError("gc_threshold_fraction must be in [0, 1)")
        if self.gc_reserve_blocks < 1:
            raise ValueError("gc_reserve_blocks must be at least 1")
        if self.backup_blocks_per_chip < 1:
            raise ValueError("backup_blocks_per_chip must be at least 1")
        if not (0.0 <= self.bg_gc_min_invalid_fraction <= 1.0):
            raise ValueError(
                "bg_gc_min_invalid_fraction must be in [0, 1]"
            )
        if self.gc_policy not in ("greedy", "cost_benefit"):
            raise ValueError(
                f"unknown gc_policy {self.gc_policy!r}; choose "
                f"'greedy' or 'cost_benefit'"
            )
        if self.spare_blocks_per_chip < 0:
            raise ValueError("spare_blocks_per_chip must be non-negative")


class GcJob:
    """State of one in-progress garbage collection on one chip."""

    def __init__(self, victim_block: int, victim_gb: int,
                 valid_lpns: List[int], background: bool) -> None:
        self.victim_block = victim_block
        self.victim_gb = victim_gb
        self.valid_lpns: Deque[int] = deque(valid_lpns)
        self.background = background
        self.copied = 0


class SalvageJob:
    """Live pages to relocate off a retired (still readable) block."""

    __slots__ = ("block", "gb", "valid_lpns")

    def __init__(self, block: int, gb: int, valid_lpns: List[int]) -> None:
        self.block = block
        self.gb = gb
        self.valid_lpns: Deque[int] = deque(valid_lpns)


class FaultWork:
    """Per-chip recovery backlog created by fault handling.

    ``redrive`` holds logical pages whose data is controller-RAM
    resident (an interrupted write, or an LSB page the parity backup
    reconstructed) waiting to be re-programmed to a fresh page;
    ``salvage`` holds relocation jobs draining the live pages off
    retired blocks.  :meth:`BaseFtl._fault_recovery_op` services both
    ahead of new host writes.
    """

    __slots__ = ("redrive", "salvage")

    def __init__(self) -> None:
        self.redrive: Deque[int] = deque()
        self.salvage: Deque[SalvageJob] = deque()


class ChipState:
    """Per-chip bookkeeping common to all FTLs."""

    def __init__(self, chip_id: int) -> None:
        self.chip_id = chip_id
        self.free_blocks: Deque[int] = deque()
        self.full_blocks: Set[int] = set()
        self.pending: Deque[FlashOp] = deque()
        self.gc: Optional[GcJob] = None
        self.backup: Optional[BackupBlockManager] = None
        self.bad_blocks: Optional[BadBlockManager] = None
        #: recovery backlog, or None when there is none (the common
        #: case; ``next_op`` only pays a None check for it)
        self.fault_work: Optional[FaultWork] = None


class BaseFtl(abc.ABC):
    """Abstract page-mapping FTL driving one NAND array.

    The controller interacts with an FTL through four methods:
    :meth:`next_op` (host-driven work for an idle chip),
    :meth:`wants_background_gc` / :meth:`background_op` (idle-time
    work), and :meth:`lookup` (read address resolution).
    """

    #: Human-readable FTL name (used in reports).
    name: str = "base"
    #: Whether this FTL reserves backup blocks for parity pages.
    uses_backup: bool = False
    #: Program order inside backup blocks: "fps" for FPS devices,
    #: "lsb" for RPS devices writing parity to LSB pages only.
    backup_order: str = "fps"

    #: Observability hooks (:mod:`repro.observability`), planted by
    #: ``Tracer.install``.  Class-level ``None`` keeps untraced runs
    #: free of any per-site cost beyond one attribute load; only cold
    #: paths (GC begin, block close, parity backup, fault recovery)
    #: carry emission sites.
    _trace = None
    _metrics = None

    def __init__(self, array: NandArray, write_buffer: WriteBuffer,
                 config: Optional[FtlConfig] = None) -> None:
        self.array = array
        self.geometry = array.geometry
        self.write_buffer = write_buffer
        self.config = config or FtlConfig()
        self.wordlines = self.geometry.wordlines_per_block
        # geometry scalars used by the per-write inlined ppn math
        self._cpc = self.geometry.chips_per_channel
        self._ppb = self.geometry.pages_per_block
        self._pages_per_chip = self.geometry.pages_per_chip

        backup_blocks = (self.config.backup_blocks_per_chip
                         if self.uses_backup else 0)
        spare_blocks = self.config.spare_blocks_per_chip
        if backup_blocks + spare_blocks >= self.geometry.blocks_per_chip:
            raise ValueError(
                "backup and spare blocks exceed blocks per chip")
        # Per-chip block layout: [data | spares | backup].  Spares sit
        # between so the backup region keeps its historical position at
        # the top of the chip.
        self.data_blocks_per_chip = self.geometry.blocks_per_chip \
            - backup_blocks - spare_blocks
        self.spare_blocks_per_chip = spare_blocks
        #: first chip-local block id of the backup region (== the end
        #: of the data+spare region, whether or not backup is used)
        self.backup_block_start = self.data_blocks_per_chip + spare_blocks

        #: fault counters shared with the controller
        #: (:class:`repro.sim.stats.FaultStats`); None while fault
        #: injection is not armed.
        self.fault_stats: "Optional[FaultStats]" = None
        #: True once a chip ran out of spare blocks — the controller
        #: then stops accepting writes (read-only degraded mode).
        self.degraded = False

        self.chips: List[ChipState] = []
        for chip_id in self.geometry.iter_chip_ids():
            state = ChipState(chip_id)
            state.free_blocks.extend(range(self.data_blocks_per_chip))
            state.bad_blocks = BadBlockManager(
                spare_blocks=range(self.data_blocks_per_chip,
                                   self.backup_block_start)
            )
            if self.uses_backup:
                reserved = list(range(self.backup_block_start,
                                      self.geometry.blocks_per_chip))
                state.backup = BackupBlockManager(
                    reserved, self.wordlines, order=self.backup_order
                )
            self.chips.append(state)

        data_pages = (self.data_blocks_per_chip
                      * self.geometry.pages_per_block
                      * self.geometry.total_chips)
        self.logical_pages = max(1, int(data_pages
                                        * (1.0 - self.config.op_ratio)))
        self.mapping = MappingTable(self.geometry, self.logical_pages)

        self.gc_threshold_blocks = max(
            1, int(self.data_blocks_per_chip
                   * self.config.gc_threshold_fraction)
        )

        # logical write clock for cost-benefit victim ageing: one tick
        # per page program, per-block stamp of the latest write
        self._write_clock = 0
        self._block_write_stamp: List[int] = [0] * self.geometry.total_blocks

        # accounting
        self.host_programs = 0
        self.gc_programs = 0
        self.backup_programs = 0
        self.foreground_gcs = 0
        self.background_gcs = 0

    # ------------------------------------------------------------------
    # controller interface

    def next_op(self, chip_id: int, now: float) -> Optional[FlashOp]:
        """Host-driven work for an idle chip, or None.

        Order of precedence: queued operations (parity writes, the
        program half of a GC page copy), steps of an in-progress
        *foreground* GC, then a host page write from the write buffer
        (which may itself kick off a foreground GC when no free page
        can be allocated).
        """
        state = self.chips[chip_id]
        if state.pending:
            return state.pending.popleft()
        if state.fault_work is not None:
            op = self._fault_recovery_op(chip_id, now)
            if op is not None:
                return op
        if state.gc is not None and not state.gc.background:
            return self._gc_step(chip_id)
        return self._host_write_op(chip_id, now)

    def wants_background_gc(self, chip_id: int) -> bool:
        """Whether idle-time work is available for this chip."""
        state = self.chips[chip_id]
        if state.fault_work is not None:
            return True  # drain recovery work even with bg GC off
        if not self.config.bg_gc_enabled:
            return False
        if state.pending or state.gc is not None:
            return True
        return (len(state.free_blocks) < self.gc_threshold_blocks
                and self._select_victim(
                    chip_id, self._bg_min_invalid()) is not None)

    def background_op(self, chip_id: int, now: float) -> Optional[FlashOp]:
        """Idle-time work: recovery backlog, then garbage collection."""
        state = self.chips[chip_id]
        if state.pending:
            return state.pending.popleft()
        if state.fault_work is not None:
            op = self._fault_recovery_op(chip_id, now)
            if op is not None:
                return op
        if state.gc is not None:
            return self._gc_step(chip_id)
        if not self.config.bg_gc_enabled:
            return None
        if len(state.free_blocks) >= self.gc_threshold_blocks:
            return None
        victim = self._select_victim(chip_id, self._bg_min_invalid())
        if victim is None:
            return None
        self._begin_gc(chip_id, victim, background=True)
        return self._gc_step(chip_id)

    def lookup(self, lpn: int) -> Optional[int]:
        """Current physical page of ``lpn`` (None when unmapped)."""
        return self.mapping.lookup(lpn)

    # ------------------------------------------------------------------
    # host write path

    def _host_write_op(self, chip_id: int, now: float) -> Optional[FlashOp]:
        buffer = self.write_buffer
        if not buffer._live:  # is_empty, inlined (polled per idle chip)
            return None
        alloc = self._allocate_host_page(chip_id, now)
        if alloc is None:
            state = self.chips[chip_id]
            if state.gc is None:
                victim = self._select_victim(chip_id)
                if victim is not None:
                    self._begin_gc(chip_id, victim, background=False)
            elif state.gc.background:
                # A background collection is in the way of an urgent
                # write: promote it and finish it in the foreground.
                state.gc.background = False
            if state.gc is not None and not state.gc.background:
                return self._gc_step(chip_id)
            return None
        addr, ptype = alloc
        entry = buffer.pop()
        # ppn math inlined (geometry.ppn re-validates an address the
        # allocator just built)
        ppn = (addr.channel * self._cpc + addr.chip) \
            * self._pages_per_chip + addr.block * self._ppb + addr.page
        self.mapping.map_write(entry.lpn, ppn)
        # write-clock accounting, inlined (see _note_block_write)
        self._write_clock += 1
        self._block_write_stamp[ppn // self._ppb] = self._write_clock
        self.host_programs += 1
        hook = self._after_host_program
        if hook is not None:
            hook(chip_id, addr, ptype, now)
        return FlashOp(_PROGRAM, addr, "host", entry.lpn)

    # ------------------------------------------------------------------
    # garbage collection

    def _note_block_write(self, global_block: int) -> None:
        """Advance the logical write clock and stamp the block."""
        self._write_clock += 1
        self._block_write_stamp[global_block] = self._write_clock

    def _victim_score(self, global_block: int, invalid: int) -> float:
        """Victim desirability under the configured policy (higher =
        better)."""
        if self.config.gc_policy == "greedy":
            return float(invalid)
        # cost-benefit: (1 - u) * age / (2 u); a fully-invalid block is
        # a free win regardless of age.
        pages = self.geometry.pages_per_block
        u = (pages - invalid) / pages
        if u <= 0.0:
            return float("inf")
        age = self._write_clock - self._block_write_stamp[global_block]
        return (1.0 - u) * max(1, age) / (2.0 * u)

    def _select_victim(self, chip_id: int,
                       min_invalid: int = 1) -> Optional[int]:
        """Pick a GC victim among the chip's full blocks.

        Only blocks with at least ``min_invalid`` invalid pages are
        eligible; among those the configured policy scores candidates —
        greedy (most invalid; what the paper's FTLs use) or
        age-weighted cost-benefit.
        """
        state = self.chips[chip_id]
        best_block: Optional[int] = None
        best_score = float("-inf")
        for block in state.full_blocks:
            gb = self.mapping.global_block_of(chip_id, block)
            invalid = self.mapping.invalid_count(gb)
            if invalid < min_invalid:
                continue
            score = self._victim_score(gb, invalid)
            if score > best_score:
                best_score = score
                best_block = block
        return best_block

    def _bg_min_invalid(self) -> int:
        """Invalid-page floor for background victim selection."""
        return max(1, int(self.geometry.pages_per_block
                          * self.config.bg_gc_min_invalid_fraction))

    def _begin_gc(self, chip_id: int, victim_block: int,
                  background: bool) -> None:
        state = self.chips[chip_id]
        if state.gc is not None:
            raise RuntimeError(f"chip {chip_id} already collecting")
        gb = self.mapping.global_block_of(chip_id, victim_block)
        valid = list(self.mapping.valid_lpns_in_block(gb))
        state.gc = GcJob(victim_block, gb, valid, background)
        state.full_blocks.discard(victim_block)
        if background:
            self.background_gcs += 1
        else:
            self.foreground_gcs += 1
        if self._trace is not None:
            self._trace.event("gc.victim", chip=chip_id,
                              block=victim_block, valid=len(valid),
                              background=int(background))
        if self._metrics is not None:
            self._metrics.counter(
                "gc.collections", chip=chip_id,
                mode="background" if background else "foreground").inc()

    def _gc_step(self, chip_id: int, *_unused: object) -> Optional[FlashOp]:
        """Produce the next GC operation for the chip.

        Page copies are emitted as a read immediately followed (via the
        pending queue) by the program of the relocated page; when no
        valid pages remain the victim is erased and returned to the
        free pool.
        """
        state = self.chips[chip_id]
        job = state.gc
        if job is None:
            return None
        while job.valid_lpns:
            lpn = job.valid_lpns.popleft()
            ppn = self.mapping.lookup(lpn)
            if ppn is None or ppn // self._ppb != job.victim_gb:
                continue  # superseded by a newer host write meanwhile
            target = self._allocate_gc_page(chip_id)
            if target is None:
                # No room to relocate: abandon for now, retry later.
                job.valid_lpns.appendleft(lpn)
                return None
            target_addr, target_ptype = target
            source_addr = self.geometry.address_of(ppn)
            target_ppn = (target_addr.channel * self._cpc
                          + target_addr.chip) * self._pages_per_chip \
                + target_addr.block * self._ppb + target_addr.page
            self.mapping.map_write(lpn, target_ppn)
            # write-clock accounting, inlined (see _note_block_write)
            self._write_clock += 1
            self._block_write_stamp[target_ppn // self._ppb] = \
                self._write_clock
            self.gc_programs += 1
            job.copied += 1
            hook = self._after_gc_program
            if hook is not None:
                hook(chip_id, target_addr, target_ptype)
            state.pending.append(FlashOp(_PROGRAM, target_addr, "gc", lpn,
                                         None, None, source_addr))
            return FlashOp(_READ, source_addr, "gc", lpn)
        # victim drained: erase it and recycle
        state.gc = None
        self.mapping.note_block_erased(job.victim_gb)
        state.free_blocks.append(job.victim_block)
        hook = self._after_gc_complete
        if hook is not None:
            hook(chip_id, job)
        erase_addr = PhysicalPageAddress(
            *self.geometry.chip_coords(chip_id), job.victim_block, 0
        )
        return FlashOp(_ERASE, erase_addr, "gc")

    # ------------------------------------------------------------------
    # helpers for subclasses

    def _take_free_block(self, chip_id: int, for_gc: bool = False
                         ) -> Optional[int]:
        """Pop a free block; host allocations respect the GC reserve."""
        state = self.chips[chip_id]
        if not for_gc and len(state.free_blocks) \
                <= self.config.gc_reserve_blocks:
            return None
        if not state.free_blocks:
            return None
        if not self.config.wear_aware_allocation:
            return state.free_blocks.popleft()
        chip = self.array.chips[chip_id]
        chosen = min(state.free_blocks,
                     key=lambda block: chip.blocks[block].erase_count)
        state.free_blocks.remove(chosen)
        return chosen

    def _page_address(self, chip_id: int, block: int, wordline: int,
                      ptype: PageType) -> PhysicalPageAddress:
        """Build a physical address from chip-local coordinates."""
        # chip_coords + page_index inlined (per-allocation hot path)
        channel, chip = divmod(chip_id, self._cpc)
        return PhysicalPageAddress(channel, chip, block,
                                   2 * wordline + ptype)

    def _mark_block_full(self, chip_id: int, block: int) -> None:
        """Move a fully-written block into the GC-eligible full set."""
        self.chips[chip_id].full_blocks.add(block)
        if self._trace is not None:
            self._trace.event("2po.block_full", chip=chip_id,
                              block=block)
        self._on_block_full(chip_id, block)

    def _enqueue_parity_backup(self, chip_id: int, owner: object) -> None:
        """Queue the NAND operations for one parity-page backup.

        Allocates a parity slot for ``owner`` from the chip's backup
        manager and appends the resulting operations — possibly a
        backup-block erase plus live-parity re-programs, then the
        parity program itself — to the chip's pending queue.
        """
        state = self.chips[chip_id]
        if state.backup is None:
            raise RuntimeError(f"{self.name} has no backup blocks")
        slot, cycle = state.backup.allocate(owner)
        channel, chip = self.geometry.chip_coords(chip_id)
        if cycle is not None:
            state.pending.append(FlashOp(
                _ERASE,
                PhysicalPageAddress(channel, chip, cycle.erase_block, 0),
                "backup"))
            for _owner, new_slot in cycle.relocations:
                state.pending.append(FlashOp(
                    _PROGRAM,
                    PhysicalPageAddress(channel, chip, new_slot.block,
                                        new_slot.page),
                    "backup"))
                self.backup_programs += 1
        state.pending.append(FlashOp(
            _PROGRAM,
            PhysicalPageAddress(channel, chip, slot.block, slot.page),
            "backup"))
        self.backup_programs += 1
        trace = self._trace
        if trace is not None:
            # owner is a global block id; warm path — see Tracer.warm_parity
            trace.warm_parity(chip_id, int(owner), slot.block,
                              slot.page, int(cycle is not None))
            self._metrics.counter("parity.writes", chip=chip_id).inc()

    # ------------------------------------------------------------------
    # fault handling (driven by the controller; see repro.faults)

    def _fault_work(self, chip_id: int) -> FaultWork:
        state = self.chips[chip_id]
        if state.fault_work is None:
            state.fault_work = FaultWork()
        return state.fault_work

    def _ppn(self, addr: PhysicalPageAddress) -> int:
        return (addr.channel * self._cpc + addr.chip) \
            * self._pages_per_chip + addr.block * self._ppb + addr.page

    def parity_covers(self, chip_id: int,
                      addr: PhysicalPageAddress) -> bool:
        """Whether a live parity page protects the block of ``addr``.

        True means an LSB page destroyed in that block is
        reconstructable by XOR-ing the block's surviving LSB pages with
        the parity page (Section 3.3); FTLs without backup blocks
        always answer False.
        """
        backup = self.chips[chip_id].backup
        if backup is None:
            return False
        gb = self.mapping.global_block_of(chip_id, addr.block)
        return backup.slot_of(gb) is not None

    def handle_program_failure(self, chip_id: int, op: FlashOp) -> None:
        """Recover from a program-status failure reported for ``op``.

        The physical outcome matches an interrupted program (the
        in-flight page never became durable; a failed MSB program also
        corrupts its paired LSB page).  The op's own data is still in
        controller RAM, so it is re-driven to a fresh page; a destroyed
        paired LSB is reconstructed from parity when a live parity page
        covers the block, and counted as lost otherwise.  The failed
        block is then retired.
        """
        addr = op.addr
        if addr.block >= self.backup_block_start:
            self._handle_backup_program_failure(chip_id, op)
            return
        stats = self.fault_stats
        if stats is not None:
            stats.program_failures += 1
        destroyed = apply_power_loss_to_in_flight(self.array, addr)
        work = self._fault_work(chip_id)
        mapping = self.mapping
        own_ppn = self._ppn(addr)
        redriven = lost_count = 0
        for lost in destroyed:
            ppn = self._ppn(lost)
            lpn = mapping.lpn_of(ppn)
            if lpn is None:
                continue
            if ppn == own_ppn or self.parity_covers(chip_id, lost):
                if stats is not None:
                    stats.redriven_writes += 1
                    if ppn != own_ppn:
                        stats.reconstructed_pages += 1
                mapping.unmap(lpn)
                work.redrive.append(lpn)
                redriven += 1
            else:
                mapping.unmap(lpn)
                if stats is not None:
                    stats.lost_pages += 1
                lost_count += 1
        if self._trace is not None:
            if redriven:
                self._trace.event("fault.recover", chip=chip_id,
                                  fault="program_fail",
                                  outcome="redriven", pages=redriven)
            if lost_count:
                self._trace.event("fault.recover", chip=chip_id,
                                  fault="program_fail", outcome="lost",
                                  pages=lost_count)
        self._retire_block(chip_id, addr.block)

    def _handle_backup_program_failure(self, chip_id: int,
                                       op: FlashOp) -> None:
        """A parity-page program failed: re-drive the affected parity.

        Parity content is RAM-resident until its protected block
        closes, so every owner whose live slot the failure destroyed
        simply gets a fresh slot and a re-program.  No page of a block
        may follow a destroyed one, so parity programs still queued
        for that block are taken back and re-driven too, and the
        backup manager moves on to a freshly erased block.  Backup
        blocks sit outside the spare/replacement pools and are not
        retired.
        """
        stats = self.fault_stats
        if stats is not None:
            stats.backup_program_failures += 1
        destroyed = apply_power_loss_to_in_flight(self.array, op.addr)
        state = self.chips[chip_id]
        backup = state.backup
        if backup is None:
            return
        lost = [ParitySlot(addr.block, addr.page) for addr in destroyed]
        blocks = {slot.block for slot in lost}
        kept: Deque[FlashOp] = deque()
        for pending_op in state.pending:
            if pending_op.tag == "backup" \
                    and pending_op.kind is OpKind.PROGRAM \
                    and pending_op.addr.block in blocks:
                lost.append(ParitySlot(pending_op.addr.block,
                                       pending_op.addr.page))
            else:
                kept.append(pending_op)
        state.pending = kept
        for owner in backup.discard(lost):
            self._enqueue_parity_backup(chip_id, owner)
            if stats is not None:
                stats.redriven_writes += 1

    def handle_erase_failure(self, chip_id: int, op: FlashOp) -> None:
        """Recover from an erase failure reported for ``op``.

        A failed data-block erase retires the block (its mapping was
        already cleared before the erase was issued).  A failed
        backup-block erase is simply retried: the backup region has no
        replacement pool, and erase failures are transient far more
        often than program failures.
        """
        stats = self.fault_stats
        if stats is not None:
            stats.erase_failures += 1
        block = op.addr.block
        state = self.chips[chip_id]
        if block >= self.backup_block_start:
            if stats is not None:
                stats.erase_retries += 1
            state.pending.appendleft(
                FlashOp(OpKind.ERASE, op.addr, tag="backup"))
            return
        try:
            state.free_blocks.remove(block)
        except ValueError:
            pass
        self._retire_block(chip_id, block)

    def handle_grown_bad(self, chip_id: int, op: FlashOp) -> None:
        """A block was detected grown-bad after a successful program.

        The block's data is intact and readable; it is retired and its
        live pages are salvaged off it.  Backup blocks are skipped —
        they are outside the replacement pools.
        """
        block = op.addr.block
        if block >= self.backup_block_start:
            return
        state = self.chips[chip_id]
        if state.bad_blocks is not None and state.bad_blocks.is_bad(block):
            return
        if self.fault_stats is not None:
            self.fault_stats.grown_bad_blocks += 1
        self._retire_block(chip_id, block)

    def _retire_block(self, chip_id: int, block: int) -> None:
        """Pull a data block out of service, replacing it with a spare.

        Removes the block from every pool, abandons a GC relocating out
        of it, re-routes pending programs aimed at it, queues a salvage
        job for its remaining live pages (retired blocks stay
        readable), and consumes a spare — or flips the FTL into
        degraded mode when the reserve is dry.
        """
        state = self.chips[chip_id]
        stats = self.fault_stats
        if self._metrics is not None:
            self._metrics.counter("blocks.retired", chip=chip_id).inc()
        state.full_blocks.discard(block)
        try:
            state.free_blocks.remove(block)
        except ValueError:
            pass
        gb = self.mapping.global_block_of(chip_id, block)
        job = state.gc
        if job is not None and job.victim_block == block:
            # The salvage job below covers whatever the abandoned GC
            # had not relocated yet.
            state.gc = None
        if state.pending:
            kept: Deque[FlashOp] = deque()
            for pending_op in state.pending:
                if pending_op.kind is OpKind.PROGRAM \
                        and pending_op.addr.block == block:
                    lpn = pending_op.lpn
                    if lpn is not None:
                        ppn = self.mapping.lookup(lpn)
                        if ppn is not None and ppn // self._ppb == gb:
                            self.mapping.unmap(lpn)
                            self._fault_work(chip_id).redrive.append(lpn)
                            if stats is not None:
                                stats.redriven_writes += 1
                    continue  # drop the op: it would program bad silicon
                kept.append(pending_op)
            state.pending = kept
        self._release_block(chip_id, block)
        valid = list(self.mapping.valid_lpns_in_block(gb))
        if valid:
            self._fault_work(chip_id).salvage.append(
                SalvageJob(block, gb, valid))
        spare = None
        if state.bad_blocks is not None:
            spare = state.bad_blocks.retire(block)
        if stats is not None:
            stats.retired_blocks += 1
        if spare is not None:
            state.free_blocks.append(spare)
            if stats is not None:
                stats.spares_consumed += 1
        else:
            self.degraded = True
            if stats is not None:
                stats.degraded_mode = True

    def _release_block(self, chip_id: int, block: int) -> None:
        """Hook: ``block`` left the allocation pools (retirement).

        Subclasses drop any allocation-cursor or parity state that
        refers to it; the base class has none.
        """

    def mark_factory_bad(self, chip_id: int, block: int) -> None:
        """Record a factory bad block before the run starts.

        The block must still be free (factory tables are applied before
        any traffic); a spare replaces it when the reserve allows.
        """
        if not (0 <= block < self.data_blocks_per_chip):
            raise ValueError(
                f"factory bad block {block} outside the data region "
                f"[0, {self.data_blocks_per_chip})"
            )
        state = self.chips[chip_id]
        try:
            state.free_blocks.remove(block)
        except ValueError:
            raise ValueError(
                f"block {block} on chip {chip_id} is not free; factory "
                f"bad blocks must be marked before the run"
            ) from None
        spare = None
        if state.bad_blocks is not None:
            spare = state.bad_blocks.mark_factory_bad(block)
        if spare is not None:
            state.free_blocks.append(spare)
        else:
            self.degraded = True
            if self.fault_stats is not None:
                self.fault_stats.degraded_mode = True

    def _force_gc_op(self, chip_id: int) -> Optional[FlashOp]:
        """Start (or promote to foreground) a GC to free room for
        recovery writes."""
        state = self.chips[chip_id]
        if state.gc is None:
            victim = self._select_victim(chip_id)
            if victim is None:
                return None
            self._begin_gc(chip_id, victim, background=False)
        elif state.gc.background:
            state.gc.background = False
        return self._gc_step(chip_id)

    def _fault_recovery_op(self, chip_id: int,
                           now: float) -> Optional[FlashOp]:
        """Next recovery operation for the chip, or None.

        Re-drives of RAM-resident pages go first (their data exists
        nowhere on flash), then salvage relocations off retired blocks.
        Both allocate like GC relocations — ignoring the host reserve —
        and fall back to forcing a foreground GC when the chip is out
        of room.
        """
        state = self.chips[chip_id]
        work = state.fault_work
        if work is None:
            return None
        mapping = self.mapping
        while work.redrive:
            lpn = work.redrive[0]
            target = self._allocate_gc_page(chip_id)
            if target is None:
                return self._force_gc_op(chip_id)
            work.redrive.popleft()
            addr, ptype = target
            ppn = self._ppn(addr)
            mapping.map_write(lpn, ppn)
            self._write_clock += 1
            self._block_write_stamp[ppn // self._ppb] = self._write_clock
            hook = self._after_gc_program
            if hook is not None:
                hook(chip_id, addr, ptype)
            return FlashOp(OpKind.PROGRAM, addr, tag="recovery", lpn=lpn)
        while work.salvage:
            job = work.salvage[0]
            while job.valid_lpns:
                lpn = job.valid_lpns.popleft()
                ppn = mapping.lookup(lpn)
                if ppn is None or ppn // self._ppb != job.gb:
                    continue  # superseded meanwhile
                target = self._allocate_gc_page(chip_id)
                if target is None:
                    job.valid_lpns.appendleft(lpn)
                    return self._force_gc_op(chip_id)
                addr, ptype = target
                target_ppn = self._ppn(addr)
                mapping.map_write(lpn, target_ppn)
                self._write_clock += 1
                self._block_write_stamp[target_ppn // self._ppb] = \
                    self._write_clock
                if self.fault_stats is not None:
                    self.fault_stats.salvaged_pages += 1
                hook = self._after_gc_program
                if hook is not None:
                    hook(chip_id, addr, ptype)
                source_addr = self.geometry.address_of(ppn)
                state.pending.append(FlashOp(
                    OpKind.PROGRAM, addr, tag="salvage", lpn=lpn,
                    source=source_addr))
                return FlashOp(OpKind.READ, source_addr,
                               tag="salvage", lpn=lpn)
            work.salvage.popleft()
        state.fault_work = None
        return None

    def quarantine_interrupted_block(self, chip_id: int,
                                     block: int) -> None:
        """Close a block whose in-flight program a power cut destroyed.

        The destroyed page leaves a hole in the block's program
        sequence, so no further page of it can legally be programmed.
        The block is pulled from every allocation cursor and parked in
        the full pool: its surviving pages stay readable and normal
        garbage collection reclaims it (relocate valid pages, erase,
        back to the free pool) — unlike retirement, no spare is spent.
        """
        state = self.chips[chip_id]
        try:
            state.free_blocks.remove(block)
        except ValueError:
            pass
        self._release_block(chip_id, block)
        state.full_blocks.add(block)

    def note_read_loss(self, op: FlashOp) -> None:
        """A host read of ``op`` exhausted the retry ladder: the page's
        data is gone.  Unmap it so later reads fail fast rather than
        re-walking the ladder."""
        lpn = op.lpn
        if lpn is None:
            return
        if self.mapping.lookup(lpn) == self._ppn(op.addr):
            self.mapping.unmap(lpn)

    def note_read_reconstructed(self, chip_id: int, op: FlashOp) -> None:
        """A host read was served via parity reconstruction: scrub the
        decayed page by re-driving the reconstructed data to a fresh
        location."""
        lpn = op.lpn
        if lpn is None:
            return
        if self.mapping.lookup(lpn) == self._ppn(op.addr):
            self.mapping.unmap(lpn)
            self._fault_work(chip_id).redrive.append(lpn)
            if self.fault_stats is not None:
                self.fault_stats.redriven_writes += 1

    def reset_after_power_loss(self) -> List[int]:
        """Drop volatile per-chip work after a power cut.

        Pending GC/salvage relocation programs are rolled back to their
        durable source copy (the reboot metadata scan finds it — the
        victim block has not been erased).  Pending parity programs
        never reached flash although their backup slots were handed
        out: the backup manager forgets them and stops filling a block
        they left a hole in.  Re-drive entries lived only in controller
        RAM; their logical pages are lost.  Returns the lost lpns.
        """
        dropped: List[int] = []
        mapping = self.mapping
        for state in self.chips:
            # A backup-block erase is always queued ahead of a parity
            # program into that block, so the unwritten programs
            # cover a dropped erase too.
            unwritten = [ParitySlot(op.addr.block, op.addr.page)
                         for op in state.pending
                         if op.tag == "backup"
                         and op.kind is OpKind.PROGRAM]
            if unwritten:
                state.backup.discard(unwritten)
            for pending_op in state.pending:
                if pending_op.kind is not OpKind.PROGRAM \
                        or pending_op.lpn is None:
                    continue
                lpn = pending_op.lpn
                if mapping.lookup(lpn) != self._ppn(pending_op.addr):
                    continue
                mapping.unmap(lpn)
                source = pending_op.source
                if source is not None \
                        and self.array.is_programmed(source):
                    mapping.map_write(lpn, self._ppn(source))
                else:
                    dropped.append(lpn)
            state.pending.clear()
            job = state.gc
            if job is not None:
                state.gc = None
                state.full_blocks.add(job.victim_block)
            work = state.fault_work
            if work is not None:
                dropped.extend(work.redrive)
                work.redrive.clear()
                if not work.salvage:
                    state.fault_work = None
        return dropped

    # ------------------------------------------------------------------
    # subclass interface

    def _allocate_host_page(
        self, chip_id: int, now: float
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        """Pick the physical page for the next host write on a chip.

        Returns None when no page can be allocated without a garbage
        collection (the base class then drives one).  Required by the
        base :meth:`_host_write_op`; an FTL that open-codes its host
        write path in :meth:`next_op` (flexFTL) need not provide it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not allocate host pages through "
            f"the base host-write path")

    @abc.abstractmethod
    def _allocate_gc_page(
        self, chip_id: int
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        """Pick the physical page for a GC relocation on a chip."""

    #: Hook: called as ``hook(chip_id, addr, ptype, now)`` after a host
    #: page write is placed.  ``None`` (the default) means "no hook":
    #: the per-write fast path skips the call entirely.  Subclasses
    #: override with a method, or assign a bound callable per instance.
    _after_host_program: Optional[Callable[..., None]] = None

    #: Hook: called as ``hook(chip_id, addr, ptype)`` after a GC
    #: relocation page is placed, or ``None`` for no hook.
    _after_gc_program: Optional[Callable[..., None]] = None

    def _on_block_full(self, chip_id: int, block: int) -> None:
        """Hook: called when a data block becomes fully written."""

    #: Hook: called as ``hook(chip_id, job)`` when a GC finishes
    #: (victim already recycled), or ``None`` for no hook.
    _after_gc_complete: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    # accounting

    def free_block_count(self, chip_id: int) -> int:
        """Free blocks currently available on a chip."""
        return len(self.chips[chip_id].free_blocks)

    def counters(self) -> Dict[str, int]:
        """Aggregate operation counters for reports.

        A TLC array also reports ``csb_programs``, its third page type;
        an MLC array's counters carry only LSB and MSB programs.
        """
        counters = {
            "host_programs": self.host_programs,
            "gc_programs": self.gc_programs,
            "backup_programs": self.backup_programs,
            "foreground_gcs": self.foreground_gcs,
            "background_gcs": self.background_gcs,
            "erases": self.array.total_erases,
            "lsb_programs": self.array.lsb_programs,
            "msb_programs": self.array.msb_programs,
        }
        csb_programs = getattr(self.array, "csb_programs", None)
        if csb_programs is not None:
            counters["csb_programs"] = csb_programs
        return counters

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
