"""flexFTL: the paper's RPS-aware flash translation layer (Section 3).

flexFTL programs blocks under the two-phase ordering (2PO, an instance
of the RPS scheme): all LSB pages of a block first, then all its MSB
pages.  Three mechanisms build on that:

* **two-phase block management** — one active fast block and one
  active slow block per chip, connected by a FIFO slow block queue
  (:class:`~repro.core.block_manager.TwoPhaseBlockManager`);
* **adaptive page allocation** — the policy manager picks LSB or MSB
  per host write from buffer utilisation ``u`` and the quota ``q``
  (:class:`~repro.core.page_allocator.PolicyManager`);
* **per-block parity backup** — one parity page per block, persisted
  when the block's last LSB page is written, replaces per-MSB-program
  paired-page backups (:mod:`repro.core.parity_backup`).

Background garbage collection (invoked in idle times when free blocks
drop below 10 %) relocates valid pages into **MSB** pages of the active
slow block, reclaiming free (LSB-capable) blocks while replenishing
``q`` for future bursts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.block_manager import TwoPhaseBlockManager
from repro.core.page_allocator import PolicyConfig, PolicyManager, QuotaTracker
from repro.core.predictor import EwmaBurstPredictor
from repro.ftl.base import BaseFtl, FtlConfig
from repro.ftl.cursor import PhaseCursor
from repro.nand.array import NandArray
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.page_types import PageType
from repro.nand.sequence import SequenceScheme
from repro.sim.ops import FlashOp, OpKind
from repro.sim.queues import WriteBuffer

_PROGRAM = OpKind.PROGRAM
_new = object.__new__


class FlexFtl(BaseFtl):
    """The RPS-aware FTL of the paper."""

    name = "flexFTL"
    uses_backup = True
    backup_order = "lsb"  # RPS: parity pages use fast LSB slots only

    def __init__(
        self,
        array: NandArray,
        write_buffer: WriteBuffer,
        config: Optional[FtlConfig] = None,
        policy_config: Optional[PolicyConfig] = None,
        parity_interval: int = 0,
        predictor: Optional[EwmaBurstPredictor] = None,
    ) -> None:
        """Args:
            array: an RPS (or unconstrained) NAND array.
            write_buffer: the controller's write buffer.
            config: common FTL tunables.
            policy_config: adaptive page-allocation tunables.
            parity_interval: persist an intermediate parity page after
                every this-many LSB writes within a fast block (each
                superseding the previous one).  0 — the paper's design —
                persists a single parity page per block, when its last
                LSB page is written.  Nonzero values exist for the
                parity-granularity ablation.
            predictor: optional future-write predictor (the paper's
                Section 6 extension).  When present, idle-time
                collection continues until the LSB-write headroom —
                quota and allocatable LSB pages — covers the predicted
                next burst, instead of stopping at the free-block
                threshold.
        """
        if array.scheme is SequenceScheme.FPS:
            raise ValueError(
                "flexFTL programs blocks in the 2PO order, which an "
                "FPS-enforcing device rejects; use an RPS array"
            )
        if parity_interval < 0:
            raise ValueError("parity_interval must be >= 0")
        super().__init__(array, write_buffer, config)
        self.parity_interval = parity_interval
        self.predictor = predictor
        if predictor is not None:
            self._after_host_program = self._observe_host_program
        self.policy_config = policy_config or PolicyConfig()
        self.policy = PolicyManager(self.policy_config)
        self.managers: List[TwoPhaseBlockManager] = [
            TwoPhaseBlockManager(self.wordlines)
            for _ in self.geometry.iter_chip_ids()
        ]
        total_lsb_pages = (self.data_blocks_per_chip * self.wordlines
                           * self.geometry.total_chips)
        initial_quota = max(1, int(self.policy_config.quota_fraction
                                   * total_lsb_pages))
        quota_cap = max(initial_quota,
                        int(initial_quota
                            * self.policy_config.quota_cap_factor))
        self.quota = QuotaTracker(initial_quota, quota_cap)
        #: per-chip (channel, chip) pairs precomputed for hot-path
        #: address construction
        self._coords: List[Tuple[int, int]] = [
            divmod(cid, self._cpc) for cid in self.geometry.iter_chip_ids()
        ]
        #: parity invalidations deferred until the closing MSB program
        #: has durably completed (see _flush_parity_invalidations)
        self._pending_invalidations: List[List[int]] = [
            [] for _ in self.geometry.iter_chip_ids()
        ]

    # ------------------------------------------------------------------
    # placement

    def _allocate_gc_page(
        self, chip_id: int
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        # GC relocations consume slow MSB pages (replenishing q and
        # keeping LSB pages for the host); fall back to LSB pages only
        # when no slow block exists.
        allocated = self._take_msb(chip_id)
        if allocated is not None:
            return allocated
        return self._take_lsb(chip_id, for_gc=True)

    def _take_lsb(
        self, chip_id: int, for_gc: bool
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        manager = self.managers[chip_id]
        fast = manager._fast
        if fast is None:
            block = self._take_free_block(chip_id, for_gc=for_gc)
            if block is None:
                return None
            fast = PhaseCursor(block, manager.wordlines, PageType.LSB)
            manager._fast = fast
            if self._trace is not None:
                self._trace.event("2po.fast_open", chip=chip_id,
                                  block=block)
        # TwoPhaseBlockManager.take_lsb, inlined without the TakenPage
        # (per-LSB-write hot path); keep in sync with
        # :meth:`repro.core.block_manager.TwoPhaseBlockManager.take_lsb`.
        wordline = fast._next
        fast._next = wordline + 1
        block = fast.block
        self.quota.value -= 1  # note_lsb_write, inlined
        if fast._next >= manager.wordlines:
            # Last LSB page of the fast block: the block joins the
            # SBQueue and its accumulated parity page is persisted.
            manager._sbqueue.append(
                PhaseCursor(block, manager.wordlines, PageType.MSB))
            manager._fast = None
            if self._trace is not None:
                self._trace.event("2po.lsb_complete", chip=chip_id,
                                  block=block)
            self._enqueue_parity_backup(
                chip_id,
                owner=self.mapping.global_block_of(chip_id, block))
        elif self.parity_interval > 0 \
                and (wordline + 1) % self.parity_interval == 0:
            # Ablation mode: intermediate parity checkpoints, each
            # superseding the block's previous one.
            self._enqueue_parity_backup(
                chip_id,
                owner=self.mapping.global_block_of(chip_id, block))
        # _page_address, inlined (per-allocation hot path);
        # tuple.__new__ skips the NamedTuple __new__ wrapper
        channel, chip = self._coords[chip_id]
        return (tuple.__new__(PhysicalPageAddress,
                              (channel, chip, block, 2 * wordline)),
                PageType.LSB)

    def _take_msb(
        self, chip_id: int
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        manager = self.managers[chip_id]
        sbqueue = manager._sbqueue
        if not sbqueue:
            return None
        # TwoPhaseBlockManager.take_msb, inlined without the TakenPage
        # (per-MSB-write hot path); keep in sync with
        # :meth:`repro.core.block_manager.TwoPhaseBlockManager.take_msb`.
        cursor = sbqueue[0]
        wordline = cursor._next
        cursor._next = wordline + 1
        block = cursor.block
        done = cursor._next >= manager.wordlines
        if done:
            sbqueue.popleft()
        quota = self.quota  # note_msb_write, inlined (saturating)
        if quota.value < quota.cap:
            quota.value += 1
        # _page_address, inlined (per-allocation hot path);
        # tuple.__new__ skips the NamedTuple __new__ wrapper
        channel, chip = self._coords[chip_id]
        addr = tuple.__new__(PhysicalPageAddress,
                             (channel, chip, block, 2 * wordline + 1))
        if done:
            # Block fully written: GC-eligible, parity page now dead.
            self._mark_block_full(chip_id, block)
        return addr, PageType.MSB

    # ------------------------------------------------------------------
    # hooks

    def _on_block_full(self, chip_id: int, block: int) -> None:
        # The paper invalidates a block's parity page "once the pages
        # of a slow block are all written".  This hook runs when the
        # final MSB program *issues*; invalidating here would open a
        # window where a power loss during that very program destroys
        # an LSB page whose parity is already gone.  Defer until the
        # chip's next operation — per-chip serialisation guarantees
        # the closing program has completed by then.
        gb = self.mapping.global_block_of(chip_id, block)
        self._pending_invalidations[chip_id].append(gb)

    def _flush_parity_invalidations(self, chip_id: int) -> None:
        pending = self._pending_invalidations[chip_id]
        if not pending:
            return
        backup = self.chips[chip_id].backup
        if backup is not None:
            for gb in pending:
                backup.invalidate(gb)
        pending.clear()

    def _release_block(self, chip_id: int, block: int) -> None:
        # A retired block may be the active fast block, sit in the
        # SBQueue, or still own a live parity page — drop all three.
        self.managers[chip_id].discard_block(block)
        gb = self.mapping.global_block_of(chip_id, block)
        backup = self.chips[chip_id].backup
        if backup is not None:
            backup.invalidate(gb)
        pending = self._pending_invalidations[chip_id]
        if gb in pending:
            pending.remove(gb)

    def next_op(self, chip_id: int, now: float):
        """Deferred parity invalidation plus the base dispatch, with
        the host-write pipeline open-coded around the page-type choice.

        This runs for every idle chip on every controller pump, and its
        call chain — base dispatch → ``_host_write_op`` → page
        allocation → buffer pop — dominated the simulation profile.
        The LSB/MSB decision is
        :meth:`repro.core.page_allocator.PolicyManager.choose`.  The
        dispatch order follows :meth:`repro.ftl.base.BaseFtl.next_op`
        and :meth:`repro.ftl.base.BaseFtl._host_write_op`; the page
        takes, buffer pop and mapping update are open-coded forms of
        :meth:`_take_lsb`, :meth:`_take_msb`,
        :meth:`repro.sim.queues.WriteBuffer.pop` and
        :meth:`repro.ftl.mapping.MappingTable.map_write`; keep them in
        sync.  What delegating to the base path (plus an
        ``_allocate_host_page`` override) costs is measured in
        ``docs/PERFORMANCE.md``, "Hand-synced Python copies".
        """
        if self._pending_invalidations[chip_id]:
            self._flush_parity_invalidations(chip_id)
        state = self.chips[chip_id]
        if state.pending:
            return state.pending.popleft()
        if state.fault_work is not None:
            op = self._fault_recovery_op(chip_id, now)
            if op is not None:
                return op
        gc = state.gc
        if gc is not None and not gc.background:
            return self._gc_step(chip_id)
        # ---- BaseFtl._host_write_op, open-coded ----
        buffer = self.write_buffer
        if not buffer._live:
            return None
        # ---- page allocation, open-coded ----
        manager = self.managers[chip_id]
        fast = manager._fast
        sbqueue = manager._sbqueue
        wordlines = manager.wordlines
        if fast is not None and fast._next < wordlines:
            lsb_available = True
        else:
            lsb_available = len(state.free_blocks) \
                > self.config.gc_reserve_blocks
        msb_available = bool(sbqueue)
        addr = None
        alloc = None
        # the Section 3.2 page-type rule (None: nothing allocatable)
        choice = self.policy.choose(buffer._live / buffer.capacity,
                                    self.quota, lsb_available,
                                    msb_available)
        if choice is PageType.LSB:
            if fast is not None:
                # _take_lsb with an installed fast block, inlined
                # (cannot fail; the install/free-block path below
                # delegates to the method)
                wordline = fast._next
                fast._next = wordline + 1
                block = fast.block
                self.quota.value -= 1  # note_lsb_write, inlined
                if fast._next >= wordlines:
                    sbqueue.append(
                        PhaseCursor(block, wordlines, PageType.MSB))
                    manager._fast = None
                    if self._trace is not None:
                        self._trace.event("2po.lsb_complete",
                                          chip=chip_id, block=block)
                    self._enqueue_parity_backup(
                        chip_id,
                        owner=self.mapping.global_block_of(chip_id, block))
                elif self.parity_interval > 0 \
                        and (wordline + 1) % self.parity_interval == 0:
                    self._enqueue_parity_backup(
                        chip_id,
                        owner=self.mapping.global_block_of(chip_id, block))
                page = 2 * wordline
                channel, chip = self._coords[chip_id]
                addr = tuple.__new__(PhysicalPageAddress,
                                     (channel, chip, block, page))
                ptype = PageType.LSB
                ppn = (chip_id * self._pages_per_chip
                       + block * self._ppb + page)
            else:
                alloc = self._take_lsb(chip_id, for_gc=False)
                if alloc is None:
                    alloc = self._take_msb(chip_id)
        elif choice is not None:
            # _take_msb, inlined (an MSB choice implies the SBQueue
            # is non-empty, so the take cannot fail)
            cursor = sbqueue[0]
            wordline = cursor._next
            cursor._next = wordline + 1
            block = cursor.block
            done = cursor._next >= wordlines
            if done:
                sbqueue.popleft()
            quota = self.quota  # note_msb_write, inlined (saturating)
            if quota.value < quota.cap:
                quota.value += 1
            page = 2 * wordline + 1
            channel, chip = self._coords[chip_id]
            addr = tuple.__new__(PhysicalPageAddress,
                                 (channel, chip, block, page))
            ptype = PageType.MSB
            ppn = (chip_id * self._pages_per_chip
                   + block * self._ppb + page)
            if done:
                # Block fully written: GC-eligible, parity dead.
                self._mark_block_full(chip_id, block)
        if addr is None:
            if alloc is None:
                # Write-blocked: start (or promote) a foreground
                # collection.
                if state.gc is None:
                    victim = self._select_victim(chip_id)
                    if victim is not None:
                        self._begin_gc(chip_id, victim, background=False)
                elif state.gc.background:
                    state.gc.background = False
                if state.gc is not None and not state.gc.background:
                    return self._gc_step(chip_id)
                return None
            addr, ptype = alloc
            # addr is a NamedTuple: index access skips the descriptor
            ppn = (addr[0] * self._cpc + addr[1]) * self._pages_per_chip \
                + addr[2] * self._ppb + addr[3]
        # ---- WriteBuffer.pop, open-coded ----
        if buffer._stale:  # stale marks exist only with coalescing on
            entry = buffer.pop()
        else:
            entry = buffer._fifo.popleft()
            elpn = entry.lpn
            resident = buffer._resident
            remaining = resident[elpn] - 1
            if remaining:
                resident[elpn] = remaining
            else:
                del resident[elpn]
            buffer._live -= 1
        lpn = entry.lpn
        # ---- MappingTable.map_write, open-coded (error paths delegate
        # so the exact exception is raised); keep in sync with
        # :meth:`repro.ftl.mapping.MappingTable.map_write` ----
        mapping = self.mapping
        p2l = mapping._p2l
        if not 0 <= lpn < mapping.logical_pages or p2l[ppn] >= 0:
            mapping.map_write(lpn, ppn)  # raises
        valid = mapping._valid
        l2p = mapping._l2p
        old = l2p[lpn]
        if old >= 0:
            p2l[old] = -1
            valid[old // self._ppb] -= 1
        else:
            mapping._mapped += 1
        l2p[lpn] = ppn
        p2l[ppn] = lpn
        gb = ppn // self._ppb
        valid[gb] += 1
        # write-clock accounting, inlined (see _note_block_write)
        self._write_clock += 1
        self._block_write_stamp[gb] = self._write_clock
        self.host_programs += 1
        hook = self._after_host_program
        if hook is not None:
            hook(chip_id, addr, ptype, now)
        # FlashOp built via object.__new__ + slot stores: skips the
        # dataclass __init__ frame (once per host program)
        op = _new(FlashOp)
        op.kind = _PROGRAM
        op.addr = addr
        op.tag = "host"
        op.lpn = lpn
        op.on_complete = None
        op.data = None
        op.source = None
        return op

    def _observe_host_program(self, chip_id, addr, ptype, now):
        # installed as the base _after_host_program hook only when a
        # predictor exists (see __init__), so predictor-less runs skip
        # the per-write hook call entirely
        self.predictor.observe_write(now)

    # ------------------------------------------------------------------
    # predictor-driven just-in-time collection (Section 6 extension)

    def _lsb_headroom(self, chip_id: int) -> int:
        """LSB pages this chip could serve before running dry."""
        manager = self.managers[chip_id]
        free_blocks = len(self.chips[chip_id].free_blocks)
        return manager.free_lsb_pages + free_blocks * self.wordlines

    def _predictor_wants_gc(self, chip_id: int,
                            now: "Optional[float]") -> bool:
        if self.predictor is None or not self.config.bg_gc_enabled:
            return False
        predicted = self.predictor.predicted_burst_pages(now)
        if predicted <= 0:
            return False
        per_chip_demand = predicted / self.geometry.total_chips
        quota_short = self.quota.value < min(self.quota.cap, predicted)
        capacity_short = self._lsb_headroom(chip_id) < per_chip_demand
        if not (quota_short or capacity_short):
            return False
        return self._select_victim(
            chip_id, self._bg_min_invalid()) is not None

    def wants_background_gc(self, chip_id: int) -> bool:
        """Base condition plus the predictor's demand trigger."""
        if super().wants_background_gc(chip_id):
            return True
        # No timestamp here: use the estimate as-is (the timestamped
        # decision happens in background_op anyway).
        return self._predictor_wants_gc(chip_id, now=None)

    def background_op(self, chip_id: int, now: float):
        """Idle-time work, including predictor-driven collection."""
        self._flush_parity_invalidations(chip_id)
        op = super().background_op(chip_id, now)
        if op is not None:
            return op
        state = self.chips[chip_id]
        if state.gc is not None or not self._predictor_wants_gc(chip_id,
                                                                now):
            return None
        victim = self._select_victim(chip_id, self._bg_min_invalid())
        if victim is None:
            return None
        self._begin_gc(chip_id, victim, background=True)
        return self._gc_step(chip_id)

    # ------------------------------------------------------------------
    # introspection

    def sbqueue_length(self, chip_id: int) -> int:
        """Blocks in the chip's slow block queue."""
        return self.managers[chip_id].sbqueue_length

    def counters(self):
        """Base counters plus flexFTL-specific state."""
        base = super().counters()
        base["quota"] = self.quota.value
        base["lsb_decisions"] = self.policy.decisions[PageType.LSB]
        base["msb_decisions"] = self.policy.decisions[PageType.MSB]
        return base
