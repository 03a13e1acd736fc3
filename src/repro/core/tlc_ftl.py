"""TLC FTLs: the three-phase flexFTL generalisation and its baseline.

System-level completion of the paper's Section 1 claim: the same FTL
ideas — phase-ordered block filling, utilisation/quota-driven page-type
selection, slowest-pages-for-GC — carry to 3-bit devices, where the
program asymmetry (500/2000/5500 us) makes them worth more.

* :class:`TlcPageFtl` — the baseline: one active block per chip walked
  in the staggered FPS-TLC order (mixed page types, FPS-enforced).
* :class:`TlcFlexFtl` — three-phase block management (fast LSB phase →
  CSB queue → MSB queue → full), adaptive page-type selection from
  buffer utilisation and an LSB quota, and GC relocations into the
  slowest available pages.

Paired-page backup is **not** modelled for TLC (an interrupted CSB or
MSB program endangers one or two lower pages; a per-block parity
scheme generalises but is out of the reproduction's scope), so both
TLC FTLs run under the paper's pageFTL-style no-power-off assumption.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.page_allocator import QuotaTracker
from repro.ftl.base import BaseFtl, FtlConfig
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.tlc import (
    TlcPageType,
    TlcScheme,
    fps_tlc_order,
    tlc_page_index,
    tlc_split_index,
)
from repro.nand.tlc_array import TlcNandArray
from repro.sim.queues import WriteBuffer


class TlcOrderCursor:
    """Walks one TLC block in an explicit program order."""

    def __init__(self, block: int, order: List[int]) -> None:
        self.block = block
        self._order = order
        self._pos = 0

    @property
    def done(self) -> bool:
        return self._pos >= len(self._order)

    def take(self) -> Tuple[int, TlcPageType]:
        if self.done:
            raise IndexError(f"TLC block {self.block} cursor exhausted")
        index = self._order[self._pos]
        self._pos += 1
        return tlc_split_index(index)


class TlcPhaseCursor:
    """Walks one page type of a TLC block in word-line order."""

    def __init__(self, block: int, wordlines: int,
                 ptype: TlcPageType) -> None:
        self.block = block
        self.wordlines = wordlines
        self.ptype = ptype
        self._next = 0

    @property
    def done(self) -> bool:
        return self._next >= self.wordlines

    @property
    def remaining(self) -> int:
        return self.wordlines - self._next

    def take(self) -> Tuple[int, TlcPageType]:
        if self.done:
            raise IndexError(
                f"block {self.block} {self.ptype.name} phase exhausted"
            )
        wordline = self._next
        self._next += 1
        return wordline, self.ptype


class ThreePhaseBlockManager:
    """Per-chip TLC block life cycle: fast -> CSB queue -> MSB queue."""

    def __init__(self, wordlines: int) -> None:
        if wordlines <= 0:
            raise ValueError("wordlines must be positive")
        self.wordlines = wordlines
        self._fast: Optional[TlcPhaseCursor] = None
        self._csb: Deque[TlcPhaseCursor] = deque()
        self._msb: Deque[TlcPhaseCursor] = deque()

    @property
    def needs_fast_block(self) -> bool:
        return self._fast is None

    def install_fast_block(self, block: int) -> None:
        if self._fast is not None:
            raise RuntimeError("fast block still active")
        self._fast = TlcPhaseCursor(block, self.wordlines,
                                    TlcPageType.LSB)

    def take(self, ptype: TlcPageType
             ) -> Optional[Tuple[int, int, bool]]:
        """Allocate the next page of one type.

        Returns ``(block, wordline, block_full)`` or None when no page
        of that type is available.  Phase transitions happen
        automatically: LSB-exhausted blocks queue for the CSB phase,
        CSB-exhausted blocks for the MSB phase.
        """
        if ptype is TlcPageType.LSB:
            if self._fast is None:
                return None
            wordline, _ = self._fast.take()
            block = self._fast.block
            if self._fast.done:
                self._csb.append(TlcPhaseCursor(block, self.wordlines,
                                                TlcPageType.CSB))
                self._fast = None
            return block, wordline, False
        queue = self._csb if ptype is TlcPageType.CSB else self._msb
        if not queue:
            return None
        cursor = queue[0]
        wordline, _ = cursor.take()
        full = False
        if cursor.done:
            queue.popleft()
            if ptype is TlcPageType.CSB:
                self._msb.append(TlcPhaseCursor(cursor.block,
                                                self.wordlines,
                                                TlcPageType.MSB))
            else:
                full = True
        return cursor.block, wordline, full

    def available(self, ptype: TlcPageType) -> bool:
        """Whether a page of ``ptype`` is allocatable right now."""
        if ptype is TlcPageType.LSB:
            return self._fast is not None
        queue = self._csb if ptype is TlcPageType.CSB else self._msb
        return bool(queue)

    @property
    def queue_lengths(self) -> Tuple[int, int]:
        """(CSB queue length, MSB queue length)."""
        return len(self._csb), len(self._msb)


class TlcPageFtl(BaseFtl):
    """Baseline TLC FTL: staggered FPS-TLC order, one active block."""

    name = "tlc-pageFTL"
    uses_backup = False

    def __init__(self, array: TlcNandArray, write_buffer: WriteBuffer,
                 config: Optional[FtlConfig] = None) -> None:
        super().__init__(array, write_buffer, config)  # type: ignore[arg-type]
        self._order = fps_tlc_order(self.wordlines)
        self._active: List[Optional[TlcOrderCursor]] = \
            [None] * self.geometry.total_chips

    def _tlc_address(self, chip_id: int, block: int, wordline: int,
                     ptype: TlcPageType) -> PhysicalPageAddress:
        channel, chip = self.geometry.chip_coords(chip_id)
        return PhysicalPageAddress(channel, chip, block,
                                   tlc_page_index(wordline, ptype))

    def _allocate(self, chip_id: int, for_gc: bool):
        cursor = self._active[chip_id]
        if cursor is None:
            block = self._take_free_block(chip_id, for_gc=for_gc)
            if block is None:
                return None
            cursor = TlcOrderCursor(block, self._order)
            self._active[chip_id] = cursor
        wordline, ptype = cursor.take()
        addr = self._tlc_address(chip_id, cursor.block, wordline, ptype)
        if cursor.done:
            self._active[chip_id] = None
            self._mark_block_full(chip_id, cursor.block)
        return addr, ptype

    def _allocate_host_page(self, chip_id: int, now: float):
        return self._allocate(chip_id, for_gc=False)

    def _allocate_gc_page(self, chip_id: int):
        return self._allocate(chip_id, for_gc=True)


class TlcFlexFtl(BaseFtl):
    """Three-phase RPS-TLC FTL (the flexFTL ideas, one level deeper)."""

    name = "tlc-flexFTL"
    uses_backup = False

    def __init__(self, array: TlcNandArray, write_buffer: WriteBuffer,
                 config: Optional[FtlConfig] = None,
                 u_high: float = 0.80, u_low: float = 0.10,
                 quota_fraction: float = 0.05) -> None:
        if array.scheme is TlcScheme.FPS:
            raise ValueError(
                "the three-phase order is illegal under FPS-TLC; use "
                "an RPS-TLC array"
            )
        super().__init__(array, write_buffer, config)  # type: ignore[arg-type]
        if not (0.0 <= u_low < u_high <= 1.0):
            raise ValueError("need 0 <= u_low < u_high <= 1")
        self.u_high = u_high
        self.u_low = u_low
        self.managers = [ThreePhaseBlockManager(self.wordlines)
                         for _ in self.geometry.iter_chip_ids()]
        lsb_pages = (self.data_blocks_per_chip * self.wordlines
                     * self.geometry.total_chips)
        # Every LSB write creates two units of catch-up debt (its CSB
        # and MSB siblings), so the budget is kept in half-page units:
        # -2 per LSB write, +1 per CSB or MSB write.
        cap = max(2, int(2 * quota_fraction * lsb_pages))
        self.quota = QuotaTracker(cap, cap)
        self._rotation = 0

    # ------------------------------------------------------------------

    def _tlc_address(self, chip_id: int, block: int, wordline: int,
                     ptype: TlcPageType) -> PhysicalPageAddress:
        channel, chip = self.geometry.chip_coords(chip_id)
        return PhysicalPageAddress(channel, chip, block,
                                   tlc_page_index(wordline, ptype))

    def _note_program(self, ptype: TlcPageType) -> None:
        quota = self.quota
        if ptype is TlcPageType.LSB:
            quota.value -= 2
        elif quota.value < quota.cap:
            quota.value += 1

    def _lsb_available(self, chip_id: int, for_gc: bool = False) -> bool:
        if self.managers[chip_id].available(TlcPageType.LSB):
            return True
        free = len(self.chips[chip_id].free_blocks)
        return free > (0 if for_gc else self.config.gc_reserve_blocks)

    def _take(self, chip_id: int, ptype: TlcPageType, for_gc: bool):
        manager = self.managers[chip_id]
        if ptype is TlcPageType.LSB and manager.needs_fast_block:
            block = self._take_free_block(chip_id, for_gc=for_gc)
            if block is None:
                return None
            manager.install_fast_block(block)
        taken = manager.take(ptype)
        if taken is None:
            return None
        block, wordline, full = taken
        self._note_program(ptype)
        if full:
            self._mark_block_full(chip_id, block)
        return self._tlc_address(chip_id, block, wordline, ptype), ptype

    def _choose(self, chip_id: int) -> Optional[TlcPageType]:
        manager = self.managers[chip_id]
        available = {
            TlcPageType.LSB: self._lsb_available(chip_id),
            TlcPageType.CSB: manager.available(TlcPageType.CSB),
            TlcPageType.MSB: manager.available(TlcPageType.MSB),
        }
        if not any(available.values()):
            return None
        u = self.write_buffer.utilization
        if u > self.u_high and self.quota.value > 0 \
                and available[TlcPageType.LSB]:
            return TlcPageType.LSB
        if u < self.u_low:
            for slow in (TlcPageType.MSB, TlcPageType.CSB,
                         TlcPageType.LSB):
                if available[slow]:
                    return slow
        # steady state: rotate through the types so all three phases
        # advance at the 1:1:1 rate the capacity requires
        for offset in range(3):
            ptype = TlcPageType((self._rotation + offset) % 3)
            if available[ptype]:
                self._rotation = (int(ptype) + 1) % 3
                return ptype
        return None  # pragma: no cover - guarded by `any` above

    def _allocate_host_page(self, chip_id: int, now: float):
        choice = self._choose(chip_id)
        if choice is None:
            return None
        allocated = self._take(chip_id, choice, for_gc=False)
        if allocated is not None:
            return allocated
        # fall back to anything allocatable
        for ptype in (TlcPageType.MSB, TlcPageType.CSB,
                      TlcPageType.LSB):
            allocated = self._take(chip_id, ptype, for_gc=False)
            if allocated is not None:
                return allocated
        return None

    def _allocate_gc_page(self, chip_id: int):
        # Relocations soak up the slowest pages first, replenishing
        # the quota for future fast bursts.
        for ptype in (TlcPageType.MSB, TlcPageType.CSB):
            allocated = self._take(chip_id, ptype, for_gc=True)
            if allocated is not None:
                return allocated
        return self._take(chip_id, TlcPageType.LSB, for_gc=True)

    def counters(self):
        base = super().counters()
        base["quota"] = self.quota.value
        return base
