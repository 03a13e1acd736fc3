"""Reserved backup blocks for parity pages.

Both the parityFTL baseline (one parity page per two LSB pages, after
[6]) and flexFTL (one parity page per block, Section 3.3) persist
parity pages into reserved *backup blocks*.

The program order inside a backup block depends on the device's
sequence scheme: under RPS, flexFTL writes parity pages to the **LSB
pages only** (the paper's footnote 2 — each backup costs just the fast
program time and the block is recycled after ``wordlines`` parities);
under FPS the backup block must itself follow the fixed order, so
parity writes alternate between LSB and MSB positions.

When a backup block runs out of slots it is erased and reused.  Parity
pages that are still *live* (their protected block has not finished its
MSB phase) are re-programmed into the fresh block from the controller's
RAM-resident parity buffers before new slots are handed out.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple


def _slot_pages(wordlines: int, order: str) -> List[int]:
    """Canonical page indices a backup block hands out, in order."""
    from repro.core.rps import fps_order, rps_full_order  # lazy: cycle
    from repro.nand.page_types import PageType, page_index

    if order == "lsb":
        return [page_index(w, PageType.LSB) for w in range(wordlines)]
    if order == "fps":
        return fps_order(wordlines)
    if order == "2po":
        return rps_full_order(wordlines)
    raise ValueError(f"unknown backup order {order!r}")


@dataclasses.dataclass(frozen=True)
class ParitySlot:
    """A parity page location: (backup block local id, page index)."""

    block: int
    page: int


@dataclasses.dataclass
class BackupCycle:
    """What reusing a backup block costs: one erase + relocations."""

    erase_block: int
    relocations: List[Tuple[object, ParitySlot]]  # (owner, new slot)


class BackupBlockManager:
    """Manages one chip's reserved backup blocks.

    Args:
        block_ids: local block ids reserved for backup on this chip
            (at least one; two avoid relocation corner cases).
        wordlines: word lines per block.
        order: slot program order — ``"lsb"`` (RPS devices: LSB pages
            only), ``"fps"`` (FPS devices: the fixed order) or
            ``"2po"`` (RPS devices using the full two-phase order).
    """

    def __init__(self, block_ids: List[int], wordlines: int,
                 order: str = "lsb") -> None:
        if not block_ids:
            raise ValueError("need at least one backup block")
        if wordlines <= 0:
            raise ValueError(f"wordlines must be positive, got {wordlines}")
        self.block_ids = list(block_ids)
        self.wordlines = wordlines
        self.order = order
        self._pages = _slot_pages(wordlines, order)
        self._ring = 0  # index into block_ids of the block being filled
        self._cursor = 0  # next slot position in the current block
        #: live parity pages: owner key -> slot
        self._live: Dict[object, ParitySlot] = {}
        self.parity_writes = 0
        self.cycles = 0
        self.relocated = 0

    # ------------------------------------------------------------------

    @property
    def current_block(self) -> int:
        """Local id of the backup block currently receiving parity."""
        return self.block_ids[self._ring]

    @property
    def live_count(self) -> int:
        """Number of parity pages still protecting an open block."""
        return len(self._live)

    def allocate(self, owner: object
                 ) -> "tuple[ParitySlot, Optional[BackupCycle]]":
        """Reserve the next parity slot for ``owner``.

        Returns the slot and, when the current backup block had to be
        recycled first, a :class:`BackupCycle` describing the erase and
        the live-parity relocations the caller must turn into NAND
        operations (the relocations consume slots *before* the returned
        one).

        An owner may allocate repeatedly (e.g. parityFTL's rolling
        2-LSB parity); the newest slot supersedes the previous one.
        """
        cycle: Optional[BackupCycle] = None
        if self._cursor >= len(self._pages):
            cycle = self._recycle()
            if self._cursor >= len(self._pages):
                # Every slot of the recycled block is consumed by live
                # parity relocations: the pool cannot host one more
                # page.  Real FTLs keep at most a couple of live
                # parities per chip (one per active block), far below
                # a block's slot count — reaching this means the
                # manager was provisioned too small for its users.
                raise RuntimeError(
                    f"backup blocks exhausted: {self.live_count} live "
                    f"parity pages fill a {len(self._pages)}-slot "
                    f"block; reserve more backup blocks"
                )
        slot = ParitySlot(self.current_block, self._pages[self._cursor])
        self._cursor += 1
        self._live[owner] = slot
        self.parity_writes += 1
        return slot, cycle

    def invalidate(self, owner: object) -> Optional[ParitySlot]:
        """Drop ``owner``'s parity (its protected block closed safely)."""
        return self._live.pop(owner, None)

    def discard(self, slots: Iterable[ParitySlot]) -> List[object]:
        """Forget parity slots a power cut left unwritten or destroyed.

        Owners whose live parity sits on one of ``slots`` lose it (it
        never reached flash, or the cut destroyed it).  A lost slot in
        the block being filled also *seals* that block: its program
        sequence now has a hole or a destroyed page, which no later
        page may follow, so the next :meth:`allocate` recycles into a
        freshly erased block instead.  Returns the owners that lost
        their parity.
        """
        lost = set(slots)
        owners = [owner for owner, slot in self._live.items()
                  if slot in lost]
        for owner in owners:
            del self._live[owner]
        current = self.current_block
        if any(slot.block == current for slot in lost):
            self._cursor = len(self._pages)
        return owners

    def slot_of(self, owner: object) -> Optional[ParitySlot]:
        """Current parity slot protecting ``owner``, if any."""
        return self._live.get(owner)

    # ------------------------------------------------------------------

    def _recycle(self) -> BackupCycle:
        """Advance to the next backup block, erasing and relocating."""
        self._ring = (self._ring + 1) % len(self.block_ids)
        self._cursor = 0
        target = self.current_block
        relocations: List[Tuple[object, ParitySlot]] = []
        for owner, slot in sorted(self._live.items(),
                                  key=lambda kv: id(kv[0])):
            if slot.block == target:
                new_slot = ParitySlot(target, self._pages[self._cursor])
                self._cursor += 1
                relocations.append((owner, new_slot))
        for owner, new_slot in relocations:
            self._live[owner] = new_slot
        self.cycles += 1
        self.relocated += len(relocations)
        return BackupCycle(erase_block=target, relocations=relocations)
