"""NAND die (chip) model with program-sequence enforcement.

A :class:`Chip` owns its erase blocks, enforces the active program-
sequence scheme (FPS or RPS) on every program operation, and accounts
operation counts and busy time so FTL-level experiments can derive
lifetime and utilisation metrics.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nand.block import Block
from repro.nand.errors import ProgramSequenceError
from repro.nand.page_types import PageType
from repro.nand.sequence import SequenceScheme, constraint_violations
from repro.nand.timing import NandTiming


class Chip:
    """One NAND die.

    Args:
        chip_id: global chip id within the device.
        blocks: number of erase blocks on the die.
        wordlines_per_block: word lines (page pairs) per block.
        timing: operation latencies.
        scheme: program-sequence scheme this die enforces.
        store_data: retain page payloads (see :class:`Block`).
        track_history: retain per-block program history (see
            :class:`Block`).
    """

    def __init__(
        self,
        chip_id: int,
        blocks: int,
        wordlines_per_block: int,
        timing: Optional[NandTiming] = None,
        scheme: SequenceScheme = SequenceScheme.RPS,
        store_data: bool = False,
        track_history: bool = True,
    ) -> None:
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        self.chip_id = chip_id
        self.timing = timing or NandTiming()
        self.scheme = scheme
        #: scheme identity precomputed as plain booleans for the
        #: per-program legality check in NandArray.program
        self._unconstrained = scheme is SequenceScheme.NONE
        self._fps = scheme is SequenceScheme.FPS
        #: program latencies indexed by PageType (IntEnum), precomputed
        #: so the per-program hot path avoids a method call
        self._prog_times = (self.timing.program_time(PageType.LSB),
                            self.timing.program_time(PageType.MSB))
        self.blocks: List[Block] = [
            Block(i, wordlines_per_block, store_data=store_data,
                  track_history=track_history)
            for i in range(blocks)
        ]
        self.lsb_programs = 0
        self.msb_programs = 0
        self.reads = 0
        self.erases = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # operations (each returns the operation's array latency in seconds)

    def program(self, block: int, wordline: int, ptype: PageType,
                data: Optional[bytes] = None) -> float:
        """Program one page, enforcing the active sequence scheme.

        The reference path: :meth:`repro.nand.array.NandArray.program`
        carries the per-op fast copy of this check and comes here only
        to raise.

        Raises:
            ProgramSequenceError: the program would violate the scheme.
            PageStateError: the page was already programmed.
        """
        blk = self.blocks[block]
        violations = constraint_violations(
            blk.is_programmed, blk.wordlines, wordline, ptype, self.scheme)
        if violations:
            raise ProgramSequenceError(
                f"chip {self.chip_id} block {block}: "
                + "; ".join(violations)
            )
        blk.program(wordline, ptype, data)
        if ptype is PageType.LSB:
            self.lsb_programs += 1
        else:
            self.msb_programs += 1
        duration = self._prog_times[ptype]
        self.busy_time += duration
        return duration

    def read(self, block: int, wordline: int,
             ptype: PageType) -> "tuple[Optional[bytes], float]":
        """Read one page; returns ``(payload, latency)``."""
        data = self.blocks[block].read(wordline, ptype)
        self.reads += 1
        duration = self.timing.t_read
        self.busy_time += duration
        return data, duration

    def erase(self, block: int) -> float:
        """Erase one block; returns the erase latency."""
        self.blocks[block].erase()
        self.erases += 1
        duration = self.timing.t_erase
        self.busy_time += duration
        return duration

    # ------------------------------------------------------------------
    # accounting

    @property
    def total_programs(self) -> int:
        """Total page programs since creation."""
        return self.lsb_programs + self.msb_programs

    @property
    def total_erases(self) -> int:
        """Total block erasures since creation."""
        return self.erases

    def erase_counts(self) -> List[int]:
        """Per-block erase counters (wear distribution)."""
        return [blk.erase_count for blk in self.blocks]

    def __repr__(self) -> str:
        return (
            f"Chip(id={self.chip_id}, scheme={self.scheme.value}, "
            f"programs={self.total_programs}, erases={self.erases})"
        )
