"""Multi-channel NAND array: the full storage device.

:class:`NandArray` instantiates one :class:`~repro.nand.chip.Chip` per
die of the configured geometry and routes physically-addressed
operations to the owning die.  It is purely a state/accounting model;
time is handled by the discrete-event simulation layer
(:mod:`repro.sim`), which uses the latencies the operations return.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nand.block import ERASED_CODE, PROGRAMMED_CODE
from repro.nand.chip import Chip
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.page_types import PageType, split_index
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming

_PTYPES = (PageType.LSB, PageType.MSB)


class NandArray:
    """A complete NAND device (channels x chips x blocks x pages)."""

    def __init__(
        self,
        geometry: Optional[NandGeometry] = None,
        timing: Optional[NandTiming] = None,
        scheme: SequenceScheme = SequenceScheme.RPS,
        store_data: bool = False,
        track_history: bool = True,
    ) -> None:
        self.geometry = geometry or NandGeometry()
        self.timing = timing or NandTiming()
        self.scheme = scheme
        self.store_data = store_data
        self.track_history = track_history
        # geometry bounds cached as plain ints for the per-op inlined
        # address validation below
        g = self.geometry
        self._channels = g.channels
        self._cpc = g.chips_per_channel
        self._bpc = g.blocks_per_chip
        self._ppb = g.pages_per_block
        self.chips: List[Chip] = [
            Chip(
                chip_id,
                self.geometry.blocks_per_chip,
                self.geometry.wordlines_per_block,
                timing=self.timing,
                scheme=scheme,
                store_data=store_data,
                track_history=track_history,
            )
            for chip_id in self.geometry.iter_chip_ids()
        ]

    # ------------------------------------------------------------------
    # addressing helpers

    def chip_at(self, addr: PhysicalPageAddress) -> Chip:
        """The chip owning ``addr``."""
        self.geometry.validate(addr)
        return self.chips[self.geometry.chip_id(addr.channel, addr.chip)]

    def is_programmed(self, addr: PhysicalPageAddress) -> bool:
        """Whether the page at ``addr`` currently holds programmed data."""
        channel, chip, block, page = addr
        if not (0 <= channel < self._channels and 0 <= chip < self._cpc
                and 0 <= block < self._bpc and 0 <= page < self._ppb):
            self.geometry.validate(addr)  # raises with the precise field
        blk = self.chips[channel * self._cpc + chip].blocks[block]
        return blk._states[page] == PROGRAMMED_CODE

    # ------------------------------------------------------------------
    # operations

    def program(self, addr: PhysicalPageAddress,
                data: Optional[bytes] = None) -> float:
        """Program the page at ``addr``; returns the array latency."""
        # Inlined chip_at + split_index + geometry.validate +
        # Chip.program (its ``constraint_violations`` check and
        # Block.program): this and ``read`` run once per simulated
        # flash op; what delegating both costs is measured in docs/
        # PERFORMANCE.md, "Hand-synced Python copies".  The slow paths
        # delegate so errors carry the exact Chip/Block messages; keep
        # in sync with :meth:`repro.nand.chip.Chip.program`.
        channel, chip, block, page = addr
        if not (0 <= channel < self._channels and 0 <= chip < self._cpc
                and 0 <= block < self._bpc and 0 <= page < self._ppb):
            self.geometry.validate(addr)
        c = self.chips[channel * self._cpc + chip]
        blk = c.blocks[block]
        states = blk._states
        half = page & 1
        if half:  # MSB
            legal = c._unconstrained or (
                states[page - 1] == PROGRAMMED_CODE
                and (page < 2 or states[page - 2] == PROGRAMMED_CODE)
                and (page + 1 >= 2 * blk.wordlines
                     or states[page + 1] == PROGRAMMED_CODE))
        else:  # LSB
            legal = c._unconstrained or (
                (page == 0 or states[page - 2] == PROGRAMMED_CODE)
                and (not c._fps or page < 4
                     or states[page - 3] == PROGRAMMED_CODE))
        if not legal or states[page] != ERASED_CODE:
            return c.program(block, page >> 1, _PTYPES[half], data)
        states[page] = PROGRAMMED_CODE
        blk._used += 1
        if blk._data is not None:
            blk._data[page] = data
        if blk.track_history:
            blk.program_history.append(page)
        if half:
            c.msb_programs += 1
        else:
            c.lsb_programs += 1
        duration = c._prog_times[half]
        c.busy_time += duration
        return duration

    def read(self, addr: PhysicalPageAddress) -> "tuple[Optional[bytes], float]":
        """Read the page at ``addr``; returns ``(payload, latency)``."""
        channel, chip, block, page = addr
        if not (0 <= channel < self._channels and 0 <= chip < self._cpc
                and 0 <= block < self._bpc and 0 <= page < self._ppb):
            self.geometry.validate(addr)
        c = self.chips[channel * self._cpc + chip]
        # Chip.read, inlined (priced with ``program`` above); the error
        # path delegates so reads of erased/destroyed pages raise
        # Block's exact ECC error.
        blk = c.blocks[block]
        if blk._states[page] != PROGRAMMED_CODE:
            return c.read(block, page >> 1, _PTYPES[page & 1])
        data = blk._data[page] if blk._data is not None else None
        c.reads += 1
        duration = c.timing.t_read
        c.busy_time += duration
        return data, duration

    def erase(self, channel: int, chip: int, block: int) -> float:
        """Erase a block; returns the erase latency."""
        addr = PhysicalPageAddress(channel, chip, block, 0)
        return self.chip_at(addr).erase(block)

    # ------------------------------------------------------------------
    # aggregate accounting

    @property
    def total_erases(self) -> int:
        """Total block erasures across all dies."""
        return sum(chip.erases for chip in self.chips)

    @property
    def total_programs(self) -> int:
        """Total page programs across all dies."""
        return sum(chip.total_programs for chip in self.chips)

    @property
    def lsb_programs(self) -> int:
        """Total LSB-page programs across all dies."""
        return sum(chip.lsb_programs for chip in self.chips)

    @property
    def msb_programs(self) -> int:
        """Total MSB-page programs across all dies."""
        return sum(chip.msb_programs for chip in self.chips)

    @property
    def total_reads(self) -> int:
        """Total page reads across all dies."""
        return sum(chip.reads for chip in self.chips)

    def page_type_of(self, addr: PhysicalPageAddress) -> PageType:
        """Page type (LSB/MSB) of the page at ``addr``."""
        return split_index(addr.page)[1]

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"NandArray({g.channels}ch x {g.chips_per_channel}chips, "
            f"{g.blocks_per_chip} blocks, scheme={self.scheme.value})"
        )
