"""TLC device assembly: geometry, timing and a controller-compatible
array.

:class:`TlcNandArray` exposes the same operational interface as
:class:`~repro.nand.array.NandArray` (``program``/``read``/``erase``/
``is_programmed``, a ``timing`` with ``t_transfer``, aggregate
counters), so the existing discrete-event
:class:`~repro.sim.controller.StorageController` drives a TLC device
unchanged — only the FTL needs to understand three page types.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.tlc import TLC_PROGRAM_TIMES, TlcPageType, TlcScheme, \
    tlc_split_index
from repro.nand.tlc_device import TlcChip


@dataclasses.dataclass(frozen=True)
class TlcGeometry(NandGeometry):
    """Device shape for a 3-bit TLC array.

    ``pages_per_block`` must be divisible by 6 (the parent class
    requires LSB/MSB pairing arithmetic on even counts, and a TLC word
    line holds 3 pages).  ``wordlines_per_block`` is redefined to the
    3-page grouping via :attr:`pages_per_wordline`.
    """

    pages_per_wordline = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pages_per_block % 6 != 0:
            raise ValueError(
                "TLC pages_per_block must be divisible by 6, got "
                f"{self.pages_per_block}"
            )


@dataclasses.dataclass(frozen=True)
class TlcTiming:
    """Operation latencies of a TLC die (seconds).

    Program times follow :data:`repro.nand.tlc.TLC_PROGRAM_TIMES`
    (500/2000/5500 us); reads and erases are slower than MLC, as is
    typical for 3-bit devices.
    """

    t_read: float = 80e-6
    t_erase: float = 10e-3
    t_transfer: float = 10e-6

    def program_time(self, ptype: TlcPageType) -> float:
        """Array program time for a TLC page type."""
        return TLC_PROGRAM_TIMES[ptype]


class TlcNandArray:
    """A complete TLC device, drop-in for the DES controller."""

    def __init__(self, geometry: Optional[TlcGeometry] = None,
                 timing: Optional[TlcTiming] = None,
                 scheme: TlcScheme = TlcScheme.RPS,
                 store_data: bool = False) -> None:
        self.geometry = geometry or TlcGeometry(
            channels=4, chips_per_channel=2, blocks_per_chip=64,
            pages_per_block=48, page_size=4096,
        )
        self.timing = timing or TlcTiming()
        self.scheme = scheme
        self.store_data = store_data
        self.chips: List[TlcChip] = [
            TlcChip(chip_id, self.geometry.blocks_per_chip,
                    self.geometry.wordlines_per_block,
                    scheme=scheme, store_data=store_data)
            for chip_id in self.geometry.iter_chip_ids()
        ]

    # ------------------------------------------------------------------

    def chip_at(self, addr: PhysicalPageAddress) -> TlcChip:
        """The chip owning ``addr``."""
        self.geometry.validate(addr)
        return self.chips[self.geometry.chip_id(addr.channel, addr.chip)]

    def page_type_of(self, addr: PhysicalPageAddress) -> TlcPageType:
        """TLC page type of the page at ``addr``."""
        return tlc_split_index(addr.page)[1]

    def program(self, addr: PhysicalPageAddress,
                data: Optional[bytes] = None) -> float:
        """Program the page at ``addr``; returns the array latency."""
        wordline, ptype = tlc_split_index(addr.page)
        return self.chip_at(addr).program(addr.block, wordline, ptype,
                                          data)

    def read(self, addr: PhysicalPageAddress
             ) -> Tuple[Optional[bytes], float]:
        """Read the page at ``addr``; returns ``(payload, latency)``."""
        wordline, ptype = tlc_split_index(addr.page)
        data = self.chip_at(addr).read(addr.block, wordline, ptype)
        return data, self.timing.t_read

    def erase(self, channel: int, chip: int, block: int) -> float:
        """Erase a block; returns the erase latency."""
        addr = PhysicalPageAddress(channel, chip, block, 0)
        self.chip_at(addr).erase(block)
        return self.timing.t_erase

    def is_programmed(self, addr: PhysicalPageAddress) -> bool:
        """Whether the page at ``addr`` holds programmed data."""
        wordline, ptype = tlc_split_index(addr.page)
        return self.chip_at(addr).blocks[addr.block].is_programmed(
            wordline, ptype)

    # ------------------------------------------------------------------
    # aggregate counters (BaseFtl.counters() reads lsb/csb/msb_programs)

    @property
    def total_erases(self) -> int:
        """Total block erasures across all dies."""
        return sum(chip.erases for chip in self.chips)

    @property
    def total_programs(self) -> int:
        """Total page programs across all dies."""
        return sum(chip.total_programs for chip in self.chips)

    @property
    def total_reads(self) -> int:
        """Total page reads across all dies."""
        return sum(chip.reads for chip in self.chips)

    @property
    def lsb_programs(self) -> int:
        """Total LSB-page programs across all dies."""
        return sum(chip.programs[TlcPageType.LSB] for chip in self.chips)

    @property
    def csb_programs(self) -> int:
        """Total CSB-page programs across all dies."""
        return sum(chip.programs[TlcPageType.CSB] for chip in self.chips)

    @property
    def msb_programs(self) -> int:
        """Total MSB-page programs across all dies."""
        return sum(chip.programs[TlcPageType.MSB] for chip in self.chips)
