"""Tests for repro.nand.chip and repro.nand.array."""

import pytest

from repro.core.rps import fps_order, rps_full_order
from repro.nand.array import NandArray
from repro.nand.chip import Chip
from repro.nand.errors import ProgramSequenceError
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.page_types import PageType, split_index
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming


def program_order(chip, block, order):
    for index in order:
        wordline, ptype = split_index(index)
        chip.program(block, wordline, ptype)


class TestChipEnforcement:
    def test_rps_chip_accepts_2po_order(self):
        chip = Chip(0, blocks=1, wordlines_per_block=4,
                    scheme=SequenceScheme.RPS)
        program_order(chip, 0, rps_full_order(4))
        assert chip.blocks[0].programmed_count() == 8

    def test_fps_chip_rejects_2po_order(self):
        chip = Chip(0, blocks=1, wordlines_per_block=4,
                    scheme=SequenceScheme.FPS)
        with pytest.raises(ProgramSequenceError):
            program_order(chip, 0, rps_full_order(4))

    def test_both_schemes_accept_fps_order(self):
        for scheme in (SequenceScheme.FPS, SequenceScheme.RPS):
            chip = Chip(0, blocks=1, wordlines_per_block=4, scheme=scheme)
            program_order(chip, 0, fps_order(4))
            assert chip.blocks[0].programmed_count() == 8

    def test_violation_message_names_constraint(self):
        chip = Chip(0, blocks=1, wordlines_per_block=4,
                    scheme=SequenceScheme.RPS)
        chip.program(0, 0, PageType.LSB)
        with pytest.raises(ProgramSequenceError, match="constraint 3"):
            chip.program(0, 0, PageType.MSB)

    def test_erase_allows_reprogramming(self):
        chip = Chip(0, blocks=1, wordlines_per_block=2,
                    scheme=SequenceScheme.RPS)
        program_order(chip, 0, rps_full_order(2))
        chip.erase(0)
        program_order(chip, 0, rps_full_order(2))
        assert chip.erases == 1
        assert chip.blocks[0].erase_count == 1


class TestChipAccounting:
    def test_program_latencies_by_type(self):
        timing = NandTiming()
        chip = Chip(0, blocks=1, wordlines_per_block=2, timing=timing,
                    scheme=SequenceScheme.RPS)
        assert chip.program(0, 0, PageType.LSB) == timing.t_lsb_prog
        assert chip.program(0, 1, PageType.LSB) == timing.t_lsb_prog
        assert chip.program(0, 0, PageType.MSB) == timing.t_msb_prog

    def test_counters(self):
        chip = Chip(0, blocks=1, wordlines_per_block=2,
                    scheme=SequenceScheme.RPS)
        program_order(chip, 0, rps_full_order(2))
        chip.read(0, 0, PageType.LSB)
        chip.erase(0)
        assert chip.lsb_programs == 2
        assert chip.msb_programs == 2
        assert chip.total_programs == 4
        assert chip.reads == 1
        assert chip.erases == 1

    def test_busy_time_accumulates(self):
        timing = NandTiming()
        chip = Chip(0, blocks=1, wordlines_per_block=1, timing=timing,
                    scheme=SequenceScheme.RPS)
        chip.program(0, 0, PageType.LSB)
        chip.program(0, 0, PageType.MSB)
        expected = timing.t_lsb_prog + timing.t_msb_prog
        assert chip.busy_time == pytest.approx(expected)


class TestArray:
    @pytest.fixture
    def array(self, tiny_geometry):
        return NandArray(tiny_geometry, scheme=SequenceScheme.RPS,
                         store_data=True)

    def test_array_builds_all_chips(self, array, tiny_geometry):
        assert len(array.chips) == tiny_geometry.total_chips

    def test_program_read_roundtrip(self, array):
        addr = PhysicalPageAddress(1, 0, 2, 0)
        array.program(addr, b"payload")
        data, latency = array.read(addr)
        assert data == b"payload"
        assert latency == array.timing.t_read

    def test_aggregate_counters(self, array):
        array.program(PhysicalPageAddress(0, 0, 0, 0))
        array.program(PhysicalPageAddress(1, 0, 0, 0))
        array.program(PhysicalPageAddress(1, 0, 0, 2))
        array.program(PhysicalPageAddress(1, 0, 0, 1))  # MSB(0)
        assert array.lsb_programs == 3
        assert array.msb_programs == 1
        assert array.total_programs == 4
        array.erase(1, 0, 0)
        assert array.total_erases == 1

    def test_page_type_of(self, array):
        assert array.page_type_of(
            PhysicalPageAddress(0, 0, 0, 0)) is PageType.LSB
        assert array.page_type_of(
            PhysicalPageAddress(0, 0, 0, 1)) is PageType.MSB

    def test_is_programmed(self, array):
        addr = PhysicalPageAddress(0, 0, 0, 0)
        assert not array.is_programmed(addr)
        array.program(addr)
        assert array.is_programmed(addr)

    def test_operations_route_to_owning_chip(self, array, tiny_geometry):
        addr = PhysicalPageAddress(1, 0, 0, 0)
        array.program(addr)
        owning = array.chips[tiny_geometry.chip_id(1, 0)]
        other = array.chips[tiny_geometry.chip_id(0, 0)]
        assert owning.total_programs == 1
        assert other.total_programs == 0
