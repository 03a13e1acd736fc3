"""Tests for repro.ftl.backup and repro.ftl.cursor."""

import pytest

from repro.core.rps import fps_order
from repro.ftl.backup import BackupBlockManager
from repro.ftl.cursor import FpsCursor, PhaseCursor
from repro.nand.page_types import PageType, page_index, split_index


class TestFpsCursor:
    def test_walks_the_fps_order(self):
        cursor = FpsCursor(5, wordlines=4)
        taken = []
        while not cursor.done:
            taken.append(page_index(*cursor.take()))
        assert taken == fps_order(4)

    def test_peek_type_matches_take(self):
        cursor = FpsCursor(0, wordlines=4)
        while not cursor.done:
            expected = cursor.peek_type()
            _, ptype = cursor.take()
            assert ptype is expected

    def test_remaining_counts_down(self):
        cursor = FpsCursor(0, wordlines=2)
        assert cursor.remaining == 4
        cursor.take()
        assert cursor.remaining == 3

    def test_exhausted_cursor_raises(self):
        cursor = FpsCursor(0, wordlines=1)
        cursor.take()
        cursor.take()
        with pytest.raises(IndexError):
            cursor.take()
        with pytest.raises(IndexError):
            cursor.peek_type()


class TestPhaseCursor:
    def test_lsb_phase_walks_wordlines(self):
        cursor = PhaseCursor(3, wordlines=3, ptype=PageType.LSB)
        taken = [cursor.take() for _ in range(3)]
        assert taken == [(0, PageType.LSB), (1, PageType.LSB),
                         (2, PageType.LSB)]
        assert cursor.done

    def test_msb_phase(self):
        cursor = PhaseCursor(3, wordlines=2, ptype=PageType.MSB)
        assert cursor.take() == (0, PageType.MSB)
        assert cursor.remaining == 1

    def test_exhaustion(self):
        cursor = PhaseCursor(0, wordlines=1, ptype=PageType.LSB)
        cursor.take()
        with pytest.raises(IndexError):
            cursor.take()


class TestBackupManagerLsbMode:
    def test_slots_are_lsb_pages_in_order(self):
        manager = BackupBlockManager([10, 11], wordlines=4, order="lsb")
        slots = [manager.allocate(("owner", i))[0] for i in range(4)]
        assert all(slot.block == 10 for slot in slots)
        assert [split_index(slot.page)[1] for slot in slots] == \
            [PageType.LSB] * 4

    def test_recycle_advances_ring_and_erases(self):
        manager = BackupBlockManager([10, 11], wordlines=2, order="lsb")
        manager.allocate("a")
        manager.allocate("b")
        manager.invalidate("a")
        manager.invalidate("b")
        slot, cycle = manager.allocate("c")
        assert cycle is not None
        assert cycle.erase_block == 11
        assert cycle.relocations == []
        assert slot.block == 11
        assert manager.cycles == 1

    def test_live_parity_relocated_on_recycle(self):
        manager = BackupBlockManager([10], wordlines=2, order="lsb")
        manager.allocate("a")          # slot 0, stays live
        manager.allocate("b")          # slot 1
        manager.invalidate("b")
        slot, cycle = manager.allocate("c")
        assert cycle is not None
        assert cycle.erase_block == 10
        assert len(cycle.relocations) == 1  # "a" survives the erase
        assert manager.slot_of("a") is not None
        assert manager.relocated == 1

    def test_owner_supersedes_previous_slot(self):
        manager = BackupBlockManager([10], wordlines=4, order="lsb")
        first, _ = manager.allocate("x")
        second, _ = manager.allocate("x")
        assert manager.slot_of("x") == second
        assert manager.live_count == 1

    def test_invalidate_unknown_owner_is_noop(self):
        manager = BackupBlockManager([10], wordlines=4)
        assert manager.invalidate("nobody") is None

    def test_discard_drops_owners_and_seals_the_current_block(self):
        manager = BackupBlockManager([10, 11], wordlines=4, order="lsb")
        kept, _ = manager.allocate("a")
        lost, _ = manager.allocate("b")
        assert manager.discard([lost]) == ["b"]
        assert manager.slot_of("b") is None
        assert manager.slot_of("a") == kept
        # the block now holds a hole: the next slot comes from a
        # freshly erased block, never from past the lost one
        slot, cycle = manager.allocate("c")
        assert cycle is not None and cycle.erase_block == 11
        assert slot.block == 11

    def test_discard_elsewhere_keeps_filling_the_current_block(self):
        manager = BackupBlockManager([10, 11], wordlines=2, order="lsb")
        old, _ = manager.allocate("a")
        manager.allocate("b")
        manager.allocate("c")  # recycles into block 11
        assert manager.current_block == 11
        assert manager.discard([old]) == ["a"]
        slot, cycle = manager.allocate("d")
        assert cycle is None and slot.block == 11


class TestBackupManagerFpsMode:
    def test_fps_mode_walks_full_block(self):
        manager = BackupBlockManager([7], wordlines=4, order="fps")
        pages = []
        for i in range(8):
            slot, cycle = manager.allocate(("o", i))
            assert cycle is None
            pages.append(slot.page)
        assert pages == fps_order(4)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            BackupBlockManager([7], wordlines=4, order="zigzag")

    def test_needs_blocks_and_wordlines(self):
        with pytest.raises(ValueError):
            BackupBlockManager([], wordlines=4)
        with pytest.raises(ValueError):
            BackupBlockManager([1], wordlines=0)
