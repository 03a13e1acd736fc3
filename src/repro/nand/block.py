"""Erase-block state model.

A :class:`Block` tracks the program state of each of its pages, an
erase counter, the full in-block program history (needed both for
sequence-constraint enforcement and for the cell-to-cell interference
analysis of the reliability experiments), and optionally the page
payloads themselves (used by parity-backup recovery tests).

Page state is stored as a compact ``bytearray`` of state codes (one
byte per page) rather than a list of :class:`PageState` members:
endurance-scale runs keep millions of blocks' worth of page state live,
and the flat byte layout both shrinks that footprint and lets the chip's
sequence-legality check read raw codes without enum dispatch.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.nand.errors import EccUncorrectableError, PageStateError
from repro.nand.page_types import PageType, page_index


class PageState(enum.Enum):
    """Device-level state of a single page."""

    ERASED = "erased"
    PROGRAMMED = "programmed"
    #: Data lost (e.g. a paired LSB destroyed by an interrupted MSB program).
    DESTROYED = "destroyed"


# Compact state codes used inside the bytearray page store.  The codes
# are part of the module's internal contract with ``chip.py``'s inlined
# legality check; translate with ``_STATE_OF_CODE`` at the API boundary.
ERASED_CODE = 0
PROGRAMMED_CODE = 1
DESTROYED_CODE = 2

_STATE_OF_CODE = (PageState.ERASED, PageState.PROGRAMMED,
                  PageState.DESTROYED)


class BlockState(enum.Enum):
    """Coarse device-level block state derived from its pages."""

    FREE = "free"
    OPEN = "open"
    FULL = "full"


class Block:
    """One NAND erase block.

    Args:
        block_id: index of the block within its chip.
        wordlines: number of word lines (page pairs) in the block.
        store_data: when True, page payloads are retained so they can be
            read back (needed by recovery tests and examples); when
            False only metadata is tracked, which keeps large
            performance simulations cheap.
        track_history: when True (default), :attr:`program_history`
            records every page program since the last erase — required
            by the reliability/interference analyses.  Performance
            experiments pass False to cap the otherwise unbounded
            per-block history growth.
    """

    def __init__(self, block_id: int, wordlines: int,
                 store_data: bool = False,
                 track_history: bool = True) -> None:
        if wordlines <= 0:
            raise ValueError(f"wordlines must be positive, got {wordlines}")
        self.block_id = block_id
        self.wordlines = wordlines
        self.pages = 2 * wordlines
        self.store_data = store_data
        self.track_history = track_history
        self.erase_count = 0
        #: per-page state codes (see ``ERASED_CODE`` & friends).
        self._states = bytearray(self.pages)
        self._data: Optional[List[Optional[bytes]]] = \
            [None] * self.pages if store_data else None
        #: Page indices in the order they were programmed since last
        #: erase (empty and never appended to when ``track_history`` is
        #: False).
        self.program_history: List[int] = []
        #: pages currently holding data (programmed or destroyed);
        #: maintained incrementally so block-state queries are O(1).
        self._used = 0

    # ------------------------------------------------------------------
    # queries

    def page_state(self, index: int) -> PageState:
        """State of the page with canonical in-block index ``index``."""
        return _STATE_OF_CODE[self._states[index]]

    def is_programmed(self, wordline: int, ptype: PageType) -> bool:
        """Whether page ``(wordline, ptype)`` holds programmed data."""
        return self._states[page_index(wordline, ptype)] == PROGRAMMED_CODE

    def programmed_count(self, ptype: Optional[PageType] = None) -> int:
        """Number of programmed (or destroyed) pages, optionally by type."""
        if ptype is None:
            return self._used
        count = 0
        states = self._states
        for index in range(int(ptype), self.pages, 2):
            if states[index] != ERASED_CODE:
                count += 1
        return count

    def free_count(self, ptype: Optional[PageType] = None) -> int:
        """Number of still-erased pages, optionally filtered by type."""
        if ptype is None:
            return self.pages - self._used
        count = 0
        states = self._states
        for index in range(int(ptype), self.pages, 2):
            if states[index] == ERASED_CODE:
                count += 1
        return count

    @property
    def state(self) -> BlockState:
        """Derived coarse block state."""
        used = self._used
        if used == 0:
            return BlockState.FREE
        if used == self.pages:
            return BlockState.FULL
        return BlockState.OPEN

    # ------------------------------------------------------------------
    # operations

    def program(self, wordline: int, ptype: PageType,
                data: Optional[bytes] = None) -> None:
        """Record a page program.

        Sequence-scheme legality is the chip's responsibility (see
        :meth:`repro.nand.chip.Chip.program`); the block only rejects
        double programming without an intervening erase.
        """
        index = 2 * wordline + int(ptype)
        if index >= self.pages or wordline < 0:
            raise ValueError(
                f"wordline {wordline} out of range [0, {self.wordlines})"
            )
        states = self._states
        if states[index] != ERASED_CODE:
            raise PageStateError(
                f"block {self.block_id} page {index} is "
                f"{_STATE_OF_CODE[states[index]].value}; "
                f"program requires an erase"
            )
        states[index] = PROGRAMMED_CODE
        self._used += 1
        if self._data is not None:
            self._data[index] = data
        if self.track_history:
            self.program_history.append(index)

    def read(self, wordline: int, ptype: PageType) -> Optional[bytes]:
        """Read a page back.

        Returns the stored payload (or None when the block does not
        retain data).  Reading an erased or destroyed page raises
        :class:`EccUncorrectableError`, mirroring how a real controller
        observes a lost page.
        """
        index = 2 * wordline + int(ptype)
        state = self._states[index]
        if state != PROGRAMMED_CODE:
            raise EccUncorrectableError(
                f"block {self.block_id} page {index} is "
                f"{_STATE_OF_CODE[state].value}"
            )
        return self._data[index] if self._data is not None else None

    def erase(self) -> None:
        """Erase the block, resetting all page state and the history."""
        self._states = bytearray(self.pages)
        if self._data is not None:
            self._data = [None] * self.pages
        if self.program_history:
            self.program_history = []
        self._used = 0
        self.erase_count += 1

    def destroy_page(self, wordline: int, ptype: PageType) -> None:
        """Mark a programmed page's data as lost (power-loss modelling)."""
        index = page_index(wordline, ptype)
        if self._states[index] != PROGRAMMED_CODE:
            raise PageStateError(
                f"cannot destroy page {index}: state is "
                f"{_STATE_OF_CODE[self._states[index]].value}"
            )
        self._states[index] = DESTROYED_CODE
        if self._data is not None:
            self._data[index] = None

    def __repr__(self) -> str:
        return (
            f"Block(id={self.block_id}, state={self.state.value}, "
            f"programmed={self.programmed_count()}/{self.pages}, "
            f"erases={self.erase_count})"
        )
