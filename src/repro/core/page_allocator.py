"""Adaptive page allocation: flexFTL's policy manager (Section 3.2).

The policy manager picks the page type for each host write from two
signals:

* the write-buffer utilisation ``u`` — high ``u`` means the host needs
  bandwidth *now* (condition C1);
* the quota ``q`` of successive LSB-page writes — a budget initialised
  to 5 % of the device's LSB pages, decremented by every LSB write and
  incremented by every MSB write, that caps how far ahead of the MSB
  phase the FTL may run without hurting *future* bandwidth (C2).

Decision rule (the paper's, verbatim): ``u > u_high`` and ``q > 0`` →
LSB; ``u > u_high`` and ``q <= 0`` → alternate; ``u < u_low`` → MSB
(or LSB when no slow block exists — footnote 1); otherwise alternate.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.nand.page_types import PageType


@dataclasses.dataclass(frozen=True)
class PolicyConfig:
    """Policy-manager tunables (paper values as defaults).

    Attributes:
        u_high: buffer utilisation above which a high write bandwidth
            is deemed required (paper: 0.8).
        u_low: utilisation below which MSB writes suffice (paper: 0.1).
        quota_fraction: initial ``q`` as a fraction of the device's
            total LSB pages (paper: 0.05).
        quota_cap_factor: ``q`` ceiling as a multiple of its initial
            value (MSB writes replenish ``q`` but cannot bank more
            headroom than the system was configured to support).
    """

    u_high: float = 0.80
    u_low: float = 0.10
    quota_fraction: float = 0.05
    quota_cap_factor: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.u_low < self.u_high <= 1.0):
            raise ValueError(
                f"need 0 <= u_low < u_high <= 1, got "
                f"({self.u_low}, {self.u_high})"
            )
        if not (0.0 < self.quota_fraction <= 1.0):
            raise ValueError("quota_fraction must be in (0, 1]")
        if self.quota_cap_factor < 1.0:
            raise ValueError("quota_cap_factor must be >= 1")


class QuotaTracker:
    """The successive-LSB-write quota ``q``.

    ``q`` may go negative (LSB writes chosen by the alternate rule or
    corner cases still spend it); MSB writes — host or background-GC
    copies alike — earn it back up to the configured cap.
    """

    def __init__(self, initial: int, cap: Optional[int] = None) -> None:
        if initial < 0:
            raise ValueError(f"initial quota must be >= 0, got {initial}")
        self.initial = initial
        self.cap = initial if cap is None else cap
        if self.cap < initial:
            raise ValueError("quota cap must be >= initial value")
        self.value = initial

    def note_lsb_write(self) -> None:
        """Spend one unit of LSB headroom."""
        self.value -= 1

    def note_msb_write(self) -> None:
        """Earn one unit back (saturating at the cap)."""
        if self.value < self.cap:
            self.value += 1

    @property
    def exhausted(self) -> bool:
        """True when successive LSB writes are no longer allowed."""
        return self.value <= 0

    def reset(self) -> None:
        """Restore the initial quota (e.g. after preconditioning)."""
        self.value = self.initial

    def __repr__(self) -> str:
        return f"QuotaTracker(value={self.value}, cap={self.cap})"


class PolicyManager:
    """Chooses LSB vs MSB for each write per the Section 3.2 rule."""

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        self.config = config or PolicyConfig()
        self._next_alternate = PageType.LSB
        self.decisions = {PageType.LSB: 0, PageType.MSB: 0}

    def choose(
        self,
        utilization: float,
        quota: QuotaTracker,
        lsb_available: bool,
        msb_available: bool,
    ) -> Optional[PageType]:
        """Pick the page type for the next host write.

        Args:
            utilization: current write-buffer utilisation ``u``.
            quota: the quota tracker (consulted, not modified).
            lsb_available: an LSB page can be allocated right now.
            msb_available: an MSB page can be allocated right now
                (i.e. a slow block exists).

        Returns:
            The chosen type, or None when no page of either type can
            be allocated (the caller must garbage-collect).
        """
        if not msb_available:
            if not lsb_available:
                return None
            # Corner case (footnote 1): no slow block yet — use LSB.
            choice = PageType.LSB
        elif not lsb_available:
            choice = PageType.MSB
        elif utilization > self.config.u_high and quota.value > 0:
            choice = PageType.LSB
        elif utilization < self.config.u_low:
            # PolicyConfig enforces u_low < u_high, so a high u whose
            # quota is exhausted never lands here: it alternates below
            choice = PageType.MSB
        else:
            # mid-band u, or high u with the quota exhausted: alternate
            choice = self._next_alternate
            self._next_alternate = choice.paired()
        self.decisions[choice] += 1
        return choice
