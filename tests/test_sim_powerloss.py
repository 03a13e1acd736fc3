"""Tests for power loss during live simulation runs.

The key system-level property (Section 3.3): at *any* instant a power
loss may strike a flexFTL device, every LSB data page it destroys is
still covered by a live parity page, so reboot recovery can
reconstruct it.
"""

import pytest

from repro.core.flexftl import FlexFtl
from repro.ftl.pageftl import PageFtl
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.page_types import PageType, page_index
from repro.nand.power import apply_power_loss_to_in_flight
from repro.nand.array import NandArray
from repro.nand.sequence import SequenceScheme
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.powerloss import ScheduledPowerLoss, verify_flexftl_protection
from repro.sim.queues import RequestKind

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)


def write_stream(count, span, stride=3):
    return [StreamOp(RequestKind.WRITE, (i * stride) % span, 1)
            for i in range(count)]


class TestApplyPowerLossToInFlight:
    def test_interrupted_msb_destroys_itself_and_paired_lsb(self):
        array = NandArray(GEOMETRY, scheme=SequenceScheme.RPS)
        for wordline in range(4):
            array.program(PhysicalPageAddress(
                0, 0, 0, page_index(wordline, PageType.LSB)))
        msb = PhysicalPageAddress(0, 0, 0,
                                  page_index(0, PageType.MSB))
        array.program(msb)  # committed at issue in the DES convention
        destroyed = apply_power_loss_to_in_flight(array, msb)
        assert msb in destroyed
        assert PhysicalPageAddress(
            0, 0, 0, page_index(0, PageType.LSB)) in destroyed

    def test_interrupted_lsb_destroys_only_itself(self):
        array = NandArray(GEOMETRY, scheme=SequenceScheme.RPS)
        lsb = PhysicalPageAddress(0, 0, 0,
                                  page_index(0, PageType.LSB))
        array.program(lsb)
        destroyed = apply_power_loss_to_in_flight(array, lsb)
        assert destroyed == [lsb]


class TestScheduledPowerLoss:
    def test_halts_the_run(self):
        system = build_small_system(PageFtl, GEOMETRY, buffer_pages=32)
        sim, array, buffer, ftl, controller = system
        host = ClosedLoopHost(sim, controller,
                              [write_stream(400, span=600)])
        host.start()
        spo = ScheduledPowerLoss(sim, controller, at_time=0.05)
        sim.run()
        assert spo.fired
        assert sim.now == pytest.approx(0.05)
        # Work remained when the power died.
        assert host.issued < 400 or not buffer.is_empty

    def test_report_lists_interrupted_programs(self):
        system = build_small_system(PageFtl, GEOMETRY, buffer_pages=32)
        sim, array, buffer, ftl, controller = system
        host = ClosedLoopHost(sim, controller,
                              [write_stream(400, span=600)])
        host.start()
        spo = ScheduledPowerLoss(sim, controller, at_time=0.02)
        sim.run()
        assert spo.report is not None
        # With 4 chips under a saturating write load, programs were in
        # flight at the instant of the cut.
        assert len(spo.report.interrupted_programs) > 0

    def test_cancel_disarms(self):
        system = build_small_system(PageFtl, GEOMETRY, buffer_pages=16)
        sim, _, _, _, controller = system
        host = ClosedLoopHost(sim, controller,
                              [write_stream(20, span=50)])
        host.start()
        spo = ScheduledPowerLoss(sim, controller, at_time=1e9)
        spo.cancel()
        sim.run()
        assert not spo.fired


class TestMultiCutSchedule:
    def test_requires_exactly_one_schedule_form(self):
        system = build_small_system(PageFtl, GEOMETRY, buffer_pages=16)
        sim, _, _, _, controller = system
        with pytest.raises(ValueError):
            ScheduledPowerLoss(sim, controller)
        with pytest.raises(ValueError):
            ScheduledPowerLoss(sim, controller, at_time=0.1,
                               at_times=[0.2])

    def test_cuts_fire_in_sequence_with_recovery_between(self):
        from repro.faults.recovery import recover_after_power_loss

        system = build_small_system(FlexFtl, GEOMETRY, buffer_pages=32)
        sim, array, buffer, ftl, controller = system
        host = ClosedLoopHost(sim, controller,
                              [write_stream(900, span=500)])
        host.start()
        spo = ScheduledPowerLoss(sim, controller,
                                 at_times=[0.01, 0.02])
        sim.run()
        assert len(spo.reports) == 1
        assert sim.now == pytest.approx(0.01)
        assert not spo.armed  # next cut not armed until asked

        recovery = recover_after_power_loss(controller, spo.reports[0])
        assert recovery.time == pytest.approx(0.01)
        assert host.resume() == 1
        assert spo.arm_next()
        assert spo.armed
        sim.run()
        assert len(spo.reports) == 2
        assert spo.reports[1].time == pytest.approx(0.02)
        assert not spo.arm_next()  # schedule exhausted

    def test_clean_shutdown_leaves_no_armed_event(self):
        """A run that finishes before the cut must disarm cleanly."""
        system = build_small_system(PageFtl, GEOMETRY, buffer_pages=16)
        sim, _, _, _, controller = system
        host = ClosedLoopHost(sim, controller,
                              [write_stream(20, span=50)])
        host.start()
        spo = ScheduledPowerLoss(sim, controller,
                                 at_times=[1e9, 2e9])
        sim.run(until=1.0)  # workload drains long before the cut
        assert not spo.fired
        assert spo.armed
        spo.cancel()
        assert not spo.armed
        assert spo._event is None or spo._event.cancelled
        assert not spo.arm_next()  # cancel cleared the whole schedule
        sim.run()
        assert not spo.fired


class TestFlexFtlProtectionInvariant:
    @pytest.mark.parametrize("cut_ms", [5, 11, 23, 47, 95, 190])
    def test_destroyed_lsb_pages_always_have_live_parity(self, cut_ms):
        """Fire power-offs at many instants; the Section 3.3 guarantee
        must hold at every one of them."""
        system = build_small_system(FlexFtl, GEOMETRY, buffer_pages=32)
        sim, array, buffer, ftl, controller = system
        # Mixed load with overwrites so fast/slow phases and GC all run.
        streams = [write_stream(700, span=500, stride=s)
                   for s in (3, 7)]
        host = ClosedLoopHost(sim, controller, streams)
        host.start()
        spo = ScheduledPowerLoss(sim, controller,
                                 at_time=cut_ms / 1000.0)
        sim.run()
        if not spo.fired:
            pytest.skip("run finished before the scheduled cut")
        violations = verify_flexftl_protection(ftl, spo.report)
        assert violations == []

    def test_protection_check_flags_missing_parity(self):
        """Sanity: the checker does fail when parity is absent."""
        system = build_small_system(FlexFtl, GEOMETRY, buffer_pages=32)
        sim, array, buffer, ftl, controller = system
        host = ClosedLoopHost(sim, controller,
                              [write_stream(700, span=500)])
        host.start()
        spo = ScheduledPowerLoss(sim, controller, at_time=0.04)
        sim.run()
        if not spo.fired or not spo.report.collateral_lsb_pages:
            pytest.skip("no LSB page destroyed at this cut point")
        # Forcibly drop every live parity page, then re-verify.
        for state in ftl.chips:
            if state.backup is not None:
                for owner in list(state.backup._live):
                    state.backup.invalidate(owner)
        violations = verify_flexftl_protection(ftl, spo.report)
        assert violations
