"""Tests for OpLog tracing, and scheduling assertions built on it."""

import pytest

from repro.core.flexftl import FlexFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.pageftl import PageFtl
from repro.observability.tracer import Tracer
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.ops import OpKind
from repro.sim.queues import Request, RequestKind
from repro.sim.tracing import OpLog

from tests.helpers import build_small_system


def run_stream(system, ops):
    sim, array, buffer, ftl, controller = system
    host = ClosedLoopHost(sim, controller, [ops])
    host.start()
    sim.run()


class TestOpLogBasics:
    def test_records_every_operation(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        _, array, _, _, controller = system
        log = OpLog.attach(controller)
        run_stream(system, [StreamOp(RequestKind.WRITE, i, 1)
                            for i in range(20)])
        assert len(log.filter(kind=OpKind.PROGRAM)) == 20
        assert len(log) == array.total_programs + array.total_reads \
            + array.total_erases

    def test_tags_separate_host_and_backup(self, small_geometry):
        system = build_small_system(ParityFtl, small_geometry)
        _, _, _, ftl, controller = system
        log = OpLog.attach(controller)
        run_stream(system, [StreamOp(RequestKind.WRITE, i, 1)
                            for i in range(40)])
        counts = log.counts_by_tag()
        assert counts["host"] == 40
        assert counts.get("backup", 0) == ftl.backup_programs

    def test_capacity_ring(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        log = OpLog.attach(controller, capacity=5)
        run_stream(system, [StreamOp(RequestKind.WRITE, i, 1)
                            for i in range(20)])
        assert len(log) == 5
        assert log.dropped == 15

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            OpLog(capacity=0)

    def test_times_are_monotonic_per_chip(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        log = OpLog.attach(controller)
        run_stream(system, [StreamOp(RequestKind.WRITE, i % 50, 1)
                            for i in range(120)])
        for chip_id in range(small_geometry.total_chips):
            times = [r.time for r in log.filter(chip_id=chip_id)]
            assert times == sorted(times)


class TestRecordersShareOneRing:
    """An OpLog and a Tracer on one controller both see every op."""

    WRITES = [StreamOp(RequestKind.WRITE, i, 1) for i in range(20)]

    @staticmethod
    def programs(tracer):
        return [e for e in tracer.events()
                if e.kind == "op.issue" and e.fields["kind"] == "program"]

    def test_oplog_then_tracer(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        log = OpLog.attach(controller)
        tracer = Tracer().install(controller)
        run_stream(system, self.WRITES)
        assert len(log.filter(kind=OpKind.PROGRAM)) == 20
        assert len(self.programs(tracer)) == 20
        tracer.detach()
        # the log keeps its ring after the tracer leaves
        assert controller._trace is log._ring
        run_stream(system, [StreamOp(RequestKind.WRITE, 100, 1)])
        assert len(log.filter(kind=OpKind.PROGRAM)) == 21
        assert len(self.programs(tracer)) == 20

    def test_tracer_then_oplog(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        tracer = Tracer().install(controller)
        log = OpLog.attach(controller)
        run_stream(system, self.WRITES)
        assert len(log.filter(kind=OpKind.PROGRAM)) == 20
        assert len(self.programs(tracer)) == 20
        tracer.detach()

    def test_two_oplogs_share_the_ring(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        first = OpLog.attach(controller)
        second = OpLog.attach(controller)
        run_stream(system, self.WRITES)
        assert first.records == second.records
        assert len(first.filter(kind=OpKind.PROGRAM)) == 20

    def test_capacity_mismatch_raises(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        OpLog.attach(controller)
        with pytest.raises(RuntimeError, match="capacity"):
            OpLog.attach(controller, capacity=5)
        with pytest.raises(RuntimeError, match="capacity"):
            Tracer(capacity=5).install(controller)

    def test_shared_ring_counts_drops_once(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry)
        controller = system[4]
        log = OpLog.attach(controller, capacity=5)
        tracer = Tracer(capacity=5).install(controller)
        run_stream(system, self.WRITES)
        assert len(log) == 5 and log.dropped == 15
        assert tracer.op_count == 5 and tracer.dropped_ops == 15
        tracer.detach()
        assert len(log) == 5 and log.dropped == 15


class TestSchedulingProperties:
    def test_reads_jump_the_write_queue(self, small_geometry):
        """A read submitted while writes are buffered is dispatched at
        the chip's next idle slot, before remaining buffered writes."""
        system = build_small_system(PageFtl, small_geometry,
                                    buffer_pages=64)
        sim, array, buffer, ftl, controller = system
        log = OpLog.attach(controller)
        # seed data, flushed to flash
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 1))
        sim.run()
        # long buffered write backlog + a read of the seeded page
        controller.submit(Request(sim.now, RequestKind.WRITE, 100, 40))
        read = Request(sim.now, RequestKind.READ, 0, 1)
        controller.submit(read)
        sim.run()
        reads = log.filter(kind=OpKind.READ, tag="host")
        assert len(reads) == 1
        read_record = reads[0]
        later_programs = [
            r for r in log.filter(kind=OpKind.PROGRAM,
                                  chip_id=read_record.chip_id)
            if r.time > read_record.time
        ]
        # The backlog was still draining after the read was served.
        assert later_programs

    def test_flexftl_gc_copies_use_msb_pages(self, small_geometry):
        from repro.ftl.base import FtlConfig

        # On a 16-block chip the default 10% threshold degenerates to
        # one block, below which the free pool never drops (the GC
        # reserve holds two); raise it so idle-time collection arms.
        system = build_small_system(
            FlexFtl, small_geometry, buffer_pages=32,
            ftl_config=FtlConfig(gc_threshold_fraction=0.3))
        _, _, _, ftl, controller = system
        log = OpLog.attach(controller)
        # Fill a wide span once (cold data), then hammer a hot subset
        # *with idle gaps*: victims hold cold valid pages, and the
        # idle time lets the background collector do the relocating —
        # which is the path Section 3.2 sends through MSB pages.
        span = (ftl.logical_pages * 3) // 4
        ops = [StreamOp(RequestKind.WRITE, lpn, 1)
               for lpn in range(span)]
        ops += [StreamOp(RequestKind.WRITE, (i * 13) % (span // 4), 1,
                         think_after=0.004)
                for i in range(3 * span)]
        run_stream(system, ops)
        assert ftl.background_gcs > 0
        gc_programs = log.filter(kind=OpKind.PROGRAM, tag="gc")
        assert gc_programs
        msb = sum(1 for r in gc_programs if r.page % 2 == 1)
        # Idle-time relocations go to slow (MSB) pages whenever a slow
        # block exists (Section 3.2); the LSB share is the documented
        # fallback for SBQueue-starved moments on this tiny device.
        assert msb / len(gc_programs) > 0.25
        # The preference itself, checked directly: with a slow block
        # available a relocation target is always an MSB page.
        chip0 = 0
        manager = ftl.managers[chip0]
        if not manager.has_slow_block:
            if manager.needs_fast_block:
                block = ftl._take_free_block(chip0, for_gc=True)
                manager.install_fast_block(block)
            while not manager.has_slow_block:
                manager.take_lsb()
        from repro.nand.page_types import PageType
        _, ptype = ftl._allocate_gc_page(chip0)
        assert ptype is PageType.MSB

    def test_gc_reads_precede_their_programs(self, small_geometry):
        system = build_small_system(PageFtl, small_geometry,
                                    buffer_pages=32)
        _, _, _, ftl, controller = system
        log = OpLog.attach(controller)
        span = ftl.logical_pages // 2
        run_stream(system, [StreamOp(RequestKind.WRITE, (i * 3) % span, 1)
                            for i in range(4 * span)])
        for chip_id in range(small_geometry.total_chips):
            pending_read_lpns = []
            for record in log.filter(chip_id=chip_id, tag="gc"):
                if record.kind is OpKind.READ:
                    pending_read_lpns.append(record.lpn)
                elif record.kind is OpKind.PROGRAM:
                    assert record.lpn in pending_read_lpns
                    pending_read_lpns.remove(record.lpn)
