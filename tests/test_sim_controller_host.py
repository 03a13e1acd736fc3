"""Tests for the storage controller and the two host models."""

import pytest

from repro.ftl.pageftl import PageFtl
from repro.nand.timing import NandTiming
from repro.observability.events import SCENARIO_PHASE
from repro.observability.tracer import Tracer
from repro.sim.host import ClosedLoopHost, StreamOp, TraceReplayHost
from repro.sim.queues import Request, RequestKind

from tests.helpers import build_small_system


def run_host(sim, controller, host):
    """Start ``host``, run the simulation dry, return the run's stats."""
    host.start()
    sim.run()
    return controller.stats


def replay_trace(sim, controller, trace):
    return run_host(sim, controller,
                    TraceReplayHost(sim, controller, trace))


def drive_streams(sim, controller, streams):
    return run_host(sim, controller,
                    ClosedLoopHost(sim, controller, streams))


class TestWriteSemantics:
    def test_write_completes_on_buffer_admission(self, small_geometry):
        sim, _, buffer, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=8)
        request = Request(0.0, RequestKind.WRITE, 0, 4)
        controller.submit(request)
        # Admission is immediate: completed before any program finishes.
        assert request.completed_at == sim.now
        assert controller.stats.completed_writes == 1
        sim.run()

    def test_full_buffer_delays_completion(self, small_geometry):
        timing = NandTiming()
        sim, _, buffer, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=4, timing=timing)
        big = Request(0.0, RequestKind.WRITE, 0, 12)
        controller.submit(big)
        assert big.completed_at is None  # 12 pages > 4 slots
        sim.run()
        assert big.completed_at is not None
        assert big.completed_at > 0.0

    def test_buffer_drains_to_nand(self, small_geometry):
        sim, array, buffer, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=8)
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 6))
        sim.run()
        assert buffer.is_empty
        assert array.total_programs == 6


class TestReadSemantics:
    def test_unmapped_read_completes_instantly(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        request = Request(0.0, RequestKind.READ, 5, 2)
        controller.submit(request)
        assert request.completed_at == sim.now

    def test_buffered_data_served_from_buffer(self, small_geometry):
        # 4 chips take the first 4 pages in flight; pages 4-7 stay
        # buffered, so a read of page 7 is a buffer hit.
        sim, _, buffer, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=8)
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 8))
        assert buffer.contains(7)
        read = Request(0.0, RequestKind.READ, 7, 1)
        controller.submit(read)
        assert read.completed_at == sim.now
        assert controller.stats.buffer_read_hits == 1
        sim.run()

    def test_flash_read_takes_device_time(self, small_geometry):
        timing = NandTiming()
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, timing=timing)
        controller.submit(Request(0.0, RequestKind.WRITE, 3, 1))
        sim.run()  # flush to flash
        read = Request(sim.now, RequestKind.READ, 3, 1)
        controller.submit(read)
        sim.run()
        assert read.latency >= timing.t_read

    def test_read_of_many_pages_fans_out(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=16)
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 8))
        sim.run()
        read = Request(sim.now, RequestKind.READ, 0, 8)
        controller.submit(read)
        sim.run()
        assert read.completed_at is not None
        assert controller.stats.completed_reads == 1


class TestChannelsAndTiming:
    def test_same_channel_transfers_serialise(self):
        from repro.nand.geometry import NandGeometry
        geometry = NandGeometry(channels=1, chips_per_channel=2,
                                blocks_per_chip=8, pages_per_block=8,
                                page_size=512)
        timing = NandTiming()
        sim, array, _, _, controller = build_small_system(
            PageFtl, geometry, buffer_pages=8, timing=timing)
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 2))
        sim.run()
        # Two programs on two chips of one channel: the second transfer
        # waited for the first, so the makespan exceeds one program.
        assert sim.now >= timing.t_lsb_prog + 2 * timing.t_transfer

    def test_in_flight_tracking(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 1))
        assert len(controller.in_flight) == 1
        sim.run()
        assert controller.in_flight == {}

    def test_host_idle_flag(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=32)
        assert controller.host_idle()
        # More pages than chips: some stay buffered, so host work is
        # pending (in-flight-only work does not count as pending).
        controller.submit(Request(0.0, RequestKind.WRITE, 0, 20))
        assert not controller.host_idle()
        sim.run()
        assert controller.host_idle()


class TestTraceReplayHost:
    def test_arrivals_fire_at_trace_times(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        trace = [
            Request(0.1, RequestKind.WRITE, 0, 1),
            Request(0.5, RequestKind.WRITE, 1, 1),
        ]
        stats = replay_trace(sim, controller, trace)
        assert stats.completed_writes == 2
        assert stats.first_arrival == pytest.approx(0.1)

    def test_empty_trace(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        stats = replay_trace(sim, controller, [])
        assert stats.completed_requests == 0


class TestClosedLoopHost:
    def test_stream_issues_serially(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=2)
        ops = [StreamOp(RequestKind.WRITE, i, 1) for i in range(10)]
        stats = drive_streams(sim, controller, [ops])
        assert stats.completed_writes == 10

    def test_think_time_spaces_issues(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        ops = [StreamOp(RequestKind.WRITE, i, 1, think_after=0.1)
               for i in range(5)]
        stats = drive_streams(sim, controller, [ops])
        # 4 think gaps of 0.1 s dominate the makespan.
        assert stats.elapsed >= 0.4

    def test_multiple_streams_interleave(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=16)
        streams = [
            [StreamOp(RequestKind.WRITE, 100 * s + i, 1)
             for i in range(8)]
            for s in range(3)
        ]
        stats = drive_streams(sim, controller, streams)
        assert stats.completed_writes == 24

    def test_remaining_tracks_progress(self, small_geometry):
        """Ops remaining = op count - ``issued``."""
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        ops = [StreamOp(RequestKind.WRITE, i, 1) for i in range(3)]
        host = ClosedLoopHost(sim, controller, [ops])
        assert host.issued == 0
        host.start()
        sim.run()
        assert host.issued == len(ops)

    def test_empty_stream_list(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        host = ClosedLoopHost(sim, controller, [])
        host.start()
        assert sim.pending == 0
        sim.run()
        assert controller.stats.completed_requests == 0

    def test_empty_streams_among_nonempty_skipped(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        streams = [[], [StreamOp(RequestKind.WRITE, 0, 1)], []]
        stats = drive_streams(sim, controller, streams)
        assert stats.completed_writes == 1

    def test_trailing_think_leaves_no_dangling_event(self,
                                                     small_geometry):
        # A nonzero think_after on the last op must not schedule a
        # wake-up past the final completion: the stream is exhausted,
        # so the makespan and event queue end with the device work.
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        ops = [StreamOp(RequestKind.WRITE, 0, 1, think_after=100.0)]
        stats = drive_streams(sim, controller, [ops])
        assert stats.completed_writes == 1
        assert sim.pending == 0
        assert sim.now < 100.0

    def test_on_complete_fires_once_per_request(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=2)
        completions = []
        controller.completion_hook = \
            lambda request, now: completions.append(request)
        ops = [StreamOp(RequestKind.WRITE, i % 3, 2) for i in range(6)]
        ops += [StreamOp(RequestKind.READ, i % 3, 2) for i in range(6)]
        drive_streams(sim, controller, [ops])
        assert len(completions) == len(ops)
        assert len(set(map(id, completions))) == len(ops)

    def test_list_fed_ops_keep_tenant_and_phase_tags(self,
                                                      small_geometry):
        """A plain op list gets what a scenario gets: each op's own
        tenant tag (``None`` when untagged) and a ``scenario.phase``
        event per phase change under a tracer."""
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        tenants = []
        controller.completion_hook = \
            lambda request, now: tenants.append(request.tenant)
        ops = [StreamOp(RequestKind.WRITE, 0, 1, tenant="a",
                        phase="fill"),
               StreamOp(RequestKind.WRITE, 1, 1, phase="fill"),
               StreamOp(RequestKind.READ, 0, 1, tenant="b",
                        phase="steady")]
        tracer = Tracer().install(controller)
        host = ClosedLoopHost(sim, controller, [ops])
        run_host(sim, controller, host)
        tracer.finish()
        assert tenants == ["a", None, "b"]
        phases = [(event.fields["prev"], event.fields["name"])
                  for event in tracer.events()
                  if event.kind == SCENARIO_PHASE]
        assert phases == [("", "fill"), ("fill", "steady")]
