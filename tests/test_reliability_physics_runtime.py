"""Controller wiring of the physics error engine.

End-to-end checks of the armed path: the voltage-shift ladder defers
host-read completion and charges itemised latency, failures land in
``FaultStats`` and the ``reliability.*`` trace events (schema-
conformant), parity-covered FTLs reconstruct uncorrectable pages, and
an unarmed system stays byte-identical in behaviour (no physics state,
no events, no counters).
"""

import pytest

from repro.core.flexftl import FlexFtl
from repro.ftl.base import FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.nand.geometry import NandGeometry
from repro.observability import events as ev
from repro.observability.tracer import Tracer
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import (
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_RECOVERED,
    Request,
    RequestKind,
)

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)
SPAN = 64

#: Stress far past the ECC cliff: every sampled host read fails the
#: baseline decode, every retry rung, and the escalated decode —
#: deterministically — so the full ladder is exercised without waiting
#: on rare draws.
DOOMED = PhysicsConfig(seed=3, pe_baseline=50000,
                       retention_baseline_hours=100000.0)


def _armed_system(ftl_cls, physics=DOOMED, tracer=None):
    config = FtlConfig(bg_gc_enabled=False)
    system = build_small_system(ftl_cls, GEOMETRY, buffer_pages=16,
                                ftl_config=config)
    sim, array, buffer, ftl, controller = system
    if tracer is not None:
        tracer.install(controller)
    host = ClosedLoopHost(sim, controller, [
        [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(SPAN)]
    ])
    host.start()
    sim.run()
    engine = PhysicsEngine(physics)
    controller.attach_physics(engine)
    return sim, array, buffer, ftl, controller, engine


def _settled_lpn(ftl, buffer):
    for lpn in range(SPAN):
        if not buffer.contains(lpn) \
                and ftl.mapping.lookup_address(lpn) is not None:
            return lpn
    pytest.skip("no settled lpn")


def _read(sim, controller, lpn):
    request = Request(sim.now, RequestKind.READ, lpn, 1)
    submitted = sim.now
    controller.submit(request)
    sim.run()
    return request, request.completed_at - submitted


class TestArmedLadder:
    def test_doomed_read_walks_the_whole_ladder(self):
        sim, array, buffer, ftl, controller, engine = \
            _armed_system(FlexFtl)
        lpn = _settled_lpn(ftl, buffer)
        request, _ = _read(sim, controller, lpn)
        assert engine.read_errors == 1
        assert engine.shift_retries == len(DOOMED.retry_shifts)
        assert engine.shift_recoveries == 0
        assert engine.ecc_escalations == 1
        assert engine.uncorrectable == 1
        faults = controller.stats.faults
        assert faults.physics_read_errors == 1
        assert faults.voltage_shift_retries == len(DOOMED.retry_shifts)
        assert faults.read_retries == 1

    def test_ladder_latency_is_itemised(self):
        # Clean read on an identically built (unarmed) system.
        config = FtlConfig(bg_gc_enabled=False)
        sim, array, buffer, ftl, controller = build_small_system(
            FlexFtl, GEOMETRY, buffer_pages=16, ftl_config=config)
        host = ClosedLoopHost(sim, controller, [
            [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(SPAN)]
        ])
        host.start()
        sim.run()
        lpn = _settled_lpn(ftl, buffer)
        _, clean = _read(sim, controller, lpn)

        sim, array, buffer, ftl, controller, engine = \
            _armed_system(FlexFtl)
        request, elapsed = _read(sim, controller, lpn)
        t_read = controller.timing.t_read
        rungs = len(DOOMED.retry_shifts)
        covered = request.status == REQUEST_RECOVERED
        expected = rungs + DOOMED.ecc_escalation_reads \
            + (ftl.wordlines if covered else 0)
        assert elapsed == pytest.approx(clean + expected * t_read,
                                        rel=1e-12)
        assert controller.stats.faults.ladder_reads == expected

    def test_parity_covered_page_is_reconstructed(self):
        sim, array, buffer, ftl, controller, engine = \
            _armed_system(FlexFtl)
        # Find a settled lpn whose block has live parity coverage.
        for lpn in range(SPAN):
            if buffer.contains(lpn):
                continue
            addr = ftl.mapping.lookup_address(lpn)
            if addr is None:
                continue
            chip_id = ftl.geometry.chip_id(addr.channel, addr.chip)
            if ftl.parity_covers(chip_id, addr):
                break
        else:
            pytest.skip("no parity-covered lpn")
        request, _ = _read(sim, controller, lpn)
        assert request.status == REQUEST_RECOVERED
        faults = controller.stats.faults
        assert faults.parity_reconstructions == 1
        assert faults.reconstructed_pages == 1
        assert faults.lost_pages == 0

    def test_uncovered_page_is_lost(self):
        sim, array, buffer, ftl, controller, engine = \
            _armed_system(PageFtl)
        lpn = _settled_lpn(ftl, buffer)
        request, _ = _read(sim, controller, lpn)
        assert request.status == REQUEST_FAILED
        assert controller.stats.faults.lost_pages == 1

    def test_benign_physics_leaves_reads_untouched(self):
        # A fresh, unworn device: BER ~1e-11, failure probability ~0.
        sim, array, buffer, ftl, controller, engine = _armed_system(
            PageFtl, physics=PhysicsConfig(seed=1))
        lpn = _settled_lpn(ftl, buffer)
        request, _ = _read(sim, controller, lpn)
        assert request.status == REQUEST_OK
        assert engine.reads_sampled == 1
        assert engine.read_errors == 0
        assert controller.stats.faults.physics_read_errors == 0


class TestObservabilityWiring:
    def test_trace_events_emitted_and_schema_conformant(self):
        tracer = Tracer()
        sim, array, buffer, ftl, controller, engine = _armed_system(
            FlexFtl, tracer=tracer)
        lpn = _settled_lpn(ftl, buffer)
        _read(sim, controller, lpn)
        tracer.finish()
        kinds = {}
        for event in tracer.events():
            kinds.setdefault(event.kind, []).append(event)
            assert event.kind in ev.EVENT_SCHEMA
            declared = {name for name, _ in
                        ev.EVENT_SCHEMA[event.kind]} | {"phase"}
            assert set(event.fields) <= declared
        errors = kinds.get(ev.RELIABILITY_READ_ERROR, [])
        shifts = kinds.get(ev.RELIABILITY_RETRY_SHIFT, [])
        assert len(errors) == 1
        assert len(shifts) == len(DOOMED.retry_shifts)
        assert errors[0].fields["ber"] > 0.0
        assert 0.0 < errors[0].fields["prob"] <= 1.0
        for event, shift in zip(shifts, DOOMED.retry_shifts):
            assert event.fields["shift"] == shift
            assert event.fields["recovered"] in (0, 1)
        # The BER histogram and error counter rode along in the
        # metrics registry.
        snapshot = tracer.metrics.to_dict()
        assert any(name.startswith("reliability.read_ber")
                   for name in snapshot["histograms"])
        assert any(name.startswith("reliability.read_errors")
                   for name in snapshot["counters"])

    def test_unarmed_system_has_no_physics_state(self):
        tracer = Tracer()
        config = FtlConfig(bg_gc_enabled=False)
        sim, array, buffer, ftl, controller = build_small_system(
            FlexFtl, GEOMETRY, buffer_pages=16, ftl_config=config)
        tracer.install(controller)
        host = ClosedLoopHost(sim, controller, [
            [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(SPAN)]
        ])
        host.start()
        sim.run()
        lpn = _settled_lpn(ftl, buffer)
        request, _ = _read(sim, controller, lpn)
        tracer.finish()
        assert request.status == REQUEST_OK
        assert controller._physics is None
        assert all(event.kind not in (ev.RELIABILITY_READ_ERROR,
                                      ev.RELIABILITY_RETRY_SHIFT)
                   for event in tracer.events())


@pytest.mark.parametrize("data, match", [
    ({"retry_shifts": "abc"}, "retry_shifts"),
    ({"retry_shifts": [0.04, "x"]}, "retry_shifts"),
    ({"retry_shifts": [float("nan")]}, "retry_shifts"),
    ({"disturb_quantum": 0.5}, "disturb_quantum"),
    ({"disturb_quantum": True}, "disturb_quantum"),
    ({"pe_baseline": "6000"}, "pe_baseline"),
    ({"ecc_escalation_reads": 1.5}, "ecc_escalation_reads"),
    ({"retention_quantum_hours": float("nan")}, "retention_quantum_hours"),
    ({"retention_baseline_hours": float("inf")},
     "retention_baseline_hours"),
    ({"retention_hours_per_second": "fast"}, "retention_hours_per_second"),
    ({"retention_baseline_hours": -1.0}, "retention_baseline_hours"),
    ({"bogus": 1}, "'bogus'"),
    ({"ecc": {"correctable_bits": 40, "typo": 1}}, "'typo'"),
])
def test_malformed_physics_config_raises_value_error(data, match):
    """Every malformed field is a ValueError at the config boundary,
    never a coerced value or a bare TypeError from the constructor."""
    with pytest.raises(ValueError, match=match):
        PhysicsConfig.from_dict(data)


def test_physics_config_roundtrip_still_accepts_ints_for_hours():
    config = PhysicsConfig(seed=7, pe_baseline=3000,
                           retention_baseline_hours=8760,
                           retry_shifts=(-1, 0.5))
    assert PhysicsConfig.from_dict(config.to_dict()) == config
