"""Tests for the structured trace bus: capture, determinism, ring
buffer, install/detach hygiene, metrics wiring, and sinks.

The load-bearing property is **determinism**: a traced run must
produce byte-identical simulation results to an untraced one, because
every capture site is either a scalar append behind one ``is not None``
check on the single op-issue path, or a cold-path emission that never
touches simulation state.  Everything else (ring, JSONL, summary reconciliation) builds
on that.
"""

import gc
import json
import types

import pytest

from repro.core.flexftl import FlexFtl
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.ftl.pageftl import PageFtl
from repro.nand.geometry import NandGeometry
from repro.observability import events as ev
from repro.observability.tracer import Tracer
from repro.qos.host import MultiTenantHost, TenantSpec
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.queues import RequestKind

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)
SPAN = 120


def churn_stream(span=SPAN, rounds=3):
    """Sequential fill plus overwrite rounds — enough churn for GC,
    parity backups and both page types."""
    ops = [StreamOp(RequestKind.WRITE, lpn, 1) for lpn in range(span)]
    for round_no in range(rounds):
        ops.extend(StreamOp(RequestKind.WRITE, lpn, 1)
                   for lpn in range(0, span, round_no + 2))
    ops.extend(StreamOp(RequestKind.READ, lpn, 1)
               for lpn in range(0, span, 7))
    return ops


def run_system(ftl_cls, tracer=None, stream=None):
    system = build_small_system(ftl_cls, GEOMETRY, buffer_pages=16)
    sim, array, buffer, ftl, controller = system
    if tracer is not None:
        tracer.install(controller)
    host = ClosedLoopHost(sim, controller,
                          [stream or churn_stream()])
    host.start()
    sim.run()
    return system


def fingerprint(system):
    """Everything a trace capture could plausibly perturb."""
    sim, array, buffer, ftl, controller = system
    return {
        "now": sim.now,
        "processed": sim.processed,
        "stats": controller.stats.to_dict(),
        "counters": ftl.counters(),
        "programs": array.total_programs,
        "erases": array.total_erases,
        "reads": array.total_reads,
    }


def tenant_fingerprint(tracer=None):
    """Victim + noisy + rate-limited tenants behind DRR; the run's
    fingerprint plus everything the QoS front-end decided."""
    system = build_small_system(FlexFtl, GEOMETRY, buffer_pages=16)
    sim, _, _, _, controller = system
    victim = [StreamOp(RequestKind.WRITE if lpn % 2 else RequestKind.READ,
                       lpn, 1, think_after=1e-4)
              for _ in range(3) for lpn in range(0, 40)]
    noisy = [StreamOp(RequestKind.WRITE, lpn, 4)
             for _ in range(3) for lpn in range(40, 100, 4)]
    capped = [StreamOp(RequestKind.WRITE, lpn, 2)
              for lpn in range(100, 120, 2)]
    host = MultiTenantHost(sim, controller, [
        TenantSpec.make("victim", [victim], weight=2.0),
        TenantSpec.make("noisy", [noisy, noisy, noisy]),
        TenantSpec.make("capped", [capped], rate_pages_per_sec=300.0,
                        burst_pages=2.0),
    ], arbiter="drr", max_outstanding=2)
    if tracer is not None:
        tracer.install(controller, qos_host=host)
    host.start()
    sim.run()
    if tracer is not None:
        tracer.detach()
    result = fingerprint(system)
    result["tenants"] = host.accountant.summary()
    result["queues"] = [(queue.issued, queue.max_depth_seen,
                         queue.mean_depth()) for queue in host.queues]
    result["issued"] = host.issued
    result["throttled"] = [bucket.throttled_decisions
                           for bucket in host.buckets if bucket]
    return result


class TestDeterminism:
    @pytest.mark.parametrize("ftl_cls", [PageFtl, FlexFtl])
    def test_traced_run_is_byte_identical(self, ftl_cls):
        plain = fingerprint(run_system(ftl_cls))
        tracer = Tracer()
        traced_system = run_system(ftl_cls, tracer=tracer)
        traced = fingerprint(traced_system)
        tracer.detach()
        # the traced run attaches nothing to controller.stats itself;
        # the fingerprints must agree byte-for-byte as JSON
        assert json.dumps(traced, sort_keys=True) \
            == json.dumps(plain, sort_keys=True)
        assert tracer.op_count > 0 and tracer.alloc_count > 0

    @pytest.mark.parametrize("capacity", [None, 64])
    def test_traced_equals_untraced_on_each_core(self, op_core, capacity):
        """The op-ring append happens inside the compiled op cycle too;
        neither path lets capture, bounded or not, perturb the run."""
        plain = fingerprint(run_system(FlexFtl))
        tracer = Tracer(capacity=capacity)
        traced = fingerprint(run_system(FlexFtl, tracer=tracer))
        tracer.detach()
        assert json.dumps(traced, sort_keys=True) \
            == json.dumps(plain, sort_keys=True)
        assert tracer.op_count > 0

    @pytest.mark.parametrize("capacity", [None, 64])
    def test_multi_tenant_traced_equals_untraced_on_each_core(
            self, op_core, capacity):
        """The QoS front-end's admit/arbitrate capture, bounded or
        not, leaves every arbitration decision and result unchanged."""
        plain = tenant_fingerprint()
        tracer = Tracer(capacity=capacity)
        traced = tenant_fingerprint(tracer)
        assert json.dumps(traced, sort_keys=True) \
            == json.dumps(plain, sort_keys=True)
        kinds = {event.kind for event in tracer.events()}
        assert {ev.QOS_ADMIT, ev.QOS_ARBITRATE} <= kinds
        assert tracer.metrics.counter_total("qos.dispatched") \
            == traced["issued"]

    def test_disabled_tracer_installs_nothing(self):
        tracer = Tracer(enabled=False)
        system = run_system(FlexFtl, tracer=tracer)
        _, _, _, ftl, controller = system
        assert "_after_host_program" not in ftl.__dict__
        assert controller._trace is None and ftl._trace is None
        assert tracer.op_count == 0 and tracer.alloc_count == 0
        tracer.detach()  # no-op, must not raise


class TestInstallDetach:
    def test_detach_restores_pristine_state(self):
        sim, array, buffer, ftl, controller = build_small_system(
            FlexFtl, GEOMETRY)
        thresholds = gc.get_threshold()
        tracer = Tracer().install(controller)
        assert controller._trace is tracer and ftl._trace is tracer
        # The tracer leaves the interpreter's GC settings alone.
        assert gc.get_threshold() == thresholds
        tracer.detach()
        assert "_after_host_program" not in ftl.__dict__
        assert controller._trace is None and ftl._trace is None
        assert controller._metrics is None and ftl._metrics is None
        assert gc.get_threshold() == thresholds

    def test_detach_restores_prior_patch(self):
        sim, _, _, ftl, controller = build_small_system(
            FlexFtl, GEOMETRY)
        sentinel = lambda *args: None  # noqa: E731
        ftl._after_host_program = sentinel
        tracer = Tracer().install(controller)
        assert ftl.__dict__["_after_host_program"] is not sentinel
        tracer.detach()
        assert ftl.__dict__["_after_host_program"] is sentinel

    def test_double_install_rejected(self):
        _, _, _, _, controller = build_small_system(FlexFtl, GEOMETRY)
        tracer = Tracer().install(controller)
        with pytest.raises(RuntimeError):
            tracer.install(controller)
        tracer.detach()

    def test_second_tracer_on_one_controller_rejected(self):
        _, _, _, _, controller = build_small_system(FlexFtl, GEOMETRY)
        first = Tracer().install(controller)
        with pytest.raises(RuntimeError, match="already has a tracer"):
            Tracer().install(controller)
        assert controller._trace is first
        first.detach()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestRingBuffer:
    def test_ring_retains_newest_and_counts_drops(self):
        tracer = Tracer(capacity=50)
        run_system(FlexFtl, tracer=tracer)
        tracer.detach()
        assert tracer.op_count == 50
        assert tracer.dropped_ops > 0
        issues = [event for event in tracer.events()
                  if event.kind == ev.OP_ISSUE]
        assert len(issues) == 50
        # the newest records survive: issue times are the run's tail
        all_times = [event.time for event in issues]
        assert all_times == sorted(all_times)
        # cold events are never trimmed
        assert any(event.kind == ev.TPO_BLOCK_FULL
                   for event in tracer.events())

    @staticmethod
    def _tenant_run(tracer, rounds):
        """Victim + noisy tenants behind the QoS front-end, ``rounds``
        overwrite passes long; returns the detached tracer."""
        sim, _, _, _, controller = build_small_system(
            FlexFtl, GEOMETRY, buffer_pages=16)
        victim = [StreamOp(RequestKind.WRITE, lpn, 1)
                  for _ in range(rounds) for lpn in range(0, 60, 3)]
        noisy = [StreamOp(RequestKind.WRITE, lpn, 2)
                 for _ in range(rounds) for lpn in range(60, 120, 2)]
        host = MultiTenantHost(sim, controller, [
            TenantSpec.make("victim", [victim]),
            TenantSpec.make("noisy", [noisy]),
        ])
        tracer.install(controller, qos_host=host)
        host.start()
        sim.run()
        tracer.detach()
        return tracer

    def test_bounded_retention_is_flat_in_run_length(self):
        """At a fixed capacity, doubling the run leaves every bounded
        buffer's retained count unchanged; only the drop counts grow."""
        short = self._tenant_run(Tracer(capacity=40), rounds=4)
        long = self._tenant_run(Tracer(capacity=40), rounds=8)

        def retained(tracer):
            events = tracer.events()
            requests = sum(event.kind in (ev.QOS_ADMIT, ev.QOS_ARBITRATE)
                           for event in events)
            return tracer.op_count, tracer.alloc_count, requests

        assert retained(short) == retained(long) == (40, 40, 40)
        # the raw per-request ring is as flat as the op/alloc rings:
        # bounded, and holding only scalars the cyclic GC never tracks
        assert len(short._request_raw) == len(long._request_raw)
        for ring in (long._op_raw, long._alloc_raw, long._request_raw):
            assert ring
            assert not any(gc.is_tracked(value) for value in ring)
        assert long.dropped_ops > short.dropped_ops > 0
        assert long.dropped_allocs > short.dropped_allocs > 0
        assert (long.dropped_request_events
                > short.dropped_request_events > 0)
        meta = long.meta_line()
        assert meta["dropped_allocs"] == long.dropped_allocs
        assert (meta["dropped_request_events"]
                == long.dropped_request_events)
        # the newest per-request events survive
        admits = [event.time for event in long.events()
                  if event.kind == ev.QOS_ADMIT]
        unbounded = self._tenant_run(Tracer(), rounds=8)
        all_admits = [event.time for event in unbounded.events()
                      if event.kind == ev.QOS_ADMIT]
        assert admits == all_admits[-len(admits):]

    def test_request_records_merge_back_in_emission_order(self):
        """Per-request records live in their own ring but materialize
        among the cold events exactly where they were emitted."""
        tracer = Tracer(capacity=2)
        tracer._sim = types.SimpleNamespace(now=1.0)
        tracer.attach_qos(types.SimpleNamespace(queues=[None, None]))
        tracer.event(ev.GC_VICTIM, chip=0, block=1, valid=2,
                     background=0)
        tracer.qos_admit(0, 1.0, "a", "write", 5, 1, 1)
        tracer.qos_arbitrate(0, 1.0, "a", 1, 0)
        tracer.event(ev.GC_VICTIM, chip=1, block=3, valid=0,
                     background=1)
        tracer.qos_admit(1, 1.0, "b", "read", 9, 2, 1)
        events = tracer.events()
        # the oldest request record fell off the 2-record ring
        assert [event.kind for event in events] == [
            ev.GC_VICTIM, ev.QOS_ARBITRATE, ev.GC_VICTIM, ev.QOS_ADMIT]
        assert tracer.dropped_request_events == 1
        assert events[1].to_dict() == {
            "ev": ev.QOS_ARBITRATE, "t": 1.0, "tenant": "a",
            "depth": 1, "issued": 0, "phase": "run"}
        assert events[3].to_dict() == {
            "ev": ev.QOS_ADMIT, "t": 1.0, "tenant": "b", "kind": "read",
            "lpn": 9, "npages": 2, "depth": 1, "phase": "run"}
        assert tracer.metrics.counter_total("qos.admitted") == 2
        assert tracer.metrics.counter_total("qos.dispatched") == 1

    def test_unbounded_meta_keeps_historical_fields(self):
        tracer = self._tenant_run(Tracer(), rounds=1)
        assert "dropped_allocs" not in tracer.meta_line()
        assert "dropped_request_events" not in tracer.meta_line()
        assert tracer.dropped_allocs == 0
        assert tracer.dropped_request_events == 0

    def test_clear_resets_buffers_but_not_installation(self):
        sim, _, _, _, controller = build_small_system(
            FlexFtl, GEOMETRY)
        tracer = Tracer().install(controller)
        host = ClosedLoopHost(sim, controller, [churn_stream(40, 1)])
        host.start()
        sim.run()
        assert tracer.op_count > 0
        tracer.clear()
        assert tracer.op_count == 0 and tracer.alloc_count == 0
        assert tracer.events() == []
        tracer.detach()


class TestMetricsWiring:
    def test_counters_agree_with_ftl_bookkeeping(self):
        # enough overwrite churn to force garbage collection
        heavy = [StreamOp(RequestKind.WRITE, lpn % SPAN, 1)
                 for lpn in range(SPAN * 13)]
        tracer = Tracer()
        system = run_system(FlexFtl, tracer=tracer, stream=heavy)
        _, _, _, ftl, _ = system
        tracer.detach()
        assert ftl.counters()["foreground_gcs"] > 0
        counters = ftl.counters()
        metrics = tracer.metrics
        assert metrics.counter_total("gc.collections") \
            == counters["foreground_gcs"] + counters["background_gcs"]
        assert metrics.counter_total("parity.writes") \
            == counters["backup_programs"]
        # parity counters are per-chip labeled; events mirror them
        parity_events = [event for event in tracer.events()
                         if event.kind == ev.PARITY_WRITE]
        assert len(parity_events) == counters["backup_programs"]

    def test_phase_attribution_splits_on_begin_phase(self):
        sim, _, _, _, controller = build_small_system(
            FlexFtl, GEOMETRY)
        tracer = Tracer().install(controller)
        tracer.begin_phase("warmup")
        host = ClosedLoopHost(sim, controller, [churn_stream(60, 1)])
        host.start()
        sim.run()
        tracer.begin_phase("measured")
        host = ClosedLoopHost(sim, controller, [churn_stream(60, 1)])
        host.start()
        sim.run()
        tracer.finish()
        tracer.detach()
        phases = {event.fields["phase"]
                  for event in tracer.events()
                  if event.kind == ev.OP_ISSUE}
        assert phases == {"warmup", "measured"}
        profile = [event for event in tracer.events()
                   if event.kind == ev.PROFILE_PHASE]
        assert [event.fields["name"] for event in profile] \
            == ["warmup", "measured"]
        assert sum(event.fields["events"] for event in profile) \
            == sim.processed


class TestColdEmission:
    def test_fault_events_emitted(self):
        sim, array, buffer, ftl, controller = build_small_system(
            FlexFtl, GEOMETRY, buffer_pages=16)
        plan = FaultPlan(events=(
            FaultEvent("program_fail", chip=0, op_index=10),))
        controller.attach_fault_injector(
            FaultInjector(plan, page_size=GEOMETRY.page_size))
        tracer = Tracer().install(controller)
        host = ClosedLoopHost(sim, controller, [churn_stream()])
        host.start()
        sim.run()
        tracer.detach()
        kinds = [event.kind for event in tracer.events()]
        assert ev.FAULT_INJECT in kinds and ev.FAULT_RECOVER in kinds
        inject = next(event for event in tracer.events()
                      if event.kind == ev.FAULT_INJECT)
        assert inject.fields["fault"] == "program_fail"
        assert inject.fields["chip"] == 0

    def test_qos_events_emitted(self):
        sim, _, _, _, controller = build_small_system(
            PageFtl, GEOMETRY)
        specs = [
            TenantSpec.make("a", [[StreamOp(RequestKind.WRITE, lpn, 1)
                                   for lpn in range(20)]]),
            TenantSpec.make("b", [[StreamOp(RequestKind.WRITE, lpn, 1)
                                   for lpn in range(60, 80)]]),
        ]
        host = MultiTenantHost(sim, controller, specs)
        tracer = Tracer().install(controller, qos_host=host)
        host.start()
        sim.run()
        tracer.detach()
        admits = [event for event in tracer.events()
                  if event.kind == ev.QOS_ADMIT]
        assert len(admits) == 40
        assert {event.fields["tenant"] for event in admits} \
            == {"a", "b"}
        assert any(event.kind == ev.QOS_ARBITRATE
                   for event in tracer.events())


class TestSinks:
    def test_jsonl_round_trip_preserves_every_event(self, tmp_path):
        from repro.observability.summary import (summarize_jsonl,
                                                 summarize_tracer)
        tracer = Tracer()
        run_system(FlexFtl, tracer=tracer)
        tracer.detach()
        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == written + 1  # meta header + events
        header = json.loads(lines[0])
        assert header["ev"] == "trace.meta"
        assert header["schema"] == ev.SCHEMA_VERSION
        assert header["ftl"] == "flexFTL"
        # the file digest matches the in-memory digest exactly
        assert summarize_jsonl(str(path)).to_dict() \
            == summarize_tracer(tracer).to_dict()

    def test_every_emitted_kind_is_in_the_schema(self):
        tracer = Tracer()
        run_system(FlexFtl, tracer=tracer)
        tracer.detach()
        for event in tracer.events():
            assert event.kind in ev.EVENT_SCHEMA
            allowed = {field for field, _ in
                       ev.EVENT_SCHEMA[event.kind]} | {"phase"}
            assert set(event.fields) <= allowed, \
                f"{event.kind} carries undeclared fields"
