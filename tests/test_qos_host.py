"""Tests for the multi-tenant QoS front-end host."""

import pytest

from repro.core.flexftl import FlexFtl
from repro.ftl.pageftl import PageFtl
from repro.qos.arbiter import FifoArbiter
from repro.qos.host import MultiTenantHost, TenantSpec
from repro.sim.host import StreamOp
from repro.sim.queues import RequestKind

from tests.helpers import build_small_system


def writes(lpns, npages=1, think=0.0):
    return [StreamOp(RequestKind.WRITE, lpn, npages, think_after=think)
            for lpn in lpns]


def two_tenants(span, ops_each=6):
    return [
        TenantSpec.make("a", [writes(range(ops_each))]),
        TenantSpec.make("b", [writes(range(span // 2,
                                           span // 2 + ops_each))]),
    ]


class TestTenantSpec:
    def test_make_normalises_streams(self):
        spec = TenantSpec.make("t", [writes([0, 1]), writes([2])])
        assert isinstance(spec.streams, tuple)
        assert spec.total_ops == 3

    def test_slo_target_projection(self):
        spec = TenantSpec.make("t", [], read_slo=1e-3)
        target = spec.slo_target()
        assert target.read_latency == 1e-3
        assert target.write_latency is None


class TestConstruction:
    def test_needs_tenants(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        with pytest.raises(ValueError):
            MultiTenantHost(sim, controller, [])

    def test_duplicate_names_rejected(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        specs = [TenantSpec.make("t", []), TenantSpec.make("t", [])]
        with pytest.raises(ValueError):
            MultiTenantHost(sim, controller, specs)

    def test_named_arbiter_gets_weights(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        specs = [TenantSpec.make("a", [], weight=2.0),
                 TenantSpec.make("b", [], weight=1.0)]
        host = MultiTenantHost(sim, controller, specs, arbiter="wrr")
        assert host.arbiter.name == "wrr"
        assert host.arbiter.weights == [2.0, 1.0]

    def test_arbiter_instance_accepted(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        arbiter = FifoArbiter(["a"])
        specs = [TenantSpec.make("a", [])]
        host = MultiTenantHost(sim, controller, specs, arbiter=arbiter)
        assert host.arbiter is arbiter

    def test_start_twice_rejected(self, small_geometry):
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        host = MultiTenantHost(sim, controller,
                               [TenantSpec.make("a", [])])
        host.start()
        with pytest.raises(RuntimeError):
            host.start()

    def test_resume_after_power_cut_refused(self, small_geometry):
        # The inherited stream re-issue would bypass the queues and
        # the gate's in-flight count.
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry)
        host = MultiTenantHost(sim, controller,
                               [TenantSpec.make("a", [writes([0])])])
        host.start()
        with pytest.raises(RuntimeError, match="power cut"):
            host.resume()


class TestDispatch:
    @pytest.mark.parametrize("ftl_cls", [PageFtl, FlexFtl])
    @pytest.mark.parametrize("arbiter", ["fifo", "rr", "wrr", "drr"])
    def test_all_requests_complete(self, small_geometry, ftl_cls,
                                   arbiter):
        sim, _, _, ftl, controller = build_small_system(
            ftl_cls, small_geometry, buffer_pages=8)
        tenants = two_tenants(ftl.logical_pages)
        host = MultiTenantHost(sim, controller, tenants,
                               arbiter=arbiter, max_outstanding=2)
        host.start()
        sim.run()
        assert host.queued == 0
        assert host.issued == 12
        assert host.gate.outstanding == 0
        assert controller.stats.completed_writes == 12

    def test_per_tenant_accounting(self, small_geometry):
        sim, _, _, ftl, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=8)
        tenants = two_tenants(ftl.logical_pages)
        host = MultiTenantHost(sim, controller, tenants)
        host.start()
        sim.run()
        summary = host.accountant.summary()
        assert summary["a"]["completed_writes"] == 6
        assert summary["b"]["completed_writes"] == 6

    def test_gate_keeps_backlog_in_queues(self, small_geometry):
        # With a tight gate, the submission queues must hold real
        # backlog at some point — that is what gives the arbiter
        # something to decide.
        sim, _, _, ftl, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=4)
        tenants = two_tenants(ftl.logical_pages, ops_each=10)
        host = MultiTenantHost(sim, controller, tenants,
                               max_outstanding=1)
        host.start()
        sim.run()
        assert host.gate.blocked_decisions > 0
        assert max(q.max_depth_seen for q in host.queues) >= 1

    def test_token_bucket_paces_issue(self, small_geometry):
        # 1 page per 10 ms: 8 writes take >= 70 ms of simulated time,
        # orders of magnitude beyond the raw device latency.
        sim, _, _, _, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=8)
        spec = TenantSpec.make("slow", [writes(range(8))],
                               rate_pages_per_sec=100.0,
                               burst_pages=1.0)
        host = MultiTenantHost(sim, controller, [spec])
        host.start()
        sim.run()
        assert controller.stats.completed_writes == 8
        assert sim.now >= 0.07
        assert host.buckets[0].throttled_decisions > 0

    def test_unthrottled_tenant_unaffected_by_peer_bucket(
            self, small_geometry):
        sim, _, _, ftl, controller = build_small_system(
            PageFtl, small_geometry, buffer_pages=8)
        half = ftl.logical_pages // 2
        specs = [
            TenantSpec.make("slow", [writes(range(8))],
                            rate_pages_per_sec=100.0, burst_pages=1.0),
            TenantSpec.make("fast", [writes(range(half, half + 8))]),
        ]
        host = MultiTenantHost(sim, controller, specs, arbiter="rr")
        host.start()
        sim.run()
        fast = host.accountant.accounts["fast"]
        slow = host.accountant.accounts["slow"]
        assert fast.last_completion < slow.last_completion

    def test_deterministic_across_runs(self, small_geometry):
        def run_once():
            sim, _, _, ftl, controller = build_small_system(
                PageFtl, small_geometry, buffer_pages=4)
            host = MultiTenantHost(
                sim, controller, two_tenants(ftl.logical_pages),
                arbiter="drr", max_outstanding=2)
            host.start()
            sim.run()
            return (sim.now, sim.processed,
                    host.accountant.accounts["a"].write_latencies)

        assert run_once() == run_once()
