"""Tests for submission queues and per-tenant SLO accounting."""

import math

import pytest

from repro.qos.queues import SubmissionQueue
from repro.qos.slo import SloAccountant, SloTarget, TenantAccount
from repro.sim.queues import (
    REQUEST_FAILED,
    REQUEST_RECOVERED,
    Request,
    RequestKind,
)


def write(time=0.0, npages=1, tenant="t"):
    return Request(time, RequestKind.WRITE, 0, npages, tenant=tenant)


def read(time=0.0, npages=1, tenant="t"):
    return Request(time, RequestKind.READ, 0, npages, tenant=tenant)


class TestSubmissionQueue:
    def test_fifo_order_and_counters(self):
        queue = SubmissionQueue("t")
        first = queue.push(write(), seq=0, now=0.0)
        queue.push(write(), seq=1, now=0.1)
        assert len(queue) == 2
        assert queue.head is first
        assert queue.pop(0.2) is first
        assert queue.enqueued == 2
        assert queue.issued == 1
        assert queue.max_depth_seen == 2

    def test_seq_and_enqueue_time_recorded(self):
        queue = SubmissionQueue("t")
        command = queue.push(write(time=0.5), seq=7, now=0.5)
        assert command.seq == 7
        assert command.enqueued_at == 0.5

    def test_empty_queue_accessors(self):
        queue = SubmissionQueue("t")
        assert queue.is_empty
        with pytest.raises(IndexError):
            queue.head
        with pytest.raises(IndexError):
            queue.pop(0.0)

    def test_max_depth_enforced(self):
        queue = SubmissionQueue("t", max_depth=1)
        queue.push(write(), seq=0, now=0.0)
        with pytest.raises(OverflowError):
            queue.push(write(), seq=1, now=0.0)
        with pytest.raises(ValueError):
            SubmissionQueue("t", max_depth=0)

    def test_depth_timeline_sampled_on_push_and_pop(self):
        queue = SubmissionQueue("t")
        queue.push(write(), seq=0, now=0.0)
        queue.push(write(), seq=1, now=1.0)
        assert queue.mean_depth() == 1.0  # depth 1 over [0, 1]
        queue.pop(2.0)
        assert queue.max_depth_seen == 2
        assert queue.mean_depth() == 1.5  # the pop closed depth 2's 1 s

    def test_mean_depth_time_weighted(self):
        queue = SubmissionQueue("t")
        queue.push(write(), seq=0, now=0.0)   # depth 1 for 1 s
        queue.push(write(), seq=1, now=1.0)   # depth 2 for 3 s
        queue.pop(4.0)
        assert queue.mean_depth() == pytest.approx((1 * 1 + 2 * 3) / 4)

    def test_mean_depth_degenerate_cases(self):
        queue = SubmissionQueue("t")
        assert queue.mean_depth() == 0.0
        queue.push(write(), seq=0, now=0.0)
        assert queue.mean_depth() == 0.0  # single sample: no interval
        queue.push(write(), seq=1, now=0.0)
        # Zero span: plain mean of the sampled depths.
        assert queue.mean_depth() == pytest.approx(1.5)


class TestTenantAccount:
    def test_records_reads_and_writes(self):
        account = TenantAccount("t")
        account.record(write(time=0.0, npages=4), now=0.002)
        account.record(read(time=0.001, npages=1), now=0.002)
        assert account.completed_writes == 1
        assert account.completed_reads == 1
        assert account.written_pages == 4
        assert account.read_pages == 1
        assert account.write_latencies == [pytest.approx(0.002)]
        assert account.elapsed == pytest.approx(0.002)

    def test_violations_counted_against_targets(self):
        account = TenantAccount(
            "t", SloTarget(read_latency=1e-3, write_latency=1e-3))
        account.record(write(time=0.0), now=0.002)      # violation
        account.record(write(time=0.0), now=0.0005)     # within SLO
        account.record(read(time=0.0), now=0.005)       # violation
        assert account.write_violations == 1
        assert account.read_violations == 1

    def test_no_targets_means_no_violations(self):
        account = TenantAccount("t")
        account.record(write(time=0.0), now=10.0)
        assert account.write_violations == 0

    def test_summary_of_idle_tenant(self):
        summary = TenantAccount("t").summary()
        assert math.isnan(summary["iops"])
        assert math.isnan(summary["write_latency"]["p99"])
        assert summary["completed_writes"] == 0

    def test_failed_requests_counted_not_completed(self):
        account = TenantAccount("t")
        failed = write(time=0.0)
        failed.status = REQUEST_FAILED
        account.record(failed, now=0.002)
        assert account.failed_requests == 1
        assert account.completed_writes == 0
        assert account.written_pages == 0
        assert account.write_latencies == []

    def test_recovered_requests_counted_and_completed(self):
        account = TenantAccount("t")
        recovered = read(time=0.0)
        recovered.status = REQUEST_RECOVERED
        account.record(recovered, now=0.002)
        assert account.recovered_requests == 1
        assert account.completed_reads == 1
        assert account.read_latencies == [pytest.approx(0.002)]

    def test_summary_reports_fault_outcomes(self):
        account = TenantAccount("t")
        failed = write(time=0.0)
        failed.status = REQUEST_FAILED
        account.record(failed, now=0.001)
        summary = account.summary()
        assert summary["failed_requests"] == 1
        assert summary["recovered_requests"] == 0


class TestSloAccountant:
    def test_accounts_created_on_first_sight(self):
        accountant = SloAccountant()
        accountant.record(write(tenant="new"), now=0.001)
        assert accountant.accounts["new"].completed_writes == 1

    def test_untagged_requests_ignored(self):
        accountant = SloAccountant()
        accountant.record(write(tenant=None), now=0.001)
        assert accountant.accounts == {}

    def test_targets_applied_to_named_tenants(self):
        accountant = SloAccountant(
            {"victim": SloTarget(write_latency=1e-6)})
        accountant.record(write(tenant="victim"), now=1.0)
        accountant.record(write(tenant="other"), now=1.0)
        assert accountant.accounts["victim"].write_violations == 1
        assert accountant.accounts["other"].write_violations == 0

    def test_attach_chains_existing_hook(self):
        class Hooked:
            completion_hook = None

        controller = Hooked()
        seen = []
        controller.completion_hook = \
            lambda request, now: seen.append("first")
        accountant = SloAccountant()
        accountant.attach(controller)
        controller.completion_hook(write(tenant="t"), 0.001)
        assert seen == ["first"]
        assert accountant.accounts["t"].completed_writes == 1

    def test_summary_shape(self):
        accountant = SloAccountant()
        accountant.record(write(tenant="t"), now=0.001)
        summary = accountant.summary()
        assert set(summary) == {"t"}
        assert summary["t"]["completed_writes"] == 1
