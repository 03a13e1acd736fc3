"""Tests for the submission-queue arbitration policies."""

import pytest

from repro.qos.arbiter import (
    ARBITERS,
    DeficitRoundRobinArbiter,
    FifoArbiter,
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)
from repro.qos.queues import SubmissionQueue
from repro.sim.queues import Request, RequestKind


def make_queues(tenants, backlog, npages=1):
    """One queue per tenant, each pre-loaded with ``backlog`` writes.

    Sequence numbers interleave across tenants (tenant 0 first at each
    step), matching how simultaneous arrivals would be numbered.
    """
    queues = [SubmissionQueue(tenant) for tenant in tenants]
    seq = 0
    for _ in range(backlog):
        for index, queue in enumerate(queues):
            pages = npages[index] if isinstance(npages, list) else npages
            request = Request(0.0, RequestKind.WRITE, 0, pages,
                              tenant=tenants[index])
            queue.push(request, seq, 0.0)
            seq += 1
    return queues


def drain(arbiter, queues, limit):
    """Pop up to ``limit`` commands in arbiter order; returns tenants."""
    served = []
    for _ in range(limit):
        eligible = [not queue.is_empty for queue in queues]
        if not any(eligible):
            break
        index = arbiter.select(queues, eligible)
        command = queues[index].pop(0.0)
        if queues[index].is_empty:
            arbiter.note_empty(index)
        served.append((queues[index].tenant, command.request.npages))
    return served


class TestValidation:
    def test_needs_tenants(self):
        with pytest.raises(ValueError):
            FifoArbiter([])

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError):
            FifoArbiter(["a", "a"])

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            FifoArbiter(["a", "b"], [1.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            FifoArbiter(["a"], [0.0])
        with pytest.raises(ValueError):
            FifoArbiter(["a"], [-1.0])

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_arbiter("strict_priority", ["a"])

    def test_registry_names(self):
        assert list(ARBITERS) == ["fifo", "rr", "wrr", "drr"]
        for name in ARBITERS:
            arbiter = make_arbiter(name, ["a", "b"], [2.0, 1.0])
            assert arbiter.name == name
            assert arbiter.weights == [2.0, 1.0]

    def test_drr_quantum_validated(self):
        with pytest.raises(ValueError):
            DeficitRoundRobinArbiter(["a"], quantum=0)


class TestFifo:
    def test_replays_global_arrival_order(self):
        queues = make_queues(["a", "b"], backlog=3)
        arbiter = FifoArbiter(["a", "b"])
        served = [t for t, _ in drain(arbiter, queues, 6)]
        assert served == ["a", "b", "a", "b", "a", "b"]

    def test_skips_ineligible(self):
        queues = make_queues(["a", "b"], backlog=1)
        arbiter = FifoArbiter(["a", "b"])
        assert arbiter.select(queues, [False, True]) == 1

    def test_none_when_nothing_eligible(self):
        queues = make_queues(["a", "b"], backlog=1)
        arbiter = FifoArbiter(["a", "b"])
        assert arbiter.select(queues, [False, False]) is None


class TestRoundRobin:
    def test_one_command_per_tenant_per_turn(self):
        queues = make_queues(["a", "b", "c"], backlog=2)
        arbiter = RoundRobinArbiter(["a", "b", "c"])
        served = [t for t, _ in drain(arbiter, queues, 6)]
        assert served == ["a", "b", "c", "a", "b", "c"]

    def test_skips_ineligible_and_advances(self):
        queues = make_queues(["a", "b", "c"], backlog=2)
        arbiter = RoundRobinArbiter(["a", "b", "c"])
        assert arbiter.select(queues, [False, True, True]) == 1
        assert arbiter.select(queues, [True, True, True]) == 2
        assert arbiter.select(queues, [True, True, True]) == 0

    def test_ignores_weights(self):
        queues = make_queues(["a", "b"], backlog=4)
        arbiter = RoundRobinArbiter(["a", "b"], [8.0, 1.0])
        served = [t for t, _ in drain(arbiter, queues, 8)]
        assert served.count("a") == served.count("b") == 4


class TestWeightedRoundRobin:
    def test_weight_sets_command_share(self):
        queues = make_queues(["heavy", "light"], backlog=30)
        arbiter = WeightedRoundRobinArbiter(["heavy", "light"],
                                            [2.0, 1.0])
        served = [t for t, _ in drain(arbiter, queues, 30)]
        assert served.count("heavy") == 2 * served.count("light")

    def test_fractional_weight_served_every_other_round(self):
        queues = make_queues(["a", "slow"], backlog=30)
        arbiter = WeightedRoundRobinArbiter(["a", "slow"], [1.0, 0.5])
        served = [t for t, _ in drain(arbiter, queues, 30)]
        assert served.count("a") == 2 * served.count("slow")

    def test_sole_eligible_tenant_always_served(self):
        queues = make_queues(["a", "b"], backlog=5)
        arbiter = WeightedRoundRobinArbiter(["a", "b"], [1.0, 0.25])
        for _ in range(5):
            assert arbiter.select(queues, [False, True]) == 1
            queues[1].pop(0.0)


class TestDeficitRoundRobin:
    def test_fair_in_pages_not_commands(self):
        # Tenant "big" issues 4-page commands, "small" 1-page ones; at
        # equal weight DRR should equalise *pages* served, i.e. serve
        # four of small's commands per one of big's.
        queues = make_queues(["big", "small"], backlog=40,
                             npages=[4, 1])
        arbiter = DeficitRoundRobinArbiter(["big", "small"], quantum=4)
        served = drain(arbiter, queues, 40)
        big_pages = sum(p for t, p in served if t == "big")
        small_pages = sum(p for t, p in served if t == "small")
        assert big_pages == pytest.approx(small_pages, rel=0.15)

    def test_weight_scales_page_share(self):
        queues = make_queues(["heavy", "light"], backlog=60)
        arbiter = DeficitRoundRobinArbiter(["heavy", "light"],
                                           [3.0, 1.0], quantum=1)
        served = drain(arbiter, queues, 40)
        heavy = sum(p for t, p in served if t == "heavy")
        light = sum(p for t, p in served if t == "light")
        assert heavy == pytest.approx(3 * light, rel=0.2)

    def test_oversized_command_eventually_served(self):
        # Head cost far above quantum*weight: credits accumulate over
        # multiple visits until the command fits.
        queues = make_queues(["a"], backlog=2, npages=32)
        arbiter = DeficitRoundRobinArbiter(["a"], quantum=4)
        assert arbiter.select(queues, [True]) == 0

    def test_note_empty_forfeits_deficit(self):
        queues = make_queues(["a", "b"], backlog=1, npages=1)
        arbiter = DeficitRoundRobinArbiter(["a", "b"], quantum=8)
        index = arbiter.select(queues, [True, True])
        queues[index].pop(0.0)
        arbiter.note_empty(index)
        assert arbiter._deficit[index] == 0.0

    def test_none_when_nothing_eligible(self):
        queues = make_queues(["a"], backlog=1)
        arbiter = DeficitRoundRobinArbiter(["a"])
        assert arbiter.select(queues, [False]) is None


class _ReferenceDrr(DeficitRoundRobinArbiter):
    """DRR ``select`` as first written — a per-call cost list and a
    fixed loop bound — kept as the oracle for the lean version."""

    def select(self, queues, eligible):
        if not any(eligible):
            return None
        n = len(queues)
        costs = [queues[i].head.request.npages if eligible[i] else None
                 for i in range(n)]
        max_cost = max(cost for cost in costs if cost is not None)
        min_credit = self.quantum * min(self.weights)
        bound = (int(max_cost / min_credit) + 2) * n + n
        for _ in range(bound):
            index = self._pos
            cost = costs[index]
            if cost is not None:
                if not self._credited:
                    self._deficit[index] += \
                        self.quantum * self.weights[index]
                    self._credited = True
                if self._deficit[index] >= cost:
                    self._deficit[index] -= cost
                    return index
            self._pos = (index + 1) % n
            self._credited = False
        raise RuntimeError("DRR failed to make progress")


class TestDeficitRoundRobinOracle:
    """Seeded random arbitration histories: the lean ``select`` makes
    every decision the reference makes and leaves the same state."""

    @staticmethod
    def _history(seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 5)
        tenants = [f"t{i}" for i in range(n)]
        weights = [rng.choice([0.25, 0.5, 1.0, 1.5, 3.0])
                   for _ in range(n)]
        quantum = rng.choice([1, 2, 8])
        lean = DeficitRoundRobinArbiter(tenants, weights, quantum)
        reference = _ReferenceDrr(tenants, weights, quantum)
        queues = [SubmissionQueue(tenant) for tenant in tenants]
        seq = 0
        for step in range(400):
            # arrivals: random tenants, random (sometimes oversized)
            # command sizes
            for index in range(n):
                if rng.random() < 0.3:
                    pages = rng.choice([1, 1, 2, 4, 8, 33])
                    queues[index].push(
                        Request(float(step), RequestKind.WRITE, 0, pages,
                                tenant=tenants[index]), seq, float(step))
                    seq += 1
            # eligibility: non-empty, minus random throttling
            eligible = [not queue.is_empty and rng.random() < 0.8
                        for queue in queues]
            chosen = lean.select(queues, eligible)
            assert chosen == reference.select(queues, eligible)
            assert lean._deficit == reference._deficit
            assert lean._pos == reference._pos
            assert lean._credited == reference._credited
            if chosen is None:
                continue
            yield chosen
            queues[chosen].pop(float(step))
            if queues[chosen].is_empty:
                lean.note_empty(chosen)
                reference.note_empty(chosen)

    @pytest.mark.parametrize("seed", range(12))
    def test_lean_select_agrees_with_reference(self, seed):
        decisions = list(self._history(seed))
        assert decisions  # the history exercised real decisions
