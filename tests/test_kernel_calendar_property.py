"""Property suite: the calendar kernel is order-identical to the heap.

Both kernels are driven through identical seeded interleavings of
schedule / cancel / partial-run / run-until operations, with delays
mixed across sub-bucket, bucket-boundary, multi-bucket and far-future
(overflow-heap) distances, and the full firing transcript —
``(now, tag)`` pairs plus the processed counter and final clock — must
match exactly.  A narrow-width, tiny-span calendar variant stresses
the overflow migration path that the default geometry never reaches.

The same interleavings, plus ``halt()`` fired from inside a callback,
also run through the compiled event loop and the Python loop of the
calendar kernel, which must agree on pop order, clock and counter.
"""

import random

import pytest

from repro.sim import _native
from repro.sim.kernel import HeapSimulator, Simulator

#: Delay menu [s]: same-instant, sub-bucket, exactly one default
#: bucket, the NAND latency quanta, and far-future timers past the
#: default 128 ms horizon.
DELAYS = (0.0, 1e-6, 40e-6, 50e-6, 499e-6, 500e-6, 501e-6,
          2e-3, 5e-3, 20e-3, 0.2)


def drive(make_sim, seed, steps=400):
    """One seeded interleaving; returns the full observable transcript."""
    rng = random.Random(seed)
    sim = make_sim()
    fired = []
    handles = []
    tag = 0

    def record(t):
        fired.append((round(sim.now, 12), t))

    for _ in range(steps):
        action = rng.random()
        if action < 0.55 or not handles:
            delay = rng.choice(DELAYS) * rng.randint(1, 3)
            handles.append(sim.schedule(delay, record, tag,
                                        priority=rng.randint(0, 2)))
            tag += 1
        elif action < 0.70:
            # Cancel a random handle — possibly one that already fired
            # or was cancelled before (both must be no-ops).
            handles[rng.randrange(len(handles))].cancel()
        elif action < 0.80:
            # Cancel-then-reschedule: the classic timer-reset pattern.
            handles[rng.randrange(len(handles))].cancel()
            handles.append(sim.schedule(rng.choice(DELAYS), record, tag,
                                        priority=rng.randint(0, 2)))
            tag += 1
        elif action < 0.92:
            sim.run(max_events=rng.randint(1, 5))
        else:
            sim.run(until=sim.now + rng.choice(DELAYS))
    sim.run()
    return fired, sim.processed, round(sim.now, 12), sim.pending


@pytest.mark.parametrize("seed", range(12))
def test_calendar_matches_heap(seed):
    assert drive(Simulator, seed) == drive(HeapSimulator, seed)


@pytest.mark.parametrize("seed", range(8))
def test_narrow_calendar_with_overflow_matches_heap(seed):
    """A 7 us bucket with a 4-bucket span forces nearly every push
    through the overflow heap and its migration path."""
    assert (drive(lambda: Simulator(bucket_width=7e-6, span=4), seed)
            == drive(HeapSimulator, seed))


@pytest.mark.parametrize("seed", range(4))
def test_wide_calendar_matches_heap(seed):
    """A bucket wider than any delay keeps everything in one bucket,
    exercising the in-bucket insort ordering."""
    assert (drive(lambda: Simulator(bucket_width=10.0), seed)
            == drive(HeapSimulator, seed))


def test_halt_mid_bucket_drops_later_entries():
    """Halting from a callback abandons the rest of the active bucket
    in both kernels, and both accept a fresh schedule afterwards."""

    def transcript(make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(1e-6, fired.append, "a")
        sim.schedule(2e-6, lambda: (fired.append("halt"), sim.halt()))
        sim.schedule(3e-6, fired.append, "never")
        sim.schedule(4e-3, fired.append, "never-far")
        sim.run()
        sim.schedule(5e-6, fired.append, "rebooted")
        sim.run()
        return fired, sim.processed, sim.pending

    assert transcript(Simulator) == transcript(HeapSimulator)
    assert transcript(Simulator)[0] == ["a", "halt", "rebooted"]


def drive_with_halts(make_sim, seed, steps=400):
    """:func:`drive` plus callbacks that halt the queue (a power cut)
    or schedule follow-ups from inside the loop; returns the firing
    transcript with the clock after every run call."""
    rng = random.Random(seed)
    sim = make_sim()
    fired = []
    handles = []
    tag = 0

    def record(t):
        fired.append((sim.now, sim.processed, t))

    def halting(t):
        fired.append((sim.now, sim.processed, t, "halt"))
        sim.halt()

    def chaining(t, delay):
        fired.append((sim.now, sim.processed, t, "chain"))
        handles.append(sim.schedule(delay, record, -t))

    for _ in range(steps):
        action = rng.random()
        delay = rng.choice(DELAYS) * rng.randint(1, 3)
        priority = rng.randint(0, 2)
        if action < 0.45 or not handles:
            handles.append(sim.schedule(delay, record, tag,
                                        priority=priority))
        elif action < 0.50:
            handles.append(sim.schedule(delay, halting, tag,
                                        priority=priority))
        elif action < 0.58:
            handles.append(sim.schedule(delay, chaining, tag,
                                        rng.choice(DELAYS),
                                        priority=priority))
        elif action < 0.70:
            handles[rng.randrange(len(handles))].cancel()
        elif action < 0.82:
            sim.run(max_events=rng.randint(0, 6))
            fired.append(("run", sim.now, sim.processed))
        elif action < 0.94:
            sim.run(until=sim.now + rng.choice(DELAYS))
            fired.append(("until", sim.now, sim.processed))
        else:
            sim.run(until=sim.now + rng.choice(DELAYS),
                    max_events=rng.randint(1, 4))
            fired.append(("both", sim.now, sim.processed))
        tag += 1
    sim.run()
    return fired, sim.processed, sim.now, sim.pending


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("make_sim", [
    Simulator,
    lambda: Simulator(bucket_width=7e-6, span=4),
    lambda: Simulator(bucket_width=10.0),
], ids=["default", "narrow", "wide"])
def test_compiled_loop_matches_python_loop(seed, make_sim, monkeypatch):
    """The compiled event loop pops exactly what the Python loop pops,
    at the same clock and count, through cancels, in-callback halts,
    ``until=`` and ``max_events=`` bounds."""
    if _native.opcycle is None:
        pytest.skip("compiled op cycle unavailable")
    compiled = drive_with_halts(make_sim, seed)
    monkeypatch.setattr(_native, "opcycle", None)
    assert drive_with_halts(make_sim, seed) == compiled
    assert drive_with_halts(HeapSimulator, seed) == compiled


def test_calendar_matches_heap_on_each_core(op_core):
    for seed in range(4):
        assert drive_with_halts(Simulator, seed) == \
            drive_with_halts(HeapSimulator, seed)
