"""Property suite: the compiled event loop pops exactly what the
Python loop pops.

Seeded interleavings of schedule / cancel / reschedule / partial-run /
run-until operations — plus, in a second driver, ``halt()`` and
follow-up schedules fired from inside callbacks — run once through the
compiled loop (:mod:`repro.sim._native`) and once through
:meth:`Simulator.run`'s Python loop, its reference.  The full firing
transcript, the processed counter and the final clock must match
exactly.
"""

import random

import pytest

from repro.sim import _native
from repro.sim.kernel import Simulator

#: Delay menu [s]: same-instant, sub-microsecond-apart, the NAND
#: latency quanta (read slot, LSB program, MSB program, erase), and
#: far-future timers.
DELAYS = (0.0, 1e-6, 40e-6, 50e-6, 499e-6, 500e-6, 501e-6,
          2e-3, 5e-3, 20e-3, 0.2)


def drive(seed, steps=400):
    """One seeded interleaving; returns the full observable transcript."""
    rng = random.Random(seed)
    sim = Simulator()
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


def on_python_loop(monkeypatch, driver, seed):
    """``driver(seed)`` with the compiled loop switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(_native, "opcycle", None)
        return driver(seed)


@pytest.fixture
def compiled_loop():
    if _native.opcycle is None:
        pytest.skip("compiled op cycle unavailable")


@pytest.mark.parametrize("seed", range(12))
def test_interleavings_match_python_loop(seed, compiled_loop,
                                         monkeypatch):
    """Schedules, cancels (of fired and cancelled handles too),
    cancel-then-reschedule, ``max_events`` and ``until`` runs."""
    assert drive(seed) == \
        on_python_loop(monkeypatch, drive, seed)


def test_halt_from_callback_drops_later_entries(op_core):
    """Halting from a callback abandons every queued event, near or
    far, and the kernel accepts a fresh schedule afterwards."""
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, "a")
    sim.schedule(2e-6, lambda: (fired.append("halt"), sim.halt()))
    sim.schedule(3e-6, fired.append, "never")
    sim.schedule(4e-3, fired.append, "never-far")
    sim.run()
    sim.schedule(5e-6, fired.append, "rebooted")
    sim.run()
    assert (fired, sim.processed, sim.pending) == \
        (["a", "halt", "rebooted"], 3, 0)


def drive_with_halts(seed, steps=400):
    """:func:`drive` plus callbacks that halt the queue (a power cut)
    or schedule follow-ups from inside the loop; returns the firing
    transcript with the clock after every run call."""
    rng = random.Random(seed)
    sim = Simulator()
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
def test_compiled_loop_matches_python_loop(seed, compiled_loop,
                                           monkeypatch):
    """The compiled event loop pops exactly what the Python loop pops,
    at the same clock and count, through cancels, in-callback halts,
    ``until=`` and ``max_events=`` bounds."""
    assert drive_with_halts(seed) == \
        on_python_loop(monkeypatch, drive_with_halts, seed)
