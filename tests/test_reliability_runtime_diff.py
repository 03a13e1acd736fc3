"""Differential tests: runtime physics engine vs the offline oracle.

The runtime engine (:mod:`repro.reliability.physics`) tracks aggressor
counts, retention clocks and read-disturb counters *incrementally* as
ops complete; the offline oracle recomputes the same quantities from
scratch out of each block's recorded program history
(:func:`oracle_page_state` / :func:`oracle_read_probability`, built on
the Monte-Carlo modules' :func:`aggressor_counts` and the shared
closed-form BER).  These tests pin the two implementations together
with **exact** equality — same floats, not approximations — because
both sides call the same model functions and any divergence means the
incremental bookkeeping drifted from the recorded truth.

Also here:

* cross-core determinism — an armed physics run serializes to the
  same pinned digest on the compiled op cycle and the pure-Python
  path (the engine's RNG is consumed in completion order, which both
  retire identically);
* Monte-Carlo convergence — the closed form the runtime samples from
  agrees with the mean of many seeded Monte-Carlo page draws, at the
  unshifted references and at a retry-ladder shift.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.rps import fps_order, random_rps_order
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    build_system,
    experiment_span,
    run_workload,
)
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.reliability.ber import (
    OperatingCondition,
    expected_page_ber,
    page_bit_error_rate,
)
from repro.reliability.interference import aggressor_counts
from repro.reliability.physics import (
    PhysicsConfig,
    PhysicsEngine,
    oracle_page_state,
    oracle_read_probability,
)
from repro.scenarios.presets import make_preset
from repro.sim.host import ClosedLoopHost
from repro.workloads.benchmarks import ProfileScenario
from repro.workloads.synthetic import sequential_fill

WORDLINES = 16

#: Small device for the live-system differential runs.
GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)

ORDER_SEEDS = range(25)


def _orders(seed):
    rng = random.Random(seed)
    return [fps_order(WORDLINES), random_rps_order(WORDLINES, rng)]


@pytest.mark.parametrize("seed", ORDER_SEEDS)
def test_incremental_aggressors_match_oracle(seed):
    """note_program() tracks exactly what aggressor_counts() recomputes.

    Checked at *every prefix* of FPS and random-RPS fills, not just at
    the full block: the runtime engine answers reads mid-fill.
    """
    for order in _orders(seed):
        engine = PhysicsEngine(PhysicsConfig())
        for length, page in enumerate(order, start=1):
            engine.note_program(0, 0, page, now=0.0)
            history = order[:length]
            counts = aggressor_counts(history, WORDLINES)
            tracked = engine.block_aggressors(0, 0)
            for wordline in range(WORDLINES):
                aggr, finalized = oracle_page_state(
                    history, WORDLINES, 2 * wordline + 1)
                if finalized:
                    assert tracked[wordline] == counts[wordline] == aggr
                else:
                    assert wordline not in tracked
                    assert aggr == 0


def test_erase_resets_engine_state():
    engine = PhysicsEngine(PhysicsConfig())
    for page in fps_order(WORDLINES):
        engine.note_program(0, 3, page, now=0.0)
    assert engine.block_aggressors(0, 3)
    engine.note_erase(0, 3)
    assert engine.block_aggressors(0, 3) == {}
    # Reprogramming after the erase starts from a clean slate.
    engine.note_program(0, 3, 0, now=1.0)
    assert engine.block_aggressors(0, 3) == {}


@pytest.mark.parametrize("seed", range(8))
def test_sampled_read_matches_oracle_probability(seed):
    """on_read()'s (ber, pfail) equals the oracle's, float for float.

    A real NAND block is programmed with a random RPS order (so the
    recorded history exists), the engine binds and primes from it, and
    every page's sampled outcome is recomputed from the history alone.
    """
    from repro.nand.array import NandArray
    from repro.nand.page_types import PageType
    from repro.nand.sequence import SequenceScheme

    geometry = NandGeometry(channels=1, chips_per_channel=1,
                            blocks_per_chip=2,
                            pages_per_block=2 * WORDLINES,
                            page_size=2048)
    array = NandArray(geometry, scheme=SequenceScheme.RPS,
                      track_history=True)
    order = random_rps_order(WORDLINES, random.Random(seed))
    for page in order:
        ptype = PageType.MSB if page & 1 else PageType.LSB
        array.program(PhysicalPageAddress(0, 0, 0, page), ptype)

    config = PhysicsConfig(seed=seed, pe_baseline=3000,
                           retention_baseline_hours=8760.0)
    engine = PhysicsEngine(config)
    engine.bind(array, now=0.0)
    history = list(array.chips[0].blocks[0].program_history)
    assert history == order

    for reads_so_far, page in enumerate(order):
        outcome = engine.on_read(0, 0, page, now=0.0, sample=True)
        # Mirror the engine's quantisation (primed pages carry
        # prog_reads=0, so disturbs == reads absorbed so far).
        dist_q = ((reads_so_far // config.disturb_quantum)
                  * config.disturb_quantum)
        ber, pfail = oracle_read_probability(
            history, WORDLINES, page,
            pe_cycles=3000,
            retention_hours=8760.0,
            read_disturbs=dist_q,
            config=config,
            page_size=geometry.page_size,
        )
        assert outcome.ber == ber
        assert outcome.probability == pfail


def test_live_run_aggressors_match_recorded_histories():
    """After a full simulated workload (warmup, GC, erases), every
    block's incremental aggressor state equals the oracle recomputation
    from its recorded program history."""
    _check_live_run_aggressors()


def test_live_run_aggressors_match_oracle_on_each_core(op_core):
    _check_live_run_aggressors()


def _check_live_run_aggressors():
    config = ExperimentConfig(geometry=GEOMETRY, track_history=True)
    sim, array, _buffer, ftl, controller = build_system("flexFTL",
                                                        config)
    span = max(1, int(ftl.logical_pages * 0.6))
    warm = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    warm.start()
    sim.run()

    engine = PhysicsEngine(PhysicsConfig())
    controller.attach_physics(engine)
    scenario = ProfileScenario("NTRX", span, total_ops=600, seed=3)
    host = ClosedLoopHost(sim, controller, scenario.op_streams())
    host.start()
    sim.run()

    wordlines = GEOMETRY.pages_per_block // 2
    blocks_checked = 0
    for chip_id, chip in enumerate(array.chips):
        for block_id, blk in enumerate(chip.blocks):
            history = list(blk.program_history)
            tracked = engine.block_aggressors(chip_id, block_id)
            if not history:
                assert tracked == {}
                continue
            counts = aggressor_counts(history, wordlines)
            expected = {
                wl: counts[wl] for wl in range(wordlines)
                if (2 * wl + 1) in history
            }
            assert tracked == expected
            blocks_checked += 1
    assert blocks_checked > 0


def _physics_run(retention_hours_per_second=0.0):
    config = ExperimentConfig(geometry=GEOMETRY, track_history=True)
    span = experiment_span(config, utilization=0.6, ftls=["flexFTL"])
    scenario = make_preset("hot_rewrite", span, 400, seed=11)
    physics = PhysicsConfig(
        seed=5, pe_baseline=6000, retention_baseline_hours=8760.0,
        retention_hours_per_second=retention_hours_per_second)
    data = run_workload(ftl_name="flexFTL", scenario=scenario,
                        physics=physics, config=config).to_dict()
    # The pinned digest below predates the physics section of
    # RunResult: hash the same {"run": ..., "physics": ...} layout.
    physics_summary = data.pop("physics")
    return json.dumps({"run": data, "physics": physics_summary},
                      sort_keys=True)


#: sha256 of the armed run's serialized result, pinned from the
#: pure-Python op path before the compiled one existed.
PHYSICS_RUN_SHA256 = ("a1f5e354921ca90087884829bdad96a2"
                      "a7a276a7fb1cdd2f87896e9b08515603")


def test_physics_run_pinned_on_each_core(op_core):
    """The armed run is byte-identical on both op paths."""
    digest = hashlib.sha256(_physics_run().encode()).hexdigest()
    assert digest == PHYSICS_RUN_SHA256


#: Time acceleration of the running-clock pin: the measured phase
#: spans about 29 simulated milliseconds, so a page ages by up to about
#: 29,000 hours between program and read and the quantised retention
#: age varies per read.
RUNNING_CLOCK_HOURS_PER_SECOND = 1e6

#: sha256 of the same armed run with the retention clock running
#: (``retention_hours_per_second > 0``), the branch where every page's
#: program time feeds its read's retention age.
PHYSICS_RUNNING_CLOCK_SHA256 = ("6f69a01468b27058f09ad29efc41c6a8"
                                "4ac67e7256870c76a305c608c25db1ca")


def test_physics_running_clock_pinned_on_each_core(op_core):
    """The running-clock run is byte-identical on both op paths, and
    differs from the frozen-clock run."""
    text = _physics_run(RUNNING_CLOCK_HOURS_PER_SECOND)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest != PHYSICS_RUN_SHA256
    assert digest == PHYSICS_RUNNING_CLOCK_SHA256


def test_physics_result_roundtrip():
    config = ExperimentConfig(geometry=GEOMETRY, track_history=True)
    span = experiment_span(config, utilization=0.6, ftls=["pageFTL"])
    scenario = make_preset("cold_aging", span, 300, seed=2)
    result = run_workload(
        ftl_name="pageFTL", scenario=scenario,
        physics=PhysicsConfig(seed=9, pe_baseline=3000,
                              retention_baseline_hours=8760.0),
        config=config)
    assert result.physics["reads_sampled"] > 0
    restored = RunResult.from_dict(result.to_dict())
    assert json.dumps(restored.to_dict(), sort_keys=True) == \
        json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("ref_shift", [0.0, -0.08])
def test_montecarlo_converges_to_closed_form(ref_shift):
    """The closed form the runtime samples from is the Monte-Carlo
    model's mean, including under a retry-ladder reference shift."""
    condition = OperatingCondition(pe_cycles=6000,
                                   retention_hours=8760.0)
    aggressors = 3
    expected = expected_page_ber(aggressors, condition,
                                 ref_shift=ref_shift)
    samples = [
        page_bit_error_rate(aggressors, condition,
                            rng=np.random.default_rng(seed),
                            ref_shift=ref_shift)
        for seed in range(40)
    ]
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / np.sqrt(len(samples))
    assert expected > 0.0
    assert abs(mean - expected) < 6.0 * max(se, 1e-9), (
        f"MC mean {mean:.3e} vs closed form {expected:.3e} "
        f"(se {se:.2e}, shift {ref_shift})")
