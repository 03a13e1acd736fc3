"""Runtime physics-grounded error engine.

Turns the offline reliability models (:mod:`repro.reliability.vth`,
:mod:`repro.reliability.ber`, :mod:`repro.reliability.interference`,
:mod:`repro.reliability.ecc`) into a live, default-off error source for
the simulator: every host read samples a bit-error outcome from the
closed-form BER of the page's *actual* history — the aggressor programs
its word line absorbed under the FTL's real in-block program order, the
block's P/E cycle count, the sim-time elapsed since the page was
programmed (retention), and the reads the block absorbed since then
(read disturb).  RPS vs FPS ordering therefore modulates error rates
end to end, which is the paper's fig4 lifetime argument made emergent.

Error recovery is a voltage-shift read-retry ladder (arXiv:2209.01424):
each retry re-reads at a shifted reference voltage and re-evaluates the
BER at that shift, escalating to a stronger soft-decision ECC mode and
finally to parity reconstruction.  The controller charges latency per
rung actually attempted.

Determinism contract: one ``random.Random(seed)`` stream, consumed only
on sampled (host) reads, in completion order — which both op cores
retire identically — so results are byte-identical across op cores
and across process boundaries.
The engine is default-off: nothing in this module runs unless a
:class:`PhysicsEngine` is attached to the controller.  Building one
loads scipy's compiled binomial tail (:mod:`scipy.special`, through
:func:`repro.reliability.ecc.binom_sf`), so the import lands in
set-up; :mod:`scipy.stats` is never loaded.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.nand.page_types import PageType, page_index
from repro.reliability.ber import (
    OperatingCondition,
    StressModel,
    expected_page_ber,
)
from repro.reliability.ecc import (
    EccConfig,
    binom_sf,
    page_failure_probability,
)
from repro.reliability.interference import aggressor_counts
from repro.reliability.vth import MlcVthModel


def _is_finite_number(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _reject_unknown_keys(cls: type, data: dict) -> None:
    known = {field.name for field in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown {cls.__name__} key {key!r}")


@dataclasses.dataclass(frozen=True)
class PhysicsConfig:
    """Configuration of the runtime error engine.

    Attributes:
        seed: seed of the engine's dedicated RNG stream.
        pe_baseline: P/E cycles assumed already endured before the
            simulation starts (added to each block's live erase count),
            so short runs can be evaluated at end-of-life wear.
        retention_baseline_hours: retention age assumed for every page
            on top of its in-simulation age — models a device read
            after sitting on a shelf.
        retention_hours_per_second: scale factor from simulated seconds
            to retention hours (time acceleration).  Zero freezes the
            retention clock at the baseline.
        retention_quantum_hours: retention ages are bucketed to this
            quantum before the BER lookup, bounding the memo table.
        disturb_quantum: read-disturb counts are bucketed likewise.
        ecc_escalated_bits: correctable bits of the escalated
            (soft-decision) ECC mode the ladder falls back to after the
            voltage shifts are exhausted.
        ecc_escalation_reads: extra page reads the escalated ECC mode
            costs (soft sensing needs multiple strobes).
        retry_shifts: read-reference shifts tried in order by the retry
            ladder.  Signs alternate because the two dominant stresses
            move Vth in opposite directions: retention drifts
            programmed states left (negative shift recovers), while
            aggressor coupling pushes right (positive shift recovers).
        model: Vth model shared with the Monte-Carlo oracle.
        stress: stress-translation coefficients shared with the oracle.
        ecc: baseline hard-decision ECC capability.
    """

    seed: int = 20417
    pe_baseline: int = 0
    retention_baseline_hours: float = 0.0
    retention_hours_per_second: float = 0.0
    retention_quantum_hours: float = 1.0
    disturb_quantum: int = 64
    ecc_escalated_bits: int = 72
    ecc_escalation_reads: int = 3
    retry_shifts: Tuple[float, ...] = (-0.04, 0.08, -0.08, 0.16)
    model: MlcVthModel = dataclasses.field(default_factory=MlcVthModel)
    stress: StressModel = dataclasses.field(default_factory=StressModel)
    ecc: EccConfig = dataclasses.field(default_factory=EccConfig)

    def __post_init__(self) -> None:
        for name in ("seed", "pe_baseline", "disturb_quantum",
                     "ecc_escalated_bits", "ecc_escalation_reads"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("retention_baseline_hours", "retention_hours_per_second",
                     "retention_quantum_hours"):
            if not _is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got "
                                 f"{getattr(self, name)!r}")
        for shift in self.retry_shifts:
            if not _is_finite_number(shift):
                raise ValueError(f"retry_shifts must be finite numbers, "
                                 f"got {shift!r}")
        if self.pe_baseline < 0:
            raise ValueError("pe_baseline must be non-negative")
        if self.retention_baseline_hours < 0:
            raise ValueError("retention_baseline_hours must be non-negative")
        if self.retention_hours_per_second < 0:
            raise ValueError("retention_hours_per_second must be "
                             "non-negative")
        if self.retention_quantum_hours <= 0:
            raise ValueError("retention_quantum_hours must be positive")
        if self.disturb_quantum <= 0:
            raise ValueError("disturb_quantum must be positive")
        if self.ecc_escalated_bits <= self.ecc.correctable_bits:
            raise ValueError("ecc_escalated_bits must exceed the baseline "
                             "ECC capability")
        if self.ecc_escalation_reads < 0:
            raise ValueError("ecc_escalation_reads must be non-negative")

    def to_dict(self) -> dict:
        """Serialize (JSON-compatible; inverse of :meth:`from_dict`)."""
        data = dataclasses.asdict(self)
        data["retry_shifts"] = list(self.retry_shifts)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PhysicsConfig":
        """Reconstruct a config serialized by :meth:`to_dict`."""
        kwargs = dict(data)
        _reject_unknown_keys(cls, kwargs)
        shifts = kwargs.get("retry_shifts", ())
        if not isinstance(shifts, (list, tuple)):
            raise ValueError(f"retry_shifts must be a list of numbers, "
                             f"got {shifts!r}")
        kwargs["retry_shifts"] = tuple(shifts)
        for key, factory in (("model", MlcVthModel), ("stress", StressModel),
                             ("ecc", EccConfig)):
            value = kwargs.get(key)
            if isinstance(value, dict):
                nested = dict(value)
                _reject_unknown_keys(factory, nested)
                for tup in ("state_centers", "read_refs", "width_quantiles"):
                    if tup in nested:
                        nested[tup] = tuple(nested[tup])
                kwargs[key] = factory(**nested)
        return cls(**kwargs)


@dataclasses.dataclass(slots=True)
class ReadOutcome:
    """Result of sampling one host read against the physics model.

    Attributes:
        ber: rung-0 (unshifted) expected raw BER of the read.
        probability: rung-0 page ECC-failure probability.
        error: whether the baseline read + hard ECC failed.
        shifts_tried: voltage-shift rungs attempted (0 when no error).
        recovered_shift: the reference shift that recovered the read,
            or None.
        ecc_escalated: whether the soft-decision ECC mode was invoked.
        uncorrectable: whether the ladder was exhausted (the controller
            then tries parity reconstruction).
        best_ber: lowest BER seen across the rungs attempted.
    """

    ber: float
    probability: float
    error: bool = False
    shifts_tried: int = 0
    recovered_shift: Optional[float] = None
    ecc_escalated: bool = False
    uncorrectable: bool = False
    best_ber: float = 0.0


class _BlockState:
    """Per-(chip, block) program-order and read bookkeeping.

    ``agg`` holds a key exactly for each word line whose MSB page is
    programmed (its finalised state), so ``wl in agg`` is the
    finalised test.  ``prog_time`` is only filled while the retention
    clock runs; with it frozen every page has the same age.
    """

    __slots__ = ("agg", "prog_time", "prog_reads", "reads")

    def __init__(self) -> None:
        self.agg: Dict[int, int] = {}       # finalised WL -> aggressors
        self.prog_time: Dict[int, float] = {}   # page -> program sim-time
        self.prog_reads: Dict[int, int] = {}    # page -> block reads then
        self.reads = 0                      # block reads since erase


class PhysicsEngine:
    """Samples physics-grounded read errors from live device state.

    Attach with :meth:`repro.sim.controller.Controller.attach_physics`
    after warmup; :meth:`prime` replays each block's recorded program
    history (``track_history=True`` required) so warmup-written pages
    carry their true aggressor counts into the measured phase.
    """

    def __init__(self, config: Optional[PhysicsConfig] = None) -> None:
        self.config = config or PhysicsConfig()
        cfg = self.config
        # Import scipy.special now, so a memo miss in a measured phase
        # never pays for it.
        binom_sf()
        self._rng = random.Random(cfg.seed)
        self._array = None
        self._page_size = 4096
        # Keyed by one int per block, ``(chip_id << 32) | block_id``.
        self._blocks: Dict[int, _BlockState] = {}
        self._memo: Dict[tuple, Tuple[float, float]] = {}
        # Rung-0 (unshifted, hard-decision) reads keyed by
        # (aggr, pe, age_q, dist_q, page & 1, finalized).
        self._clean: Dict[tuple, Tuple[float, float]] = {}
        self._clock_running = cfg.retention_hours_per_second > 0.0
        q = cfg.retention_quantum_hours
        # The quantised retention age of every read while the clock is
        # frozen.
        self._frozen_age_q = math.floor(cfg.retention_baseline_hours / q) * q
        self._ecc_escalated = EccConfig(
            codeword_bytes=cfg.ecc.codeword_bytes,
            correctable_bits=cfg.ecc_escalated_bits,
        )
        # Summary counters (updated in deterministic completion order).
        self.reads_sampled = 0
        self.ber_sum = 0.0
        self.max_ber = 0.0
        self.read_errors = 0
        self.shift_retries = 0
        self.shift_recoveries = 0
        self.ecc_escalations = 0
        self.ecc_recoveries = 0
        self.uncorrectable = 0
        self.first_error_read: Optional[int] = None
        self.first_uncorrectable_read: Optional[int] = None

    # ------------------------------------------------------------------
    # attachment / history replay

    def bind(self, array, now: float) -> None:
        """Bind to the NAND array and replay recorded program history."""
        self._array = array
        self._page_size = array.geometry.page_size
        self.prime(now)

    def prime(self, now: float) -> None:
        """Replay ``block.program_history`` into the engine's state.

        Pages programmed before attachment get their true aggressor
        counts but a retention age of zero at ``now`` (their program
        timestamps were not observed).
        """
        if self._array is None:
            raise RuntimeError("bind() the engine to an array first")
        note_program = self.note_program
        for chip_id, chip in enumerate(self._array.chips):
            for block_id, blk in enumerate(chip.blocks):
                for page in blk.program_history:
                    note_program(chip_id, block_id, page, now)

    # ------------------------------------------------------------------
    # bookkeeping hooks (called by the controller on op completion)

    def note_program(self, chip_id: int, block_id: int, page: int,
                     now: float) -> None:
        """Record a page program: aggressor counts + retention clock."""
        key = (chip_id << 32) | block_id
        st = self._blocks.get(key)
        if st is None:
            st = self._blocks[key] = _BlockState()
        agg = st.agg
        wl = page >> 1
        # This program is an aggressor for any finalised neighbour.
        if wl - 1 in agg:
            agg[wl - 1] += 1
        if wl + 1 in agg:
            agg[wl + 1] += 1
        if page & 1:
            agg.setdefault(wl, 0)
        if self._clock_running:
            st.prog_time[page] = now
        st.prog_reads[page] = st.reads

    def note_erase(self, chip_id: int, block_id: int) -> None:
        """Reset a block's physics state on erase."""
        self._blocks.pop((chip_id << 32) | block_id, None)

    # ------------------------------------------------------------------
    # read sampling

    def on_read(self, chip_id: int, block_id: int, page: int, now: float,
                *, sample: bool = True) -> Optional[ReadOutcome]:
        """Account one read; when ``sample``, draw an error outcome.

        Every read (host, GC, parity backup) advances the block's
        read-disturb counter; only host reads are sampled for errors —
        internal relocation reads go through the same ECC but their
        failures surface as host-visible effects elsewhere, and keeping
        the RNG stream host-only makes outcomes independent of GC
        scheduling details.
        """
        key = (chip_id << 32) | block_id
        st = self._blocks.get(key)
        if st is None:
            st = self._blocks[key] = _BlockState()
        reads = st.reads
        disturbs = reads - st.prog_reads.get(page, reads)
        st.reads = reads + 1
        if not sample:
            return None

        cfg = self.config
        wl = page >> 1
        agg = st.agg
        # Aggressor coupling is defined relative to the final (MSB-
        # programmed) state; unfinalised LSB pages read binary with
        # SLC-like margins instead.
        finalized = wl in agg
        aggr = agg[wl] if finalized else 0
        blk = self._array.chips[chip_id].blocks[block_id]
        pe = cfg.pe_baseline + blk.erase_count
        if self._clock_running:
            age = cfg.retention_baseline_hours
            prog_t = st.prog_time.get(page)
            if prog_t is not None:
                age += (now - prog_t) * cfg.retention_hours_per_second
            q = cfg.retention_quantum_hours
            age_q = math.floor(age / q) * q
        else:
            age_q = self._frozen_age_q
        quantum = cfg.disturb_quantum
        dist_q = (disturbs // quantum) * quantum
        msb = page & 1

        clean_key = (aggr, pe, age_q, dist_q, msb, finalized)
        probs = self._clean.get(clean_key)
        if probs is None:
            probs = self._clean[clean_key] = self._probabilities(
                aggr, pe, age_q, dist_q, "msb" if msb else "lsb",
                finalized, 0.0, False)
        ber, pfail = probs
        self.reads_sampled += 1
        self.ber_sum += ber
        if ber > self.max_ber:
            self.max_ber = ber
        if self._rng.random() >= pfail:
            return ReadOutcome(ber, pfail, False, 0, None, False, False,
                               ber)
        return self._retry_ladder(ber, pfail, aggr, pe, age_q, dist_q,
                                  "msb" if msb else "lsb", finalized)

    def _retry_ladder(self, ber: float, pfail: float, aggr: int, pe: int,
                      age_q: float, dist_q: int, kind: str,
                      finalized: bool) -> ReadOutcome:
        """Walk the voltage-shift ladder after a failed rung-0 read."""
        cfg = self.config
        outcome = ReadOutcome(ber, pfail, True, 0, None, False, False, ber)
        self.read_errors += 1
        if self.first_error_read is None:
            self.first_error_read = self.reads_sampled
        best_ber = ber
        for shift in cfg.retry_shifts:
            outcome.shifts_tried += 1
            self.shift_retries += 1
            ber_s, p_s = self._probabilities(aggr, pe, age_q, dist_q, kind,
                                             finalized, shift, False)
            if ber_s < best_ber:
                best_ber = ber_s
            outcome.best_ber = best_ber
            if self._rng.random() >= p_s:
                outcome.recovered_shift = shift
                self.shift_recoveries += 1
                return outcome

        outcome.ecc_escalated = True
        self.ecc_escalations += 1
        # The controller re-reads at the best voltage found, then runs
        # the soft-decision ECC mode against that BER.
        _, p_esc = self._probabilities(aggr, pe, age_q, dist_q, kind,
                                       finalized, 0.0, True,
                                       ber_override=best_ber)
        if self._rng.random() >= p_esc:
            self.ecc_recoveries += 1
            return outcome

        outcome.uncorrectable = True
        self.uncorrectable += 1
        if self.first_uncorrectable_read is None:
            self.first_uncorrectable_read = self.reads_sampled
        return outcome

    def _probabilities(self, aggr: int, pe: int, age_hours: float,
                       disturbs: int, kind: str, finalized: bool,
                       ref_shift: float, escalated: bool,
                       ber_override: Optional[float] = None,
                       ) -> Tuple[float, float]:
        """Memoised (raw BER, page ECC-failure probability)."""
        key = (aggr, pe, age_hours, disturbs, kind, finalized, ref_shift,
               escalated, ber_override)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if ber_override is not None:
            ber = ber_override
        else:
            condition = OperatingCondition(
                pe_cycles=pe,
                retention_hours=age_hours,
                read_disturbs=disturbs,
            )
            ber = expected_page_ber(
                aggr, condition, self.config.model, self.config.stress,
                ref_shift=ref_shift, page=kind, finalized=finalized,
            )
        ecc = self._ecc_escalated if escalated else self.config.ecc
        pfail = page_failure_probability(ber, page_size=self._page_size,
                                         config=ecc)
        result = (ber, float(pfail))
        self._memo[key] = result
        return result

    # ------------------------------------------------------------------
    # inspection / reporting

    def block_aggressors(self, chip_id: int, block_id: int) -> Dict[int, int]:
        """Per-word-line aggressor counts of a block (finalised WLs only)."""
        st = self._blocks.get((chip_id << 32) | block_id)
        if st is None:
            return {}
        return dict(sorted(st.agg.items()))

    def mean_ber(self) -> float:
        """Mean rung-0 BER over all sampled reads."""
        if self.reads_sampled == 0:
            return 0.0
        return self.ber_sum / self.reads_sampled

    def summary(self) -> dict:
        """JSON-compatible summary of the engine's counters."""
        return {
            "reads_sampled": self.reads_sampled,
            "mean_ber": self.mean_ber(),
            "max_ber": self.max_ber,
            "read_errors": self.read_errors,
            "shift_retries": self.shift_retries,
            "shift_recoveries": self.shift_recoveries,
            "ecc_escalations": self.ecc_escalations,
            "ecc_recoveries": self.ecc_recoveries,
            "uncorrectable": self.uncorrectable,
            "first_error_read": self.first_error_read,
            "first_uncorrectable_read": self.first_uncorrectable_read,
        }


# ----------------------------------------------------------------------
# offline oracle (differential-test counterpart of the runtime engine)

def oracle_page_state(history: Sequence[int], wordlines: int,
                      page: int) -> Tuple[int, bool]:
    """(aggressor count, finalized) of a page from a program history.

    Recomputes, via :func:`repro.reliability.interference
    .aggressor_counts` over the block's *recorded* program history, the
    exact state the runtime engine tracks incrementally — the
    differential tests pin the two implementations together.
    """
    wl = page >> 1
    finalized = page_index(wl, PageType.MSB) in history
    if not finalized:
        return 0, False
    counts = aggressor_counts(history, wordlines)
    return counts[wl], True


def oracle_read_probability(
    history: Sequence[int], wordlines: int, page: int,
    *,
    pe_cycles: int,
    retention_hours: float,
    read_disturbs: int,
    config: Optional[PhysicsConfig] = None,
    ref_shift: float = 0.0,
    page_size: int = 4096,
) -> Tuple[float, float]:
    """(raw BER, page ECC-failure probability) recomputed from scratch.

    The offline mirror of :meth:`PhysicsEngine._probabilities`: same
    closed-form BER, same ECC model, but fed from the recorded program
    history rather than the engine's incremental counters.  Quantise
    ``retention_hours``/``read_disturbs`` with the engine's quanta
    before calling if comparing against a live engine.
    """
    config = config or PhysicsConfig()
    aggressors, finalized = oracle_page_state(history, wordlines, page)
    condition = OperatingCondition(
        pe_cycles=pe_cycles,
        retention_hours=retention_hours,
        read_disturbs=read_disturbs,
    )
    kind = "msb" if page & 1 else "lsb"
    ber = expected_page_ber(
        aggressors, condition, config.model, config.stress,
        ref_shift=ref_shift, page=kind, finalized=finalized,
    )
    pfail = page_failure_probability(ber, page_size=page_size,
                                     config=config.ecc)
    return ber, float(pfail)
