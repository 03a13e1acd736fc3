"""Stateful phase-structured workload generation.

A :class:`WorkloadScenario` describes a workload the way trace
generators such as nandseqgen do: an explicit **phase schedule**
(fill / steady / burst / idle-GC-window), and per phase a small
**probability table** over op kind, request size and address locality.
Sampling is *state-conditioned* — a sequential draw continues from the
stream's previous op, a re-read draw targets a recently written page —
so the emitted sequence has the temporal structure (hot/cold split,
fsync storms, idle windows) that steady-state GC evaluation needs and
that memoryless samplers cannot express.

Generation is lazy and per-stream seeded: stream ``i`` draws from
``default_rng(scenario_seed(seed, name, i))``, so the sequence is
deterministic across processes and independent of how many other
streams exist.  Nothing is materialized — a scenario with a billion
declared ops costs O(1) memory to iterate.

The Table-1 presets built on top of this live in
:mod:`repro.scenarios.presets`.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.scenarios.base import (
    CLOSED,
    Scenario,
    StreamOp,
    TenantBinding,
    register_spec_type,
    scenario_seed,
)
from repro.sim.queues import RequestKind
from repro.workloads.draws import Draws
from repro.workloads.zipf import ZipfSampler

#: Phase kinds (the schedule vocabulary).
PHASE_KINDS = ("fill", "steady", "burst", "idle")

#: How many recent writes a stream remembers for ``read_recent`` draws.
RECENT_WINDOW = 64


@dataclasses.dataclass(frozen=True)
class Phase:
    """One row of a scenario's phase schedule.

    A phase is a probability table plus a duration.  ``fill`` writes
    the stream's footprint slice once, sequentially; ``idle`` emits no
    ops but stretches the previous op's think time (the GC window);
    ``steady`` and ``burst`` draw ``ops`` operations from the table.

    Attributes:
        name: phase label (tags every emitted op; trace-bus visible).
        kind: one of :data:`PHASE_KINDS`.
        ops: operations this phase draws across all streams
            (``steady``/``burst`` only).
        read_fraction: P(op is a read).
        npages: candidate request sizes in pages.
        npages_weights: selection weights (uniform when None).
        seq: P(op continues sequentially after the stream's last op).
        hot: P(op targets the scenario's hot region), given it did not
            continue sequentially or hit a recent write.
        zipf_s: skew exponent for cold-region addresses (0 = uniform).
        read_recent: P(a read targets one of the stream's recently
            written pages) — the mail-server re-read pattern.
        think: per-op think time (seconds).
        burst_len: ops per burst; the last op of each burst carries
            ``burst_idle`` instead of ``think`` (``burst`` only).
        burst_idle: inter-burst idle gap (seconds).
        idle: duration of an ``idle`` phase (seconds).
    """

    name: str
    kind: str = "steady"
    ops: int = 0
    read_fraction: float = 0.0
    npages: Tuple[int, ...] = (1,)
    npages_weights: Optional[Tuple[float, ...]] = None
    seq: float = 0.0
    hot: float = 0.0
    zipf_s: float = 0.0
    read_recent: float = 0.0
    think: float = 0.0
    burst_len: int = 0
    burst_idle: float = 0.0
    idle: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(
                f"phase {self.name!r}: kind must be one of "
                f"{PHASE_KINDS}, got {self.kind!r}")
        for field in ("read_fraction", "seq", "hot", "read_recent"):
            value = getattr(self, field)
            if not (0.0 <= value <= 1.0):
                raise ValueError(
                    f"phase {self.name!r}: {field} must be in [0, 1], "
                    f"got {value}")
        for field in ("think", "burst_idle", "zipf_s"):
            value = getattr(self, field)
            if not (0.0 <= value < math.inf):
                raise ValueError(
                    f"phase {self.name!r}: {field} must be finite and "
                    f"non-negative, got {value}")
        if not math.isfinite(self.idle):
            raise ValueError(
                f"phase {self.name!r}: idle must be finite, got "
                f"{self.idle}")
        if not self.npages or any(n <= 0 for n in self.npages):
            raise ValueError(
                f"phase {self.name!r}: npages must be positive sizes")
        if (self.npages_weights is not None
                and len(self.npages_weights) != len(self.npages)):
            raise ValueError(
                f"phase {self.name!r}: npages_weights must match "
                f"npages")
        if self.kind in ("steady", "burst") and self.ops <= 0:
            raise ValueError(
                f"phase {self.name!r}: a {self.kind} phase needs "
                f"ops > 0")
        if self.kind == "burst" and self.burst_len <= 0:
            raise ValueError(
                f"phase {self.name!r}: a burst phase needs "
                f"burst_len > 0")
        if self.kind == "idle" and self.idle <= 0.0:
            raise ValueError(
                f"phase {self.name!r}: an idle phase needs idle > 0")

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["npages"] = list(self.npages)
        if self.npages_weights is not None:
            data["npages_weights"] = list(self.npages_weights)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Phase":
        weights = data.get("npages_weights")
        return cls(
            name=str(data["name"]),
            kind=str(data.get("kind", "steady")),
            ops=int(data.get("ops", 0)),
            read_fraction=float(data.get("read_fraction", 0.0)),
            npages=tuple(int(n) for n in data.get("npages", (1,))),
            npages_weights=(None if weights is None
                            else tuple(float(w) for w in weights)),
            seq=float(data.get("seq", 0.0)),
            hot=float(data.get("hot", 0.0)),
            zipf_s=float(data.get("zipf_s", 0.0)),
            read_recent=float(data.get("read_recent", 0.0)),
            think=float(data.get("think", 0.0)),
            burst_len=int(data.get("burst_len", 0)),
            burst_idle=float(data.get("burst_idle", 0.0)),
            idle=float(data.get("idle", 0.0)),
        )


class WorkloadScenario(Scenario):
    """A seeded, phase-structured, multi-stream workload generator.

    Args:
        name: scenario name (reports, CSV metadata).
        footprint: logical pages the workload addresses.
        streams: closed-loop worker streams; phase op budgets are
            split across them (earlier streams get the remainder).
        phases: the schedule, executed in order by every stream.
        seed: base seed; each stream derives its own generator.
        hot_fraction: fraction of the footprint forming the hot
            region ``[0, hot_fraction * footprint)``; phase ``hot``
            probabilities target it.
        tenants: optional QoS bindings; consecutive stream index
            ranges map onto tenants in order, and their ``streams``
            fields must sum to ``streams``.
    """

    mode = CLOSED

    def __init__(self, name: str, footprint: int, streams: int,
                 phases: Tuple[Phase, ...], seed: int = 1,
                 hot_fraction: float = 0.2,
                 tenants: Tuple[TenantBinding, ...] = ()) -> None:
        if footprint <= 0:
            raise ValueError("footprint must be positive")
        if streams <= 0:
            raise ValueError("streams must be positive")
        if not phases:
            raise ValueError("a scenario needs at least one phase")
        if not (0.0 <= hot_fraction <= 1.0):
            raise ValueError("hot_fraction must be in [0, 1]")
        if tenants:
            declared = sum(b.streams for b in tenants)
            if declared != streams:
                raise ValueError(
                    f"tenant bindings declare {declared} streams, "
                    f"scenario has {streams}")
        self.name = name
        self._footprint = int(footprint)
        self._streams = int(streams)
        self.phases = tuple(phases)
        self.seed = int(seed)
        self.hot_fraction = float(hot_fraction)
        self._tenants = tuple(tenants)

    # -- declared shape ------------------------------------------------

    @property
    def footprint(self) -> int:
        return self._footprint

    @property
    def stream_count(self) -> int:
        return self._streams

    @property
    def total_ops(self) -> int:
        total = 0
        for phase in self.phases:
            if phase.kind == "fill":
                # each stream writes its slice in max-size requests
                size = max(phase.npages)
                for index in range(self._streams):
                    lo, hi = self._fill_slice(index)
                    total += -((lo - hi) // size)  # ceil division
            else:
                total += phase.ops
        return total

    def tenant_bindings(self) -> Tuple[TenantBinding, ...]:
        return self._tenants

    def declared_read_fraction(self) -> float:
        """Ops-weighted read fraction over the measured (non-fill)
        phases — the 'declared mix' the scenario_grid experiment
        checks measured traffic against."""
        weight = sum(p.ops for p in self.phases
                     if p.kind in ("steady", "burst"))
        if weight == 0:
            return 0.0
        return sum(p.ops * p.read_fraction for p in self.phases
                   if p.kind in ("steady", "burst")) / weight

    # -- generation ----------------------------------------------------

    def _tenant_of(self, stream: int) -> Optional[str]:
        first = 0
        for binding in self._tenants:
            if stream < first + binding.streams:
                return binding.name
            first += binding.streams
        return None

    def _fill_slice(self, stream: int) -> Tuple[int, int]:
        """The contiguous footprint slice stream ``stream`` fills."""
        base = self._footprint // self._streams
        extra = self._footprint % self._streams
        lo = stream * base + min(stream, extra)
        hi = lo + base + (1 if stream < extra else 0)
        return lo, hi

    def _stream_share(self, ops: int, stream: int) -> int:
        """Stream ``stream``'s share of a phase's op budget."""
        base = ops // self._streams
        return base + (1 if stream < ops % self._streams else 0)

    def _stream_ops(self, index: int) -> Iterator[StreamOp]:
        """Lazily generate one stream's full op sequence.

        Holds a one-op lookahead so an ``idle`` phase can stretch the
        think time of the op *preceding* the window.  Every draw goes
        through one :class:`~repro.workloads.draws.Draws`, in a fixed
        per-op order: the kind, the request size (multi-size phases),
        then the first page — sequential continuation, recent re-read,
        hot region, cold region, each tried only when the previous one
        was not taken.
        """
        draws = Draws(np.random.default_rng(
            scenario_seed(self.seed, "scenario", self.name, index)))
        random, integers = draws.random, draws.integers
        read, write = RequestKind.READ, RequestKind.WRITE
        tenant = self._tenant_of(index)
        footprint = self._footprint
        hot_span = int(footprint * self.hot_fraction)
        # Cold draws cover the whole cold region regardless of request
        # size (npages is clamped at the footprint edge), so one
        # sampler per phase name suffices even with mixed sizes.
        cold_lo = hot_span if hot_span < footprint else 0
        cold_n = max(1, footprint - cold_lo)
        recent: deque = deque(maxlen=RECENT_WINDOW)
        last_end: Optional[int] = None
        pending: Optional[StreamOp] = None
        cold_samplers: Dict[str, ZipfSampler] = {}

        for phase in self.phases:
            name = phase.name
            if phase.kind == "idle":
                if pending is not None:
                    pending.think_after += phase.idle
                continue

            if phase.kind == "fill":
                lo, hi = self._fill_slice(index)
                size = max(phase.npages)
                lpn = lo
                while lpn < hi:
                    npages = min(size, hi - lpn)
                    op = StreamOp(write, lpn, npages, phase.think, None,
                                  index, tenant, name)
                    if pending is not None:
                        yield pending
                    pending = op
                    last_end = lpn + npages
                    lpn += npages
                continue

            count = self._stream_share(phase.ops, index)
            read_fraction = phase.read_fraction
            sizes = phase.npages
            size = sizes[0] if len(sizes) == 1 else 0
            weights = None
            if not size and phase.npages_weights is not None:
                weights = np.asarray(phase.npages_weights, dtype=float)
                weights = weights / weights.sum()
                choices = np.asarray(sizes)
            seq = phase.seq
            read_recent = phase.read_recent
            hot = phase.hot if hot_span > 0 else 0.0
            think = phase.think
            burst_len = phase.burst_len if phase.kind == "burst" else 0
            burst_idle = phase.burst_idle
            zipf = phase.zipf_s > 0.0
            cdf = perm = None
            for position in range(count):
                kind = read if random() < read_fraction else write
                if size:
                    npages = size
                elif weights is None:
                    npages = sizes[integers(0, len(sizes))]
                else:
                    npages = int(draws.choice(choices, p=weights))
                if (seq > 0.0 and last_end is not None
                        and random() < seq):
                    lpn = last_end if last_end + npages <= footprint else 0
                elif (kind is read and read_recent > 0.0 and recent
                        and random() < read_recent):
                    lpn = recent[integers(0, len(recent))]
                elif hot > 0.0 and random() < hot:
                    lpn = integers(0, max(1, hot_span - npages + 1))
                elif zipf:
                    if cdf is None:
                        sampler = cold_samplers.get(name)
                        if sampler is None:
                            sampler = ZipfSampler(cold_n, phase.zipf_s,
                                                  draws)
                            cold_samplers[name] = sampler
                        cdf, perm = sampler.cdf, sampler.perm
                        last = sampler.n - 1
                    # ranks above ``last`` clamp to it (as min() would)
                    lpn = cold_lo + perm[bisect_left(cdf, random(), 0,
                                                     last)]
                else:
                    lpn = cold_lo + integers(0, cold_n)
                if lpn + npages > footprint:
                    npages = footprint - lpn
                op_think = think
                if burst_len:
                    last_of_burst = (position % burst_len == burst_len - 1
                                     or position == count - 1)
                    op_think = burst_idle if last_of_burst else 0.0
                op = StreamOp(kind, lpn, npages, op_think, None, index,
                              tenant, name)
                if kind is write:
                    recent.append(lpn)
                last_end = lpn + npages
                if pending is not None:
                    yield pending
                pending = op

        if pending is not None:
            yield pending

    # -- lazy views ----------------------------------------------------

    def op_streams(self) -> List[Iterator[StreamOp]]:
        return [self._stream_ops(i) for i in range(self._streams)]

    # -- serialization -------------------------------------------------

    def spec(self) -> Dict[str, Any]:
        return {
            "type": "workload",
            "name": self.name,
            "footprint": self._footprint,
            "streams": self._streams,
            "seed": self.seed,
            "hot_fraction": self.hot_fraction,
            "phases": [phase.to_dict() for phase in self.phases],
            "tenants": [binding.to_dict() for binding in self._tenants],
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "WorkloadScenario":
        return cls(
            name=str(spec["name"]),
            footprint=int(spec["footprint"]),
            streams=int(spec["streams"]),
            phases=tuple(Phase.from_dict(p) for p in spec["phases"]),
            seed=int(spec.get("seed", 1)),
            hot_fraction=float(spec.get("hot_fraction", 0.2)),
            tenants=tuple(TenantBinding.from_dict(b)
                          for b in spec.get("tenants", ())),
        )

    # -- reporting -----------------------------------------------------

    def phase_table(self) -> str:
        """Render the schedule as an aligned text table."""
        header = (f"{'phase':12s} {'kind':7s} {'ops':>8s} {'read':>5s} "
                  f"{'npages':>8s} {'seq':>5s} {'hot':>5s} "
                  f"{'zipf':>5s} {'think/idle':>11s}")
        rows = [header, "-" * len(header)]
        for p in self.phases:
            sizes = "/".join(str(n) for n in p.npages)
            duration = p.idle if p.kind == "idle" else (
                p.burst_idle if p.kind == "burst" else p.think)
            rows.append(
                f"{p.name:12s} {p.kind:7s} {p.ops:>8d} "
                f"{p.read_fraction:>5.2f} {sizes:>8s} {p.seq:>5.2f} "
                f"{p.hot:>5.2f} {p.zipf_s:>5.2f} {duration:>11.4f}")
        return "\n".join(rows)


register_spec_type("workload", WorkloadScenario.from_spec)
