"""The Scenario abstraction: one front door for every workload source.

A :class:`Scenario` is a *lazy, seeded, iterator-based* source of
tagged host requests.  The measured run,
:func:`repro.experiments.runner.run_workload`, takes one via
``scenario=``, so the stateful phase generator
(:mod:`repro.scenarios.generator`), on-disk trace replay
(:mod:`repro.scenarios.csvio`) and the Table-1 benchmark profiles
(:class:`~repro.workloads.benchmarks.ProfileScenario`) drive a
simulated device through exactly the same code path.

Two delivery modes exist, one host each (:mod:`repro.sim.host`):

* ``closed`` — per-stream synchronous workers: each worker issues its
  next op only after the previous one completed (Sysbench/Filebench
  shape; see :class:`~repro.sim.host.ClosedLoopHost`).
* ``open`` — requests arrive at fixed trace timestamps regardless of
  device state (block-trace replay; see
  :class:`~repro.sim.host.TraceReplayHost`).

Every op a scenario yields is a :class:`~repro.sim.host.StreamOp`
carrying its scenario tags (stream, tenant, phase, and the open-loop
arrival time).

Every scenario serializes to a JSON-safe **spec** (:meth:`Scenario.
spec`), invertible via :func:`scenario_from_spec`.  The experiment
engine ships specs — not scenario objects — inside its
:class:`~repro.experiments.engine.Cell` parameters, which keeps cells
picklable, content-hashable and byte-identical across the serial,
parallel and cached execution paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.host import StreamOp
from repro.sim.queues import Request

#: Delivery modes (see the module docstring).
CLOSED = "closed"
OPEN = "open"


def scenario_seed(base_seed: int, *coords: object) -> int:
    """A stable per-stream seed from a base seed and coordinates.

    Same construction as :func:`repro.experiments.engine.derive_seed`
    (SHA-256 over the JSON-encoded coordinates) but defined here so the
    workload layer does not depend on the experiment engine.  Stable
    across processes and Python versions: a scenario generated on a
    pool worker is identical to one generated inline.
    """
    text = json.dumps([base_seed, [str(c) for c in coords]],
                      separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclasses.dataclass(frozen=True)
class TenantBinding:
    """How a slice of a scenario's streams maps onto a QoS tenant.

    Mirrors the contract fields of
    :class:`~repro.qos.host.TenantSpec`; the QoS runner copies them
    across when it builds tenant specs over a scenario's streams.
    """

    name: str
    streams: int
    weight: float = 1.0
    rate_pages_per_sec: Optional[float] = None
    read_slo: Optional[float] = None
    write_slo: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantBinding":
        return cls(
            name=str(data["name"]),
            streams=int(data["streams"]),
            weight=float(data.get("weight", 1.0)),
            rate_pages_per_sec=(
                None if data.get("rate_pages_per_sec") is None
                else float(data["rate_pages_per_sec"])),
            read_slo=(None if data.get("read_slo") is None
                      else float(data["read_slo"])),
            write_slo=(None if data.get("write_slo") is None
                       else float(data["write_slo"])),
        )


class Scenario:
    """Base class of every workload scenario.

    Subclasses must provide :attr:`name`, :attr:`mode`, :meth:`ops`
    and :meth:`spec`; closed-mode scenarios additionally
    :meth:`op_streams`, open-mode ones :meth:`requests`.  All views
    are *lazy*: iterating a scenario twice regenerates (or re-reads)
    it from scratch, and nothing requires the full op sequence in
    memory at once.
    """

    #: human-readable scenario name (appears in CSV meta and reports).
    name: str = "scenario"
    #: ``closed`` or ``open`` (module constants).
    mode: str = CLOSED

    # -- declared shape ------------------------------------------------

    @property
    def footprint(self) -> Optional[int]:
        """Logical pages the scenario touches (upper bound), or None
        when unknown (e.g. a foreign trace without metadata).  The
        runners precondition ``min(logical_pages, footprint)``."""
        return None

    @property
    def stream_count(self) -> Optional[int]:
        """Closed-loop worker streams, or None when unknown."""
        return None

    @property
    def total_ops(self) -> Optional[int]:
        """Declared operation count, or None when unknown."""
        return None

    def tenant_bindings(self) -> Tuple[TenantBinding, ...]:
        """Tenant contracts, in stream order (empty when untenanted)."""
        return ()

    # -- lazy views ----------------------------------------------------

    def ops(self) -> Iterator[StreamOp]:
        """The canonical tagged op sequence (lazy).

        For closed-mode scenarios this is the per-stream sequences
        interleaved round-robin (stream 0 first); CSV export writes
        this order and per-stream replay recovers the originals
        exactly.
        """
        return _round_robin(self.op_streams())

    def op_streams(self) -> List[Iterator[StreamOp]]:
        """One lazy op iterator per closed-loop worker stream."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support closed-loop "
            f"delivery")

    def requests(self) -> Iterator[Request]:
        """Open-loop arrivals, time-ordered (lazy)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support open-loop "
            f"delivery")

    # -- serialization -------------------------------------------------

    def spec(self) -> Dict[str, Any]:
        """JSON-safe spec, invertible via :func:`scenario_from_spec`."""
        raise NotImplementedError

    # -- derived helpers -----------------------------------------------

    def fingerprint(self, limit: Optional[int] = None) -> str:
        """SHA-256 over the (first ``limit``) generated ops.

        The determinism oracle: equal fingerprints mean equal op
        sequences, across processes and platforms.
        """
        digest = hashlib.sha256()
        for index, op in enumerate(self.ops()):
            if limit is not None and index >= limit:
                break
            digest.update(
                f"{op.kind.value},{op.lpn},{op.npages},"
                f"{op.think_after!r},{op.time!r},{op.stream},"
                f"{op.tenant},{op.phase};".encode("utf-8"))
        return digest.hexdigest()

    def describe(self) -> str:
        """One-line summary for reports."""
        parts = [f"{self.name} ({self.mode})"]
        if self.stream_count is not None:
            parts.append(f"{self.stream_count} streams")
        if self.total_ops is not None:
            parts.append(f"{self.total_ops} ops")
        if self.footprint is not None:
            parts.append(f"footprint {self.footprint} pages")
        return ", ".join(parts)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def _round_robin(iterators: Sequence[Iterator[StreamOp]]
                 ) -> Iterator[StreamOp]:
    """Interleave iterators one op at a time, dropping exhausted ones."""
    alive = list(iterators)
    while alive:
        survivors = []
        for iterator in alive:
            op = next(iterator, None)
            if op is not None:
                yield op
                survivors.append(iterator)
        alive = survivors


# ---------------------------------------------------------------------------
# spec registry


#: spec ``type`` -> builder.  Populated by the scenario modules at
#: import time (see :func:`register_spec_type`).
SPEC_TYPES: Dict[str, Callable[[Dict[str, Any]], Scenario]] = {}


def register_spec_type(
        kind: str,
        builder: Callable[[Dict[str, Any]], Scenario]) -> None:
    """Register a scenario spec type (module-level, pool-worker safe)."""
    SPEC_TYPES[kind] = builder


def scenario_from_spec(spec: Dict[str, Any]) -> Scenario:
    """Rebuild a scenario from its :meth:`Scenario.spec` dict."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError(
            "a scenario spec is a dict with a 'type' key; got "
            f"{spec!r}")
    kind = str(spec["type"])
    if kind not in SPEC_TYPES:
        # Late-register the other spec types: a pool worker may
        # resolve a spec before anything imported their modules.
        import repro.scenarios.csvio  # noqa: F401
        import repro.scenarios.generator  # noqa: F401
        import repro.workloads.benchmarks  # noqa: F401
    if kind not in SPEC_TYPES:
        raise KeyError(
            f"unknown scenario spec type {kind!r}; choose from "
            f"{sorted(SPEC_TYPES)}")
    return SPEC_TYPES[kind](spec)


def as_scenario(value: Any) -> Scenario:
    """Coerce a runner's ``scenario=`` argument to a :class:`Scenario`.

    Accepts a scenario object or its spec dict (how engine cells carry
    scenarios).
    """
    if isinstance(value, Scenario):
        return value
    if isinstance(value, dict):
        return scenario_from_spec(value)
    raise TypeError(
        f"scenario must be a Scenario or a spec dict, got "
        f"{type(value).__name__}")
