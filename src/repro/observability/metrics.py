"""Labeled metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is the structured replacement for ad-hoc
scalar bumps on the *non-hot* paths: instead of growing ``SimStats``
a field at a time, cold-path instrumentation asks the registry for a
named instrument with labels (chip, tenant, ftl, ...) and records into
it.  The registry serializes deterministically (instruments sorted by
name, then labels) and snapshots into ``SimStats.to_dict()`` under the
``metrics`` key when attached — fault-free, untraced runs keep their
historical byte shape, exactly like ``SimStats.faults``.

Instruments are memoized: ``registry.counter("gc.collections",
chip="3")`` returns the same :class:`Counter` every call, so emission
sites need no caching of their own.  The validated label key is
memoized too, per distinct ``(name, labels)`` call signature, so a
repeated lookup costs one dictionary probe.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

#: A label set in canonical form: name/value pairs sorted by name.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (values land in the first
#: bucket whose bound is >= value; an implicit +inf bucket catches the
#: rest).  Tuned for queue depths and small page counts.
DEFAULT_BOUNDS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


#: Characters reserved by the ``name{label=value,...}`` rendering;
#: allowing them in labels would make serialization ambiguous.
_RESERVED = frozenset("{}=,")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    pairs = []
    for name, value in labels.items():
        text = str(value)
        if (_RESERVED & set(name)) or (_RESERVED & set(text)):
            raise ValueError(
                f"label {name}={text!r} contains a character from "
                f"'{{}}=,', which the name{{label=value}} key "
                f"rendering reserves")
        pairs.append((name, text))
    return tuple(sorted(pairs))


def _render_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{label}={value}" for label, value in labels)
    return f"{name}{{{inner}}}"


def _parse_key(key: str) -> Tuple[str, LabelKey]:
    if not key.endswith("}") or "{" not in key:
        return key, ()
    name, _, inner = key.partition("{")
    pairs = []
    for part in inner[:-1].split(","):
        label, _, value = part.partition("=")
        pairs.append((label, value))
    return name, tuple(sorted(pairs))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``bounds`` are inclusive upper bucket bounds; one implicit
    overflow bucket catches values above the last bound.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bounds must be a non-empty ascending "
                             f"sequence, got {bounds!r}")
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        # the first bound >= value; NaN compares false against every
        # bound, so it belongs in the overflow bucket
        index = bisect_left(self.bounds, value) if value == value \
            else len(self.bounds)
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of the observed values (nan when empty)."""
        if self.total == 0:
            return float("nan")
        return self.sum / self.total


class MetricsRegistry:
    """Named, labeled instruments with deterministic serialization."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        #: call signature -> validated ``(name, LabelKey)``
        self._keys: Dict[tuple, Tuple[str, LabelKey]] = {}

    # -- instrument lookup (memoized get-or-create) --------------------

    def _key(self, name: str, labels: Dict[str, object]
             ) -> Tuple[str, LabelKey]:
        """``(name, canonical label key)``, validated once per call
        signature.  The signature carries each value's type: ``1``,
        ``1.0`` and ``True`` are equal keys but render differently."""
        signature = (name, *labels.items(), *map(type, labels.values()))
        try:
            key = self._keys.get(signature)
        except TypeError:
            # an unhashable label value: validate on every call
            return name, _label_key(labels)
        if key is None:
            key = self._keys[signature] = (name, _label_key(labels))
        return key

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter ``name`` with ``labels`` (created on first use)."""
        key = self._key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge ``name`` with ``labels`` (created on first use)."""
        key = self._key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str,
                  bounds: Optional[Tuple[float, ...]] = None,
                  **labels: object) -> Histogram:
        """The histogram ``name`` with ``labels`` (created on first
        use; ``bounds`` only applies at creation)."""
        key = self._key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                bounds or DEFAULT_BOUNDS)
        return histogram

    # -- aggregation helpers -------------------------------------------

    def counter_total(self, name: str) -> int:
        """Sum of one counter across all its label sets."""
        return sum(counter.value
                   for (key_name, _), counter in self._counters.items()
                   if key_name == name)

    def iter_counters(self) -> Iterator[Tuple[str, LabelKey, int]]:
        """All counters as ``(name, labels, value)``, sorted."""
        for (name, labels), counter in sorted(self._counters.items()):
            yield name, labels, counter.value

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot, invertible via :meth:`from_dict`.

        Keys render as ``name{label=value,...}`` sorted, so equal
        registries serialize byte-identically.
        """
        return {
            "counters": {
                _render_key(name, labels): counter.value
                for (name, labels), counter
                in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(name, labels): gauge.value
                for (name, labels), gauge in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(name, labels): {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "sum": histogram.sum,
                }
                for (name, labels), histogram
                in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`."""
        registry = cls()
        for key, value in data.get("counters", {}).items():  # type: ignore[union-attr]
            name, labels = _parse_key(key)
            registry._counters[(name, labels)] = Counter(int(value))
        for key, value in data.get("gauges", {}).items():  # type: ignore[union-attr]
            name, labels = _parse_key(key)
            registry._gauges[(name, labels)] = Gauge(float(value))
        for key, payload in data.get("histograms", {}).items():  # type: ignore[union-attr]
            name, labels = _parse_key(key)
            histogram = Histogram(tuple(payload["bounds"]))
            histogram.counts = [int(count)
                                for count in payload["counts"]]
            histogram.total = int(payload["total"])
            histogram.sum = float(payload["sum"])
            registry._histograms[(name, labels)] = histogram
        return registry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")
