"""Scenario CSV export and streaming replay.

The on-disk format follows the ``operation_sequence_*.csv`` convention
of NAND sequence generators: RFC-4180 CSV (``csv.QUOTE_MINIMAL``) with
a compact JSON payload column (``json.dumps(..., separators=(",",
":"))``), one row per operation::

    #meta,"{""footprint"":4096,""mode"":""closed"",...}"
    seq,time,op,phase,payload
    0,,W,steady,"{""lpn"":128,""npages"":4}"
    1,,R,steady,"{""lpn"":7,""npages"":4,""stream"":1}"

* ``seq`` — global emission order (the scenario's canonical
  round-robin interleave).
* ``time`` — open-loop arrival timestamp; empty for closed-loop ops.
* ``op`` — ``R`` or ``W``.
* ``phase`` — generator phase label (may be empty).
* ``payload`` — JSON object: ``lpn`` and ``npages`` always; ``think``,
  ``stream`` and ``tenant`` only when non-default, so the round trip
  is lossless field-for-field.

The optional ``#meta`` first row carries the scenario's shape (name,
mode, footprint, stream count, tenant bindings) so a replayed file
reconstructs per-stream closed-loop delivery without scanning.

:class:`TraceScenario` replays such a file — or any file a foreign
generator produced in this format — in **bounded memory**: iteration
parses one row at a time, and per-stream delivery opens one lazily
filtered reader per stream (N sequential parses of the same file
instead of one materialized list; the deliberate CPU-for-memory
trade that makes billion-op traces feasible).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.scenarios.base import (
    CLOSED,
    OPEN,
    Scenario,
    StreamOp,
    TenantBinding,
    register_spec_type,
)
from repro.sim.queues import Request, RequestKind

#: Format version written into the meta row.
CSV_SCHEMA = 1

#: Column order of every data row.
CSV_HEADER = ("seq", "time", "op", "phase", "payload")

_META_TAG = "#meta"
_OP_CODES = {RequestKind.READ: "R", RequestKind.WRITE: "W"}
_OP_KINDS = {"R": RequestKind.READ, "W": RequestKind.WRITE}


class ScenarioCsvError(ValueError):
    """A malformed scenario CSV row, with file/line context."""


def _compact(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def write_scenario_csv(scenario: Scenario,
                       path: Union[str, Path]) -> int:
    """Export a scenario's canonical op sequence; returns rows written.

    Streaming on both sides: the scenario generates lazily and rows go
    straight to disk, so exporting never materializes the sequence.
    """
    path = Path(path)
    meta: Dict[str, Any] = {
        "schema": CSV_SCHEMA,
        "name": scenario.name,
        "mode": scenario.mode,
    }
    if scenario.footprint is not None:
        meta["footprint"] = scenario.footprint
    if scenario.stream_count is not None:
        meta["streams"] = scenario.stream_count
    bindings = scenario.tenant_bindings()
    if bindings:
        meta["tenants"] = [binding.to_dict() for binding in bindings]
    rows = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
        writer.writerow([_META_TAG, _compact(meta)])
        writer.writerow(CSV_HEADER)
        for seq, op in enumerate(scenario.ops()):
            payload: Dict[str, Any] = {"lpn": op.lpn,
                                       "npages": op.npages}
            if op.think_after:
                payload["think"] = op.think_after
            if op.stream:
                payload["stream"] = op.stream
            if op.tenant is not None:
                payload["tenant"] = op.tenant
            writer.writerow([
                seq,
                "" if op.time is None else repr(op.time),
                _OP_CODES[op.kind],
                op.phase,
                _compact(payload),
            ])
            rows += 1
    return rows


def read_scenario_meta(path: Union[str, Path]) -> Dict[str, Any]:
    """Read the ``#meta`` row (empty dict when the file has none)."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        row = next(csv.reader(handle), None)
    if not row or row[0] != _META_TAG:
        return {}
    if len(row) != 2:
        raise ScenarioCsvError(
            f"{path}:1: #meta row must have exactly one JSON field")
    try:
        meta = json.loads(row[1])
    except json.JSONDecodeError as exc:
        raise ScenarioCsvError(
            f"{path}:1: malformed #meta JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ScenarioCsvError(f"{path}:1: #meta must be an object")
    return meta


def _parse_row(path: Path, lineno: int, row: List[str]) -> StreamOp:
    if len(row) != len(CSV_HEADER):
        raise ScenarioCsvError(
            f"{path}:{lineno}: expected {len(CSV_HEADER)} fields "
            f"({','.join(CSV_HEADER)}), got {len(row)}")
    _seq, time_str, op_code, phase, payload_str = row
    if op_code not in _OP_KINDS:
        raise ScenarioCsvError(
            f"{path}:{lineno}: unknown op {op_code!r} (expected R/W)")
    try:
        time = None if time_str == "" else float(time_str)
    except ValueError:
        raise ScenarioCsvError(
            f"{path}:{lineno}: malformed time {time_str!r}") from None
    try:
        payload = json.loads(payload_str)
    except json.JSONDecodeError as exc:
        raise ScenarioCsvError(
            f"{path}:{lineno}: malformed payload JSON: {exc}"
        ) from None
    if not isinstance(payload, dict) or "lpn" not in payload \
            or "npages" not in payload:
        raise ScenarioCsvError(
            f"{path}:{lineno}: payload must be an object with at "
            f"least lpn and npages")
    try:
        lpn = int(payload["lpn"])
        npages = int(payload["npages"])
        think = float(payload.get("think", 0.0))
        stream = int(payload.get("stream", 0))
    except (TypeError, ValueError):
        raise ScenarioCsvError(
            f"{path}:{lineno}: non-numeric payload field in "
            f"{payload_str}") from None
    if lpn < 0 or npages <= 0:
        raise ScenarioCsvError(
            f"{path}:{lineno}: lpn must be >= 0 and npages > 0, got "
            f"lpn={lpn} npages={npages}")
    tenant = payload.get("tenant")
    return StreamOp(kind=_OP_KINDS[op_code], lpn=lpn, npages=npages,
                    think_after=think, time=time, stream=stream,
                    tenant=None if tenant is None else str(tenant),
                    phase=phase)


def iter_scenario_csv(path: Union[str, Path]
                      ) -> Iterator[StreamOp]:
    """Stream the ops of a scenario CSV, one row at a time.

    Skips the ``#meta`` and header rows; raises
    :class:`ScenarioCsvError` with ``file:line`` context on any
    malformed row.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            if row[0] == _META_TAG or row[0] == CSV_HEADER[0]:
                continue
            yield _parse_row(path, reader.line_num, row)


#: (path, size, mtime_ns) -> file digest, so repeated spec() calls on
#: an unchanged trace do not re-hash gigabytes.
_DIGEST_CACHE: Dict[Tuple[str, int, int], str] = {}


def _file_sha256(path: Path) -> str:
    stat = path.stat()
    key = (str(path), stat.st_size, stat.st_mtime_ns)
    cached = _DIGEST_CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    _DIGEST_CACHE[key] = digest.hexdigest()
    return _DIGEST_CACHE[key]


class TraceScenario(Scenario):
    """Replay an on-disk scenario CSV in bounded memory.

    Construction reads only the ``#meta`` row.  Iteration re-reads the
    file on every pass; :meth:`op_streams` opens one filtered reader
    per stream, so closed-loop replay of an N-stream trace parses the
    file N times concurrently — constant memory, the documented
    trade-off for never holding the op list.

    The spec embeds the file's SHA-256, so an engine result cached
    against a trace is invalidated the moment the file's content
    changes.

    Args:
        path: the CSV file.
        mode: ``closed``/``open`` override (defaults to the meta row's
            mode, else ``closed``).
        streams: closed-loop stream count override for foreign files
            whose meta row is missing.
        name: scenario name override.
    """

    def __init__(self, path: Union[str, Path],
                 mode: Optional[str] = None,
                 streams: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no such trace: {self.path}")
        meta = read_scenario_meta(self.path)
        self._meta = meta
        self.mode = mode or str(meta.get("mode", CLOSED))
        if self.mode not in (CLOSED, OPEN):
            raise ValueError(
                f"{self.path}: mode must be {CLOSED!r} or {OPEN!r}, "
                f"got {self.mode!r}")
        self.name = name or str(meta.get("name", self.path.stem))
        self._streams = (int(streams) if streams is not None
                         else (int(meta["streams"])
                               if "streams" in meta else None))
        self._tenants = tuple(
            TenantBinding.from_dict(b) for b in meta.get("tenants", ()))
        if self._tenants and "streams" in meta:
            declared = sum(binding.streams for binding in self._tenants)
            if declared != int(meta["streams"]):
                raise ValueError(
                    f"{self.path}: #meta tenant bindings declare "
                    f"{declared} streams, the trace has "
                    f"{int(meta['streams'])}")

    @property
    def footprint(self) -> Optional[int]:
        value = self._meta.get("footprint")
        return None if value is None else int(value)

    @property
    def stream_count(self) -> Optional[int]:
        return self._streams

    def tenant_bindings(self) -> Tuple[TenantBinding, ...]:
        return self._tenants

    def ops(self) -> Iterator[StreamOp]:
        return iter_scenario_csv(self.path)

    def _stream_ops(self, index: int) -> Iterator[StreamOp]:
        return (op for op in iter_scenario_csv(self.path)
                if op.stream == index)

    def op_streams(self) -> List[Iterator[StreamOp]]:
        if self.mode != CLOSED:
            raise ValueError(
                f"{self.path}: an open-mode trace replays via "
                f"requests(), not closed-loop streams")
        if self._streams is None:
            raise ValueError(
                f"{self.path}: stream count unknown (no #meta row); "
                f"pass TraceScenario(..., streams=N)")
        return [self._stream_ops(i) for i in range(self._streams)]

    def requests(self) -> Iterator[Request]:
        if self.mode != OPEN:
            raise ValueError(
                f"{self.path}: a closed-mode trace replays via "
                f"op_streams(), not timed arrivals")
        for op in iter_scenario_csv(self.path):
            yield op.to_request()

    def spec(self) -> Dict[str, Any]:
        return {
            "type": "trace",
            "path": str(self.path.resolve()),
            "sha256": _file_sha256(self.path),
            "mode": self.mode,
            "streams": self._streams,
            "name": self.name,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "TraceScenario":
        scenario = cls(spec["path"], mode=spec.get("mode"),
                       streams=spec.get("streams"),
                       name=spec.get("name"))
        expected = spec.get("sha256")
        if expected is not None:
            actual = _file_sha256(scenario.path)
            if actual != expected:
                raise ValueError(
                    f"{scenario.path}: content changed since the spec "
                    f"was taken (sha256 {actual[:12]}… != "
                    f"{expected[:12]}…)")
        return scenario


register_spec_type("trace", TraceScenario.from_spec)
