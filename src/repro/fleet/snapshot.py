"""Versioned snapshot files for deterministic checkpoint/resume.

A snapshot is the *entire* live object graph of one simulated device
— kernel pending events, NAND array state, FTL mapping and 2PO state,
RNG states, SimStats, fault-injector cursors and host/scenario cursors
— pickled in one piece so every cross-reference (shared cancellation
cells, bound-method callbacks, aliased stats objects) survives with
identity intact.  A run checkpointed at an event boundary and resumed
from the file is byte-identical to the uninterrupted run; the tests in
``tests/test_fleet_snapshot.py`` assert exactly that, per FTL.

File layout (all integers big-endian)::

    8 bytes   magic  b"RPROSNAP"
    4 bytes   JSON header length
    N bytes   JSON header (UTF-8)
    rest      pickle payload

The header is readable without unpickling anything: it names the
snapshot format version, the package version that wrote the file, and
a SHA-256 over the payload, so truncation, corruption or a file from
another format is detected before the unpickler ever runs.

Snapshot files are pickles: load them only from paths you (or your
own checkpointing run) wrote, never from untrusted sources.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import __version__

#: First 8 bytes of every snapshot file.
SNAPSHOT_MAGIC = b"RPROSNAP"

#: Bump when the header schema or payload contract changes; a reader
#: refuses files written under a different format version.  Format 2:
#: the controller no longer holds a batched NAND-program entry point
#: (format-1 pickles reference one and cannot load), and the header no
#: longer records a chip-dispatch mode.  Format 3: one host class per
#: delivery mode and one op record, all in :mod:`repro.sim.host`;
#: format-2 pickles reference the deleted scenario-package hosts and
#: op record.  Format 4: the multi-tenant host runs on the closed-loop
#: host's streams and snapshots by scenario spec; format-3 pickles
#: reference its deleted completion callback.  Format 5: submission
#: queues keep running depth sums instead of a per-push/pop sample
#: list; format-4 tenant pickles carry the list and no sums.  Format
#: 6: the binary heap is the only event kernel; format-5 pickles may
#: hold the deleted bucket-queue kernel, and their headers name a
#: ``kernel``.
SNAPSHOT_FORMAT_VERSION = 6

_LEN = struct.Struct(">I")


class SnapshotError(Exception):
    """Base class for snapshot read/write failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot, is corrupt, or is too new/old."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot is valid but incompatible with the resume context
    (e.g. it was written for a different fleet spec)."""


#: Chaos/test hook: called with the fully written + fsynced temp path
#: *before* the rename.  The chaos harness (:mod:`repro.fleet.chaos`)
#: arms this to simulate a crash between tmp-write and rename — the
#: window an atomic checkpoint must survive.  Never set in production.
_before_rename_hook: Optional[Callable[[Path], None]] = None


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that refuse O_RDONLY on directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_snapshot(path: "Path | str", payload: Any,
                   header: Dict[str, Any]) -> Dict[str, Any]:
    """Write ``payload`` (pickled) under a versioned header.

    ``header`` holds the caller's context fields; the format version,
    package version, payload digest and payload length are filled in
    here.  The write is crash-safe, not merely atomic: the temp file
    is fsynced before the rename and the containing directory is
    fsynced on either side of it, so a *host* crash (not just a
    process kill) can never leave a zero-length or torn ``.snap``
    where a good one stood — the old snapshot survives until the new
    one is durable.  Returns the full header as written.
    """
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    full = dict(header)
    full["format_version"] = SNAPSHOT_FORMAT_VERSION
    full["package_version"] = __version__
    full["payload_bytes"] = len(blob)
    full["payload_sha256"] = hashlib.sha256(blob).hexdigest()
    header_bytes = json.dumps(full, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(_LEN.pack(len(header_bytes)))
        handle.write(header_bytes)
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    _fsync_dir(path.parent)
    if _before_rename_hook is not None:
        _before_rename_hook(tmp)
    tmp.replace(path)
    _fsync_dir(path.parent)
    return full


def _read_header(handle: io.BufferedReader,
                 path: Path) -> Dict[str, Any]:
    magic = handle.read(len(SNAPSHOT_MAGIC))
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"{path} is not a snapshot file (bad magic {magic!r})")
    raw_len = handle.read(_LEN.size)
    if len(raw_len) != _LEN.size:
        raise SnapshotFormatError(f"{path} is truncated (no header)")
    (header_len,) = _LEN.unpack(raw_len)
    header_bytes = handle.read(header_len)
    if len(header_bytes) != header_len:
        raise SnapshotFormatError(
            f"{path} is truncated (header cut short)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotFormatError(
            f"{path} has a corrupt header: {exc}") from exc
    version = header.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path} uses snapshot format {version!r}; this build "
            f"reads format {SNAPSHOT_FORMAT_VERSION}")
    return header


def read_snapshot_header(path: "Path | str") -> Dict[str, Any]:
    """The JSON header of a snapshot, without touching the payload."""
    path = Path(path)
    with open(path, "rb") as handle:
        return _read_header(handle, path)


def read_snapshot(path: "Path | str") -> Tuple[Dict[str, Any], Any]:
    """Load ``(header, payload)``, verifying integrity.

    A package-version skew (file written by a different release) is
    not fatal — pickles usually survive small releases — but it is
    surfaced as a :class:`UserWarning` so a byte-identity claim is
    never silently made across versions.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header = _read_header(handle, path)
        blob = handle.read()
    expected_len = header.get("payload_bytes")
    if expected_len is not None and len(blob) != expected_len:
        raise SnapshotFormatError(
            f"{path} is truncated: payload is {len(blob)} bytes, "
            f"header promises {expected_len}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotFormatError(
            f"{path} failed its integrity check (payload digest "
            f"mismatch); the file is corrupt")
    written_by = header.get("package_version")
    if written_by != __version__:
        warnings.warn(
            f"{path} was written by repro {written_by}, loading "
            f"under {__version__}; resume should work but "
            f"byte-identity across versions is not guaranteed",
            UserWarning, stacklevel=2)
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise SnapshotFormatError(
            f"{path} payload failed to unpickle: {exc}") from exc
    return header, payload
