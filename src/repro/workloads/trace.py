"""Plain-text trace files.

A minimal, diff-friendly format for open-loop request traces::

    # time op lpn npages
    0.000000 W 1234 4
    0.000125 R 88 1

Multi-tenant traces carry an optional fifth column naming the tenant
(``-`` for untagged requests)::

    # time op lpn npages tenant
    0.000000 W 1234 4 victim
    0.000125 R 88 1 -

:func:`save_trace` only emits the column when at least one request is
tagged, so single-tenant traces are byte-identical to the original
format, and :func:`load_trace` accepts both layouts.

Useful for persisting generated workloads, replaying externally
captured block traces, and writing regression tests against fixed
inputs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Sequence, Union

from repro.sim.queues import Request, RequestKind

_OP_CODES = {RequestKind.READ: "R", RequestKind.WRITE: "W"}
_OP_KINDS = {"R": RequestKind.READ, "W": RequestKind.WRITE}


#: Placeholder for an untagged request in the five-column format.
_NO_TENANT = "-"


def save_trace(path: Union[str, Path],
               requests: Sequence[Request]) -> None:
    """Write a request trace to ``path``.

    The tenant column is emitted only when at least one request is
    tagged, keeping single-tenant traces in the original four-column
    format.  A tenant name must survive whitespace splitting and must
    not collide with the ``-`` placeholder.
    """
    path = Path(path)
    tagged = any(request.tenant is not None for request in requests)
    for request in requests:
        tenant = request.tenant
        if tenant is None:
            continue
        if not tenant or tenant == _NO_TENANT or tenant.split() != [tenant]:
            raise ValueError(
                f"tenant {tenant!r} cannot be stored in a "
                "whitespace-separated trace"
            )
    with path.open("w", encoding="utf-8") as handle:
        header = "# time op lpn npages"
        handle.write(header + (" tenant\n" if tagged else "\n"))
        for request in requests:
            line = (f"{request.time:.9f} {_OP_CODES[request.kind]} "
                    f"{request.lpn} {request.npages}")
            if tagged:
                line += f" {request.tenant or _NO_TENANT}"
            handle.write(line + "\n")


def iter_trace(path: Union[str, Path]) -> Iterator[Request]:
    """Stream a request trace written by :func:`save_trace`.

    Yields one :class:`~repro.sim.queues.Request` per data line while
    holding only the current line in memory, so arbitrarily large
    traces replay in bounded space (feed the iterator straight to a
    :class:`~repro.sim.host.TraceReplayHost`).

    Accepts both the four-column format and the five-column
    multi-tenant one; the two may even be mixed line-by-line, in which
    case four-column lines load with ``tenant=None``.  Malformed lines
    raise :class:`ValueError` prefixed with ``path:lineno:``.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (4, 5):
                raise ValueError(
                    f"{path}:{lineno}: expected 4 or 5 fields, "
                    f"got {len(fields)}"
                )
            time_str, op, lpn_str, npages_str = fields[:4]
            tenant = fields[4] if len(fields) == 5 else _NO_TENANT
            if op not in _OP_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown op {op!r}")
            try:
                time = float(time_str)
                lpn = int(lpn_str)
                npages = int(npages_str)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield Request(
                time=time,
                kind=_OP_KINDS[op],
                lpn=lpn,
                npages=npages,
                tenant=None if tenant == _NO_TENANT else tenant,
            )


def load_trace(path: Union[str, Path]) -> List[Request]:
    """Read a whole request trace into memory.

    Materializes :func:`iter_trace` — convenient for small traces and
    tests; prefer the iterator form for replaying large files.
    """
    return list(iter_trace(path))
