"""Parallel experiment execution engine.

Every grid-shaped experiment in the repo (Figure 8, the ablations, the
scaling study, parameter sweeps, read-latency comparisons, the
endurance sweep, the TLC system comparison) is a cartesian product of
independent simulation runs.  This module decomposes such a grid into
:class:`Cell` jobs — each a single, fully-specified, picklable unit of
work — and executes them either serially or across a process pool,
reassembling results in submission order so parallel output is
byte-identical to serial output.

Three properties make that safe:

* **Cells are declarative.**  A cell carries everything its run needs
  (FTL name, workload scenario spec, configuration, seed) as plain
  picklable data; nothing depends on shared mutable state or on which
  worker executes it.
* **Results round-trip through ``to_dict``.**  Both the serial and the
  parallel path return ``decode(encode(result))``, so a cache hit, a
  pool result and an inline run are indistinguishable.
* **Seeding is explicit.**  Workload scenarios embed their generation
  seed; :func:`derive_seed` gives experiments a stable way to mint
  distinct per-cell seeds from a base seed and grid coordinates.

Results are memoised in a content-addressed cache (default
``~/.cache/repro-rps/``, override with ``$REPRO_CACHE_DIR``) keyed by a
hash of the full cell specification — geometry, timing, FTL, policy,
workload scenario and seed — plus the package version, so re-rendering a
report after a code-free change is instant.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import __version__
from repro.execpolicy import Deadline, DeadlineExceeded
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    run_workload,
)
from repro.scenarios.base import Scenario

#: Bump when the serialized result layout changes; invalidates the
#: on-disk cache.
SCHEMA_VERSION = 2

#: Default on-disk cache location (see :class:`ResultCache`).
DEFAULT_CACHE_DIR = Path("~/.cache/repro-rps")


# ---------------------------------------------------------------------------
# deterministic seeding


def derive_seed(base_seed: int, *coords: object) -> int:
    """A stable per-cell seed from a base seed and grid coordinates.

    Unlike ``hash()``, this is stable across processes and Python
    versions, so a cell executed on a pool worker sees exactly the
    seed it would have seen serially.
    """
    text = json.dumps([base_seed, [str(c) for c in coords]],
                      separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# canonical cell specification


#: Per-dataclass field-name cache; ``dataclasses.fields()`` per
#: instance dominates key hashing on large workload streams.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _canonical(value: Any) -> Any:
    """Reduce a cell parameter to JSON-safe data for hashing."""
    # Exact-type scalar check first: streams are hundreds of
    # thousands of small dataclasses whose leaves all land here.
    cls = value.__class__
    if value is None or cls is str or cls is int or cls is float \
            or cls is bool:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is None and dataclasses.is_dataclass(value) \
            and not isinstance(value, type):
        names = tuple(f.name for f in dataclasses.fields(value))
        _FIELD_NAMES[cls] = names
    if names is not None:
        out: Dict[str, Any] = {"__type__": cls.__name__}
        for name in names:
            out[name] = _canonical(getattr(value, name))
        return out
    if isinstance(value, enum.Enum):
        return f"{cls.__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)):  # scalar subclasses
        return value
    if hasattr(value, "tolist"):  # numpy scalars / arrays
        return _canonical(value.tolist())
    raise TypeError(
        f"cell parameter of type {type(value).__name__} cannot be "
        f"canonicalized; pass plain data, dataclasses or enums"
    )


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    Attributes:
        kind: a :data:`CELL_EXECUTORS` key naming how to run it.
        params: the executor's keyword arguments, sorted by name.
        label: human-readable tag for progress output (not hashed).
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]
    label: str = ""

    @classmethod
    def make(cls, kind: str, label: str = "", **params: Any) -> "Cell":
        """Build a cell, validating the executor kind eagerly."""
        if kind not in CELL_EXECUTORS:
            raise KeyError(
                f"unknown cell kind {kind!r}; choose from "
                f"{sorted(CELL_EXECUTORS)}"
            )
        return cls(kind=kind, label=label,
                   params=tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The executor's keyword arguments as a dict."""
        return dict(self.params)

    def key(self) -> str:
        """Content hash of the full cell specification."""
        spec = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "kind": self.kind,
            "params": _canonical(self.kwargs),
        }
        text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# cell executors

#: Runs one cell: ``run(**params) -> result``.
CellRunner = Callable[..., Any]


@dataclasses.dataclass(frozen=True)
class CellExecutor:
    """How to run one kind of cell and (de)serialize its result."""

    run: CellRunner
    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Dict[str, Any]], Any]


CELL_EXECUTORS: Dict[str, CellExecutor] = {}


def register_executor(
    kind: str,
    run: CellRunner,
    encode: Callable[[Any], Dict[str, Any]] = lambda result: result,
    decode: Callable[[Dict[str, Any]], Any] = lambda data: data,
) -> None:
    """Register a cell kind (module-level, so pool workers see it)."""
    CELL_EXECUTORS[kind] = CellExecutor(run=run, encode=encode,
                                        decode=decode)


def _run_reliability_cell(
    *,
    scheme: str,
    blocks: int,
    wordlines: int,
    pe_cycles: int,
    retention_hours: float,
    seed: int,
    model: Any = None,
    stress: Any = None,
) -> Dict[str, Any]:
    from repro.reliability.ber import OperatingCondition
    from repro.reliability.montecarlo import run_reliability_experiment

    condition = OperatingCondition(pe_cycles=pe_cycles,
                                   retention_hours=retention_hours)
    result = run_reliability_experiment(
        scheme, blocks=blocks, wordlines=wordlines, condition=condition,
        model=model, stress=stress, seed=seed,
    )
    return {
        "scheme": scheme,
        "pe_cycles": pe_cycles,
        "ber": dataclasses.asdict(result.ber),
        "wpi": dataclasses.asdict(result.wpi),
    }


register_executor("workload", run_workload,
                  encode=lambda result: result.to_dict(),
                  decode=RunResult.from_dict)
register_executor("reliability", _run_reliability_cell)


def workload_cell(
    ftl_name: str,
    *,
    scenario: Any,
    config: Optional[ExperimentConfig] = None,
    label: str = "",
    **extra: Any,
) -> Cell:
    """Convenience constructor for a scenario-driven ``workload`` cell.

    ``scenario`` is a :class:`~repro.scenarios.base.Scenario` or its
    spec dict; the cell carries the JSON-safe *spec*, so pool workers
    and the result cache see plain data and a lazy generator scenario
    is regenerated inside the worker instead of being shipped
    materialized.  ``extra`` passes further
    :func:`~repro.experiments.runner.run_workload` keywords (``faults``,
    ``physics``, ``power_cuts``, ...).
    """
    spec = (scenario.spec() if isinstance(scenario, Scenario)
            else dict(scenario))
    return Cell.make("workload", label=label or ftl_name,
                     ftl_name=ftl_name, scenario=spec,
                     config=config or ExperimentConfig(), **extra)


# ---------------------------------------------------------------------------
# result cache


class ResultCache:
    """Content-addressed on-disk cache of encoded cell results.

    Layout: ``<root>/<key[:2]>/<key>.json``, each file holding
    ``{"schema": ..., "version": ..., "kind": ...,
    "result": <encoded result>}``.  Corrupt or unreadable entries
    count as misses, as do entries written by a different schema epoch
    *or package version* — the key already hashes both, but validating
    the payload too means a stale file can never serve an old-format
    result even if the key construction changes.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        if root is None:
            root = Path(os.environ.get("REPRO_CACHE_DIR")
                        or DEFAULT_CACHE_DIR)
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The encoded result for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("schema") != SCHEMA_VERSION \
                or payload.get("version") != __version__:
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, key: str, kind: str, encoded: Dict[str, Any]) -> None:
        """Persist an encoded result (atomic within one filesystem)."""
        path = self._path(key)
        payload = {"schema": SCHEMA_VERSION, "version": __version__,
                   "kind": kind, "result": encoded}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp, path)
            self.stores += 1
        except OSError:
            # A read-only or full cache must never fail the experiment.
            pass


# ---------------------------------------------------------------------------
# execution


class CellTimeoutError(DeadlineExceeded):
    """A pooled cell overran the batch deadline (likely hung).

    Carries the labels of the cells still unfinished when the
    deadline fired, so the report names the stuck work.
    """

    def __init__(self, message: str,
                 unfinished: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.unfinished = list(unfinished)


@dataclasses.dataclass(frozen=True)
class EngineOptions:
    """How to execute a batch of cells.

    Attributes:
        jobs: worker processes (1 = run inline, no pool).
        cache: result cache, or None to disable caching.
        progress: emit cells-done/ETA lines to stderr.
        cell_timeout: per-cell wall-clock budget in seconds for
            *pooled* execution (default None = wait forever, the
            historical behaviour).  The batch deadline is conservative
            — ``cell_timeout × ceil(pending / workers)``, i.e. as if
            every cell on a worker ran to its full budget — so a slow
            grid never false-trips, but a genuinely hung cell surfaces
            a :class:`CellTimeoutError` instead of blocking the run
            forever.  Inline (``jobs=1``) execution cannot be
            preempted and ignores it.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    progress: bool = False
    cell_timeout: Optional[float] = None


class _Progress:
    """Cells-done / ETA reporter on stderr (stdout stays report-only)."""

    def __init__(self, label: str, total: int, enabled: bool) -> None:
        self.label = label or "cells"
        self.total = total
        self.done = 0
        self.live_done = 0
        self.enabled = enabled and total > 0
        self.start = time.monotonic()

    def advance(self, cached: bool = False) -> None:
        self.done += 1
        if not cached:
            self.live_done += 1
        self.emit()

    def emit(self) -> None:
        if not self.enabled:
            return
        elapsed = time.monotonic() - self.start
        remaining = self.total - self.done
        if self.live_done and remaining:
            eta = f"{elapsed / self.live_done * remaining:.0f}s"
        elif remaining:
            eta = "?"
        else:
            eta = "0s"
        sys.stderr.write(
            f"\r[{self.label}] {self.done}/{self.total} cells · "
            f"elapsed {elapsed:.0f}s · eta {eta} "
        )
        sys.stderr.flush()

    def close(self) -> None:
        if self.enabled:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _execute_cell(cell: Cell) -> Dict[str, Any]:
    """Run one cell and return its *encoded* result (pool entry point).

    The JSON round trip normalizes the payload (tuples become lists,
    non-string keys fail fast) so inline, pooled and cached results are
    exactly the same shape.
    """
    executor = CELL_EXECUTORS[cell.kind]
    encoded = executor.encode(executor.run(**cell.kwargs))
    return json.loads(json.dumps(encoded))


def run_cells(
    cells: Sequence[Cell],
    options: Optional[EngineOptions] = None,
    label: str = "",
) -> List[Any]:
    """Execute cells and return decoded results in submission order.

    Serial (``jobs=1``) and parallel execution produce identical
    results: cells are independent, deterministically seeded, and both
    paths round-trip results through the executor's encode/decode
    pair.  With a cache, completed cells are memoised by content hash
    and replayed instantly on re-runs.
    """
    options = options or EngineOptions()
    results: List[Any] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    progress = _Progress(label, total=len(cells),
                         enabled=options.progress)
    for index, cell in enumerate(cells):
        if options.cache is not None:
            keys[index] = cell.key()
            encoded = options.cache.get(keys[index])
            if encoded is not None:
                results[index] = CELL_EXECUTORS[cell.kind].decode(encoded)
                progress.advance(cached=True)
                continue
        pending.append(index)

    def finish(index: int, encoded: Dict[str, Any]) -> None:
        cell = cells[index]
        if options.cache is not None and keys[index] is not None:
            options.cache.put(keys[index], cell.kind, encoded)
        results[index] = CELL_EXECUTORS[cell.kind].decode(encoded)
        progress.advance()

    jobs = max(1, options.jobs)
    if jobs == 1 or len(pending) <= 1:
        for index in pending:
            finish(index, _execute_cell(cells[index]))
    else:
        workers = min(jobs, len(pending))
        # Conservative batch deadline: as if every cell on a worker
        # ran to its full budget.  Never false-trips on a slow grid;
        # still bounds a hung cell.
        budget = None
        if options.cell_timeout is not None:
            rounds = -(-len(pending) // workers)  # ceil division
            budget = options.cell_timeout * rounds
        deadline = Deadline(budget)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers)
        try:
            futures = {pool.submit(_execute_cell, cells[index]): index
                       for index in pending}
            for future in concurrent.futures.as_completed(
                    futures, timeout=deadline.remaining()):
                finish(futures[future], future.result())
        except concurrent.futures.TimeoutError:
            unfinished = [cells[index].label or cells[index].kind
                          for future, index in futures.items()
                          if not future.done()]
            # The workers are wedged; a plain shutdown would block on
            # them forever, so kill the pool processes first.
            for proc in getattr(pool, "_processes", {}).values():
                proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
            progress.close()
            raise CellTimeoutError(
                f"{len(unfinished)} of {len(pending)} cells still "
                f"unfinished after the {budget:.1f}s batch deadline "
                f"(cell_timeout={options.cell_timeout}s x {rounds} "
                f"rounds); likely hung: {unfinished[:8]}",
                unfinished=unfinished) from None
        else:
            pool.shutdown(wait=True)
    progress.close()
    return results
