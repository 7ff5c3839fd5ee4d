"""Low-overhead structured span recording for real training runs.

The simulator gets timelines for free — every executed task lands in a
:class:`~repro.sim.trace.Trace`.  Real runs over the thread/process
backends were a black box.  :class:`SpanRecorder` closes that gap with a
fixed-capacity **ring buffer** of spans: preallocated numpy columns for
start/end timestamps plus one interned ``(name, resource, kind)`` id per
span, so the hot path costs two clock reads, three array stores, and one
dict lookup — no per-span object allocation, no list growth, no string
handling.  When the ring wraps, the *oldest* spans are overwritten and
counted in :attr:`SpanRecorder.dropped`; recording never blocks and
never grows.

Every :class:`~repro.comm.Communicator` carries an ``obs`` attribute
that defaults to the module-level :data:`NULL_RECORDER` — a no-op whose
``enabled`` flag lets instrumented code skip all tracing work with a
single attribute check.  :func:`repro.obs.install_recorder` swaps a live
recorder in (through fault-injection wrappers too).

Resource-lane convention (mirrors the simulator's schema):

* ``"compute"`` / kind ``"compute"`` — useful model work (``fwd_bwd``,
  ``optimizer``); this is what §5.4's Computation Stall subtracts;
* ``"comm"`` / kind ``"comm"`` — whole collectives (``allreduce``,
  ``alltoall``, ...), wait time included;
* ``"comm.phase"`` / kind ``"comm"`` — transport phases inside them
  (``send``, ``recv``, ``segment_wait``) for drill-down; nested under
  the collective span, so the diagnostic lane may overlap itself.

On merge (:mod:`repro.obs.merge`) lanes become ``compute:R`` /
``comm:R`` per rank — the same naming :func:`repro.sim.multirank.
expand_to_ranks` uses, so one metric/exporter code path serves both
worlds.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

#: Default ring capacity: ~1.5 MB of span storage, a few thousand steps.
DEFAULT_CAPACITY = 65536

#: Rows per table shipped in the payload's hot-row summary.  Full
#: per-row counts stay rank-local (they are O(vocab)); only the top-k
#: travel, which bounds the merge cost at production vocabularies.
DEFAULT_ROW_TOPK = 32


class NullRecorder:
    """Disabled recorder: every operation is a no-op.

    A single shared instance (:data:`NULL_RECORDER`) is the default
    ``obs`` of every communicator, so untraced runs pay one ``if
    obs.enabled`` per instrumented operation and nothing else.
    """

    __slots__ = ()
    enabled = False

    def t(self) -> float:
        return 0.0

    def rec(self, name: str, resource: str, kind: str, t0: float) -> None:
        pass

    def rec_phase(self, name: str, t0: float) -> None:
        pass

    def coll_begin(self) -> float:
        return 0.0

    def coll_end(self, name: str, t0: float) -> None:
        pass

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def take(self, name: str) -> float:
        return 0.0

    def count_bytes(self, obj) -> None:
        pass

    def count_rows(self, table: str, ids) -> None:
        pass

    @contextmanager
    def span(self, name: str, resource: str = "compute", kind: str = "compute"):
        yield


#: The shared disabled recorder (identity-comparable: ``obs is NULL_RECORDER``).
NULL_RECORDER = NullRecorder()


@dataclass(frozen=True)
class TraceConfig:
    """Tracing knobs, picklable so process-backend workers can be told.

    ``capacity`` bounds the span ring per rank; ``phases`` toggles the
    per-primitive ``comm.phase`` lane (collective- and compute-level
    spans are always recorded when tracing is on).
    """

    capacity: int = DEFAULT_CAPACITY
    phases: bool = True
    row_topk: int = DEFAULT_ROW_TOPK

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)
        check_positive("row_topk", self.row_topk)


def as_trace_config(trace) -> TraceConfig | None:
    """Normalize a user-facing ``trace=`` argument.

    Accepts ``None``/``False`` (off), ``True`` (defaults), or an
    explicit :class:`TraceConfig`.
    """
    if trace is None or trace is False:
        return None
    if trace is True:
        return TraceConfig()
    if isinstance(trace, TraceConfig):
        return trace
    raise TypeError(f"trace must be None, bool, or TraceConfig, got {trace!r}")


class SpanRecorder:
    """Per-rank ring-buffer span recorder plus named counters."""

    enabled = True

    def __init__(
        self,
        rank: int = 0,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.perf_counter,
        phases: bool = True,
        row_topk: int = DEFAULT_ROW_TOPK,
    ):
        check_positive("capacity", capacity)
        check_positive("row_topk", row_topk)
        self.rank = rank
        self.capacity = capacity
        self.phases = phases
        self.row_topk = row_topk
        self._clock = clock
        self._start = np.empty(capacity, dtype=np.float64)
        self._end = np.empty(capacity, dtype=np.float64)
        self._key = np.empty(capacity, dtype=np.int32)
        self._n = 0  # spans ever recorded; ring slot is _n % capacity
        self._key_ids: dict[tuple[str, str, str], int] = {}
        self._key_names: list[tuple[str, str, str]] = []
        self.counters: dict[str, float] = {}
        # Per-table row-access frequency: one grow-on-demand int64 array
        # per table, indexed by row id.  Fed by both lookup and training
        # id streams (repro.serve / RealTrainer); the payload ships only
        # the top-``row_topk`` rows.  This is the learning signal for
        # skew-aware hot/cold placement (ROADMAP item 2).
        self._row_counts: dict[str, np.ndarray] = {}
        # The comm queue runs on the thread that waits, so one thread
        # records a rank's compute and collective spans; others may
        # still write (fault injection's delayed-send timers reach the
        # transport): ring writes take a lock (spans are per-collective,
        # not per-byte, so contention is negligible) and the collective
        # nesting depth is tracked per thread.
        self._lock = threading.Lock()
        self._coll_depth = threading.local()
        self._t0 = clock()

    @classmethod
    def from_config(cls, rank: int, config: TraceConfig) -> "SpanRecorder":
        return cls(
            rank=rank,
            capacity=config.capacity,
            phases=config.phases,
            row_topk=config.row_topk,
        )

    # -- hot path --------------------------------------------------------- #
    def t(self) -> float:
        """Current clock reading (pair with :meth:`rec`)."""
        return self._clock()

    def rec(self, name: str, resource: str, kind: str, t0: float) -> None:
        """Record one completed span ``[t0, now]``."""
        end = self._clock()  # before the lock: lock waits are not span time
        with self._lock:
            key = self._key_ids.get((name, resource, kind))
            if key is None:
                key = len(self._key_names)
                self._key_ids[(name, resource, kind)] = key
                self._key_names.append((name, resource, kind))
            i = self._n % self.capacity
            self._start[i] = t0
            self._end[i] = end
            self._key[i] = key
            self._n += 1

    def rec_phase(self, name: str, t0: float) -> None:
        """Record a transport-phase span (skipped when phases are off)."""
        if self.phases:
            self.rec(name, "comm.phase", "comm", t0)

    def coll_begin(self) -> float:
        """Enter a (possibly nested) collective; returns its start time.

        Composed collectives — ``two_level_allreduce`` delegating to
        ``allreduce``, sparse exchanges built on ``alltoall`` — would
        otherwise stack spans on the ``"comm"`` lane and double-count
        its busy time; only the outermost call records.
        """
        depth = self._coll_depth
        depth.value = getattr(depth, "value", 0) + 1
        return self._clock()

    def coll_end(self, name: str, t0: float) -> None:
        """Leave a collective; records the span iff it was outermost."""
        depth = self._coll_depth
        depth.value = getattr(depth, "value", 1) - 1
        if depth.value == 0:
            self.rec(name, "comm", "comm", t0)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def take(self, name: str) -> float:
        """Remove a counter and return its value (0.0 when absent), so
        the caller can re-credit it under finer-grained names."""
        with self._lock:
            return self.counters.pop(name, 0.0)

    def count_rows(self, table: str, ids) -> None:
        """Accumulate per-row access counts for ``table``.

        ``ids`` is any integer array-like of row ids; duplicates count
        once per occurrence (access *frequency*, not distinct-row
        coverage).  Cost is O(len(ids)) — one ``np.add.at`` into a
        preallocated per-table array that doubles when a larger id
        appears.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return
        need = int(ids.max()) + 1
        with self._lock:
            arr = self._row_counts.get(table)
            if arr is None:
                arr = np.zeros(need, dtype=np.int64)
                self._row_counts[table] = arr
            elif need > arr.size:
                grown = np.zeros(max(need, 2 * arr.size), dtype=np.int64)
                grown[: arr.size] = arr
                self._row_counts[table] = arr = grown
            np.add.at(arr, ids, 1)

    def hot_rows(self, table: str, k: int | None = None) -> list[tuple[int, int]]:
        """Top-``k`` most-accessed rows of ``table`` as ``(row, count)``,
        most frequent first (ties broken by lower row id)."""
        k = self.row_topk if k is None else k
        with self._lock:
            arr = self._row_counts.get(table)
            counts = None if arr is None else arr.copy()
        if counts is None:
            return []
        nonzero = np.flatnonzero(counts)
        order = nonzero[np.lexsort((nonzero, -counts[nonzero]))][:k]
        return [(int(r), int(counts[r])) for r in order]

    def count_bytes(self, obj) -> None:
        """Accumulate ``wire_bytes.<dtype>`` counters for a payload."""
        if isinstance(obj, np.ndarray):
            self.count(f"wire_bytes.{obj.dtype.name}", obj.nbytes)
            return
        from repro.tensors import SparseRows

        if isinstance(obj, SparseRows):
            self.count(f"wire_bytes.{obj.indices.dtype.name}", obj.indices.nbytes)
            self.count(f"wire_bytes.{obj.values.dtype.name}", obj.values.nbytes)
            return
        if isinstance(obj, (tuple, list)):
            for x in obj:
                self.count_bytes(x)
            return
        from repro.comm.backend import payload_nbytes

        self.count("wire_bytes.other", payload_nbytes(obj))

    # -- cold paths ------------------------------------------------------- #
    @contextmanager
    def span(self, name: str, resource: str = "compute", kind: str = "compute"):
        """Context-manager convenience for step-granularity spans."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.rec(name, resource, kind, t0)

    def rebase(self) -> None:
        """Zero the clock *now* and forget earlier spans.

        Call right after a group barrier so every rank's timeline shares
        (approximately) the same origin; the merge step then needs no
        cross-rank clock solving.
        """
        self._t0 = self._clock()
        self._n = 0
        self._coll_depth = threading.local()

    @property
    def dropped(self) -> int:
        """Spans overwritten by ring wrap-around (oldest-first)."""
        return max(0, self._n - self.capacity)

    def __len__(self) -> int:
        return min(self._n, self.capacity)

    def payload(self) -> dict:
        """Frame-transport-friendly snapshot of everything recorded.

        Timestamps ship as contiguous float64 arrays **relative to the
        rebased origin**, so the dict decomposes into raw frames on the
        zero-copy wire (:mod:`repro.comm.frames`) with only the interned
        name table and counters going through the pickle fallback.
        """
        n = len(self)
        if self._n > self.capacity:  # ring wrapped: unroll oldest-first
            pivot = self._n % self.capacity
            order = np.concatenate(
                [np.arange(pivot, self.capacity), np.arange(pivot)]
            )
            start, end, key = self._start[order], self._end[order], self._key[order]
        else:
            start = self._start[:n].copy()
            end = self._end[:n].copy()
            key = self._key[:n].copy()
        row_counts = {}
        with self._lock:
            tables = list(self._row_counts)
        for table in tables:
            top = self.hot_rows(table)
            with self._lock:
                arr = self._row_counts[table]
                total = int(arr.sum())
                rows_seen = int(np.count_nonzero(arr))
            row_counts[table] = {
                "ids": np.asarray([r for r, _ in top], dtype=np.int64),
                "counts": np.asarray([c for _, c in top], dtype=np.int64),
                "total": total,
                "rows_seen": rows_seen,
            }
        return {
            "rank": self.rank,
            "start": np.ascontiguousarray(start - self._t0),
            "end": np.ascontiguousarray(end - self._t0),
            "key": np.ascontiguousarray(key),
            "names": list(self._key_names),
            "counters": dict(self.counters),
            "row_counts": row_counts,
            "dropped": self.dropped,
        }
