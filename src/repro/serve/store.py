"""Snapshot-consistent access to one rank's column shard.

A sharded-Adam commit rewrites many rows of the authoritative column
slice; a lookup racing it could return some rows pre-update and some
post-update — a *torn read* that corresponds to no table state that
ever existed.  :class:`VersionFence` is a seqlock preventing exactly
that, and :class:`VersionedShardStore` wraps a
:class:`~repro.engine.embrace_runtime.TableGroupRuntime` — all of the
service's tables in one row space, so one fence — and every read
carries the version (= committed optimizer steps) it observed.

Cross-rank consistency is the service's job: because the sequencer
orders serve ops against commit ops identically on every rank, all
ranks answer a given lookup at the same version — asserted per batch
by tagging each shard block with its version in the AllGather.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.engine.embrace_runtime import TableGroupRuntime
from repro.tensors import SparseRows


class VersionFence:
    """A seqlock: optimistic reads vs. a single in-place writer.

    The sequence counter is even when the protected state is stable and
    odd while a write is in progress; ``version`` is ``seq >> 1`` — the
    number of completed writes.  Readers snapshot the counter, copy the
    data, and retry if the counter moved (or was odd): no reader ever
    blocks the writer, and no reader ever returns a half-written state.
    CPython's GIL makes the integer loads/stores atomic; the retry loop
    is what provides the consistency, not any compare-and-swap.
    """

    __slots__ = ("_seq", "_write_lock")

    def __init__(self):
        self._seq = 0
        self._write_lock = threading.Lock()

    @property
    def version(self) -> int:
        """Completed writes (committed optimizer steps for a table)."""
        return self._seq >> 1

    def begin_write(self) -> None:
        self._write_lock.acquire()
        self._seq += 1  # now odd: readers will retry

    def end_write(self) -> None:
        self._seq += 1  # even again: state stable at a new version
        self._write_lock.release()

    def read(self, fn):
        """Run ``fn()`` under the optimistic protocol.

        Returns ``(version, fn())`` for an execution of ``fn`` that
        observed a single stable version.  ``fn`` must be a pure read
        (it may run multiple times).
        """
        while True:
            start = self._seq
            if start & 1:
                time.sleep(0)  # writer in progress; yield and retry
                continue
            result = fn()
            if self._seq == start:
                return start >> 1, result
            time.sleep(0)


class VersionedShardStore:
    """A table group's runtime plus its version fence.

    Reads take virtual row ids and return **only this rank's
    authoritative columns** of cold rows — the column shard is all a
    rank stores of them, and the service reassembles full-dimension
    vectors by AllGathering every rank's block.
    """

    def __init__(self, runtime: TableGroupRuntime):
        self.runtime = runtime
        self.fence = VersionFence()

    @property
    def version(self) -> int:
        return self.fence.version

    def read_rows_placed(
        self, ids: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """One fenced read serving hot rows locally, cold rows sharded.

        Returns ``(version, hot_sel, cold_block, hot_values)``: the cold
        rows' rows of the column shard (for the cross-rank AllGather)
        and the hot rows' *full-dimension* values straight off the local
        hot array (``None`` when no id is hot) — hot rows are updated
        identically on every rank, so no lookup bytes travel for them.
        Both copies happen inside a single fence pass, so they observe
        the same version.
        """
        ids = np.asarray(ids, dtype=np.int64)
        rt = self.runtime
        hot_sel = rt.hot_mask(ids)
        cold_ids = ids[~hot_sel]
        hot_slots = (
            np.searchsorted(rt.hot_ids, ids[hot_sel]) if hot_sel.any() else None
        )

        def copy_blocks():
            return (
                rt.weight.data[cold_ids],
                None if hot_slots is None else rt.hot.data[hot_slots],
            )

        version, (cold_block, hot_values) = self.fence.read(copy_blocks)
        return version, hot_sel, cold_block, hot_values

    def apply_parts(
        self,
        shard_grad: SparseRows,
        hot_grad: SparseRows | None = None,
        final: bool = True,
    ) -> None:
        """Commit the cold shard part and the hot replica part together.

        One fence write: the version advances exactly once per committed
        step whether or not a hot lane is active, keeping
        ``version == steps_done`` for snapshot comparisons.
        """
        self.fence.begin_write()
        try:
            self.runtime.apply_part(shard_grad, final=final)
            if hot_grad is not None:
                self.runtime.apply_hot(hot_grad, final=final)
        finally:
            self.fence.end_write()

    def repartition(self, comm, new_hot_ids: np.ndarray) -> None:
        """Migrate to a new hot set (collective; sequenced by the service).

        Deliberately *not* a fence write: migration only moves rows
        between the hot array and the shard at unchanged values (no
        observable state changes at this version), and bumping the
        fence would break the ``version == committed steps`` invariant.
        The service sequences this op like any other, so no read runs
        concurrently on this rank.
        """
        self.runtime.repartition(comm, new_hot_ids)
