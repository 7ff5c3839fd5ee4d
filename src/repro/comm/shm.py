"""Shared-memory segment pooling for the zero-copy process transport.

The sender side of every worker owns a :class:`SegmentPool` of
``multiprocessing.shared_memory`` segments, bucketed by power-of-two
size class.  Sending a frame copies its bytes straight into a pooled
segment (one memcpy); the receiver attaches by name (cached — segments
are recycled, so each is attached at most once per peer), copies the
payload out, and returns the segment's id in an *ack record* on the
owner's control channel so the sender can reuse it.  Compared with
pickling through an OS pipe — serialize, chunked 64 KiB pipe writes with
a context switch each, read, deserialize — the wire cost drops to two
memcpys plus one tiny control record.

A segment is identified on the wire by ``(owner rank, id)``: ids count
up from 1 per pool (0 means "no segment"), and every process derives
the OS name from the owner's tag with :func:`segment_name`.

Lifecycle: segments are created lazily by the first send that needs
their size class, recycled via acks, and unlinked by the owning worker
when its pool closes (worker loop exit).  Receivers only ever ``close()``
their attachments; the creator is the single unlinker, so no segment is
removed while a peer might still read it.
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory

import numpy as np

#: Smallest segment allocated — sub-page frames share the 4 KiB class.
MIN_SEGMENT_BYTES = 4096

#: Byte alignment of each frame within a multi-frame segment (cache-line
#: sized, and a multiple of every numpy itemsize).
FRAME_ALIGN = 64

#: Every pool segment name starts with this (also the cleanup-sweep key).
SEGMENT_PREFIX = "repro-"


def segment_name(owner_tag: str, seg_id: int) -> str:
    """OS name of segment ``seg_id`` of the pool tagged ``owner_tag``."""
    return f"{SEGMENT_PREFIX}{owner_tag}-{seg_id}"


def _size_class(nbytes: int) -> int:
    """Round up to the pool's power-of-two size class."""
    size = MIN_SEGMENT_BYTES
    while size < nbytes:
        size *= 2
    return size


_tracker_bypassed = False


def bypass_resource_tracker() -> None:
    """Keep ``multiprocessing.resource_tracker`` away from pool segments.

    Segment lifecycle here is explicit — the creating pool (or the group
    parent's sweep) unlinks — but on CPython < 3.13 both *creating and
    attaching* register a segment with the resource tracker.  Under fork
    all workers share one tracker process whose cache is a set, so the
    interleaved register/unregister traffic for a recycled segment races
    (spurious "leaked shared_memory" warnings, KeyErrors, double
    unlinks).  This installs a register shim that ignores names carrying
    our :data:`SEGMENT_PREFIX` and leaves every other user of
    ``shared_memory`` untouched.  Idempotent, per process.
    """
    global _tracker_bypassed
    if _tracker_bypassed:
        return
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        def shim(original):
            def call(name, rtype):
                if rtype == "shared_memory" and SEGMENT_PREFIX in name:
                    return  # pool segments are never tracker-managed
                original(name, rtype)

            return call

        # ``unlink()`` itself unregisters, so both directions must skip
        # pool names or the tracker sees unmatched traffic.
        resource_tracker.register = shim(resource_tracker.register)
        resource_tracker.unregister = shim(resource_tracker.unregister)
    except Exception:
        pass
    _tracker_bypassed = True


class SegmentPool:
    """Sender-side pool of reusable shared-memory segments.

    Thread-safe: fault injection delivers delayed sends from timer
    threads concurrently with the main thread.
    """

    def __init__(self, owner_tag: str):
        bypass_resource_tracker()
        self._owner_tag = owner_tag
        self._seq = 0
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        self._free: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._closed = False
        # Recycling effectiveness (hit = reused segment, miss = fresh
        # allocation); scraped into `segpool.*` counters by repro.obs.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pooled_bytes(self) -> int:
        return sum(s.size for s in self._segments.values())

    def names(self) -> list[str]:
        """Names of every segment this pool has created (for the parent's
        cleanup sweep when the worker itself must not unlink)."""
        with self._lock:
            return [s.name for s in self._segments.values()]

    def has_free(self, nbytes: int) -> bool:
        """Whether :meth:`acquire` would recycle rather than allocate."""
        with self._lock:
            return bool(self._free.get(_size_class(nbytes)))

    def acquire(self, nbytes: int) -> tuple[int, shared_memory.SharedMemory]:
        """``(id, segment)`` of at least ``nbytes`` (recycled when possible)."""
        cls = _size_class(nbytes)
        with self._lock:
            if self._closed:
                raise RuntimeError("segment pool is closed")
            bucket = self._free.get(cls)
            if bucket:
                self.hits += 1
                seg_id = bucket.pop()
                return seg_id, self._segments[seg_id]
            self.misses += 1
            self._seq += 1
            seg = shared_memory.SharedMemory(
                name=segment_name(self._owner_tag, self._seq), create=True, size=cls
            )
            self._segments[self._seq] = seg
            return self._seq, seg

    def release(self, seg_id: int) -> None:
        """Return an acked segment to its size-class free list."""
        with self._lock:
            seg = self._segments.get(seg_id)
            if seg is None or self._closed:
                return
            self._free.setdefault(seg.size, []).append(seg_id)

    def close(self, unlink: bool = True) -> None:
        """Release every segment this pool ever created (in-flight included).

        ``unlink=False`` closes the file descriptors but leaves the
        segments on the system for peers that may still be reading
        in-flight messages — the group's parent unlinks them by name
        after all workers have exited.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for seg in self._segments.values():
                try:
                    seg.close()
                    if unlink:
                        seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            self._segments.clear()
            self._free.clear()


def frame_layout(frames: list[np.ndarray]) -> tuple[list[int], int]:
    """Where each frame of one message sits in its single segment.

    Frames are laid out back to back at :data:`FRAME_ALIGN`-aligned
    offsets, so a sparse tuple message — indices, values, masks — costs
    one ``acquire`` and one ack instead of one per frame.  Returns the
    flat table ``[offset0, nbytes0, offset1, nbytes1, ...]`` (an empty
    frame is ``0, 0``: nothing to ship) and the total bytes needed.
    Alignment keeps every ``np.frombuffer`` view on the receiver aligned
    for any element type.
    """
    table: list[int] = []
    total = 0
    for frame in frames:
        nbytes = frame.nbytes
        if not nbytes:
            table += (0, 0)
            continue
        table += (total, nbytes)
        total += -(-nbytes // FRAME_ALIGN) * FRAME_ALIGN
    return table, total


def fill_frames(
    seg: shared_memory.SharedMemory, frames: list[np.ndarray], table: list[int]
) -> None:
    """Copy every non-empty frame to its :func:`frame_layout` offset."""
    for i, frame in enumerate(frames):
        if not table[2 * i + 1]:
            continue
        # Element-typed destination view: a strided frame (a column
        # slice sent without packing) gathers straight into the
        # segment — one copy where pack-then-memcpy would be two.
        target = np.frombuffer(
            seg.buf, dtype=frame.dtype, count=frame.size, offset=table[2 * i]
        )
        target.reshape(frame.shape)[...] = frame


class AttachmentCache:
    """Receiver-side cache of attached peer segments (attach once, reuse)."""

    def __init__(self):
        bypass_resource_tracker()
        self._attached: dict[tuple[str, int], shared_memory.SharedMemory] = {}

    def __len__(self) -> int:
        return len(self._attached)

    def view(self, owner_tag: str, seg_id: int, nbytes: int, offset: int = 0) -> memoryview:
        seg = self._attached.get((owner_tag, seg_id))
        if seg is None:
            seg = shared_memory.SharedMemory(name=segment_name(owner_tag, seg_id))
            self._attached[owner_tag, seg_id] = seg
        return seg.buf[offset : offset + nbytes]

    def close(self) -> None:
        for seg in self._attached.values():
            try:
                seg.close()
            except Exception:  # pragma: no cover - defensive cleanup
                pass
        self._attached.clear()
