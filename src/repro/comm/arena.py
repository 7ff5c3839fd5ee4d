"""Preallocated scratch-buffer arena for the sparse wire path.

Sparse collectives need scratch — the hot-row lane's presence masks and
owner accumulators, owned copies of received recursive-doubling parts.
Allocating those with ``np.empty`` per call puts a malloc (and
eventually a page fault) on every hop of every step.  :class:`BufferArena` keeps a pool of
reusable byte buffers bucketed by power-of-two size class (the same
scheme as :class:`~repro.comm.shm.SegmentPool`, but process-local):
``take()`` hands out an ndarray view of a pooled buffer, ``put()``
returns it.  Steady state — once one step has populated every size
class a collective draws from — performs **zero numpy allocations** on
the wire path (gated by ``benchmarks/check_comm_regression.py``).

Starvation is never an error: a request larger than
:attr:`BufferArena.max_bytes`, or arriving when the pool's capacity cap
is exhausted, falls back to a plain ``np.empty`` and bumps the
``fallbacks`` counter.  Callers may ``put()`` fallback arrays back
safely — the arena recognises its own buffers and silently drops
foreign ones.

Counters (``hits``/``misses``/``fallbacks``) surface through
``repro.obs``'s :func:`~repro.obs.merge.scrape_counters` as
``arena.hits`` etc., next to the shm transport's ``segpool.*``.
"""

from __future__ import annotations

import threading

import numpy as np

#: Smallest pooled buffer — sub-page scratch shares the 4 KiB class.
MIN_ARENA_BYTES = 4096

#: Largest single pooled buffer; bigger requests fall back to malloc.
MAX_ARENA_BYTES = 64 * 1024 * 1024

#: Default cap on total bytes retained across all size classes.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024


def _size_class(nbytes: int) -> int:
    """Round up to the arena's power-of-two size class."""
    size = MIN_ARENA_BYTES
    while size < nbytes:
        size *= 2
    return size


class BufferArena:
    """Process-local pool of reusable numpy scratch buffers.

    Thread-safe (the comm engine's scheduler thread and fault-injection
    timer threads draw scratch concurrently with the training thread).
    Buffers are raw ``uint8`` arrays; ``take`` returns a typed,
    shaped view of one, and ``put`` walks ``.base`` to recover the
    owning buffer, so callers return exactly what ``take`` gave them.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        self.capacity_bytes = int(capacity_bytes)
        self.max_bytes = MAX_ARENA_BYTES
        self._lock = threading.Lock()
        self._free: dict[int, list[np.ndarray]] = {}
        #: id(buffer) -> buffer for every array this arena ever created,
        #: so ``put`` can tell its own buffers from foreign arrays.
        self._owned: dict[int, np.ndarray] = {}
        self._retained = 0  # bytes currently sitting in _free
        self._outstanding = 0  # bytes handed out and not yet returned
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0

    def take(self, shape, dtype) -> np.ndarray:
        """A writable ndarray of ``shape``/``dtype`` backed by the pool.

        Contents are uninitialised (like ``np.empty``).  Requests larger
        than :attr:`max_bytes` — or arriving once the capacity cap is
        committed — fall back to a fresh ``np.empty`` and bump
        ``fallbacks``; the caller cannot tell the difference and must
        not rely on ``put`` reclaiming it.
        """
        dtype = np.dtype(dtype)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        nbytes = dtype.itemsize  # pure-python product: take() itself must
        for extent in shape:  # not allocate (the zero-alloc gate traces it)
            nbytes *= int(extent)
        if nbytes > self.max_bytes:
            with self._lock:
                self.fallbacks += 1
            return np.empty(shape, dtype)
        cls = _size_class(max(nbytes, 1))
        with self._lock:
            bucket = self._free.get(cls)
            if bucket:
                buf = bucket.pop()
                self._retained -= cls
                self._outstanding += cls
                self.hits += 1
            elif self._retained + self._outstanding + cls > self.capacity_bytes:
                self.fallbacks += 1
                buf = None
            else:
                self.misses += 1
                self._outstanding += cls
                buf = np.empty(cls, np.uint8)
                self._owned[id(buf)] = buf
        if buf is None:
            return np.empty(shape, dtype)
        return buf[:nbytes].view(dtype).reshape(shape)

    def put(self, *arrays: np.ndarray) -> None:
        """Return scratch arrays obtained from :meth:`take`.

        Arrays the arena does not own (fallback allocations, foreign
        views, ``None``) are ignored, so callers can unconditionally
        return everything they took.
        """
        with self._lock:
            for arr in arrays:
                if arr is None:
                    continue
                base = arr
                while isinstance(base, np.ndarray) and base.base is not None:
                    base = base.base
                buf = self._owned.get(id(base))
                if buf is None or buf is not base:
                    continue
                cls = buf.nbytes
                bucket = self._free.setdefault(cls, [])
                if any(b is buf for b in bucket):
                    continue  # double-put: already home
                bucket.append(buf)
                self._retained += cls
                self._outstanding -= cls

    def counters(self) -> dict[str, int]:
        """Hit/miss/fallback counts plus current retained bytes."""
        with self._lock:
            return {
                "arena.hits": self.hits,
                "arena.misses": self.misses,
                "arena.fallbacks": self.fallbacks,
                "arena.retained_bytes": self._retained,
            }


_default: BufferArena | None = None
_default_lock = threading.Lock()


def default_arena() -> BufferArena:
    """The process-wide arena the sparse collectives draw from."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = BufferArena()
    return _default


def arena_counters() -> dict[str, int]:
    """Counters of the default arena (zeros if never used)."""
    if _default is None:
        return {
            "arena.hits": 0,
            "arena.misses": 0,
            "arena.fallbacks": 0,
            "arena.retained_bytes": 0,
        }
    return _default.counters()
