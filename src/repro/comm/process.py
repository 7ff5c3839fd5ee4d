"""Process-based backend: a persistent worker pool with zero-copy links.

Workers are real OS processes (fork start method).  One wire moves
messages between them, the framed zero-copy protocol: ndarray payloads
are decomposed by :mod:`repro.comm.frames` into a small template plus
raw buffers, the buffers travel through pooled
``multiprocessing.shared_memory`` segments (:mod:`repro.comm.shm`), and
the template travels as one binary *control record* the sending thread
writes itself.  Two memcpys per frame, independent of payload size; no
pickle, no queue and no feeder thread on the message path.  Each
worker's own duplex ``multiprocessing.Pipe`` carries only its commands
and its one pickled result per run (see :func:`_service_loop`).

**Control channel.**  Every rank owns one inbox: an
``os.pipe`` created before the fork, both ends non-blocking, written by
all of its peers and read only by its owner — N inboxes with
receiver-side demultiplexing by source, not N² per-pair links.  A record
is::

    header  <HBHIII  length, kind, src rank, run epoch, segment id, frames
    table   <2nQ     (offset, nbytes) of each frame in the segment
    body             frames.pack_template(template)

``kind`` is *message*, *ack* (header only: ``segment id`` may be
recycled by its owner) or *spilled message*.  A record never exceeds
``PIPE_BUF``, so the kernel writes it atomically: the caller's thread
and the fault injector's timer threads of every peer write to the same
inbox with no cross-process lock.

* **Spill rule.**  When table + body would push a record past
  ``PIPE_BUF`` (a template of hundreds of arrays, a large pickled
  object) they are written into the message's segment as one more frame
  and the record carries only that frame's ``(offset, nbytes)``.
* **Ack path.**  A receiver that has copied (or finished viewing) a
  payload writes an ack record into the *owner's* inbox; the owner's
  ``_ingest`` returns the segment to its pool whenever it reads its
  inbox — while waiting for a message, or, for a rank that only sends
  (a broadcast root), when its pool has no free segment of the needed
  size class and it drains the inbox before allocating.
* **Back-pressure rule.**  The pipe is the only buffer (64 KiB, ~1000
  records).  A sender that finds the destination's inbox full keeps
  ingesting its *own* inbox into the stash — so an all-send-then-
  all-receive pattern cannot deadlock — and blocks in ``poll`` for
  either end until the write fits or ``timeout`` expires, then raises
  the ``TimeoutError`` a blocked receive raises.
* **Epochs.**  The worker's current run epoch and its stash of
  received messages belong to the per-process runtime, not to a
  communicator: whichever thread reads the inbox — a delayed
  (fault-injected) send of the *previous* run included — files records
  by the current epoch.  Stale records are dropped and their segments
  acked; an earlier run's communicator may send but no longer receive.
* **Waiting.**  ``_wait`` blocks in the kernel (one persistent ``poll``
  object per worker) and wakes on the record's arrival; nothing spins
  or sleeps.

:class:`ProcessGroup` is context-managed and persistent; open one
through the :func:`repro.comm.open_group` factory::

    with open_group(4, backend="process") as group:
        for step in range(100):
            group.run(train_step, step)   # same workers, warm links

Fork + link setup is paid once at ``start()``; each ``run()`` is a
pickled command dispatch.  Persistent dispatch requires picklable
callables.  The one-shot API (``run_multiprocess`` or ``run()`` on an
unstarted group) keeps the historical semantics: workers are forked at
call time, so closures and other non-picklable callables still work.

``timeout`` bounds every blocking receive/barrier in the workers
(mirroring :class:`~repro.comm.local.ThreadGroup`); the parent's wait
for results is derived from it.  The parent waits on every worker's
pipe and process sentinel together, so a worker that dies surfaces as
an error the moment it exits, not as a parent hang.
"""

from __future__ import annotations

import glob
import itertools
import multiprocessing as mp
import os
import pickle
import select
import struct
import threading
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable

import numpy as np

from repro.comm.backend import Communicator
from repro.comm.frames import (
    decode_frames,
    encode_frames,
    ndarray_template,
    pack_template,
    unpack_template,
)
from repro.comm.shm import (
    AttachmentCache,
    SegmentPool,
    fill_frames,
    frame_layout,
)
from repro.utils.blas import pin_blas_threads
from repro.utils.validation import check_positive

DEFAULT_TIMEOUT = 120.0

#: Control-record header: total length, kind, source rank, run epoch,
#: segment id (0 = the message has no non-empty frame), frame count.
_HEADER = struct.Struct("<HBHIII")
#: One ``(offset, nbytes)`` table entry: where a frame — or a spilled
#: table + body — sits inside the segment.
_ENTRY = struct.Struct("<QQ")
_MSG, _ACK, _SPILLED = 0, 1, 2

#: Largest record written in one piece.  POSIX makes pipe writes of up
#: to ``PIPE_BUF`` bytes atomic — all or nothing, never interleaved.
RECORD_MAX = select.PIPE_BUF

#: Bytes asked of one inbox read: the default capacity of a Linux pipe.
_READ_CHUNK = 65536

_group_counter = itertools.count()


class _WorkerRuntime:
    """Per-process link state that persists across ``run()`` dispatches.

    Owns the lazily-created sender segment pool, the receiver attachment
    cache, and this rank's ends of the control links.  Reused by every
    communicator the worker constructs, so warm segments and attachments
    amortize across runs.

    ``inboxes[dst]`` is the link into rank ``dst``: a ``(read fd,
    write fd)`` pipe.

    The current run ``epoch`` and the per-source ``stash`` of received,
    not yet consumed messages live here, not on the communicator: any
    thread that reads the inbox — a timer thread of an *earlier* run's
    communicator included — files records by the worker's current
    epoch, never by the epoch of the communicator it happens to hold.
    """

    def __init__(self, rank, world_size, inboxes, owner_tag):
        self.rank = rank
        self.world_size = world_size
        self.peer_tags = [f"{owner_tag}r{r}" for r in range(world_size)]
        self._pool: SegmentPool | None = None
        self.attachments = AttachmentCache()
        self.epoch = 0
        # Messages already received but not yet consumed, per source.
        # Shared-memory payloads are stashed *undecoded* — the record's
        # bytes and where its table starts — and only touched when the
        # caller consumes them, so demultiplexing never copies bytes it
        # does not need yet.
        self.stash: list[deque] = [deque() for _ in range(world_size)]
        # Acks owed for segments of dropped (stale-epoch) messages; any
        # thread that ingests appends, the next send or receive flushes.
        self.stale_acks: list[tuple[int, int]] = []
        # Orders ``begin_run`` against a late thread's ``_ingest``.
        self.epoch_lock = threading.Lock()
        self.rx = inboxes[rank][0]
        self.tx = [write_fd for _, write_fd in inboxes]
        # Reading the inbox (and the partial record a read may end on) is
        # serialized: the receiving thread holds the lock while it waits,
        # a sending thread borrows it only when nobody is receiving.
        self.rx_lock = threading.Lock()
        self.rx_tail = b""
        self.poller = select.poll()
        self.poller.register(self.rx, select.POLLIN)
        # ctrl.* counters: records/spills count what this rank ingested
        # (under rx_lock); back-pressure waits count its blocked writes.
        self.records = 0
        self.spills = 0
        self.backpressure_waits = 0
        self.stats_lock = threading.Lock()

    @property
    def pool(self) -> SegmentPool:
        if self._pool is None:
            self._pool = SegmentPool(self.peer_tags[self.rank])
        return self._pool

    def begin_run(self, epoch: int) -> None:
        """Enter run ``epoch``: what an abandoned run left unconsumed is
        dropped, its segments owed back to their owners."""
        with self.epoch_lock:
            for src, stash in enumerate(self.stash):
                self.stale_acks.extend((src, e[2]) for e in stash if e[2])
                stash.clear()
            self.epoch = epoch

    def try_drain_inbox(self) -> None:
        """Ingest what is readable now, unless another thread of this
        rank is already reading (it does the ingesting then)."""
        if self.rx_lock.acquire(blocking=False):
            try:
                self.drain_inbox()
            finally:
                self.rx_lock.release()

    def drain_inbox(self) -> bool:
        """Ingest what one read of the inbox returns (caller holds
        ``rx_lock``); False when there was nothing to read."""
        try:
            data = os.read(self.rx, _READ_CHUNK)
        except BlockingIOError:
            return False
        if self.rx_tail:
            data = self.rx_tail + data
        pos, end = 0, len(data)
        while end - pos >= _HEADER.size:
            length = data[pos] | data[pos + 1] << 8
            if pos + length > end:
                break
            self._ingest(data, pos)
            pos += length
        self.rx_tail = data[pos:]  # a read may end inside a record
        return True

    def _ingest(self, data: bytes, pos: int) -> None:
        """Take in the record at ``data[pos:]``: an ack recycles its
        segment, a message is stashed, a stale epoch is dropped and its
        segment owed back."""
        _, kind, sender, epoch, seg_id, nframes = _HEADER.unpack_from(data, pos)
        self.records += 1
        if kind == _ACK:
            if self._pool is not None:
                self._pool.release(seg_id)
            return
        if kind == _SPILLED:
            self.spills += 1
        with self.epoch_lock:
            if epoch == self.epoch:
                # Lazy: bytes are only touched when the caller consumes them.
                self.stash[sender].append(
                    (data, pos + _HEADER.size, seg_id, nframes, kind == _SPILLED)
                )
            elif seg_id:  # stale — recycle the segment at the next flush
                self.stale_acks.append((sender, seg_id))

    def segment_names(self) -> list[str]:
        return [] if self._pool is None else self._pool.names()

    def close(self, unlink_pool: bool) -> None:
        self.attachments.close()
        if self._pool is not None:
            self._pool.close(unlink=unlink_pool)


class ProcessCommunicator(Communicator):
    """One run's endpoint over a :class:`_WorkerRuntime`.

    Messages are tagged with the run ``epoch``; leftovers from an
    earlier, failed run (including fault-injected delayed deliveries)
    are discarded — and their segments acked — instead of corrupting
    the current run.  Constructing the communicator starts its run on
    the runtime; an earlier run's communicator may still *send* (its
    records carry its own epoch and are dropped on arrival) but can no
    longer receive.
    """

    def __init__(self, runtime: _WorkerRuntime, barrier, timeout: float, epoch: int):
        super().__init__(runtime.rank, runtime.world_size)
        self._rt = runtime
        self._barrier = barrier
        self.timeout = timeout
        self._epoch = epoch
        runtime.begin_run(epoch)
        # Acks owed for segments whose views are still live (recv_view);
        # flushed once the view has provably been consumed.  A timer
        # thread's send may flush while the caller appends: hence the lock.
        self._pending_acks: list[tuple[int, int]] = []
        self._ack_lock = threading.Lock()
        # Acks held by recv_view_pinned: survive further communication
        # calls, released only by an explicit release_views().
        self._pinned_acks: list[tuple[int, int]] = []

    # ``_send`` captures payload bytes before returning (it copies into
    # the segment synchronously), so collectives may pass live views of
    # buffers they mutate afterwards.
    SEND_SNAPSHOTS = True

    # -- sending --------------------------------------------------------- #
    def _send(self, dst: int, obj: Any) -> None:
        rt = self._rt
        template, frames = encode_frames(obj)
        table, total = frame_layout(frames)
        kind, nframes = _MSG, len(frames)
        body = struct.pack(f"<{len(table)}Q", *table) + pack_template(template)
        if _HEADER.size + len(body) > RECORD_MAX:
            # Spill: table + body ride in the segment as one more frame,
            # and the record carries only that frame's table entry.
            kind = _SPILLED
            frames.append(np.frombuffer(body, dtype=np.uint8))
            table, total = frame_layout(frames)
            body = _ENTRY.pack(*table[-2:])
        seg_id = 0
        if total:
            try:
                seg_id, seg = self._acquire(total)
            except RuntimeError:
                if rt.pool.closed:
                    return  # teardown: a delayed (fault-injected) send fired late
                raise
            fill_frames(seg, frames, table)
        # The frames are captured; any live recv_view the caller passed
        # in has been consumed, so its segments can go back to the peer.
        self._flush_acks()
        self._write(dst, self._record(kind, seg_id, nframes, body))

    def send_sum(self, dst: int, x: Any, y: Any) -> None:
        """Reduce ``x + y`` directly into a pooled segment (zero-copy path).

        The sum never exists in private memory: ``np.add`` writes it
        into the outgoing shared-memory buffer, which is exactly what a
        ring reduce-scatter forwards at every step.
        """
        rt = self._rt
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape or x.dtype != y.dtype or x.size == 0:
            super().send_sum(dst, x, y)
            return
        if dst == self.rank:
            raise ValueError("self-send is not allowed; keep the object local")
        if not 0 <= dst < self.world_size:
            raise ValueError(f"destination {dst} out of range")
        self.bytes_sent += x.nbytes
        self.messages_sent += 1
        obs = self.obs
        t0 = obs.t() if obs.enabled else 0.0
        try:
            seg_id, seg = self._acquire(x.nbytes)
        except RuntimeError:
            if rt.pool.closed:
                return  # teardown: a delayed (fault-injected) send fired late
            raise
        target = np.frombuffer(seg.buf, dtype=x.dtype, count=x.size)
        np.add(x.reshape(-1), y.reshape(-1), out=target)
        self._flush_acks()  # x (a possible recv_view) is consumed now
        body = _ENTRY.pack(0, x.nbytes) + pack_template(
            ndarray_template(x.dtype, x.shape)
        )
        self._write(dst, self._record(_MSG, seg_id, 1, body))
        if obs.enabled:
            obs.count(f"wire_bytes.{x.dtype.name}", x.nbytes)
            obs.rec_phase("send_sum", t0)

    def _record(self, kind: int, seg_id: int, nframes: int, body: bytes = b"") -> bytes:
        return (
            _HEADER.pack(
                _HEADER.size + len(body), kind, self.rank, self._epoch, seg_id, nframes
            )
            + body
        )

    def _acquire(self, nbytes: int):
        """A pool segment for ``nbytes``, collecting acks before growing.

        A rank that only sends never reads its inbox in ``_wait``; its
        acks are ingested here, when the pool would otherwise allocate.
        """
        pool = self._rt.pool
        if not pool.has_free(nbytes):
            self._rt.try_drain_inbox()
        return pool.acquire(nbytes)

    def _write(self, dst: int, record: bytes) -> None:
        """Put one record into rank ``dst``'s inbox (atomic: <= PIPE_BUF)."""
        fd = self._rt.tx[dst]
        try:
            os.write(fd, record)
        except BlockingIOError:
            self._write_blocked(dst, fd, record)

    def _write_blocked(self, dst: int, fd: int, record: bytes) -> None:
        """Back-pressure: ``dst``'s inbox is full.

        Keep ingesting our own inbox while waiting — when every rank
        sends before any receives, that is what empties the pipes — and
        sleep in ``poll`` on both ends between attempts.  ``rx_lock`` is
        held only for each read, never across the sleep, so a receiving
        thread of this rank is not kept from the inbox (or from what
        this thread stashed) while the destination stays full.
        """
        rt = self._rt
        with rt.stats_lock:
            rt.backpressure_waits += 1
        deadline = time.monotonic() + self.timeout
        poller = select.poll()
        poller.register(fd, select.POLLOUT)
        poller.register(rt.rx, select.POLLIN)
        while True:
            rt.try_drain_inbox()
            try:
                os.write(fd, record)
                return
            except BlockingIOError:
                pass
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not poller.poll(remaining * 1e3):
                raise TimeoutError(
                    f"rank {self.rank}: rank {dst}'s control channel stayed "
                    f"full for {self.timeout}s (peer dead or deadlocked?)"
                )

    # -- receiving ------------------------------------------------------- #
    def _recv(self, src: int) -> Any:
        return self._decode_entry(src, self._wait(src), copy=True)

    def _recv_view(self, src: int) -> Any:
        return self._decode_entry(src, self._wait(src), copy=False)

    def _recv_view_pinned(self, src: int) -> Any:
        return self._decode_entry(src, self._wait(src), copy=False, pin=True)

    def release_views(self) -> None:
        if self._pinned_acks:
            self._emit_acks(self._pinned_acks)
            self._pinned_acks.clear()

    def _wait(self, src: int) -> Any:
        """Block until a current-epoch message from ``src`` is stashed."""
        self._flush_acks()  # any prior recv_view is dead by contract
        rt = self._rt
        self._check_current()
        stash = rt.stash[src]
        if stash:
            return stash.popleft()
        obs = self.obs
        t0 = obs.t() if obs.enabled else 0.0
        deadline = time.monotonic() + self.timeout
        self._pump_channel(stash, deadline)
        if obs.enabled:  # blocking portion of the receive: segment wait
            obs.rec_phase("segment_wait", t0)
        self._check_current()
        if not stash:
            raise TimeoutError(
                f"rank {self.rank}: no message from rank {src} within "
                f"{self.timeout}s (peer dead or deadlocked?)"
            )
        return stash.popleft()

    def _check_current(self) -> None:
        """The stash belongs to the worker's current run: an earlier
        run's communicator must not consume from it."""
        if self._epoch != self._rt.epoch:
            raise RuntimeError(
                f"rank {self.rank}: receive on the communicator of run "
                f"{self._epoch}, but run {self._rt.epoch} has started"
            )

    def _pump_channel(self, stash: deque, deadline: float) -> None:
        rt = self._rt
        # The lock wait counts against the deadline too: another thread
        # of this rank may be receiving (and stashing for us) meanwhile.
        if not rt.rx_lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
            return
        try:
            while not stash and self._epoch == rt.epoch:
                if rt.drain_inbox():
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not rt.poller.poll(remaining * 1e3):
                    return
        finally:
            rt.rx_lock.release()

    def _decode_entry(
        self, src: int, entry: Any, copy: bool, pin: bool = False
    ) -> Any:
        rt = self._rt
        data, pos, seg_id, nframes, spilled = entry
        tag = rt.peer_tags[src]
        view = rt.attachments.view
        if spilled:
            offset, nbytes = _ENTRY.unpack_from(data, pos)
            data, pos = bytes(view(tag, seg_id, nbytes, offset)), 0
        table = struct.unpack_from(f"<{2 * nframes}Q", data, pos)
        template = unpack_template(data, pos + 16 * nframes)
        buffers = [
            view(tag, seg_id, table[i + 1], table[i]) if table[i + 1] else b""
            for i in range(0, 2 * nframes, 2)
        ]
        payload = decode_frames(template, buffers, copy=copy)
        if not seg_id:
            return payload
        if copy:
            self._emit_acks([(src, seg_id)])  # bytes owned — recycle right away
        elif pin:
            self._pinned_acks.append((src, seg_id))  # held until release_views()
        else:
            with self._ack_lock:  # view live — ack on consume
                self._pending_acks.append((src, seg_id))
        return payload

    def _emit_acks(self, acks: list[tuple[int, int]]) -> None:
        for owner, seg_id in acks:
            self._write(owner, self._record(_ACK, seg_id, 0))

    def _flush_acks(self) -> None:
        rt = self._rt
        if rt.stale_acks:
            with rt.epoch_lock:
                acks, rt.stale_acks = rt.stale_acks, []
            self._emit_acks(acks)
        if self._pending_acks:
            with self._ack_lock:
                acks, self._pending_acks = self._pending_acks, []
            self._emit_acks(acks)

    def barrier(self) -> None:
        self._flush_acks()
        obs = self.obs
        if not obs.enabled:
            self._barrier.wait(timeout=self.timeout)
            return
        t0 = obs.t()
        self._barrier.wait(timeout=self.timeout)
        obs.rec_phase("barrier", t0)

    def transport_counters(self) -> dict[str, float]:
        """Segment-pool, attachment and control-channel statistics (see
        :mod:`repro.obs`)."""
        rt = self._rt
        out: dict[str, float] = {"shm.attachments": float(len(rt.attachments))}
        if rt._pool is not None:
            pool = rt._pool
            out["segpool.hits"] = float(pool.hits)
            out["segpool.misses"] = float(pool.misses)
            out["segpool.segments"] = float(len(pool))
            out["segpool.bytes"] = float(pool.pooled_bytes)
        out["ctrl.records"] = float(rt.records)
        out["ctrl.backpressure_waits"] = float(rt.backpressure_waits)
        out["ctrl.spills"] = float(rt.spills)
        return out


def _service_loop(rank, world_size, res, timeout, owner_tag, initial):
    """Worker main: execute dispatched callables until stopped.

    One-shot mode receives its single command via ``initial`` — captured
    at fork, so it needs no pickling — and exits after reporting.
    Persistent mode (``initial is None``) reads pickled ``(epoch, fn,
    args, kwargs)`` commands from its pipe until an empty one (stop).

    Each result goes back on the same pipe as one pickle of ``(epoch,
    rank, status, payload, names)``, written by this thread — no feeder
    thread keeps a copy — and every reference the call made is dropped
    before the worker blocks for the next command, so nothing a finished
    call allocated lives on into the next one.
    """
    # One BLAS thread per rank: unpinned, every forked rank spins a pool
    # sized to the machine and the ranks fight over the cores.
    pin_blas_threads()
    link = res.adopt(rank)
    runtime = _WorkerRuntime(rank, world_size, res.inboxes, owner_tag)
    persist = initial is None
    try:
        while True:
            if initial is not None:
                epoch, (fn, args, kwargs), initial = 0, initial, None
            else:
                try:
                    cmd = link.recv_bytes()
                except EOFError:
                    return  # the parent is gone
                if not cmd:
                    return
                epoch, fn, args, kwargs = pickle.loads(cmd)
                del cmd
            comm = ProcessCommunicator(runtime, res.barrier, timeout, epoch)
            try:
                status, payload = "ok", fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                status, payload = "error", repr(exc)
            try:
                comm._flush_acks()  # release any segments held by a recv_view
                comm.release_views()  # ... and any a collective left pinned
            except TimeoutError:
                pass  # the owner is gone; close() sweeps its segments
            names = runtime.segment_names()
            try:
                blob = pickle.dumps((epoch, rank, status, payload, names))
            except Exception as exc:  # result not picklable
                blob = pickle.dumps(
                    (epoch, rank, "error", f"result not picklable: {exc!r}", names)
                )
            del fn, args, kwargs, comm, payload
            try:
                link.send_bytes(blob)
            except OSError:
                return  # the parent is gone
            del blob
            if not persist:
                return
    finally:
        # One-shot workers must not unlink: peers may still be reading
        # in-flight segments; the parent unlinks after joining everyone.
        runtime.close(unlink_pool=persist)
        link.close()


class _GroupResources:
    """Links, barrier and per-worker pipes shared by the parent and its
    workers.  Everything here is created before the fork and inherited."""

    def __init__(self, ctx, world_size: int):
        # One control channel per destination rank.  Both ends are
        # non-blocking: a full inbox is the sender's cue to ingest its
        # own (see ``_write_blocked``), never a blocked write.
        self.inboxes = [os.pipe() for _ in range(world_size)]
        for fds in self.inboxes:
            for fd in fds:
                os.set_blocking(fd, False)
        self.barrier = ctx.Barrier(world_size)
        # One duplex pipe per worker: its commands go down, its result
        # comes back.  ``links`` are the parent's ends.
        pairs = [ctx.Pipe(duplex=True) for _ in range(world_size)]
        self.links = [parent for parent, _ in pairs]
        self.worker_links = [worker for _, worker in pairs]

    def adopt(self, rank: int):
        """In worker ``rank``: close every pipe end but its own and
        return that one, so a worker's death is its pipe's EOF."""
        for r, (parent, worker) in enumerate(zip(self.links, self.worker_links)):
            parent.close()
            if r != rank:
                worker.close()
        return self.worker_links[rank]

    def forked(self) -> None:
        """In the parent, once every worker is running: drop the
        parent's copies of the workers' pipe ends."""
        for worker in self.worker_links:
            worker.close()

    def close(self) -> None:
        """Close the parent's copies of the channel ends (the workers'
        copies die with them)."""
        for fds in self.inboxes:
            for fd in fds:
                os.close(fd)
        self.inboxes = []
        for link in self.links:
            link.close()


class ProcessGroup:
    """A group of worker processes executing collectives over real links.

    Use as a context manager (or call :meth:`start` / :meth:`close`) for
    a persistent pool whose fork + link setup amortizes over many
    :meth:`run` calls; calling :meth:`run` on an unstarted group keeps
    the historical one-shot semantics (fresh fork per call, closures
    allowed).
    """

    def __init__(self, world_size: int, timeout: float = DEFAULT_TIMEOUT):
        check_positive("world_size", world_size)
        check_positive("timeout", timeout)
        self.world_size = world_size
        self.timeout = timeout
        self._ctx = mp.get_context("fork")
        self._owner_tag = f"{os.getpid()}g{next(_group_counter)}"
        self._res: _GroupResources | None = None
        self._procs: list | None = None
        self._epoch = 0
        self._last_run_failed = False
        self._broken = False
        self._segment_names: set[str] = set()

    # -- persistent lifecycle ------------------------------------------- #
    @property
    def started(self) -> bool:
        return self._procs is not None

    @property
    def broken(self) -> bool:
        """True once a persistent worker has died: the pool cannot run
        again — :meth:`close` it and start a fresh group."""
        return self._broken

    def start(self) -> "ProcessGroup":
        """Fork the persistent worker pool (idempotent)."""
        if self._broken:
            raise RuntimeError("process group is broken (a worker died)")
        if self._procs is not None:
            return self
        self._res = _GroupResources(self._ctx, self.world_size)
        self._procs = self._spawn(self._res, None)
        return self

    def _spawn(self, res: _GroupResources, initial) -> list:
        procs = [
            self._ctx.Process(
                target=_service_loop,
                args=(r, self.world_size, res, self.timeout, self._owner_tag, initial),
                daemon=True,
            )
            for r in range(self.world_size)
        ]
        for p in procs:
            p.start()
        res.forked()
        return procs

    def close(self) -> None:
        """Stop the workers and release every link resource.

        After an interrupted or failed run (``_last_run_failed``) the
        workers may still be executing the abandoned dispatch and will
        not read the stop command until it finishes — possibly never,
        for a long-lived serve loop.  Waiting the full transport timeout
        per worker would make Ctrl-C teardown take minutes, so a failed
        group gets a short grace before the workers are terminated;
        either way the shm segments are swept afterwards.
        """
        if self._procs is None:
            return
        for link in self._res.links:
            try:
                link.send_bytes(b"")
            except OSError:  # the worker is gone
                pass
        grace = 1.0 if self._last_run_failed else self.timeout
        for p in self._procs:
            p.join(timeout=grace)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self._procs = None
        self._res.close()
        self._res = None
        self._sweep_segments()

    def __enter__(self) -> "ProcessGroup":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------- #
    def run(self, fn: Callable[[Communicator], Any], *args, **kwargs) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; results in
        rank order.  Dispatches to the persistent pool when started,
        otherwise forks a one-shot group."""
        if self._procs is not None:
            return self._run_persistent(fn, args, kwargs)
        return self._run_once(fn, args, kwargs)

    def _run_persistent(self, fn, args, kwargs) -> list[Any]:
        if self._broken:
            raise RuntimeError("process group is broken (a worker died)")
        epoch = self._epoch + 1
        try:
            blob = pickle.dumps((epoch, fn, args, kwargs))
        except Exception as exc:
            raise TypeError(
                "a persistent ProcessGroup dispatches callables through a "
                "pipe, so fn/args must be picklable (module-level "
                f"functions, bound methods of picklable objects): {exc!r}"
            ) from exc
        self._epoch = epoch
        if self._last_run_failed:
            # A failed run can leave the barrier broken (a rank timed out
            # inside wait); every worker is idle now, so reset is safe.
            try:
                self._res.barrier.reset()
            except Exception:  # pragma: no cover - platform quirks
                pass
        for link in self._res.links:
            try:
                link.send_bytes(blob)
            except OSError:  # a dead worker: _collect reports it by rank
                pass
        del blob
        return self._collect(epoch, self._procs, self._res.links)

    def _run_once(self, fn, args, kwargs) -> list[Any]:
        res = _GroupResources(self._ctx, self.world_size)
        procs = self._spawn(res, (fn, args, kwargs))
        try:
            return self._collect(0, procs, res.links)
        finally:
            for p in procs:
                p.join(timeout=self.timeout)
                if p.is_alive():  # pragma: no cover - defensive cleanup
                    p.terminate()
            res.close()
            self._sweep_segments()

    def _collect(self, epoch: int, procs, links) -> list[Any]:
        """Gather one result per rank, bounding the wait by the timeout."""
        results: list[Any] = [None] * self.world_size
        failures: list[tuple[int, str]] = []
        # Workers abort within `timeout` of a peer failure; 2.5x leaves
        # room for result marshalling (300s at the 120s default).
        deadline = time.monotonic() + 2.5 * self.timeout
        try:
            self._collect_loop(epoch, procs, links, results, failures, deadline)
        except KeyboardInterrupt:
            # Ctrl-C on the launcher: the workers are still mid-dispatch.
            # Mark the run failed so close() (a) resets the barrier if the
            # pool is reused and (b) terminates busy workers after a short
            # grace instead of the full transport timeout, then sweeps the
            # shm segments — an interrupted serve loop must not leak them.
            self._last_run_failed = True
            raise
        self._last_run_failed = bool(failures)
        if failures:
            # Arrival order: the first reporter is the origin — later
            # failures are usually its victims timing out.
            rank, err = failures[0]
            raise RuntimeError(f"rank {rank} failed: {err}")
        return results

    def _collect_loop(self, epoch, procs, links, results, failures, deadline) -> None:
        """Wait on every unreported rank's pipe and process sentinel: a
        result is read as soon as it is written, and a worker that exits
        without one is reported as soon as it exits."""
        pending = set(range(self.world_size))
        while pending:
            ready = set(
                wait(
                    [links[r] for r in pending] + [procs[r].sentinel for r in pending],
                    timeout=max(0.0, deadline - time.monotonic()),
                )
            )
            if not ready:
                self._last_run_failed = True
                raise RuntimeError(
                    f"no result from ranks {sorted(pending)} within "
                    f"{2.5 * self.timeout:.0f}s (worker dead or deadlocked?)"
                )
            dead = []
            for r in sorted(pending):
                link = links[r]
                if link not in ready and procs[r].sentinel not in ready:
                    continue
                # A worker may exit right after writing its result: read
                # what it left before calling it dead.
                try:
                    if not link.poll():
                        raise EOFError
                    blob = link.recv_bytes()
                except (EOFError, OSError):
                    dead.append(r)
                    continue
                msg_epoch, rank, status, payload, names = pickle.loads(blob)
                del blob
                if msg_epoch != epoch:  # leftover from an earlier failed run
                    continue
                self._segment_names.update(names)
                pending.discard(rank)
                if status == "ok":
                    results[rank] = payload
                else:
                    failures.append((rank, payload))
            if dead:
                self._broken = self._procs is not None
                self._last_run_failed = True
                raise RuntimeError(
                    f"worker processes for ranks {dead} died without "
                    "reporting a result"
                )

    # -- shared-memory hygiene ------------------------------------------ #
    def _sweep_segments(self) -> None:
        """Unlink segments the workers reported (one-shot workers leave
        unlinking to the parent) plus any leaked by crashed workers."""
        from multiprocessing import shared_memory

        from repro.comm.shm import bypass_resource_tracker

        bypass_resource_tracker()
        for name in self._segment_names:
            try:
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover - defensive cleanup
                pass
        self._segment_names.clear()
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):  # crashed workers never report names
            for path in glob.glob(
                os.path.join(shm_dir, f"repro-{self._owner_tag}r*")
            ):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - already gone
                    pass


def run_multiprocess(
    world_size: int,
    fn: Callable[[Communicator], Any],
    *args,
    timeout: float = DEFAULT_TIMEOUT,
    **kwargs,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``world_size`` processes; results in rank order."""
    return ProcessGroup(world_size, timeout=timeout).run(fn, *args, **kwargs)
