"""Communicator: the per-rank handle with collective algorithms.

Backends supply three primitives — ``_send(dst, obj)``, ``_recv(src)``
and ``barrier()`` — and inherit real implementations of the collectives
(mpi4py-style lowercase object API).  Byte accounting is built in:
``bytes_sent`` tracks the wire volume of every operation, which the
communication-efficiency tests assert on (e.g. AllGather's linear-in-N
traffic vs AlltoAll's flat traffic).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs.recorder import NULL_RECORDER
from repro.tensors import SparseRows


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a message.

    Arrays count their buffer, :class:`~repro.tensors.SparseRows` counts
    indices + values (its ``nbytes``), containers recurse, and plain
    Python scalars count as the 8 bytes a binary wire format would give
    them — so ``bytes_sent`` tracks the α-β cost model's payload term
    instead of pickling overhead.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, SparseRows):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="ignore"))
    if obj is None:
        return 0
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    return 64  # headers / unknown small objects


def ring_chunk_bounds(n: int, parts: int) -> list[int]:
    """Split points of ``np.array_split(range(n), parts)`` as flat offsets.

    ``bounds[i]:bounds[i+1]`` is chunk ``i`` — a *contiguous slice*, so
    ring collectives can send zero-copy views instead of fancy-indexed
    copies.
    """
    base, extra = divmod(n, parts)
    bounds = [0]
    for i in range(parts):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return bounds


class Communicator:
    """Rank-local endpoint of a fully-connected group."""

    #: True when ``_send`` captures the payload's bytes before returning,
    #: so callers may send live views of buffers they mutate afterwards
    #: (the process backend copies into its segment inside ``_send``).
    #: False for reference-passing backends (threads) — there the
    #: collectives snapshot views before sending.
    SEND_SNAPSHOTS = False

    #: Span recorder (:mod:`repro.obs`).  The class-level default is the
    #: shared no-op, so untraced communicators pay a single ``enabled``
    #: check per operation; ``repro.obs.install_recorder`` swaps in a
    #: live :class:`~repro.obs.SpanRecorder` per instance.
    obs = NULL_RECORDER

    def __init__(self, rank: int, world_size: int):
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        self.rank = rank
        self.world_size = world_size
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- primitives supplied by backends -------------------------------- #
    def _send(self, dst: int, obj: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def _recv(self, src: int) -> Any:  # pragma: no cover
        raise NotImplementedError

    def barrier(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def transport_counters(self) -> dict[str, float]:
        """End-of-run transport statistics for :mod:`repro.obs` scraping.

        Backends with interesting internals (the shared-memory segment
        pool) override this; the numbers are tracked by the transport
        anyway, so reporting them costs nothing on the hot path.
        """
        return {}

    # -- point to point -------------------------------------------------- #
    def send(self, dst: int, obj: Any) -> None:
        if dst == self.rank:
            raise ValueError("self-send is not allowed; keep the object local")
        if not 0 <= dst < self.world_size:
            raise ValueError(f"destination {dst} out of range")
        self.bytes_sent += payload_nbytes(obj)
        self.messages_sent += 1
        obs = self.obs
        if not obs.enabled:
            self._send(dst, obj)
            return
        obs.count_bytes(obj)
        t0 = obs.t()
        self._send(dst, obj)
        obs.rec_phase("send", t0)

    def recv(self, src: int) -> Any:
        if not 0 <= src < self.world_size:
            raise ValueError(f"source {src} out of range")
        obs = self.obs
        if not obs.enabled:
            return self._recv(src)
        t0 = obs.t()
        try:
            return self._recv(src)
        finally:
            obs.rec_phase("recv", t0)

    def sendrecv(self, dst: int, obj: Any, src: int) -> Any:
        """Combined exchange: send to ``dst``, receive from ``src``.

        Send-first guarantees progress for any exchange pattern — rings,
        pairs, recursive doubling — with no parity assumptions: thread
        sends are buffered without bound, and a process-backend send
        that finds the peer's control channel full keeps ingesting its
        own inbox while it waits (bounded by ``timeout``), so two ranks
        sending at each other cannot deadlock.
        """
        self.send(dst, obj)
        return self.recv(src)

    def snapshot(self, view: np.ndarray) -> np.ndarray:
        """``view``, made safe to send while its backing buffer mutates.

        Zero-copy on transports whose ``_send`` captures bytes
        synchronously; an explicit copy elsewhere.  Ring collectives
        route every chunk send through this.
        """
        return view if self.SEND_SNAPSHOTS else view.copy()

    # -- zero-copy fusion hooks ------------------------------------------- #
    # Ring collectives are memory-bandwidth bound, so the transports that
    # can are allowed to skip intermediate buffers entirely: receive a
    # payload as a view of transport-owned memory, reduce straight into
    # the outgoing wire buffer, or land a received chunk directly in its
    # final position.  The defaults below are plain compositions of
    # ``send``/``recv`` — every backend (threads, fault injection
    # wrappers) works unchanged; the shared-memory transport
    # overrides them with genuinely copy-free implementations.

    def recv_view(self, src: int) -> Any:
        """Receive like :meth:`recv`, but the result's arrays may alias
        transport-owned memory.

        The view is guaranteed valid only until the next communication
        call on this communicator — consume it (copy, reduce, or pass to
        :meth:`send_sum`) before then.  Default: an owned :meth:`recv`.
        """
        if not 0 <= src < self.world_size:
            raise ValueError(f"source {src} out of range")
        obs = self.obs
        if not obs.enabled:
            return self._recv_view(src)
        t0 = obs.t()
        try:
            return self._recv_view(src)
        finally:
            obs.rec_phase("recv", t0)

    def _recv_view(self, src: int) -> Any:
        return self._recv(src)

    def recv_view_pinned(self, src: int) -> Any:
        """Receive like :meth:`recv_view`, but the views stay valid across
        further communication calls, until :meth:`release_views`.

        Lets a collective hold several peers' payloads simultaneously and
        reduce straight out of transport-owned memory (the sparse-AlltoAll
        merge reads every incoming byte exactly once, from the sender's
        shared-memory segment).  Callers MUST call :meth:`release_views`
        when done — on transports that pin, the sender's buffers stay
        unrecyclable until then.  Default: an owned :meth:`recv`, for
        which release is a no-op.
        """
        if not 0 <= src < self.world_size:
            raise ValueError(f"source {src} out of range")
        obs = self.obs
        if not obs.enabled:
            return self._recv_view_pinned(src)
        t0 = obs.t()
        try:
            return self._recv_view_pinned(src)
        finally:
            obs.rec_phase("recv", t0)

    def _recv_view_pinned(self, src: int) -> Any:
        return self._recv(src)

    def release_views(self) -> None:
        """Release every payload pinned by :meth:`recv_view_pinned` (their
        memory may be recycled once all ranks release).  No-op on
        transports whose receives are always owned."""

    def recv_into(
        self, src: int, out: np.ndarray, accumulate: bool = False
    ) -> None:
        """Receive an ndarray directly into ``out`` (``+=`` when
        ``accumulate``); no intermediate allocation on zero-copy
        transports."""
        chunk = np.asarray(self.recv_view(src)).reshape(out.shape)
        if accumulate:
            np.add(out, chunk, out=out)
        else:
            np.copyto(out, chunk)

    def send_sum(self, dst: int, x: np.ndarray, y: np.ndarray) -> None:
        """Send the elementwise sum of two same-shape arrays to ``dst``.

        Zero-copy transports reduce straight into the outgoing wire
        buffer; the default materializes ``x + y`` and sends it.  ``x``
        may be a live :meth:`recv_view` result — it is consumed before
        this call returns.
        """
        self.send(dst, np.add(np.asarray(x), np.asarray(y)))

    # -- collectives ------------------------------------------------------ #
    def _traced(self, name: str):
        """Start a collective-level span; returns ``(obs, t0)``.

        Collective spans live on the ``"comm"`` lane (kind ``"comm"``),
        wait time included — that is the lane whose exposure outside
        compute activity *is* the §5.4 Computation Stall.  Per-primitive
        phases inside them land on ``"comm.phase"``, and nested
        collectives (composed algorithms) record only their outermost
        span (see :meth:`repro.obs.SpanRecorder.coll_begin`).
        """
        obs = self.obs
        return (obs, obs.coll_begin()) if obs.enabled else (None, 0.0)

    def broadcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from ``root``."""
        obs, t0 = self._traced("broadcast")
        try:
            return self._broadcast(obj, root)
        finally:
            if obs is not None:
                obs.coll_end("broadcast", t0)

    def _broadcast(self, obj: Any, root: int) -> Any:
        size, rank = self.world_size, (self.rank - root) % self.world_size
        mask = 1
        while mask < size:
            if rank < mask:
                peer = rank + mask
                if peer < size:
                    self.send((peer + root) % size, obj)
            elif rank < 2 * mask:
                obj = self.recv(((rank - mask) + root) % size)
            mask <<= 1
        return obj

    def allgather(self, obj: Any) -> list[Any]:
        """Ring allgather: returns ``[obj_rank0, ..., obj_rankN-1]``."""
        obs, t0 = self._traced("allgather")
        try:
            return self._allgather(obj)
        finally:
            if obs is not None:
                obs.coll_end("allgather", t0)

    def _allgather(self, obj: Any) -> list[Any]:
        size = self.world_size
        out: list[Any] = [None] * size
        out[self.rank] = obj
        current = obj
        right = (self.rank + 1) % size
        left = (self.rank - 1) % size
        for step in range(size - 1):
            current = self.sendrecv(right, current, left)
            out[(self.rank - step - 1) % size] = current
        return out

    def alltoall(self, objs: list[Any]) -> list[Any]:
        """Personalized exchange: ``objs[j]`` goes to rank ``j``; returns
        the list received (index = source rank)."""
        obs, t0 = self._traced("alltoall")
        try:
            return self._alltoall(objs)
        finally:
            if obs is not None:
                obs.coll_end("alltoall", t0)

    def _alltoall(self, objs: list[Any]) -> list[Any]:
        if len(objs) != self.world_size:
            raise ValueError(
                f"alltoall needs {self.world_size} slots, got {len(objs)}"
            )
        out: list[Any] = [None] * self.world_size
        out[self.rank] = objs[self.rank]
        for step in range(1, self.world_size):
            dst = (self.rank + step) % self.world_size
            src = (self.rank - step) % self.world_size
            out[src] = self.sendrecv(dst, objs[dst], src)
        return out

    def allreduce(
        self, array: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Ring AllReduce (sum): reduce-scatter then allgather.

        The bandwidth-optimal algorithm of Patarasuk & Yuan (2009) used
        by NCCL: ``2(N-1)`` transfers of ``n/N`` elements each.  The
        input dtype is preserved (float32 gradients pay float32 wire
        bytes), the input is never copied wholesale, and every partial
        sum is forwarded the moment it is formed — on zero-copy
        transports the reduction lands straight in the outgoing wire
        buffer (:meth:`send_sum`) and received chunks land straight in
        their final position (:meth:`recv_into`).

        ``out``, when given, receives the result (shape, dtype, and
        C-contiguity must match the input) — reusing one buffer across
        steps avoids a large allocation per call.  ``out`` may be the
        input array itself for in-place operation: the ring reads every
        input chunk before the first output chunk is written.
        """
        obs, t0 = self._traced("allreduce")
        try:
            return self._allreduce(array, out)
        finally:
            if obs is not None:
                obs.coll_end("allreduce", t0)

    def _allreduce(self, array: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        array = np.asarray(array)
        size = self.world_size
        if out is not None:
            out = np.asarray(out)
            if (
                out.shape != array.shape
                or out.dtype != array.dtype
                or not out.flags.c_contiguous
            ):
                raise ValueError(
                    "out must be a C-contiguous array matching the "
                    "input's shape and dtype"
                )
        if size == 1:
            if out is None:
                return array.copy()
            np.copyto(out, array)
            return out
        flat_in = np.ascontiguousarray(array).reshape(-1)
        result = out if out is not None else np.empty(array.shape, array.dtype)
        b = ring_chunk_bounds(flat_in.size, size)
        flat_out = result.reshape(-1)
        right = (self.rank + 1) % size
        left = (self.rank - 1) % size
        # Reduce-scatter: partial sums only exist in flight; nothing is
        # written locally until this rank's owned chunk is complete.
        partial = None
        for step in range(size - 1):
            send_idx = (self.rank - step) % size
            outgoing = flat_in[b[send_idx] : b[send_idx + 1]]
            if step == 0:
                self.send(right, self.snapshot(outgoing))
            else:
                self.send_sum(right, partial, outgoing)
            partial = self.recv_view(left)
        owned = (self.rank + 1) % size
        np.add(
            np.asarray(partial).reshape(-1),
            flat_in[b[owned] : b[owned + 1]],
            out=flat_out[b[owned] : b[owned + 1]],
        )
        # Allgather of the reduced chunks, received straight into place.
        for step in range(size - 1):
            send_idx = (self.rank + 1 - step) % size
            recv_idx = (self.rank - step) % size
            self.send(
                right, self.snapshot(flat_out[b[send_idx] : b[send_idx + 1]])
            )
            self.recv_into(left, flat_out[b[recv_idx] : b[recv_idx + 1]])
        return result

    def allreduce_mean(self, array: np.ndarray) -> np.ndarray:
        """Sum-allreduce divided by world size (gradient averaging)."""
        return self.allreduce(array) / self.world_size
