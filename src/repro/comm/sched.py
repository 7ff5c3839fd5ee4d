"""Asynchronous priority-scheduled communication engine (§4.2 made real).

The simulator has always *modeled* EmbRace's 2D scheduling — priorities
from :mod:`repro.schedule` deciding which transfer the link serves next.
This module executes it: every rank runs a dedicated **comm thread**
draining a priority queue of work items, collectives return
:class:`CommHandle` futures, and dense AllReduces are submitted as
independent chunks (partitioned with the existing
:func:`~repro.comm.backend.ring_chunk_bounds`) so a high-priority item —
a prior sparse AlltoAll, a hoisted embedding refresh — preempts a large
dense reduction *between chunks*.

Correctness rests on two invariants:

**One global order (token protocol).**  Collectives are cooperative: if
rank 0 starts chunk 7 while rank 1 starts the prior AlltoAll, both
block forever (or worse, mis-match messages on the shared FIFO links).
Local queue states differ across ranks — the heap alone cannot pick a
common winner.  So rank 0's comm thread is the *coordinator*: each time
it pops its heap it broadcasts a run-token naming the popped item on a
control channel, and every follower executes items strictly in token
order (waiting, if needed, for its training thread to submit the named
item).  Because every rank's training loop submits the **same sequence
of items** (SPMD — item ids are a per-scheduler counter), the token
names the same logical collective everywhere.  The leader pipelines
tokens one item ahead — announcing item ``k+1`` while item ``k``'s
collective is still in flight — so the token round-trip stays off the
critical path (a late urgent submission can overtake everything except
that single announced item).  World size 1 skips tokens entirely.

**Channel multiplexing.**  Tokens interleave with item payloads on the
same links, and nothing stops rank 0 from opening item ``k+1`` while a
slow follower still drains item ``k``'s traffic.  Every message is
therefore enveloped ``(channel, payload)`` — the channel is the item id
(or ``CTRL`` for tokens) — and each comm thread demultiplexes on
receive, stashing messages for channels it is not currently serving.
Per-link FIFO order within a channel is preserved, which is all the
collective algorithms require.

**Bit-identity.**  ``overlap=False`` runs every submitted item
immediately on the calling thread against the raw communicator — the
*same* chunk bounds, the same ring algorithms, the same reduction
order.  Scheduling changes only *when* a collective runs, never its
arithmetic, so overlapped training is bit-identical to synchronous mode
(asserted in ``tests/test_trainer_real.py``).

The engine composes with every backend/transport of
:func:`~repro.comm.open_group` and with
:class:`~repro.faults.FaultyCommunicator`: channels ride *above* the
fault injector's sequence envelopes, so drops, retransmits and
reordering are repaired before the demultiplexer ever sees a message.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.comm.backend import Communicator, ring_chunk_bounds
from repro.comm.frames import own_payload

#: Control channel carrying scheduler run/stop tokens (item ids are >= 0).
CTRL = -1

_RUN = 0
_STOP = 1

#: Priority of facade collectives the training thread immediately waits
#: on (loss averaging, next-id gathers, refresh AlltoAlls): they block
#: compute, so they outrank everything, including ``PRIORITY_PRIOR``.
PRIORITY_URGENT = -100.0

#: Priority of the serve lane (:mod:`repro.serve` lookup traffic riding
#: the engine's channel multiplexing): latency-sensitive, so it preempts
#: every training transfer — prior sparse exchanges included — but never
#: a facade collective the training thread is already blocked on.
PRIORITY_SERVE = -50.0

#: Elements per dense-AllReduce chunk: small enough that a pending prior
#: sparse exchange preempts within a fraction of a large tensor, large
#: enough that per-item overhead stays negligible.
DEFAULT_CHUNK_ELEMS = 65536

#: Upper bound on chunks per tensor (tiny-model runs stay one item).
DEFAULT_MAX_CHUNKS = 8

#: Elements per dense gradient bucket: consecutive dense parameters (in
#: backward order) are flattened together until a bucket reaches this
#: many elements, then reduced as one chunked AllReduce.
DEFAULT_BUCKET_ELEMS = 65536


#: Fields earlier releases wrote into knob dicts (tuned profiles, saved
#: run configs) that have since been removed, each with the one value a
#: saved dict may still carry: the removed behaviour's inert default.
_REMOVED_FIELDS = {"dense_switch_density": 1.0}


@dataclass(frozen=True)
class SchedKnobs:
    """The scheduler's tunable constants, gathered into one value.

    Every field defaults to the constant the code used before the knob
    existed, so ``SchedKnobs()`` reproduces historical behaviour
    bit-for-bit.  Instances are frozen (hashable, safe to share across
    trainer ranks) and validate on construction.

    ``delayed_min_rows`` folds a *smaller-than-threshold* delayed sparse
    part back into the prior part (the whole gradient is exchanged
    before the optimizer step).  Folding is loss-curve-safe — both parts
    of the §5.7 split update use the same bias-correction step and the
    rows are disjoint — whereas delaying *more* rows would change which
    shards the next step's refresh observes, so the knob only moves
    bytes in the bit-identical direction.

    ``hot_fraction`` / ``repartition_interval`` drive hybrid hot/cold
    placement (:mod:`repro.placement`): every ``repartition_interval``
    committed steps the trainer's drift monitor promotes the hottest
    ``round(hot_fraction * vocab)`` rows of each embedding table to the
    replicated dense lane and demotes the rest — bit-exact mid-training,
    so like every other knob these only move bytes, never arithmetic.
    ``0.0`` / ``0`` (the defaults) keep uniform column sharding unless
    an explicit ``placement=`` plan is passed.

    ``hier_dense`` / ``hier_sparse`` / ``hier_hot`` select the two-level
    collectives of :mod:`repro.comm.hierarchy` for the dense bucket
    lane, the prior/delayed sparse exchanges, and the hot-row lane
    respectively.  Tri-state: ``None`` (the default) means *automatic* —
    hierarchical whenever the run has a multi-node
    :class:`~repro.comm.NodeTopology`, flat otherwise; ``True`` /
    ``False`` pin the choice so ``repro.tune`` can search
    flat-vs-hierarchical per exchange.  With a topology present both
    settings produce bit-identical results (the flat paths then use the
    node-grouped ``fold_groups`` merge); without one, forcing ``True``
    is a no-op.
    """

    chunk_elems: int = DEFAULT_CHUNK_ELEMS
    max_chunks: int = DEFAULT_MAX_CHUNKS
    bucket_elems: int = DEFAULT_BUCKET_ELEMS
    delayed_min_rows: int = 0
    hot_fraction: float = 0.0
    repartition_interval: int = 0
    hier_dense: bool | None = None
    hier_sparse: bool | None = None
    hier_hot: bool | None = None
    #: Pipeline schedule dimension (searchable via ``repro.tune``): the
    #: ``"data_parallel"`` default reproduces historical behaviour;
    #: ``"gpipe"`` / ``"1f1b"`` / ``"nested"`` select a
    #: :class:`~repro.schedule.tabular.TabularSchedule` of
    #: ``pipeline_stages`` stages x ``microbatches`` microbatches.
    #: Pipeline schedules are simulator-only — the real trainer rejects
    #: them with a clear error.
    schedule: str = "data_parallel"
    pipeline_stages: int = 1
    microbatches: int = 1

    def __post_init__(self):
        if not isinstance(self.chunk_elems, int) or self.chunk_elems <= 0:
            raise ValueError(
                f"chunk_elems must be a positive int, got {self.chunk_elems!r}"
            )
        if not isinstance(self.max_chunks, int) or self.max_chunks < 1:
            raise ValueError(
                f"max_chunks must be an int >= 1, got {self.max_chunks!r}"
            )
        if not isinstance(self.bucket_elems, int) or self.bucket_elems <= 0:
            raise ValueError(
                f"bucket_elems must be a positive int, got {self.bucket_elems!r}"
            )
        if not isinstance(self.delayed_min_rows, int) or self.delayed_min_rows < 0:
            raise ValueError(
                f"delayed_min_rows must be an int >= 0, "
                f"got {self.delayed_min_rows!r}"
            )
        if (
            not isinstance(self.hot_fraction, (int, float))
            or isinstance(self.hot_fraction, bool)
            or not 0.0 <= self.hot_fraction <= 1.0
        ):
            raise ValueError(
                f"hot_fraction must be a float in [0, 1], "
                f"got {self.hot_fraction!r}"
            )
        if (
            not isinstance(self.repartition_interval, int)
            or self.repartition_interval < 0
        ):
            raise ValueError(
                f"repartition_interval must be an int >= 0, "
                f"got {self.repartition_interval!r}"
            )
        for name in ("hier_dense", "hier_sparse", "hier_hot"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise ValueError(
                    f"{name} must be True, False, or None (auto), got {value!r}"
                )
        if self.schedule not in (
            "data_parallel", "gpipe", "1f1b", "nested"
        ):
            raise ValueError(
                f"schedule must be one of 'data_parallel', 'gpipe', "
                f"'1f1b', 'nested', got {self.schedule!r}"
            )
        for name in ("pipeline_stages", "microbatches"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"{name} must be an int >= 1, got {value!r}"
                )
        if self.schedule == "data_parallel" and (
            self.pipeline_stages != 1 or self.microbatches != 1
        ):
            raise ValueError(
                "data_parallel schedule requires pipeline_stages == 1 and "
                f"microbatches == 1, got {self.pipeline_stages} stages x "
                f"{self.microbatches} microbatches"
            )

    def hierarchical(self, lane: str, multi_node: bool) -> bool:
        """Resolve a ``hier_*`` tri-state for one lane (``"dense"``,
        ``"sparse"``, ``"hot"``): explicit setting wins, ``None`` means
        hierarchical exactly when the topology is multi-node."""
        value = getattr(self, f"hier_{lane}")
        if value is None:
            return multi_node
        return bool(value) and multi_node

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready); inverse of ``from_dict``."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SchedKnobs":
        """Build from a mapping, rejecting unknown keys.

        Dicts written by earlier releases may carry a field listed in
        :data:`_REMOVED_FIELDS`: its inert default is dropped, any other
        value is refused.
        """
        d = dict(d)
        for key, default in _REMOVED_FIELDS.items():
            if key in d:
                value = d.pop(key)
                if value != default:
                    raise ValueError(
                        f"{key}={value!r}: the sparse collectives' dense "
                        f"switch was removed, so only its never-switching "
                        f"default {default!r} still loads"
                    )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown SchedKnobs fields: {sorted(unknown)}")
        return cls(**d)


def dense_chunk_bounds(
    n: int,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
    max_chunks: int = DEFAULT_MAX_CHUNKS,
) -> list[int]:
    """Flat split offsets for a dense tensor of ``n`` elements.

    A deterministic function of ``n`` alone, so every rank (and both
    overlap modes) partitions — and therefore reduces — identically.
    """
    parts = max(1, min(max_chunks, -(-n // chunk_elems)))
    return ring_chunk_bounds(n, parts)


class SchedulerClosed(RuntimeError):
    """Work submitted to a closed or aborted :class:`CommScheduler`."""


class CommHandle:
    """Future for one scheduled communication work item.

    ``wait()`` blocks until the comm thread has executed the item and
    returns its result (re-raising the item's exception, if any).  In
    synchronous mode (``overlap=False``) items complete inside
    ``submit`` and ``wait`` returns immediately.
    """

    __slots__ = ("label", "priority", "_event", "_result", "_exc")

    def __init__(self, label: str, priority: float):
        self.label = label
        self.priority = priority
        self._event = threading.Event()
        self._result: Any = None
        self._exc: BaseException | None = None

    def done(self) -> bool:
        """True once the item has finished (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> Any:
        """Block until the item completes; return its result."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"comm item {self.label!r} not done in {timeout}s")
        if self._exc is not None:
            raise self._exc
        return self._result

    # -- engine side ----------------------------------------------------- #
    def _finish(self, result: Any) -> None:
        self._result = result
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._event.set()


class _WorkItem:
    __slots__ = ("seq", "priority", "fn", "label", "handle")

    def __init__(self, seq: int, priority: float, fn: Callable, label: str):
        self.seq = seq
        self.priority = priority
        self.fn = fn
        self.label = label
        self.handle = CommHandle(label, priority)


class _ChannelComm(Communicator):
    """Channel-isolated view of the engine's base communicator.

    ``_send`` envelopes every message with the item's channel id; the
    receive primitives demultiplex, stashing messages destined for other
    channels in the scheduler-owned stash (keyed ``(src, channel)``)
    until their item runs.  Only the comm thread touches the base
    communicator's primitives, so single-threaded transports are safe.

    The zero-copy hooks (``recv_view`` / ``recv_view_pinned`` /
    ``release_views``, and ``recv_into`` built on them) forward to the
    base communicator, so a scheduled collective reduces out of
    transport-owned memory exactly as an inline one does.  A message
    for *another* channel received that way is copied to owned memory
    before it is stashed — its view dies with the next base call; only
    a match is handed out live.

    Byte accounting accumulates locally and is folded into the base
    communicator after the item completes; ``obs`` is copied from the
    base so collective spans land on the real recorder (recorded from
    the comm thread — :class:`~repro.obs.SpanRecorder` is thread-safe).
    """

    def __init__(
        self,
        base: Communicator,
        channel: int,
        stash: dict[tuple[int, int], deque],
    ):
        super().__init__(base.rank, base.world_size)
        self._base = base
        self._channel = channel
        self._stash = stash
        self.obs = base.obs
        self.SEND_SNAPSHOTS = base.SEND_SNAPSHOTS

    def _send(self, dst: int, obj: Any) -> None:
        self._base._send(dst, (self._channel, obj))

    def _demux(self, src: int, recv: Callable[[int], Any], live: bool) -> Any:
        """Next message of this channel from ``src`` through the base
        primitive ``recv``; ``live`` says its results may be views."""
        pending = self._stash.get((src, self._channel))
        if pending:
            return pending.popleft()
        while True:
            channel, obj = recv(src)
            if channel == self._channel:
                return obj
            self._stash.setdefault((src, channel), deque()).append(
                own_payload(obj) if live else obj
            )

    def _recv(self, src: int) -> Any:
        return self._demux(src, self._base._recv, live=False)

    def _recv_view(self, src: int) -> Any:
        return self._demux(src, self._base._recv_view, live=True)

    def _recv_view_pinned(self, src: int) -> Any:
        return self._demux(src, self._base._recv_view_pinned, live=True)

    def release_views(self) -> None:
        self._base.release_views()

    def barrier(self) -> None:
        self._base.barrier()


class CommScheduler:
    """Per-rank asynchronous communication engine.

    ``submit(fn, priority)`` enqueues ``fn(comm)`` — where ``comm`` is a
    :class:`~repro.comm.Communicator` restricted to the item's channel —
    and returns a :class:`CommHandle`.  Lower priority values run first
    (ties break FIFO by submission order).  All ranks must submit the
    same sequence of items (the SPMD invariant above); rank-asymmetric
    point-to-point traffic belongs outside the engine's lifetime.

    ``overlap=False`` degrades to synchronous execution — each item runs
    inside ``submit`` on the raw communicator — with identical
    arithmetic, which is what makes overlap-vs-sync bit-identity
    testable.
    """

    #: Backstop for joining the comm thread at ``close``: transports all
    #: enforce recv deadlines, so the thread exits on its own — this
    #: bound only guards against a genuinely wedged transport.
    JOIN_TIMEOUT = 300.0

    def __init__(self, comm: Communicator, overlap: bool = True):
        self.comm = comm
        self.overlap = overlap
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int]] = []  # leader / world-1 ordering
        self._items: dict[int, _WorkItem] = {}
        self._next_seq = 0
        self._stash: dict[tuple[int, int], deque] = {}
        self._executed: list[str] = []  # labels in execution order (tests)
        self._inflight = 0
        self._paused = False
        self._closed = False
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        if overlap:
            self._thread = threading.Thread(
                target=self._drain,
                name=f"comm-sched-r{comm.rank}",
                daemon=True,
            )
            self._thread.start()

    # -- submission -------------------------------------------------------- #
    def submit(
        self, fn: Callable[[Communicator], Any], priority: float = 0.0,
        label: str = "",
    ) -> CommHandle:
        """Enqueue ``fn(comm)``; returns its :class:`CommHandle`."""
        if not self.overlap:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            item = _WorkItem(self._next_seq, priority, fn, label)
            self._next_seq += 1
            self._executed.append(label)
            try:
                item.handle._finish(fn(self.comm))
            except BaseException as exc:
                item.handle._fail(exc)
                raise
            return item.handle
        with self._cond:
            if self._error is not None:
                raise SchedulerClosed(
                    f"scheduler aborted: {self._error!r}"
                ) from self._error
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            item = _WorkItem(self._next_seq, priority, fn, label)
            self._next_seq += 1
            self._items[item.seq] = item
            self._inflight += 1
            if self.comm.rank == 0:
                heapq.heappush(self._heap, (priority, item.seq))
            self._cond.notify_all()
        return item.handle

    def allreduce_chunks(
        self,
        flat: np.ndarray,
        priority: float = 0.0,
        label: str = "",
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
        max_chunks: int = DEFAULT_MAX_CHUNKS,
        topology: Any = None,
    ) -> list[CommHandle]:
        """Submit a dense sum-AllReduce of ``flat`` as preemptible chunks.

        ``flat`` must be 1-D C-contiguous; each chunk is reduced in
        place (``allreduce(view, out=view)``), so the array holds the
        global sum once every returned handle is waited.  Chunk bounds
        depend on the element count only — both overlap modes and all
        ranks reduce identically.

        ``topology`` (a multi-node :class:`~repro.comm.NodeTopology`)
        switches each chunk to the two-level
        :func:`~repro.comm.two_level_allreduce` — bit-identical to the
        flat ring, but bulk bytes cross the node boundary once per node
        instead of once per rank.
        """
        if flat.ndim != 1 or not flat.flags.c_contiguous:
            raise ValueError("allreduce_chunks requires a 1-D contiguous array")
        bounds = dense_chunk_bounds(flat.size, chunk_elems, max_chunks)
        handles = []
        for i in range(len(bounds) - 1):
            view = flat[bounds[i] : bounds[i + 1]]

            if topology is not None and topology.multi_node:

                def run(comm: Communicator, view=view) -> None:
                    from repro.comm.hierarchy import two_level_allreduce

                    two_level_allreduce(comm, view, topology, out=view)

            else:

                def run(comm: Communicator, view=view) -> None:
                    comm.allreduce(view, out=view)

            handles.append(
                self.submit(run, priority=priority, label=f"{label}#c{i}")
            )
        return handles

    # -- flow control ------------------------------------------------------ #
    def flush(self) -> None:
        """Block until every submitted item has executed."""
        if not self.overlap:
            return
        with self._cond:
            while self._inflight > 0 and self._error is None:
                self._cond.wait(0.1)
            if self._error is not None:
                raise SchedulerClosed(
                    f"scheduler aborted: {self._error!r}"
                ) from self._error

    def pause(self) -> None:
        """Stop popping new items (tests: build up a queue, then release)."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    @property
    def executed_labels(self) -> list[str]:
        """Labels in actual execution order (this rank)."""
        return list(self._executed)

    def close(self) -> None:
        """Shut the engine down; joins the comm thread before returning.

        The comm thread must be fully dead before the caller hands the
        base communicator back (a persistent process pool reuses links
        across dispatches — a live demultiplexer would steal the next
        run's messages).  Clean shutdown drains the remaining queue; an
        aborted engine's thread exits on its transport deadline.
        """
        with self._cond:
            if self._closed and self._thread is None:
                return
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(self.JOIN_TIMEOUT)
            if self._thread.is_alive():  # pragma: no cover - wedged transport
                raise RuntimeError("comm scheduler thread failed to stop")
            self._thread = None
        for item in self._items.values():
            if not item.handle.done():
                item.handle._fail(SchedulerClosed("scheduler closed"))
        self._items.clear()

    # -- comm thread ------------------------------------------------------- #
    def _drain(self) -> None:
        try:
            if self.comm.rank == 0:
                self._drain_leader()
            else:
                self._drain_follower()
        except BaseException as exc:  # noqa: BLE001 - surfaced via handles
            self._abort(exc)

    def _drain_leader(self) -> None:
        comm, world = self.comm, self.comm.world_size
        committed: _WorkItem | None = None  # tokens sent, not yet executed
        while True:
            if committed is None:
                with self._cond:
                    while (not self._heap or self._paused) and not self._closed:
                        self._cond.wait()
                    if not self._heap:  # closed with an empty queue
                        break
                    committed = self._pop_locked()
                self._send_tokens(committed.seq)
            # Pipeline the token one item ahead: commit (and announce) the
            # next winner before executing the current one, so followers
            # receive its token while still serving this collective and
            # the control round-trip leaves the critical path.  Cost: an
            # urgent late submission can overtake everything except the
            # single already-announced item.
            nxt: _WorkItem | None = None
            if world > 1:
                with self._cond:
                    if self._heap and not self._paused:
                        nxt = self._pop_locked()
                if nxt is not None:
                    self._send_tokens(nxt.seq)
            self._execute(committed)
            committed = nxt
        for dst in range(1, world):
            comm._send(dst, (CTRL, (_STOP, 0)))

    def _pop_locked(self) -> _WorkItem:
        _, seq = heapq.heappop(self._heap)
        return self._items.pop(seq)

    def _send_tokens(self, seq: int) -> None:
        for dst in range(1, self.comm.world_size):
            self.comm._send(dst, (CTRL, (_RUN, seq)))

    def _drain_follower(self) -> None:
        while True:
            kind, seq = self._next_token()
            if kind == _STOP:
                break
            with self._cond:
                while seq not in self._items and not self._closed:
                    self._cond.wait()
                if seq not in self._items:  # closed before submission
                    break
                item = self._items.pop(seq)
            self._execute(item)

    def _next_token(self) -> tuple[int, int]:
        pending = self._stash.get((0, CTRL))
        if pending:
            return pending.popleft()
        while True:
            channel, obj = self.comm._recv(0)
            if channel == CTRL:
                return obj
            self._stash.setdefault((0, channel), deque()).append(obj)

    def _execute(self, item: _WorkItem) -> None:
        chan = _ChannelComm(self.comm, item.seq, self._stash)
        try:
            result = item.fn(chan)
        except BaseException as exc:
            item.handle._fail(exc)
            raise  # past a failed collective the global order is undefined
        finally:
            self.comm.bytes_sent += chan.bytes_sent
            self.comm.messages_sent += chan.messages_sent
        item.handle._finish(result)
        self._executed.append(item.label)
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def _abort(self, exc: BaseException) -> None:
        with self._cond:
            self._error = exc
            for item in self._items.values():
                if not item.handle.done():
                    item.handle._fail(exc)
            self._items.clear()
            self._inflight = 0
            self._cond.notify_all()


class SchedComm(Communicator):
    """Synchronous :class:`Communicator` facade over a :class:`CommScheduler`.

    Every collective becomes one urgent work item the calling thread
    immediately waits on — existing collective-consuming code (sparse
    exchanges, table gathers, validation refreshes) runs unmodified
    while still respecting the engine's single global order.  Only
    rank-symmetric operations are supported: point-to-point ``send`` /
    ``recv`` would break the SPMD submission invariant and raise.
    """

    def __init__(self, sched: CommScheduler, priority: float = PRIORITY_URGENT):
        super().__init__(sched.comm.rank, sched.comm.world_size)
        self._sched = sched
        self._priority = priority

    def _run(self, label: str, fn: Callable[[Communicator], Any]) -> Any:
        return self._sched.submit(fn, priority=self._priority, label=label).wait()

    # -- collectives (scheduled) ------------------------------------------ #
    def broadcast(self, obj: Any, root: int = 0) -> Any:
        return self._run("broadcast", lambda c: c.broadcast(obj, root))

    def allgather(self, obj: Any) -> list[Any]:
        return self._run("allgather", lambda c: c.allgather(obj))

    def alltoall(self, objs: list[Any]) -> list[Any]:
        return self._run("alltoall", lambda c: c.alltoall(objs))

    def allreduce(
        self, array: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return self._run("allreduce", lambda c: c.allreduce(array, out=out))

    def barrier(self) -> None:
        self._run("barrier", lambda c: c.barrier())

    # -- unsupported (rank-asymmetric) ------------------------------------ #
    def send(self, dst: int, obj: Any) -> None:
        raise RuntimeError(
            "point-to-point send is rank-asymmetric; use the base "
            "communicator outside the scheduler's lifetime"
        )

    def recv(self, src: int) -> Any:
        raise RuntimeError(
            "point-to-point recv is rank-asymmetric; use the base "
            "communicator outside the scheduler's lifetime"
        )

    def _send(self, dst: int, obj: Any) -> None:  # pragma: no cover
        raise RuntimeError("SchedComm has no raw primitives")

    def _recv(self, src: int) -> Any:  # pragma: no cover
        raise RuntimeError("SchedComm has no raw primitives")
