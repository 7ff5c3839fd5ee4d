"""Priority-scheduled communication engine (§4.2 made real).

The simulator has always *modeled* EmbRace's 2D scheduling — priorities
from :mod:`repro.schedule` deciding which transfer the link serves next.
This module executes it: collectives are submitted as work items to a
per-rank priority queue and return :class:`CommHandle` futures, so a
high-priority item — a prior sparse AlltoAll, a hoisted embedding
refresh — runs before every queued dense bucket, whenever it was
submitted.  The trainer submits each dense bucket as one item: since
nothing runs beside compute, the urgent items queued behind a bucket
already run first at the next wait, and splitting the bucket would only
add per-message cost.

**Caller-driven progress.**  No thread drains the queue.  ``submit``
pushes ``(priority, seq)`` onto the heap and runs nothing;
:meth:`CommHandle.wait` runs queued items in heap order, on the calling
thread and against the raw communicator, until its own item is done;
:meth:`CommScheduler.flush` runs whatever is still queued.  One lock per
scheduler keeps a single executor per rank.  Communication therefore
never runs beside compute: on a host with one core per rank a
background comm thread has no idle core to overlap on, and it measured
slower than inline execution (``docs/mechanisms.md``).  The simulator
keeps modelling the paper's GPU overlap.

**One global order.**  Collectives are cooperative: if rank 0 starts
a dense bucket while rank 1 starts the prior AlltoAll, both block
forever (or worse, mis-match messages on the shared FIFO links).  The SPMD rule is
that every rank makes the **same sequence of submit and wait calls**.
The heap then holds the same items at every wait on every rank, so
every rank pops the same items in the same order — no leader, no run
tokens, no per-message envelope.  Ties break FIFO by submission order.

**Bit-identity.**  ``overlap=False`` runs every item inside ``submit``,
in submission order — the *same* items, the same ring algorithms, the
same reduction order.  Scheduling changes only *when* a collective
runs, never its arithmetic, so both modes train bit-identically
(asserted in ``tests/test_trainer_real.py``).

**Failing fast.**  An item that raises fails itself and every queued
item, and the scheduler refuses further work: past a failed collective
the global order is undefined.  ``close()`` never starts a collective —
items still queued fail with :class:`SchedulerClosed` — so a rank
unwinding from an exception never leaves its peers inside half a
collective; their own waits end at the transport's receive deadline.

The engine composes with every backend/transport of
:func:`~repro.comm.open_group` and with
:class:`~repro.faults.FaultyCommunicator`: items run on whatever
communicator the scheduler was given, fault injector included.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.comm.backend import Communicator, ring_chunk_bounds

#: Priority of facade collectives the training thread immediately waits
#: on (loss averaging, next-id gathers, refresh AlltoAlls): they block
#: compute, so they outrank everything, including ``PRIORITY_PRIOR``.
PRIORITY_URGENT = -100.0

#: Priority of the serve lane (:mod:`repro.serve` lookup traffic riding
#: the engine's queue): latency-sensitive, so it preempts
#: every training transfer — prior sparse exchanges included — but never
#: a facade collective the training thread is already blocked on.
PRIORITY_SERVE = -50.0

#: :meth:`CommScheduler.allreduce_chunks`' split: at most
#: ``_MAX_CHUNKS`` items of about ``_CHUNK_ELEMS`` elements each.
_CHUNK_ELEMS = 65536
_MAX_CHUNKS = 8

#: Elements per dense gradient bucket: consecutive dense parameters (in
#: backward order) are flattened together until a bucket reaches this
#: many elements, then reduced as one AllReduce.
DEFAULT_BUCKET_ELEMS = 65536


def pack_buckets(
    sizes: Sequence[tuple[float, int]], bucket_elems: int = DEFAULT_BUCKET_ELEMS
) -> list[tuple[float, int, list[tuple[int, int, int]]]]:
    """Greedily pack dense tensors into AllReduce buckets.

    ``sizes`` lists ``(priority, elems)`` per tensor in forward order.
    Tensors are packed consecutively in backward-completion (reversed)
    order; a bucket closes before the tensor that would take it past
    ``bucket_elems``, so a larger tensor gets a bucket of its own.  A
    bucket takes the most urgent (minimum) priority of its members.

    Returns ``(priority, total_elems, [(index, start, stop)])`` per
    bucket, where ``index`` points into ``sizes`` and ``start:stop`` is
    the tensor's slice of the flat bucket.  The result depends only on
    ``sizes``, so every rank packs (and therefore reduces) identically.
    """
    buckets: list[tuple[float, int, list[tuple[int, int, int]]]] = []
    members: list[tuple[int, int, int]] = []
    prio, total = 0.0, 0
    for i in reversed(range(len(sizes))):
        p_prio, size = sizes[i]
        if members and total + size > bucket_elems:
            buckets.append((prio, total, members))
            members, total = [], 0
        prio = p_prio if not members else min(prio, p_prio)
        members.append((i, total, total + size))
        total += size
    if members:
        buckets.append((prio, total, members))
    return buckets


#: Fields earlier releases wrote into knob dicts (tuned profiles, saved
#: run configs) that have since been removed, each with the one value a
#: saved dict may still carry: the removed behaviour's inert default.
_REMOVED_FIELDS = {"dense_switch_density": 1.0}

#: Fields dropped from saved dicts whatever their value.  The dense chunk
#: sizing: each bucket is now one AllReduce, and no setting (the default
#: included) reproduced that fold order at world >= 3, so refusing a
#: value would protect nothing.  The delayed-part fold: folding a delayed
#: part into the prior exchange never changed the bits, and the exchange
#: now sends values only, so every rank must split the same way.
_DROPPED_FIELDS = ("chunk_elems", "max_chunks", "delayed_min_rows")

#: The pipeline-parallel fields, which no trainer ran: same rule, the
#: data-parallel defaults, so a saved pipeline profile never loads as a
#: data-parallel one.
_PIPELINE_FIELDS = {"schedule": "data_parallel", "pipeline_stages": 1, "microbatches": 1}

#: The per-lane wire switches ``hierarchical`` replaced (tri-states:
#: ``None`` meant automatic, which is what ``True`` does).
_PER_LANE_HIER = ("hier_dense", "hier_sparse", "hier_hot")


@dataclass(frozen=True)
class SchedKnobs:
    """The scheduler's tunable constants, gathered into one value.

    Every field defaults to the constant the code used before the knob
    existed, so ``SchedKnobs()`` reproduces historical behaviour
    bit-for-bit.  Instances are frozen (hashable, safe to share across
    trainer ranks) and validate on construction.

    ``hot_fraction`` / ``repartition_interval`` drive hybrid hot/cold
    placement (:mod:`repro.placement`): every ``repartition_interval``
    committed steps the trainer's drift monitor promotes the hottest
    ``round(hot_fraction * vocab)`` rows of each embedding table to the
    replicated dense lane and demotes the rest — bit-exact mid-training,
    so like every other knob these only move bytes, never arithmetic.
    ``0.0`` / ``0`` (the defaults) keep uniform column sharding unless
    an explicit ``placement=`` plan is passed.

    ``hierarchical`` selects the two-level collectives of
    :mod:`repro.comm.hierarchy` for the dense bucket, prior/delayed
    sparse and hot-row lanes whenever the run has a multi-node
    :class:`~repro.comm.NodeTopology`; ``False`` keeps the flat wires,
    which then fold node-grouped (``fold_groups``), so both settings
    train bit-identically.  Without a multi-node topology it is a no-op.
    """

    bucket_elems: int = DEFAULT_BUCKET_ELEMS
    hot_fraction: float = 0.0
    repartition_interval: int = 0
    hierarchical: bool = True

    def __post_init__(self):
        if not isinstance(self.bucket_elems, int) or self.bucket_elems <= 0:
            raise ValueError(
                f"bucket_elems must be a positive int, got {self.bucket_elems!r}"
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
        if not isinstance(self.hierarchical, bool):
            raise ValueError(
                f"hierarchical must be True or False, got {self.hierarchical!r}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready); inverse of ``from_dict``."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SchedKnobs":
        """Build from a mapping, rejecting unknown keys.

        Dicts written by earlier releases may carry a field listed in
        :data:`_REMOVED_FIELDS` or :data:`_PIPELINE_FIELDS`: its inert
        default is dropped, any other value is refused.  The
        :data:`_DROPPED_FIELDS` are dropped whatever their value.  The
        per-lane ``hier_*`` switches load when the lanes agree: all
        automatic or ``True`` is the default, all ``False`` is
        ``hierarchical=False``; a per-lane mix is refused.
        """
        d = dict(d)
        for key in _DROPPED_FIELDS:
            d.pop(key, None)
        for fields, why in (
            (_REMOVED_FIELDS, "the sparse collectives' dense switch was removed"),
            (_PIPELINE_FIELDS, "pipeline schedules were removed"),
        ):
            for key, default in fields.items():
                if key in d:
                    value = d.pop(key)
                    if value != default:
                        raise ValueError(
                            f"{key}={value!r}: {why}, so only the default "
                            f"{default!r} still loads"
                        )
        if any(key in d for key in _PER_LANE_HIER):
            lanes = {d.pop(key, None) for key in _PER_LANE_HIER}
            if lanes == {False}:
                d["hierarchical"] = False
            elif not lanes <= {None, True}:
                raise ValueError(
                    f"per-lane hier_* settings {sorted(map(repr, lanes))} "
                    "differ: one `hierarchical` switch now covers every lane"
                )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown SchedKnobs fields: {sorted(unknown)}")
        return cls(**d)


def _dense_chunk_bounds(n: int) -> list[int]:
    """Flat split offsets for a dense tensor of ``n`` elements.

    A deterministic function of ``n`` alone, so every rank (and both
    overlap modes) partitions — and therefore reduces — identically.
    """
    parts = max(1, min(_MAX_CHUNKS, -(-n // _CHUNK_ELEMS)))
    return ring_chunk_bounds(n, parts)


class SchedulerClosed(RuntimeError):
    """Work submitted to a closed or aborted :class:`CommScheduler`."""


class CommHandle:
    """Future for one scheduled communication work item.

    ``wait()`` runs the scheduler's queued items, most urgent first, on
    the calling thread until this one is done, then returns its result
    (re-raising the item's exception, if any).  In synchronous mode
    (``overlap=False``) items complete inside ``submit`` and ``wait``
    returns immediately.
    """

    __slots__ = ("label", "priority", "_sched", "_done", "_result", "_exc")

    def __init__(self, label: str, priority: float, sched: "CommScheduler"):
        self.label = label
        self.priority = priority
        self._sched = sched
        self._done = False
        self._result: Any = None
        self._exc: BaseException | None = None

    def done(self) -> bool:
        """True once the item has finished (successfully or not)."""
        return self._done

    def wait(self, timeout: float | None = None) -> Any:
        """Run queued items until this one completes; return its result.

        The caller runs the collectives, so ``timeout`` is checked only
        while waiting for another thread's item and between items: a
        collective that has started ends when it completes or at the
        transport's receive deadline, whichever comes first.
        """
        if not self._done:
            self._sched._run(lambda: self._done, timeout, f"wait on {self.label!r}")
        if self._exc is not None:
            raise self._exc
        return self._result

    # -- engine side ----------------------------------------------------- #
    def _finish(self, result: Any) -> None:
        self._result = result
        self._done = True

    def _fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._done = True


def _lane_counted(fn: Callable[[Communicator], Any], counter: str) -> Callable:
    """``fn`` that adds the bytes it sends to the ``counter`` counter.

    Exact: the executor runs one item at a time, so ``bytes_sent``
    moves only by this item's sends while it runs.
    """

    def run(comm: Communicator) -> Any:
        before = comm.bytes_sent
        try:
            return fn(comm)
        finally:
            comm.obs.count(counter, float(comm.bytes_sent - before))

    return run


class CommScheduler:
    """Per-rank priority-ordered communication engine.

    ``submit(fn, priority)`` queues ``fn(comm)`` — ``comm`` being the
    communicator the scheduler was built on — and returns a
    :class:`CommHandle`.  Lower priority values run first (ties break
    FIFO by submission order).  All ranks must make the same sequence of
    ``submit`` and ``wait`` calls (the SPMD rule above); rank-asymmetric
    point-to-point traffic belongs outside the engine's lifetime.

    ``overlap=False`` degrades to synchronous execution — each item runs
    inside ``submit`` — with identical arithmetic, which is what makes
    overlap-vs-sync bit-identity testable.
    """

    def __init__(self, comm: Communicator, overlap: bool = True):
        self.comm = comm
        self.overlap = overlap
        self._lock = threading.Lock()  # the single executor (and the heap)
        self._runner: int | None = None  # thread id holding the executor
        self._heap: list[tuple[float, int, Callable, CommHandle]] = []
        self._next_seq = 0
        self._executed: list[str] = []  # labels in execution order (tests)
        self._closed = False
        self._error: BaseException | None = None

    # -- submission -------------------------------------------------------- #
    def submit(
        self, fn: Callable[[Communicator], Any], priority: float = 0.0,
        label: str = "", lane: str | None = None,
    ) -> CommHandle:
        """Queue ``fn(comm)``; returns its :class:`CommHandle`.

        ``lane`` names the traffic: when tracing is on, the bytes the
        item sends count as ``wire_bytes.<lane>``.
        """
        self._check_outside_item("submit")
        if lane is not None and self.comm.obs.enabled:
            fn = _lane_counted(fn, f"wire_bytes.{lane}")
        handle = CommHandle(label, priority, self)
        with self._lock:
            if self._error is not None:
                raise SchedulerClosed(
                    f"scheduler aborted: {self._error!r}"
                ) from self._error
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            heapq.heappush(self._heap, (priority, self._next_seq, fn, handle))
            self._next_seq += 1
        if not self.overlap:
            handle.wait()
        return handle

    def allreduce_chunks(
        self, flat: np.ndarray, priority: float = 0.0, label: str = ""
    ) -> list[CommHandle]:
        """Submit a dense sum-AllReduce of ``flat`` as up to eight chunks.

        ``flat`` must be 1-D C-contiguous; each chunk is reduced in
        place (``allreduce(view, out=view)``), so the array holds the
        global sum once every returned handle is waited.  Chunk bounds
        depend on the element count only — both overlap modes and all
        ranks reduce identically.

        The trainer reduces each dense bucket as one item.  The split
        stays for the ``comm_step`` workload of ``benchmarks/e2e``, whose
        one round of an EmbRace step's collectives reduces its dense
        buffer this way.
        """
        if flat.ndim != 1 or not flat.flags.c_contiguous:
            raise ValueError("allreduce_chunks requires a 1-D contiguous array")
        bounds = _dense_chunk_bounds(flat.size)
        handles = []
        for i in range(len(bounds) - 1):
            view = flat[bounds[i] : bounds[i + 1]]

            def run(comm: Communicator, view=view) -> None:
                comm.allreduce(view, out=view)

            handles.append(
                self.submit(run, priority=priority, label=f"{label}#c{i}")
            )
        return handles

    # -- progress ---------------------------------------------------------- #
    def flush(self) -> None:
        """Run every queued item; raise if the engine has aborted."""
        self._run(lambda: not self._heap, None, "flush")
        if self._error is not None:
            raise SchedulerClosed(
                f"scheduler aborted: {self._error!r}"
            ) from self._error

    @property
    def executed_labels(self) -> list[str]:
        """Labels in actual execution order (this rank)."""
        return list(self._executed)

    def close(self) -> None:
        """Shut the engine down without starting another collective.

        Items still queued fail with :class:`SchedulerClosed`.  A rank
        that unwinds from an exception therefore never opens a
        collective its peers will not finish; a clean shutdown has
        waited on every handle it needed (or called :meth:`flush`).
        """
        self._check_outside_item("close")
        with self._lock:
            self._closed = True
            queued, self._heap = self._heap, []
        for _, _, _, handle in queued:
            handle._fail(
                SchedulerClosed(f"scheduler closed before {handle.label!r} ran")
            )

    # -- the executor ------------------------------------------------------ #
    def _check_outside_item(self, what: str) -> None:
        if self._runner == threading.get_ident():
            raise RuntimeError(
                f"{what} from inside a running comm item: an item must use "
                "the communicator it is given, or the queue order changes"
            )

    def _run(
        self, until: Callable[[], bool], timeout: float | None, what: str
    ) -> None:
        """Pop and run queued items on this thread until ``until()``."""
        self._check_outside_item(what)
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._lock.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError(f"{what}: not done in {timeout}s")
        self._runner = threading.get_ident()
        try:
            while not until():
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"{what}: not done in {timeout}s")
                _, _, fn, handle = heapq.heappop(self._heap)
                try:
                    result = fn(self.comm)
                except BaseException as exc:
                    # Past a failed collective the global order is
                    # undefined: fail everything still queued.
                    self._error = exc
                    handle._fail(exc)
                    for _, _, _, queued in self._heap:
                        queued._fail(exc)
                    self._heap.clear()
                    raise
                self._executed.append(handle.label)
                handle._finish(result)
        finally:
            self._runner = None
            self._lock.release()


class SchedComm(Communicator):
    """Synchronous :class:`Communicator` facade over a :class:`CommScheduler`.

    Every collective becomes one urgent work item the calling thread
    immediately waits on — existing collective-consuming code (sparse
    exchanges, table gathers, validation refreshes) runs unmodified
    while still respecting the engine's single global order.  Only
    rank-symmetric operations are supported: point-to-point ``send`` /
    ``recv`` would break the SPMD rule and raise.  It shares the
    scheduler communicator's recorder, so collectives called on the
    facade (the lookup AlltoAll) record their spans and byte counters.
    """

    def __init__(self, sched: CommScheduler, priority: float = PRIORITY_URGENT):
        super().__init__(sched.comm.rank, sched.comm.world_size)
        self._sched = sched
        self._priority = priority
        self.obs = sched.comm.obs

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
