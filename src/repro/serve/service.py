"""The sharded embedding service: concurrent serving + online training.

**The sequencing problem.**  The comm engine's correctness rests on an
SPMD rule: every rank must make the same sequence of ``submit`` and
``wait`` calls.  A serve front end is inherently rank-asymmetric —
requests arrive at one place, at unpredictable times — so two
free-running threads per rank would pop different items and deadlock
inside mismatched collectives.  The service therefore runs as a
*replicated state machine*:
rank 0's driver owns the admission queue and decides each operation
(``serve`` a batch, start a ``train`` step, ``commit`` it, ``stop``),
broadcasts the decision on a :data:`~repro.comm.PRIORITY_SERVE` control
facade, and every rank executes the same op script.  Each op expands to
a deterministic collective sequence, so the invariant holds with zero
cross-rank locks.

**Where the interleaving comes from.**  A train step is split: the
``train`` op refreshes rows, runs the forward/backward, and *submits*
the sparse gradient exchange and loss AllGather at training priority
without waiting on them; the ``commit`` op later waits, which runs
them, and applies.  Serve ops sequenced in between run at
:data:`~repro.comm.PRIORITY_SERVE`: their waits pop the lookup ahead of
the queued exchange — lookups cut ahead of gradient traffic exactly as
EmbRace's priority scheduling intends.  Nothing runs in the background;
the engine's caller runs every collective when it waits.

**Bit-identity.**  Serve ops only read; the commit always waits on the
exchange before applying; losses are summed in rank order.  The online
losses and final tables are therefore bit-identical to
:func:`~repro.serve.online.offline_reference` replaying the same id
streams, regardless of serve load — asserted in ``tests/test_serve.py``.

**One sparse runtime.**  :class:`~repro.serve.ServeConfig` tables all
share ``dim``, so every rank holds one
:class:`~repro.engine.embrace_runtime.TableGroupRuntime` over all of
them — the trainer's runtime — and a step makes one id gather, one
refresh, one hot and one cold exchange and one commit for every table.

**Snapshot consistency.**  Commits advance the group's
:class:`~repro.serve.store.VersionFence`; serve reads are fenced and
every rank tags its shard block with the version it read.  Because ops
are totally ordered, all ranks answer at the same version — the driver
asserts one version per batch and counts violations (``torn_batches``,
always 0).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm import (
    PRIORITY_SERVE,
    PRIORITY_URGENT,
    CommScheduler,
    SchedComm,
    narrow_ids,
    open_group,
    wide_ids,
)
from repro.data.zipf import ZipfSampler
from repro.engine.embrace_runtime import TableGroupRuntime, join_column_shards
from repro.serve.batching import AdmissionQueue
from repro.serve.config import ServeConfig
from repro.serve.online import SparseEmbeddingTask, build_tables, train_stream_rng
from repro.serve.requests import ClosedLoopClient, LookupRequest, ZipfRequestLoad
from repro.serve.store import VersionedShardStore

#: Training-priority for the overlapped gradient exchange / loss gather
#: (matches the trainer's default exchange priority).
PRIORITY_TRAIN = 0.0

#: Driver poll interval while only waiting on clients (training done).
_IDLE_POLL_S = 0.02


class _WorkerState:
    """Per-rank execution state shared by the driver and follower loops."""

    def __init__(self, comm, cfg: ServeConfig, sched: CommScheduler):
        self.comm = comm
        self.cfg = cfg
        self.obs = comm.obs
        self.sched = sched
        self.ctrl = SchedComm(sched, priority=PRIORITY_SERVE)
        self.trainc = SchedComm(sched, priority=PRIORITY_URGENT)
        # Every table shares cfg.dim: one group, one version fence.
        self.group = TableGroupRuntime(
            self.trainc, build_tables(cfg), lr=cfg.lr, placement=cfg.placement
        )
        self.store = VersionedShardStore(self.group)
        # Drift monitor (rank 0 only): exact row counters over the
        # group's rows, fed by the gathered training ids and the served
        # ids; the repartition op broadcast carries the learned hot set
        # to the followers.
        self.row_counts = (
            np.zeros(self.group.num_rows, dtype=np.int64)
            if cfg.repartition_interval > 0 and comm.rank == 0
            else None
        )
        self.last_repartition_step = 0
        self.repartitions = 0
        self.task = SparseEmbeddingTask(cfg.vocab, cfg.dim, cfg.seed)
        self.sampler = ZipfSampler(cfg.vocab, cfg.zipf_exponent)
        self.train_rngs = {
            name: train_stream_rng(cfg, comm.rank, ti)
            for ti, name in enumerate(cfg.tables)
        }
        #: (loss, exchange, hot exchange or None) handles of the
        #: in-flight step.
        self.pending: tuple | None = None
        self.steps_done = 0
        self.losses: list[float] = []
        # Driver-side bookkeeping (rank 0 only).
        self.requests_served = 0
        self.requests_cancelled = 0
        self.batches = 0
        self.torn_batches = 0
        self.batch_versions: list[int] = []
        self.serve_results: list[tuple[str, np.ndarray, int, np.ndarray]] = []


def _execute_op(
    state: _WorkerState, op: tuple, requests: list[LookupRequest] | None = None
) -> bool:
    """Run one sequenced operation on this rank; False means stop.

    Every rank calls this with the same ``op`` in the same order; only
    rank 0 passes the batch's ``requests`` (completion is local).
    """
    kind = op[0]
    if kind == "serve":
        _, table, ids = op
        with state.obs.span("serve_batch", resource="serve", kind="compute"):
            version, hot_sel, block, hot_vals = state.store.read_rows_placed(
                ids + state.group.bounds[table][0]
            )
            # Only the cold blocks travel; hot rows are answered from
            # the local hot array at the same fenced version.
            if state.obs.enabled:
                sent = block.nbytes * (state.comm.world_size - 1)
                state.obs.count("wire_bytes.serve_lookup", float(sent))
                state.obs.count(f"wire_bytes.table.{table}", float(sent))
            gathered = state.ctrl.allgather((version, block))
            if state.comm.rank == 0:
                _complete_batch(
                    state, table, ids, hot_sel, hot_vals, gathered, requests
                )
        return True
    if kind == "train":
        _start_step(state)
        return True
    if kind == "commit":
        _commit_step(state)
        return True
    if kind == "repartition":
        _, hot_ids = op
        with state.obs.span("repartition", resource="compute"):
            # Migration allgathers ride the urgent training facade — the
            # prioritized broadcast lane.
            state.store.repartition(state.trainc, hot_ids)
        state.repartitions += 1
        state.obs.count("serve.repartitions")
        return True
    if kind == "stop":
        return False
    raise ValueError(f"unknown serve op {op!r}")  # pragma: no cover


def _complete_batch(state, table, ids, hot_sel, hot_vals, gathered, requests) -> None:
    """Rank 0: reassemble full-dimension rows, hand them to waiters.

    Cold rows concatenate the gathered column blocks; hot rows come from
    this rank's hot-array read — same fenced pass as its cold block, so
    the hot values carry this rank's gathered version by construction.
    """
    versions = {int(v) for v, _ in gathered}
    cold = np.concatenate([b for _, b in gathered], axis=1)
    values = np.empty((len(ids), cold.shape[1]), dtype=cold.dtype)
    values[~hot_sel] = cold
    version = versions.pop() if len(versions) == 1 else -1
    if hot_vals is not None:
        values[hot_sel] = hot_vals
        state.obs.count("serve.hot_rows", float(len(hot_vals)))
    if state.row_counts is not None:
        np.add.at(state.row_counts, ids + state.group.bounds[table][0], 1)
    if version < 0:
        state.torn_batches += 1
        state.obs.count("serve.torn_batches")
    state.batches += 1
    state.batch_versions.append(version)
    state.obs.count("serve.batches")
    state.obs.count("serve.rows", float(len(ids)))
    state.obs.count_rows(table, ids)
    if state.cfg.record_serve_results:
        state.serve_results.append((table, ids, version, values))
    if requests is not None:
        offsets = np.cumsum([0] + [len(r.ids) for r in requests])
        for i, req in enumerate(requests):
            req.complete(values[offsets[i] : offsets[i + 1]], version)
            state.requests_served += 1
            state.obs.count("serve.requests")


def _start_step(state: _WorkerState) -> None:
    """Refresh + forward/backward; submit the exchange without waiting."""
    cfg, group, world = state.cfg, state.group, state.comm.world_size
    local_ids = {
        name: state.sampler.sample(state.train_rngs[name], cfg.train_batch)
        for name in cfg.tables
    }
    for name, ids in local_ids.items():
        state.obs.count_rows(name, ids)
    # One urgent gather of the group's rows covers every table's ids;
    # refresh reuses it instead of gathering again.
    gathered = [
        wide_ids(ids)
        for ids in state.trainc.allgather(
            narrow_ids(state.trainc, group.stack_ids(local_ids), group.num_rows)
        )
    ]
    if state.row_counts is not None:
        np.add.at(state.row_counts, np.concatenate(gathered), 1)
    with state.obs.span("online_step", resource="compute"):
        # The refreshed row block holds exactly the rows this step reads.
        group.refresh_rows(gathered[state.comm.rank], all_ids=gathered)
        rank_loss = 0.0
        grads = {}
        for name, table in group.tables.items():
            ids = local_ids[name]
            loss, grads[name] = state.task.rows_loss_and_grad(
                table.rows(ids), ids, table.num_embeddings
            )
            rank_loss += loss
        grad = group.stack_grads(grads)
    step = state.steps_done
    loss_handle = state.sched.submit(
        lambda c, v=rank_loss: c.allgather(v),
        priority=PRIORITY_TRAIN,
        label=f"loss:{step}",
    )
    # Hot rows leave on their replicated dense lane; the cold remainder
    # takes the AlltoAll column-shard exchange.  Both are submitted
    # without waiting — the commit op collects them.
    hot_handle = None
    if group.n_hot:
        hot, grad = group.split_hot_cold(grad)
        hot_handle = state.sched.submit(
            lambda c, g=hot: group.exchange_hot(c, g, 1.0 / world),
            priority=PRIORITY_TRAIN,
            label=f"hot:{step}",
        )
    # Every rank's cold rows follow from the gathered ids, so the
    # exchange sends values only.
    rows = group.cold_rows(gathered)
    exchange = state.sched.submit(
        lambda c, g=grad: group.exchange(c, g, scale=1.0 / world, rows=rows),
        priority=PRIORITY_TRAIN,
        label=f"exchange:{step}",
    )
    state.pending = (loss_handle, exchange, hot_handle)


def _commit_step(state: _WorkerState) -> None:
    """Wait on the in-flight exchange; apply it under the write fence."""
    loss_handle, exchange, hot_handle = state.pending
    state.pending = None
    with state.obs.span("commit_step", resource="compute"):
        hot = hot_handle.wait() if hot_handle is not None else None
        state.store.apply_parts(exchange.wait(), hot, final=True)
        parts = loss_handle.wait()
    state.losses.append(sum(parts) / state.comm.world_size)
    state.steps_done += 1
    state.obs.count("serve.steps")


# --------------------------------------------------------------------- #
# rank-0 driver
# --------------------------------------------------------------------- #
def _issue(state: _WorkerState, op: tuple, requests=None) -> bool:
    """Broadcast ``op`` to the followers, then execute it locally."""
    state.ctrl.broadcast(op, root=0)
    return _execute_op(state, op, requests=requests)


def _drive_loop(state: _WorkerState, queue: AdmissionQueue, clients) -> None:
    cfg = state.cfg
    ops_issued = 0
    while True:
        if cfg.interrupt_after is not None and ops_issued >= cfg.interrupt_after:
            raise KeyboardInterrupt  # test hook: deterministic Ctrl-C
        training = state.steps_done < cfg.train_steps or state.pending is not None
        batch = queue.next_batch(0.0 if training else _IDLE_POLL_S)
        requests = None
        if batch is not None:
            table, requests = batch
            ids = np.concatenate([r.ids for r in requests])
            op: tuple = ("serve", table, ids)
        elif state.pending is not None:
            op = ("commit",)
        elif (
            state.row_counts is not None
            and state.steps_done > state.last_repartition_step
            and state.steps_done % cfg.repartition_interval == 0
        ):
            # Drift boundary (no step in flight): learn every table's new
            # hot set from the live counters, which then reset so each
            # window reflects *recent* drift; the op broadcast carries
            # the ids so followers migrate to the identical set.
            op = (
                "repartition",
                state.group.learn_hot_ids(state.row_counts, cfg.hot_fraction),
            )
            state.row_counts[:] = 0
            state.last_repartition_step = state.steps_done
        elif state.steps_done < cfg.train_steps:
            op = ("train",)
        elif state.requests_served >= cfg.total_requests or (
            len(queue) == 0 and not any(c.is_alive() for c in clients)
        ):
            op = ("stop",)
        else:
            continue  # clients still thinking; poll again
        ops_issued += 1
        if not _issue(state, op, requests=requests):
            return


def _drain(state: _WorkerState, queue: AdmissionQueue) -> None:
    """Interrupted: serve what's queued, commit what's in flight, stop."""
    while True:
        batch = queue.next_batch(0.0)
        if batch is None:
            break
        table, requests = batch
        ids = np.concatenate([r.ids for r in requests])
        _issue(state, ("serve", table, ids), requests=requests)
    if state.pending is not None:
        _issue(state, ("commit",))
    _issue(state, ("stop",))


def _drive(state: _WorkerState) -> dict:
    cfg = state.cfg
    queue = AdmissionQueue(cfg.max_batch, cfg.max_delay_s)
    load = ZipfRequestLoad(
        cfg.vocab, cfg.tables, cfg.ids_per_request, cfg.zipf_exponent, cfg.seed
    )
    stop_event = threading.Event()
    clients = [
        ClosedLoopClient(i, load, queue, cfg.requests_per_client, stop_event)
        for i in range(cfg.clients)
    ]
    t0 = time.perf_counter()
    for client in clients:
        client.start()
    interrupted = False
    try:
        _drive_loop(state, queue, clients)
    except KeyboardInterrupt:
        interrupted = True
        stop_event.set()
        queue.close()  # submissions after this are cancelled immediately
        _drain(state, queue)
    finally:
        stop_event.set()
    for client in clients:
        client.join(timeout=ClosedLoopClient.WAIT_TIMEOUT)
    state.requests_cancelled += queue.cancel_pending()
    state.requests_cancelled += sum(c.cancelled for c in clients)
    wall = time.perf_counter() - t0
    for client in clients:
        if client.error is not None:
            raise RuntimeError(f"serve client {client.client_id} failed") from client.error
    latencies = [r.latency_s for c in clients for r in c.completed]
    return {
        "requests_served": state.requests_served,
        "requests_cancelled": state.requests_cancelled,
        "batches": state.batches,
        "torn_batches": state.torn_batches,
        "batch_versions": state.batch_versions,
        "latencies_s": latencies,
        "interrupted": interrupted,
        "wall_time_s": wall,
        "steps_done": state.steps_done,
        "repartitions": state.repartitions,
        "serve_results": state.serve_results if cfg.record_serve_results else None,
    }


def _follow(state: _WorkerState) -> None:
    while True:
        op = state.ctrl.broadcast(None, root=0)
        if not _execute_op(state, op):
            return


def _serve_worker(comm, cfg: ServeConfig) -> dict:
    """Per-rank entry point (module-level: persistent pools pickle it).
    Returns this rank's own table columns: no gather after the last op."""
    sched = CommScheduler(comm, overlap=cfg.overlap)
    try:
        state = _WorkerState(comm, cfg, sched)
        report = _drive(state) if comm.rank == 0 else None
        if comm.rank != 0:
            _follow(state)
    finally:
        sched.close()
    state.obs.take("mem.table_bytes")  # a level, not a sum
    state.obs.count("mem.table_bytes", float(state.group.table_bytes))
    out: dict[str, Any] = {
        "losses": state.losses,
        "steps_done": state.steps_done,
        "final_tables": state.group.own_columns(),
    }
    if report is not None:
        out["report"] = report
    return out


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #
@dataclass
class ServeReport:
    """What one service run measured (assembled on the launcher)."""

    config: ServeConfig
    requests_served: int
    requests_cancelled: int
    batches: int
    torn_batches: int
    batch_versions: list[int]
    latencies_s: list[float]
    losses: list[float]
    steps_done: int
    interrupted: bool
    wall_time_s: float
    repartitions: int = 0
    final_tables: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    serve_results: list | None = field(default=None, repr=False)
    trace: Any = field(default=None, repr=False)

    @property
    def p50_ms(self) -> float:
        return self._percentile(50)

    @property
    def p99_ms(self) -> float:
        return self._percentile(99)

    def _percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q) * 1e3)

    @property
    def qps(self) -> float:
        return self.requests_served / self.wall_time_s if self.wall_time_s else 0.0

    def summary(self) -> str:
        lines = [
            f"served {self.requests_served} requests in {self.batches} batches "
            f"({self.requests_cancelled} cancelled)"
            + (" [interrupted]" if self.interrupted else ""),
            f"latency p50 {self.p50_ms:.3f} ms  p99 {self.p99_ms:.3f} ms  "
            f"qps {self.qps:.0f}",
            f"online training: {self.steps_done} steps committed, "
            f"torn batches {self.torn_batches}",
        ]
        if self.losses:
            lines.append(
                f"loss {self.losses[0]:.6f} -> {self.losses[-1]:.6f}"
            )
        return "\n".join(lines)


class ShardedEmbeddingService:
    """Stand the sharded tables up for serving + online training.

    Owns (or borrows, via ``group=``) a persistent
    :func:`~repro.comm.open_group` pool; each :meth:`run` dispatches the
    service loop across the pool and returns a :class:`ServeReport`.
    Usable as a context manager; :meth:`close` is idempotent and is
    also invoked when a ``KeyboardInterrupt`` escapes :meth:`run`, so a
    Ctrl-C on the launcher tears the pool down (short grace, shm swept)
    instead of leaking it.
    """

    def __init__(self, config: ServeConfig, group=None, placement=None):
        if placement is not None:
            import dataclasses

            config = dataclasses.replace(config, placement=placement)
        self.config = config
        self._owns_group = group is None
        self.group = group or open_group(
            config.world_size,
            backend=config.backend,
            trace=config.trace or None,
        )
        self._closed = False

    def run(self) -> ServeReport:
        """One full service run; returns its report (rank-0 view)."""
        try:
            outs = self.group.run(_serve_worker, self.config)
        except KeyboardInterrupt:
            self.close()
            raise
        report = outs[0]["report"]
        return ServeReport(
            config=self.config,
            requests_served=report["requests_served"],
            requests_cancelled=report["requests_cancelled"],
            batches=report["batches"],
            torn_batches=report["torn_batches"],
            batch_versions=report["batch_versions"],
            latencies_s=report["latencies_s"],
            losses=outs[0]["losses"],
            steps_done=outs[0]["steps_done"],
            interrupted=report["interrupted"],
            wall_time_s=report["wall_time_s"],
            repartitions=report["repartitions"],
            final_tables=join_column_shards([out["final_tables"] for out in outs]),
            serve_results=report["serve_results"],
            trace=self.group.last_trace,
        )

    def close(self) -> None:
        if self._owns_group and not self._closed:
            self.group.close()
        self._closed = True

    def __enter__(self) -> "ShardedEmbeddingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
