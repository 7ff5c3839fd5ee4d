"""Real data-parallel training on the multi-worker backend.

Three communication strategies, all *actually executed* over the real
collectives in :mod:`repro.comm`:

* ``"allgather"`` — the Horovod-AllGather baseline: dense gradients ring-
  AllReduced, sparse gradients AllGathered (one-shot: every rank sends
  each peer its part) and summed on every replica;
* ``"allreduce"`` — the Horovod-AllReduce baseline: sparse gradients are
  *densified* to full-table arrays and ring-AllReduced (the §2.2
  "communicate and sum all data including zeros" regime — the wire-byte
  cost is visible in ``comm_bytes``);
* ``"embrace"`` — Sparsity-aware Hybrid Communication with Vertical
  Sparse Scheduling semantics:

  - every embedding table is column-partitioned; each rank owns (and
    keeps optimizer state for) its column shard only,
  - same-width tables share one virtual row space
    (:class:`~repro.engine.embrace_runtime.TableGroupRuntime`), so the
    steps below run once per *group*, not once per table,
  - after backward, Algorithm 1 splits the group's sparse gradient into
    prior (rows the prefetched next global batch needs) and delayed parts,
  - each part is exchanged by AlltoAll column shards and applied with
    :class:`~repro.optim.EmbraceAdam` (``step`` advances on the delayed
    part only),
  - before the next forward, the rows the local batch will read are
    reassembled to full dimension by a second AlltoAll of lookup results
    into the group's row block, which the tables' lookups read: each
    rank stores only its own columns, as in true model parallelism.

Because ``"allgather"`` and ``"embrace"`` sum sparse gradients in the
same (rank) order and EmbraceAdam's split update is bit-equal to a
fused update, training under either produces **bit-identical models**
— the strongest possible version of the paper's Fig. 11 convergence
claim, asserted in ``tests/test_trainer_real.py``.  ``"allreduce"``
sums in ring-chunk order and matches them to float rounding.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.comm import (
    CommGroup,
    CommHandle,
    CommScheduler,
    Communicator,
    InterNodeMeter,
    SchedComm,
    allreduce_sparse_adaptive,
    as_topology,
    narrow_ids,
    run_threaded,
    two_level_allreduce,
    wide_ids,
)
from repro.comm.sched import DEFAULT_BUCKET_ELEMS, PRIORITY_URGENT, SchedKnobs, pack_buckets
from repro.obs import (
    SpanRecorder,
    TraceBundle,
    as_trace_config,
    gather_spans,
    install_recorder,
)
from repro.engine.checkpoint import (
    load_checkpoint,
    load_extras,
    peek_step,
    save_checkpoint,
)
from repro.engine.embrace_runtime import TableGroupRuntime, join_column_shards
from repro.faults import CommFailure, FaultPlan, FaultyCommunicator, RankCrashed
from repro.optim import EmbraceAdam
from repro.placement import as_placement
from repro.data import Prefetcher
from repro.engine.workload import batch_stream
from repro.models.blocks import block_specs
from repro.models.config import ModelConfig
from repro.models.registry import build_model
from repro.schedule import PRIORITY_DELAYED, PRIORITY_PRIOR, horizontal_priorities
from repro.tensors import SparseRows, unique_rows
from repro.utils.validation import check_in, check_positive

#: Group timeout of fault-free real training runs.
DEFAULT_GROUP_TIMEOUT = 60.0


@dataclass
class TrainResult:
    """Per-step metrics plus the final model state: the full model once
    :meth:`RealTrainer.train` has joined every rank's EmbRace columns."""

    strategy: str
    world_size: int
    losses: list[float]
    tokens_per_step: list[int]
    state: dict[str, np.ndarray]
    comm_bytes: int = 0
    #: Payload bytes that crossed a node boundary, summed over all ranks
    #: (0 unless the run had a multi-node
    #: :class:`~repro.comm.NodeTopology` installed).
    inter_bytes: int = 0
    predictions: list[np.ndarray] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)  # one per eval point
    wall_time: float = 0.0  # this rank's training-loop seconds
    #: Merged :class:`repro.obs.TraceBundle` of a traced run (rank 0 only).
    trace: TraceBundle | None = None


@dataclass
class ResilienceReport:
    """What it took to finish a :meth:`RealTrainer.train_resilient` run.

    ``crash_events`` lists the (rank, step) failures survived;
    ``restore_steps`` the checkpoint step each restart resumed from;
    ``steps_replayed`` the training steps lost and re-executed;
    ``recovery_wall_s`` the wall-clock seconds spent in failed attempts.
    """

    attempts: int
    crash_events: list[tuple[int | None, int]]
    restore_steps: list[int]
    steps_replayed: int
    recovery_wall_s: float
    checkpoint_path: str

    @property
    def recovered(self) -> bool:
        return bool(self.crash_events)


@dataclass
class ResilientTrainResult:
    """A completed training run plus its resilience accounting."""

    result: TrainResult
    report: ResilienceReport


class RealTrainer:
    """Synchronous data-parallel training with real communication."""

    def __init__(
        self,
        config: ModelConfig,
        strategy: str = "allgather",
        world_size: int = 2,
        lr: float = 1e-3,
        seed: int = 0,
        steps: int = 10,
        gpu_kind: str = "rtx3090",
        record_predictions: bool = False,
        eval_every: int | None = None,
        eval_batches: int = 2,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int = 0,
        checkpoint_dir: str | None = None,
        max_restarts: int = 4,
        trace=None,
        group: CommGroup | None = None,
        overlap: bool = True,
        knobs: SchedKnobs | dict | None = None,
        placement=None,
        topology=None,
    ):
        """``fault_plan`` (optional) injects faults from
        :mod:`repro.faults` into the run: every rank's communicator is
        wrapped in a :class:`~repro.faults.FaultyCommunicator` and the
        forward/backward pass is stretched by the rank's straggler
        factor.  Plans with crashes should be run through
        :meth:`train_resilient` (``checkpoint_every`` steps between
        checkpoints, at most ``max_restarts`` recoveries), which
        survives them; plain :meth:`train` lets the failure propagate.

        ``group`` is a :class:`~repro.comm.CommGroup` from
        :func:`repro.comm.open_group` — it decides where the workers
        live: in-process threads with reference-passing links (fastest
        for tests; also what ``group=None`` runs on) or real OS
        processes over the :class:`~repro.comm.ProcessGroup` backend.
        Training is bit-identical across backends.

        ``trace`` (``True`` or a :class:`~repro.obs.TraceConfig`)
        records per-rank span timelines — compute blocks, collectives,
        transport phases — merged on rank 0 into
        :attr:`TrainResult.trace`, the same :class:`~repro.sim.trace.
        Trace` schema the simulator emits.

        ``overlap`` (default True) queues every collective on the
        per-rank :class:`~repro.comm.CommScheduler`: each dense bucket
        is one AllReduce enqueued in backward-completion order with
        :func:`~repro.schedule.horizontal_priorities`, prior sparse
        exchanges run ahead of them at ``PRIORITY_PRIOR``, and delayed
        parts trail to the next step boundary.  The training thread runs
        the queue in that order whenever it waits on a handle; nothing
        runs beside compute.  ``overlap=False`` executes the same work
        items inline, in submission order — same buckets, same
        reduction order — so both modes train **bit-identically**; only
        the order of the collectives differs.

        ``knobs`` (a :class:`~repro.comm.SchedKnobs` or its dict form)
        overrides the dense bucket size, the delayed-fold threshold,
        hybrid placement and the two-level switch; a
        :class:`~repro.tune.TunedProfile` from ``repro tune`` supplies
        them as ``knobs=profile.knobs``.  The defaults reproduce the
        historical constants.  The delayed fold, placement and the
        two-level switch never change the arithmetic; the bucket size
        sets the ring's segment bounds, so at world >= 3 it moves the
        dense fold order (``docs/mechanisms.md``, "Work items, handles,
        buckets").

        ``placement`` (anything :func:`repro.placement.as_placement`
        accepts: a :class:`~repro.placement.PlacementPlan`, a single
        :class:`~repro.placement.TablePlacement`, a ``{table: hot_ids}``
        mapping, or ``None`` for uniform column sharding) routes each
        table's hot rows onto the replicated dense lane under the
        ``"embrace"`` strategy.  Placement — like knobs — only moves
        bytes: training is bit-identical at any hot fraction.  When
        ``knobs.repartition_interval > 0`` the trainer re-learns the hot
        set from live row counters every interval and migrates to it
        mid-run (also bit-exact).

        ``topology`` (anything :func:`repro.comm.as_topology` accepts: a
        :class:`~repro.comm.NodeTopology`, its dict form, or a
        :class:`~repro.cluster.ClusterSpec`) declares how ranks group
        into nodes.  When it is multi-node, collectives default to the
        topology-aware two-level algorithms — dense AllReduces run
        leader-walked, EmbRace's sparse exchanges coalesce intra-node
        before rows cross the node boundary (the AllGather baseline's
        sparse allreduce stays flat) — and the communicator is wrapped in an
        :class:`~repro.comm.InterNodeMeter` so
        :attr:`TrainResult.inter_bytes` (and the
        ``wire_bytes.inter_node`` counter of traced runs) reports what
        actually crossed nodes.  ``knobs.hierarchical=False`` selects
        the flat wires on every lane instead; either wire trains
        **bit-identically** at a fixed topology, because the
        flat paths fold node-grouped whenever a multi-node topology is
        in force.  ``topology=None`` falls back to ``comm.topology``
        installed by ``open_group(..., topology=...)``, else flat
        single-level behavior (the historical bits).
        """
        check_in("strategy", strategy, {"allgather", "allreduce", "embrace"})
        if group is not None and group.world_size != world_size:
            raise ValueError(
                f"group.world_size ({group.world_size}) != world_size "
                f"({world_size})"
            )
        check_positive("world_size", world_size)
        check_positive("steps", steps)
        if eval_every is not None:
            check_positive("eval_every", eval_every)
            check_positive("eval_batches", eval_batches)
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        check_positive("max_restarts", max_restarts)
        self.config = config
        self.strategy = strategy
        self.world_size = world_size
        self.lr = lr
        self.seed = seed
        self.steps = steps
        self.gpu_kind = gpu_kind
        self.record_predictions = record_predictions
        self.eval_every = eval_every
        self.eval_batches = eval_batches
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.max_restarts = max_restarts
        self.trace = as_trace_config(trace)
        self.group = group
        self.overlap = overlap
        if isinstance(knobs, dict):
            knobs = SchedKnobs.from_dict(knobs)
        if knobs is None:
            knobs = SchedKnobs()
        if not isinstance(knobs, SchedKnobs):
            raise TypeError(f"knobs must be a SchedKnobs, got {type(knobs)}")
        self.knobs = knobs
        self.placement = as_placement(placement)
        topology = as_topology(topology)
        if topology is None and group is not None:
            topology = getattr(group, "topology", None)
        if topology is not None and topology.world_size != world_size:
            raise ValueError(
                f"topology covers {topology.world_size} ranks but "
                f"world_size is {world_size}"
            )
        self.topology = topology

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Process-backend dispatch pickles the bound ``_worker`` method;
        the launcher-side group handle (live queues, forked processes)
        is not needed — or picklable — inside a worker."""
        state = self.__dict__.copy()
        state["group"] = None
        return state

    def _group_timeout(self) -> float:
        if self.fault_plan is not None:
            return self.fault_plan.recv_deadline
        return DEFAULT_GROUP_TIMEOUT

    def _launch(self, *args, timeout: float) -> list[TrainResult]:
        """Run :meth:`_worker` on every rank of ``group`` (threads when
        ``None``) and join the ranks' columns into rank 0's state.  A
        process-backed group keeps its pool across calls, so restart
        attempts in :meth:`train_resilient` ride warm workers and links
        instead of re-forking."""
        if self.group is not None:
            results = self.group.run(self._worker, *args)
        else:
            results = run_threaded(self.world_size, self._worker, *args, timeout=timeout)
        if len(results) > 1:
            results[0].state.update(join_column_shards([r.state for r in results]))
        return results

    def train(self) -> TrainResult:
        result = self._launch(timeout=self._group_timeout())[0]
        if (
            self.group is not None
            and self.group.last_trace is not None
            and result.trace is None
        ):
            # Tracing configured on the CommGroup itself: the merged
            # bundle lands on the group; surface it on the result too.
            result.trace = self.group.last_trace
        return result

    # ------------------------------------------------------------------ #
    def train_resilient(self) -> ResilientTrainResult:
        """Train to completion, surviving :class:`CommFailure` s.

        Rank 0 checkpoints the full (model + optimizer + EmbRace shard
        state + metric history) state every ``checkpoint_every`` steps;
        when an attempt dies — an injected rank crash, a lost message, a
        peer timeout — the group is relaunched from the latest
        checkpoint.  Because streams, updates, and restores are all
        deterministic, the stitched run is bit-identical to an
        uninterrupted one (asserted in ``tests/test_faults.py``); the
        attached :class:`ResilienceReport` accounts for what the
        recovery cost.  ``predictions`` are only kept for steps executed
        by the final attempt.

        Every attempt runs on the trainer's own ``group`` (which
        replaces a pool that lost a worker); open a process-backed one
        with ``timeout=plan.recv_deadline`` so a dead peer is detected
        within the plan's deadline, as the thread fallback is.
        """
        if self.checkpoint_every < 1:
            raise ValueError("train_resilient requires checkpoint_every >= 1")
        plan = self.fault_plan if self.fault_plan is not None else FaultPlan()
        ckpt_dir = self.checkpoint_dir or tempfile.mkdtemp(prefix="repro-ckpt-")
        os.makedirs(ckpt_dir, exist_ok=True)
        path = os.path.join(ckpt_dir, "resilient.npz")
        if os.path.exists(path):
            os.unlink(path)  # a stale checkpoint would hide the early steps

        original_plan = self.fault_plan
        active = plan
        attempts = 0
        crash_events: list[tuple[int | None, int]] = []
        restore_steps: list[int] = []
        steps_replayed = 0
        lost_wall = 0.0
        try:
            while True:
                attempts += 1
                start = peek_step(path) if os.path.exists(path) else 0
                started_at = time.perf_counter()
                self.fault_plan = active
                try:
                    result = self._launch(
                        start, path, timeout=active.recv_deadline
                    )[0]
                    break
                except RuntimeError as exc:
                    lost_wall += time.perf_counter() - started_at
                    if attempts > self.max_restarts:
                        raise CommFailure(
                            f"giving up after {attempts} attempts: {exc}"
                        ) from exc
                    fired_rank, fired_step = self._diagnose_failure(exc, active, start)
                    crash_events.append((fired_rank, fired_step))
                    # Where the *next* attempt will resume from: a fresh
                    # checkpoint may have landed during the failed attempt.
                    resume = peek_step(path) if os.path.exists(path) else 0
                    restore_steps.append(resume)
                    steps_replayed += max(0, fired_step - resume)
                    active = active.without_crashes_at_or_before(fired_step)
        finally:
            self.fault_plan = original_plan
        report = ResilienceReport(
            attempts=attempts,
            crash_events=crash_events,
            restore_steps=restore_steps,
            steps_replayed=steps_replayed,
            recovery_wall_s=lost_wall,
            checkpoint_path=path,
        )
        return ResilientTrainResult(result=result, report=report)

    @staticmethod
    def _diagnose_failure(
        exc: RuntimeError, plan: FaultPlan, start: int
    ) -> tuple[int | None, int]:
        """Which (rank, step) brought the attempt down.

        An injected crash carries its coordinates; otherwise fall back
        to the earliest still-armed crash (the ranks run in lockstep, so
        that is the one that fired), or to the resume point for genuine
        — non-injected — failures.
        """
        cause = exc.__cause__
        if isinstance(cause, RankCrashed) and cause.step is not None:
            return cause.rank, cause.step
        armed = {r: s for r, s in plan.crashes.items() if s >= start}
        if armed:
            rank = min(armed, key=lambda r: (armed[r], r))
            return rank, armed[rank]
        return getattr(cause, "rank", None), start

    # ------------------------------------------------------------------ #
    def _worker(
        self,
        comm: Communicator,
        start_step: int = 0,
        checkpoint_path: str | None = None,
    ) -> TrainResult:
        fault_comm: FaultyCommunicator | None = None
        if self.fault_plan is not None:
            comm = fault_comm = FaultyCommunicator(comm, self.fault_plan)
        recorder: SpanRecorder | None = None
        if self.trace is not None and not comm.obs.enabled:
            # No recorder installed upstream (an open_group with trace=
            # would have done it): this run owns its own tracing.
            recorder = SpanRecorder.from_config(comm.rank, self.trace)
            install_recorder(comm, recorder)
            comm.barrier()
            recorder.rebase()
        t0 = time.perf_counter()
        try:
            result = self._train_loop(comm, start_step, checkpoint_path, fault_comm)
        finally:
            if fault_comm is not None:
                # Deliver in-flight delayed sends before a process-backend
                # worker tears down its transport — peers may still read.
                fault_comm.drain()
        result.wall_time = time.perf_counter() - t0
        if recorder is not None:
            from repro.obs import scrape_counters

            scrape_counters(comm, recorder)
            # Ship the spans over the innermost transport so the fault
            # injector cannot drop/delay the trace frames themselves.
            base: Communicator = comm
            while getattr(base, "_inner", None) is not None:
                base = base._inner
            result.trace = gather_spans(base, recorder, finalize=False)
        return result

    def _train_loop(
        self,
        comm: Communicator,
        start_step: int,
        checkpoint_path: str | None,
        fault_comm: FaultyCommunicator | None,
    ) -> TrainResult:
        model = build_model(self.config, rng=np.random.default_rng(self.seed))
        model.train()
        tables = model.embedding_tables()
        dense_params = model.dense_parameters()
        optimizer = EmbraceAdam(model.parameters(), lr=self.lr)

        extras: dict[str, np.ndarray] = {}
        if checkpoint_path and os.path.exists(checkpoint_path):
            loaded_step = load_checkpoint(checkpoint_path, model, optimizer)
            if loaded_step != start_step:
                raise RuntimeError(
                    f"checkpoint moved underfoot: expected step {start_step}, "
                    f"found {loaded_step}"
                )
            extras = load_extras(checkpoint_path)

        # Node structure: an explicit trainer topology wins, else
        # whatever open_group(..., topology=...) installed on the
        # communicator.  A multi-node topology wraps the comm in the
        # inter-node byte meter and, unless ``knobs.hierarchical`` is
        # off, flips the lanes below to their two-level wires.
        topo = self.topology
        if topo is None:
            topo = getattr(comm, "topology", None)
        meter: InterNodeMeter | None = None
        if topo is not None and topo.multi_node:
            comm = meter = InterNodeMeter(comm, topo)
        dense_topo = topo if meter is not None and self.knobs.hierarchical else None

        # The comm engine: all in-loop collectives are work items, run in
        # priority order by whichever wait needs them (or inline when
        # overlap=False, with identical arithmetic).  ``coll`` is the
        # synchronous facade for code that wants a plain Communicator.
        sched = CommScheduler(comm, overlap=self.overlap)
        coll = SchedComm(sched)

        stream = Prefetcher(
            batch_stream(self.config, self.gpu_kind, seed=self.seed + 1 + comm.rank)
        )
        for _ in range(start_step):  # resume: replay the stream position
            next(stream)

        # EmbRace runtimes (column shards + modified Adam), one per
        # same-width table group — created after any restore so the
        # groups keep the loaded tables' columns, and the first batch's
        # rows as their first row block.
        groups: list[TableGroupRuntime] = []
        live_counts: list[np.ndarray] | None = None
        if self.strategy == "embrace":
            # Resume with the placement in force at checkpoint time (a
            # drift repartition may have moved it past the configured
            # plan).
            hot_sets = {
                name: extras.get(
                    f"embrace/{name}/hot_ids",
                    self.placement.for_table(name).hot_array,
                )
                for name in tables
            }
            groups = TableGroupRuntime.by_width(
                coll,
                tables,
                lr=self.lr,
                placement=hot_sets,
                topology=topo,
                hierarchical=self.knobs.hierarchical,
                first_rows={
                    name: self._table_ids(model, name, stream.peek()) for name in tables
                },
            )
            self._restore_shard_state(groups, extras)
            if self.knobs.repartition_interval > 0:
                # Drift monitor: exact per-rank row counters over each
                # group's row space, summed across ranks at each
                # repartition boundary.  Not checkpointed — bit-identity
                # holds under *any* hot set, so losing counter history
                # only shifts which rows are hot after a restart, never
                # the arithmetic.
                live_counts = [
                    np.zeros(group.num_rows, dtype=np.int64) for group in groups
                ]

        losses: list[float] = [float(x) for x in extras.get("loss_log", [])]
        tokens: list[int] = [int(x) for x in extras.get("token_log", [])]
        predictions: list[np.ndarray] = []
        val_losses: list[float] = [float(x) for x in extras.get("val_log", [])]
        # Validation uses a held-out stream (seed offset avoids overlap
        # with any rank's training stream).
        val_stream = (
            batch_stream(self.config, self.gpu_kind, seed=self.seed + 10_000)
            if self.eval_every
            else None
        )
        val_batches = (
            [next(val_stream) for _ in range(self.eval_batches)]
            if val_stream is not None
            else []
        )

        # Dense blocks in FP-dependency order -> horizontal priorities
        # (§4.2.1): gradients enqueue in backward-completion (reverse)
        # order, but the engine serves the block the next forward needs
        # first.
        dense_order = self._dense_schedule(model, dense_params)
        dense_buckets = self._dense_buckets(dense_order, self.knobs.bucket_elems)
        # Hot-row allreduces ride the dense lane at its most urgent
        # existing horizontal priority (they are dense traffic now).
        hot_priority = min((b[0] for b in dense_buckets), default=0.0)

        obs = comm.obs  # NULL_RECORDER unless a SpanRecorder is installed
        # Delayed sparse parts carried across the step boundary:
        # (group, handle) pairs applied by _flush_delayed.
        pending_delayed: list[tuple[TableGroupRuntime, CommHandle]] = []
        # Every rank's ids of this step's batch, per group: the previous
        # step's ids AllGather (None on the first step of this call).
        gathered_ids: list[list[np.ndarray]] | None = None
        try:
            for _step in range(start_step, self.steps):
                if fault_comm is not None:
                    fault_comm.check_crash(_step)
                batch = next(stream)
                next_batch = stream.peek()
                straggle = (
                    fault_comm.straggler() if fault_comm is not None else nullcontext()
                )
                with straggle:
                    # The span sits *inside* the straggler so the injected
                    # stretch (recorded separately as overhead) never counts
                    # as useful compute.
                    with obs.span("fwd_bwd"):
                        loss = model.forward_backward(batch)
                if self.record_predictions:
                    # Before the optimizer step: the predictions are the
                    # ones this forward made.
                    predictions.append(self._teacher_forced_predictions(model, batch))
                # Step boundary for the sparse state: the previous step's
                # delayed parts (whose exchange runs at this wait) commit
                # before any of this step's shard updates.
                self._flush_delayed(pending_delayed)
                # Average the scalar loss across ranks for a global curve.
                # Deferred: the tiny allreduce queues behind this step's
                # urgent traffic and is only waited at end of step, so it
                # never holds up the sparse exchanges.
                loss_h = sched.submit(
                    lambda c, x=np.array([loss]): c.allreduce_mean(x),
                    priority=0.0,
                    label="loss",
                    lane="loss",
                )
                tokens.append(model.last_token_count())

                # ---- dense gradients: one ring AllReduce per bucket ------- #
                dense_handles: list[CommHandle] = []
                dense_flats: list[tuple] = []
                # Fused buckets in backward completion order, each one
                # item at its horizontal priority.
                for i, (prio, members, size) in enumerate(dense_buckets):
                    buf = np.empty(size, dtype=members[0][0].data.dtype)
                    for p, start, stop in members:
                        buf[start:stop] = p.grad.reshape(-1)
                    dense_handles.append(sched.submit(
                        lambda c, b=buf: (
                            c.allreduce(b, out=b) if dense_topo is None
                            else two_level_allreduce(c, b, dense_topo, out=b)
                        ),
                        priority=prio,
                        label=f"dense:b{i}",
                        lane="dense",
                    ))
                    dense_flats.append((members, buf))

                # ---- sparse gradients ------------------------------------- #
                if self.strategy == "allgather":
                    for name, table in tables.items():
                        grad = table.weight.grad
                        # The one-shot AllGather and rank-ordered merge
                        # of allreduce_sparse_via_allgather.  Submitted as
                        # one urgent work item: the collective's
                        # point-to-point hops must run on the communicator
                        # the item is given, not the facade.
                        summed = sched.submit(
                            lambda c, g=grad: allreduce_sparse_adaptive(c, g),
                            priority=PRIORITY_URGENT,
                            label=f"sparse:{name}",
                            lane="allgather_sparse",
                        ).wait()
                        table.weight.grad = summed.scale(1.0 / comm.world_size)
                elif self.strategy == "allreduce":
                    # Densified path: the full table travels, zeros included.
                    for name, table in tables.items():
                        dense = table.weight.grad.to_dense()
                        summed = coll.allreduce(dense) / comm.world_size
                        table.weight.grad = SparseRows.from_dense(summed)
                else:
                    gathered_ids = self._embrace_sparse_step(
                        sched, coll, model, batch, next_batch, groups,
                        pending_delayed, gathered_ids, hot_priority,
                        live_counts,
                    )
                    # Dense params still use the fused optimizer; detach
                    # sparse grads so step() skips them.
                    for table in tables.values():
                        table.weight.grad = None

                # Drain the dense queue: bucket sums land in place, then
                # average exactly where allreduce_mean used to.
                for h in dense_handles:
                    h.wait()
                for members, buf in dense_flats:
                    for p, start, stop in members:
                        p.grad = (
                            buf[start:stop] / comm.world_size
                        ).reshape(p.data.shape)
                with obs.span("optimizer"):
                    optimizer.step()
                if self.strategy == "embrace" and next_batch is not None:
                    # Hoisted refresh: gated only by the prior parts (already
                    # applied) — the delayed exchange keeps trailing.  Reuses
                    # the id lists gathered for Algorithm 1's split instead
                    # of a second identical AllGather.
                    for group, all_ids in zip(groups, gathered_ids):
                        group.refresh_rows(all_ids[comm.rank], all_ids=all_ids)
                losses.append(float(loss_h.wait()[0]))

                model.zero_grad()
                if (
                    live_counts is not None
                    and (_step + 1) % self.knobs.repartition_interval == 0
                ):
                    # Drift boundary: commit trailing delayed parts, then
                    # migrate every table to its freshly learned hot set
                    # (collective, bit-exact — see TableGroupRuntime.
                    # repartition).
                    self._flush_delayed(pending_delayed)
                    self._repartition(sched, groups, live_counts)
                if self.eval_every and (_step + 1) % self.eval_every == 0:
                    # Validation refreshes arbitrary rows: commit carried
                    # delayed parts first.
                    self._flush_delayed(pending_delayed)
                    val_losses.append(self._validate(model, val_batches, groups))
                if (
                    checkpoint_path
                    and self.checkpoint_every
                    and (_step + 1) % self.checkpoint_every == 0
                ):
                    # Checkpoints gather whole shards: same commit rule.
                    self._flush_delayed(pending_delayed)
                    self._checkpoint(
                        coll, model, optimizer, groups, checkpoint_path,
                        _step + 1, losses, tokens, val_losses,
                    )

            self._flush_delayed(pending_delayed)
            # No collective after the last step: a rank returns its own
            # columns of group-owned tables (slices of the shard, hot
            # rows settled in), rank 0 also the rest; _launch joins the
            # columns.
            owned = {id(g.tables[n].weight): c for g in groups for n, c in g.own_columns().items()}
            if groups:
                obs.take("mem.table_bytes")  # a level, not a sum
                obs.count("mem.table_bytes", float(sum(g.table_bytes for g in groups)))
            state = {
                key: owned[id(p)] if id(p) in owned else p.data.copy()
                for key, p in model.named_parameters()
                if id(p) in owned or comm.rank == 0
            }
            inter_bytes = 0
            if meter is not None:
                # Which ranks sit on a node boundary differs between the
                # flat and two-level wires, so the honest figure is the
                # cross-rank total (summed before the counter allreduce
                # itself adds bytes).
                inter_bytes = int(
                    coll.allreduce(
                        np.array([meter.inter_bytes_sent], dtype=np.int64)
                    )[0]
                )
        finally:
            # Every handle the loop needs has been waited; on an error,
            # close fails what is still queued without starting it, so
            # no peer is left inside half a collective.
            sched.close()
        return TrainResult(
            strategy=self.strategy,
            world_size=comm.world_size,
            losses=losses,
            tokens_per_step=tokens,
            state=state,
            comm_bytes=comm.bytes_sent,
            inter_bytes=inter_bytes,
            predictions=predictions,
            val_losses=val_losses,
        )

    # ------------------------------------------------------------------ #
    def _checkpoint(
        self, comm, model, optimizer, groups, path, step, losses, tokens, val_losses
    ) -> None:
        """Collectively assemble and (on rank 0) write a restart point.

        All ranks participate: under EmbRace each table's authoritative
        values and sharded Adam moments live column-partitioned across
        the group, so checkpointing is itself a collective (an AllGather
        per table and array, just as a model-parallel system would
        serialize; a table group's moments are cut back per table — the
        checkpoint format is per table).  The gathered tables go to the
        file in place of the model's column shards; no rank keeps them.
        """
        extras: dict[str, np.ndarray] = {
            "loss_log": np.asarray(losses, dtype=np.float64),
            "token_log": np.asarray(tokens, dtype=np.int64),
            "val_log": np.asarray(val_losses, dtype=np.float64),
        }
        gathered = {}
        for group in groups:
            for name, rows in group.gather_tables().items():
                gathered[group.tables[name].weight] = rows
            full, opt_step = group.optimizer_state_full()
            hot_ids = group.table_hot_ids()
            for name, (lo, hi) in group.bounds.items():
                for key in ("exp_avg", "exp_avg_sq"):
                    extras[f"embrace/{name}/{key}"] = full[key][lo:hi]
                extras[f"embrace/{name}/step"] = np.array(opt_step, dtype=np.int64)
                extras[f"embrace/{name}/hot_ids"] = hot_ids[name]
        if comm.rank == 0:
            save_checkpoint(
                path, model, optimizer, step=step, extras=extras, values=gathered
            )

    def _restore_shard_state(self, groups, extras) -> None:
        """Slice each group's Adam moments back out of the gathered state."""
        for group in groups:
            if any(f"embrace/{name}/exp_avg" not in extras for name in group.tables):
                continue
            steps = {int(extras[f"embrace/{name}/step"]) for name in group.tables}
            if len(steps) != 1:
                raise RuntimeError(
                    f"{group.name}: tables checkpointed at different Adam "
                    f"steps {sorted(steps)}; they advance together"
                )
            moments = [
                np.concatenate(
                    [extras[f"embrace/{name}/{key}"] for name in group.tables]
                )
                for key in ("exp_avg", "exp_avg_sq")
            ]
            group.restore_optimizer_state(*moments, steps.pop())

    # ------------------------------------------------------------------ #
    def _repartition(self, sched, groups, live_counts) -> None:
        """Re-learn each table's hot set from live counters and migrate.

        Per table group the per-rank counters are allgathered and summed
        (identical on every rank), every member table's hot set
        re-learned from its slice (:meth:`TableGroupRuntime.learn_hot_ids`,
        which the service shares), and the migration's allgathers run as
        a single ``PRIORITY_URGENT`` work item — the prioritized
        broadcast — so it preempts any queued traffic.  Counters reset
        afterwards: each window detects *recent* drift.
        """
        hot_fraction = self.knobs.hot_fraction
        for group, counts in zip(groups, live_counts):

            def work(c, group=group, counts=counts):
                total = np.sum(c.allgather(counts), axis=0)
                group.repartition(c, group.learn_hot_ids(total, hot_fraction))

            sched.submit(
                work, priority=PRIORITY_URGENT, label=f"repartition:{group.name}"
            ).wait()
            counts[:] = 0
        sched.comm.obs.count("placement.repartitions", 1.0)

    # ------------------------------------------------------------------ #
    def _validate(self, model, val_batches, groups) -> float:
        """Mean loss on held-out batches (gradients discarded).

        Under EmbRace each rank stores only its own columns, so each
        validation batch's rows are fetched into the row block first (a
        real lookup AlltoAll, exactly as a model-parallel system would
        serve evaluation).  The training block comes back afterwards:
        nothing updates its rows in between.
        """
        blocks = [group.block for group in groups]
        losses = []
        for batch in val_batches:
            for group in groups:
                group.refresh_rows(self._group_ids(model, group, batch))
            losses.append(model.forward_backward(batch))
        model.zero_grad()
        for group, block in zip(groups, blocks):
            group.block = block
        return float(np.mean(losses))

    # ------------------------------------------------------------------ #
    def _dense_schedule(self, model, dense_params) -> list[tuple[float, object]]:
        """``(priority, param)`` in FP order, from §4.2.1's block priorities.

        Priorities come from :func:`~repro.schedule.horizontal_priorities`
        over the model's dense blocks; parameters outside any block (none
        today — asserted in tests) trail at the lowest priority.
        """
        spec_prios = horizontal_priorities(block_specs(self.config))
        blocks = model.dense_blocks()
        dense_ids = {id(p) for p in dense_params}
        order: list[tuple[float, object]] = []
        seen: set[int] = set()
        for i, (block_name, params) in enumerate(blocks):
            prio = spec_prios.get(block_name, float(i))
            for p in params:
                if id(p) in dense_ids and id(p) not in seen:
                    order.append((prio, p))
                    seen.add(id(p))
        for p in dense_params:
            if id(p) not in seen:
                order.append((float(len(blocks)), p))
        return order

    @staticmethod
    def _dense_buckets(
        dense_order, bucket_elems: int = DEFAULT_BUCKET_ELEMS
    ) -> list[tuple[float, list, int]]:
        """Fuse dense gradients into few large AllReduce buffers.

        The per-step profile is dominated by per-collective fixed cost
        (latency plus rank-arrival skew), not bandwidth: a model's many
        small dense tensors each paying it separately swamps the sparse
        exchanges the 2D schedule is trying to prioritize.
        :func:`~repro.comm.sched.pack_buckets` greedily packs consecutive
        tensors — in backward-completion order, up to ``bucket_elems``
        elements (default :data:`~repro.comm.sched.DEFAULT_BUCKET_ELEMS`,
        tunable via :class:`~repro.comm.SchedKnobs`) — into a handful of
        fused reductions, each one scheduled AllReduce; urgent sparse
        items queued behind a bucket still run before it at the next
        wait.  A bucket takes the most urgent
        (minimum) priority of its members.  Bounds depend only on the
        parameter list, so every rank and both overlap modes pack — and
        therefore reduce — identically.

        Returns ``(priority, [(param, start, stop)], total_elems)`` per
        bucket.
        """
        sizes = [(prio, p.data.size) for prio, p in dense_order]
        return [
            (
                prio,
                [(dense_order[i][1], start, stop) for i, start, stop in members],
                total,
            )
            for prio, total, members in pack_buckets(sizes, bucket_elems)
        ]

    @staticmethod
    def _flush_delayed(pending: list[tuple[TableGroupRuntime, CommHandle]]) -> None:
        """Commit carried delayed parts (Algorithm 1's trailing half).

        ``final=True`` advances EmbraceAdam's ``step`` exactly as the
        fused update would: the per-row op sequence is prior(t) →
        delayed(t) → prior(t+1) regardless of when the delayed exchange
        physically ran.
        """
        for group, handle in pending:
            group.apply_part(handle.wait(), final=True)
        pending.clear()

    def _embrace_sparse_step(
        self, sched, coll, model, batch, next_batch, groups, pending_delayed,
        gathered_ids=None, hot_priority=0.0, live_counts=None,
    ) -> list[list[np.ndarray]] | None:
        """Algorithm 1 + AlltoAll + EmbraceAdam, once per table group.

        Same-width tables share a virtual row space
        (:class:`~repro.engine.embrace_runtime.TableGroupRuntime`): their
        gradients and id sets are stacked with the table offsets, so one
        coalesce, one split and one prior / delayed / hot work item
        cover every member, with the per-table step's bits.  Judged on
        the group rather than the table, and bit-safe
        (``docs/mechanisms.md``, "Table groups"): ``merge_coalesced``'s
        choice of finish.

        Hot rows (hybrid placement) leave first: their full-dimension
        AllReduce rides the dense lane at ``hot_priority`` and is
        applied to every replica right after the prior part — bit-safe
        because hot, prior, and delayed row sets are pairwise disjoint.
        Cold rows continue into Algorithm 1's split below.

        The prior part runs at ``PRIORITY_PRIOR`` — ahead of the dense
        buckets queued before it — and gates this step's refresh; the
        delayed part enqueues at ``PRIORITY_DELAYED`` and is only waited
        on at the *next* step boundary (:meth:`_flush_delayed`), so it
        trails this step's dense buckets and runs at that wait.

        All groups' next-iteration ids travel in **one** AllGather (per-
        collective fixed cost dominates these tiny payloads), and the
        gathered lists (per group, per rank) are returned: the hoisted
        refresh reuses them instead of gathering the same ids again, and
        the next step passes them back as ``gathered_ids``, every rank's
        ids of *its* batch.  From those every rank infers each peer's
        prior and delayed rows, so the exchanges send values only
        (``docs/mechanisms.md``, "Row ids travel once").  On the first
        step of a call (``gathered_ids`` is None) the current batch's
        ids ride in the same AllGather; with no next batch either, the
        ids travel beside the values.

        Averaging (``scale``) happens *after* the cross-rank sum, at the
        same point as the baseline path, so float rounding matches
        bit-for-bit at any world size.
        """
        inv_world = 1.0 / coll.world_size
        tables = model.embedding_tables()
        obs = sched.comm.obs
        gathered_next: list[list[np.ndarray]] | None = None
        if next_batch is not None:
            # D_next is the *gathered* next-iteration data (Alg. 1) —
            # one fused collective for every group's id set, in the
            # narrow wire type.
            batches = [next_batch] if gathered_ids is not None else [next_batch, batch]
            local = [
                narrow_ids(coll, self._group_ids(model, g, b), g.num_rows)
                for b in batches
                for g in groups
            ]
            gathered = sched.submit(
                lambda c: c.allgather(local),
                priority=PRIORITY_URGENT, label="ids", lane="ids",
            ).wait()
            per_group = [[wide_ids(i) for i in ids] for ids in zip(*gathered)]
            gathered_next = per_group[: len(groups)]
            if gathered_ids is None:
                gathered_ids = per_group[len(groups) :]
        for i, group in enumerate(groups):
            grad = group.stack_grads(
                {name: tables[name].weight.grad for name in group.tables}
            )
            ids = {name: self._table_ids(model, name, batch) for name in group.tables}
            for name, table_ids in ids.items():
                obs.count_rows(name, table_ids)
            current_ids = group.stack_ids(ids)
            if live_counts is not None:
                np.add.at(live_counts[i], current_ids, 1)
            global_next = (
                np.concatenate(gathered_next[i])
                if gathered_next is not None
                else None
            )
            hot_h = None
            if group.n_hot:
                # Submitted unconditionally (SPMD-safe: n_hot is
                # replicated), even when this rank's hot part is empty —
                # peers may still have hot rows to merge, and the empty
                # final apply keeps the hot Adam step advancing in
                # lockstep with the shard step.
                hot, grad = group.split_hot_cold(grad)
                hot_h = sched.submit(
                    lambda c, g=hot, rt=group: rt.exchange_hot(c, g, inv_world),
                    priority=hot_priority,
                    label=f"hot:{group.name}",
                )
            prior, delayed = group.split(grad, current_ids, global_next)
            prior_rows = delayed_rows = None
            if gathered_ids is not None:
                prior_rows, delayed_rows = group.split_rows(
                    group.cold_rows(gathered_ids[i]), global_next
                )
            prior_h = sched.submit(
                lambda c, g=prior, rt=group, r=prior_rows: rt.exchange(
                    c, g, inv_world, rows=r
                ),
                priority=PRIORITY_PRIOR,
                label=f"prior:{group.name}",
            )
            delayed_h = sched.submit(
                lambda c, g=delayed, rt=group, r=delayed_rows: rt.exchange(
                    c, g, inv_world, rows=r
                ),
                priority=PRIORITY_DELAYED,
                label=f"delayed:{group.name}",
            )
            group.apply_part(prior_h.wait(), final=False)
            if hot_h is not None:
                group.apply_hot(hot_h.wait(), final=True)
            pending_delayed.append((group, delayed_h))
        return gathered_next

    # ------------------------------------------------------------------ #
    def _group_ids(self, model, group, batch) -> np.ndarray:
        """The rows ``batch`` touches, in ``group``'s virtual row space."""
        return group.stack_ids(
            {name: self._table_ids(model, name, batch) for name in group.tables}
        )

    # ------------------------------------------------------------------ #
    def _table_ids(self, model, table_name: str, batch) -> np.ndarray:
        """Unique rows this batch touches in ``table_name``.

        Uses the batch's precomputed token-id sets; the LM softmax table
        with full-vocabulary softmax reads *every* row, so its dependency
        set is the whole vocabulary.
        """
        if table_name == "softmax_embedding":
            head = getattr(model, "loss_head", None)
            if head is not None and head.num_sampled is None:
                return np.arange(model.softmax_embedding.num_embeddings)
            return unique_rows(batch.targets[batch.targets != 0])
        if table_name in batch.token_ids:
            return batch.token_ids[table_name]
        raise KeyError(f"batch carries no ids for table {table_name!r}")

    @staticmethod
    def _teacher_forced_predictions(model, batch) -> np.ndarray:
        """Argmax next-token predictions under teacher forcing (BLEU input)."""
        from repro.eval.decode import teacher_forced_argmax

        return teacher_forced_argmax(model, batch)
