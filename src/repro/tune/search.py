"""Declarative knob search over the calibrated simulator.

A :class:`SearchSpace` enumerates candidate :class:`~repro.comm.SchedKnobs`
(plus partition strategy); each :class:`Candidate` is
priced by building the overlapped trainer's per-step task graph —
forward/backward and optimizer compute lanes from *measured* spans,
every collective priced by the profile-calibrated
:class:`~repro.collectives.CostModel` — and executing it on the
discrete-event simulator (:func:`repro.sim.execute`).  The graph mirrors
:class:`~repro.engine.trainer_real.RealTrainer`'s schedule: dense
buckets split into preemptible chunks at their horizontal priorities,
prior sparse AlltoAlls at ``PRIORITY_PRIOR`` gating the hoisted refresh,
delayed parts trailing into the next step's boundary flush.

Ranking runs grid search refined by successive halving: every candidate
is simulated at a small step count, survivors are re-simulated at higher
fidelity.  Everything is deterministic given the seed; the per-candidate
evaluations are independent, so callers may pass any ``map``-compatible
``map_fn`` (e.g. a process pool's) to parallelize a large grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm.sched import PRIORITY_URGENT, SchedKnobs, dense_chunk_bounds
from repro.schedule import PRIORITY_DELAYED, PRIORITY_PRIOR, SCHEDULE_NAMES
from repro.sim import TaskGraph, execute
from repro.tune.fit import TunedProfile
from repro.utils.validation import check_in

#: Float32 — every gradient this trainer ships.
DTYPE_BYTES = 4


@dataclass(frozen=True)
class Candidate:
    """One point of the search space.

    ``schedule`` / ``pipeline_stages`` / ``microbatches`` are the
    pipeline dimension, priced only by the simulator: the
    ``"data_parallel"`` default is the overlapped step ``RealTrainer``
    runs; ``"gpipe"`` / ``"1f1b"`` / ``"nested"`` compile a
    :class:`~repro.schedule.tabular.TabularSchedule` of
    ``pipeline_stages`` stages x ``microbatches`` microbatches.
    """

    knobs: SchedKnobs = field(default_factory=SchedKnobs)
    strategy: str = "embrace"
    schedule: str = "data_parallel"
    pipeline_stages: int = 1
    microbatches: int = 1

    def __post_init__(self):
        check_in("schedule", self.schedule, SCHEDULE_NAMES)
        for name in ("pipeline_stages", "microbatches"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"{name} must be an int >= 1, got {value!r}"
                )
        if not self.pipelined and (
            self.pipeline_stages != 1 or self.microbatches != 1
        ):
            raise ValueError(
                "data_parallel schedule requires pipeline_stages == 1 and "
                f"microbatches == 1, got {self.pipeline_stages} stages x "
                f"{self.microbatches} microbatches"
            )

    @property
    def pipelined(self) -> bool:
        """True for a pipeline schedule (simulator-only)."""
        return self.schedule != "data_parallel"

    def label(self) -> str:
        k = self.knobs
        parts = [
            self.strategy,
            f"chunk={k.chunk_elems}",
            f"maxc={k.max_chunks}",
            f"bucket={k.bucket_elems}",
        ]
        if k.delayed_min_rows:
            parts.append(f"fold<{k.delayed_min_rows}")
        if k.hot_fraction > 0.0:
            parts.append(f"hot={k.hot_fraction:g}")
        if k.repartition_interval:
            parts.append(f"repart={k.repartition_interval}")
        if not k.hierarchical:
            parts.append("flat")
        if self.pipelined:
            parts.append(f"{self.schedule}@{self.pipeline_stages}x{self.microbatches}")
        return " ".join(parts)


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian knob grid; every axis is a tuple of candidate values."""

    chunk_elems: tuple[int, ...] = (16_384, 65_536, 262_144)
    max_chunks: tuple[int, ...] = (4, 8, 16)
    bucket_elems: tuple[int, ...] = (65_536, 262_144)
    delayed_min_rows: tuple[int, ...] = (0,)
    hot_fraction: tuple[float, ...] = (0.0,)
    repartition_interval: tuple[int, ...] = (0,)
    #: ``SchedKnobs.hierarchical``: two-level collectives on a
    #: multi-node profile (``True``) or the flat wires (``False``) — put
    #: both in the grid to search flat-vs-hierarchical.
    hier: tuple[bool, ...] = (True,)
    strategy: tuple[str, ...] = ("embrace",)
    #: Pipeline-parallel axes (simulator-only): a ``schedule`` other than
    #: ``data_parallel`` compiles the corresponding
    #: :class:`~repro.schedule.TabularSchedule` instead of the flat
    #: overlapped step graph.  ``data_parallel`` entries normalize the
    #: stage/microbatch axes to 1x1, so mixing it with pipeline grids
    #: does not multiply the candidate count.
    schedule: tuple[str, ...] = ("data_parallel",)
    pipeline_stages: tuple[int, ...] = (2,)
    microbatches: tuple[int, ...] = (2,)

    def __post_init__(self):
        for name in (
            "chunk_elems", "max_chunks", "bucket_elems",
            "delayed_min_rows", "hot_fraction",
            "repartition_interval", "hier", "strategy",
            "schedule", "pipeline_stages", "microbatches",
        ):
            if not getattr(self, name):
                raise ValueError(f"SearchSpace.{name} must be non-empty")

    @classmethod
    def smoke(cls) -> "SearchSpace":
        """A <= 4-candidate grid for CI smoke runs (``repro tune --smoke``)."""
        return cls(
            chunk_elems=(16_384, 65_536),
            max_chunks=(8,),
            bucket_elems=(65_536, 262_144),
        )

    def candidates(self) -> list[Candidate]:
        """The grid in deterministic (itertools.product) order; validation
        happens in each :class:`~repro.comm.SchedKnobs` and
        :class:`Candidate`."""
        out = []
        seen: set[Candidate] = set()
        for ce, mc, be, dm, hf, ri, hi, st, sc, ps, mb in itertools.product(
            self.chunk_elems, self.max_chunks, self.bucket_elems,
            self.delayed_min_rows, self.hot_fraction, self.repartition_interval,
            self.hier, self.strategy,
            self.schedule, self.pipeline_stages, self.microbatches,
        ):
            if sc == "data_parallel":
                ps, mb = 1, 1
            cand = Candidate(
                knobs=SchedKnobs(
                    chunk_elems=ce, max_chunks=mc,
                    bucket_elems=be, delayed_min_rows=dm,
                    hot_fraction=hf, repartition_interval=ri,
                    hierarchical=hi,
                ),
                strategy=st,
                schedule=sc, pipeline_stages=ps, microbatches=mb,
            )
            if cand not in seen:  # data_parallel collapses the stage axes
                seen.add(cand)
                out.append(cand)
        return out


# --------------------------------------------------------------------- #
# Measured workload
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TableLoad:
    """Per-step sparse traffic of one embedding table (bytes, averaged)."""

    name: str
    prior_bytes: float
    delayed_bytes: float
    coalesced_bytes: float
    dense_bytes: float  # full densified table (the "allreduce" strategy)
    delayed_rows: float
    ids_bytes: float  # next-iteration id lists (the fused AllGather)
    lookup_bytes: float  # hoisted refresh: reassembled rows
    #: Table size in rows (basis for hot_fraction -> n_hot).
    vocab_rows: float = 0.0
    #: Row width in elements.  The trainer stacks equal-width tables into
    #: one :class:`~repro.engine.embrace_runtime.TableGroupRuntime`, so
    #: they share one prior / delayed / hot / refresh exchange; 0
    #: (unknown) keeps the table in a group of its own.
    dim: int = 0
    #: Sampled hot-coverage curve ``(n_hot, access_coverage)`` from the
    #: trace's merged row counters: what fraction of row accesses the
    #: hottest ``n_hot`` rows absorb.  Empty = no trace row counts,
    #: hot_fraction candidates price as no-ops.
    hot_coverage: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class MeasuredWorkload:
    """What one step of the real workload costs on this host.

    Compute durations come from the ``fwd_bwd`` / ``optimizer`` spans of
    a traced default-configuration run (so they already include
    whatever CPU contention the real world size imposes); traffic
    volumes come from :func:`repro.engine.workload.measure_workload`'s
    gradient statistics.
    """

    world_size: int
    fwd_bwd_s: float
    optimizer_s: float
    dense_param_sizes: tuple[tuple[float, int], ...]  # (priority, elems)
    tables: tuple[TableLoad, ...]
    measured_step_s: float  # default config
    measured_stall_frac: float
    #: Per-step host time outside the recorded compute spans (gradient
    #: splits, bucket copies, scheduler bookkeeping).  Calibrated by
    #: :func:`calibrate_overhead` as the default configuration's
    #: measured-minus-simulated residual; knob-independent, so it shifts
    #: every candidate identically.
    step_overhead_s: float = 0.0
    #: Intra-node duplicate-row overlap of the sparse gradients: the
    #: node-merged payload as a fraction of its members' summed payloads
    #: (1.0 = no overlap).  Measured by the hybrid mode from the real
    #: twins' :class:`~repro.comm.InterNodeMeter` counts; prices the
    #: hierarchical sparse exchanges' inter-node leg.
    node_dedup: float = 1.0

    def scaled_to(self, world_size: int) -> "MeasuredWorkload":
        """Extrapolate this per-rank workload to another world size.

        Per-rank compute spans and per-rank gradient payloads are
        scale-free (the per-rank batch is fixed — the paper's weak
        scaling); only the hoisted-refresh lookup volume grows with the
        number of shards a rank's rows are scattered over
        (``lookup_bytes`` is proportional to the world size).
        """
        if world_size == self.world_size:
            return self
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size!r}")
        f = world_size / self.world_size
        tables = tuple(
            replace(t, lookup_bytes=t.lookup_bytes * f) for t in self.tables
        )
        return replace(self, world_size=world_size, tables=tables)


def _median_span(trace, lane: str, name: str) -> float:
    durs = [
        e.duration for e in trace.entries
        if e.resource == lane and e.name == name
    ]
    if not durs:
        raise ValueError(f"no {name!r} spans on lane {lane!r}")
    return float(np.median(durs))


def measured_step_time(trace, steps: int, lane: str = "compute:0") -> float:
    """Steady-state step seconds: spacing of successive ``fwd_bwd`` starts.

    Robust against setup (model build before the first step) and
    teardown (final state gather after the last) inflating
    ``makespan / steps``; needs ``steps >= 2``.
    """
    starts = sorted(
        e.start for e in trace.entries
        if e.resource == lane and e.name == "fwd_bwd"
    )
    if len(starts) < 2:
        raise ValueError(f"need >= 2 fwd_bwd spans on {lane!r}, got {len(starts)}")
    return (starts[-1] - starts[0]) / (len(starts) - 1)


def measure_workload_from_run(config, world_size: int, result) -> MeasuredWorkload:
    """Distill a traced real :class:`~repro.engine.run.RunResult` (default
    knobs) plus the analytic gradient statistics into a workload model."""
    from repro.engine.trainer_real import RealTrainer
    from repro.engine.workload import measure_workload
    from repro.models.registry import build_model

    bundle = result.raw.trace
    trace = bundle.trace
    fwd = _median_span(trace, "compute:0", "fwd_bwd")
    opt = _median_span(trace, "compute:0", "optimizer")
    step_s = measured_step_time(trace, result.steps)
    stall_frac = bundle.computation_stall(0) / trace.makespan

    model = build_model(config, rng=np.random.default_rng(0))
    trainer = RealTrainer(config, strategy="embrace", world_size=world_size)
    dense_order = trainer._dense_schedule(model, model.dense_parameters())
    dense_sizes = tuple((float(p_prio), int(p.data.size)) for p_prio, p in dense_order)

    stats = measure_workload(config, world_size=world_size)
    tables = []
    for name, st in sorted(stats.tables.items()):
        row_payload = st.dim * DTYPE_BYTES  # values; ids ride alongside
        tables.append(
            TableLoad(
                name=name,
                prior_bytes=st.prior_bytes,
                delayed_bytes=st.delayed_bytes,
                coalesced_bytes=st.coalesced_bytes,
                dense_bytes=float(st.vocab_size * st.dim * DTYPE_BYTES),
                delayed_rows=st.delayed_rows,
                ids_bytes=st.coalesced_rows * 8.0,
                lookup_bytes=st.coalesced_rows * world_size * row_payload,
                vocab_rows=float(st.vocab_size),
                dim=int(st.dim),
                hot_coverage=_coverage_curve(bundle, name),
            )
        )
    return MeasuredWorkload(
        world_size=world_size,
        fwd_bwd_s=fwd,
        optimizer_s=opt,
        dense_param_sizes=dense_sizes,
        tables=tuple(tables),
        measured_step_s=step_s,
        measured_stall_frac=stall_frac,
    )


def _coverage_curve(
    bundle, table: str, samples: int = 32
) -> tuple[tuple[int, float], ...]:
    """Sample the trace's row-access CDF into ``(n_hot, coverage)`` pairs."""
    cdf = getattr(bundle, "row_cdf", None)
    if cdf is None:
        return ()
    _ids, _counts, coverage = cdf(table)
    if not len(coverage):
        return ()
    idxs = np.unique(
        np.linspace(0, len(coverage) - 1, num=min(samples, len(coverage))).astype(int)
    )
    return tuple((int(i) + 1, float(coverage[i])) for i in idxs)


def _table_groups(tables: tuple[TableLoad, ...]) -> list[list[TableLoad]]:
    """The tables as the trainer exchanges them: one group per row width
    (first-appearance order), unknown widths each alone."""
    groups: dict[object, list[TableLoad]] = {}
    for t in tables:
        groups.setdefault(t.dim or t.name, []).append(t)
    return list(groups.values())


def _hot_coverage(load: TableLoad, hot_fraction: float) -> float:
    """Fraction of this table's row accesses a ``hot_fraction`` hot set
    absorbs, interpolated on the measured coverage curve (0.0 without a
    curve: an unknowable hot set is priced as buying nothing)."""
    if hot_fraction <= 0.0 or not load.hot_coverage or load.vocab_rows <= 0:
        return 0.0
    n_hot = hot_fraction * load.vocab_rows
    ns = np.array([n for n, _ in load.hot_coverage], dtype=float)
    cov = np.array([c for _, c in load.hot_coverage], dtype=float)
    return float(np.interp(n_hot, ns, cov, left=0.0))


def calibrate_overhead(
    profile: TunedProfile,
    workload: MeasuredWorkload,
    n_steps: int = 3,
) -> MeasuredWorkload:
    """Fill :attr:`MeasuredWorkload.step_overhead_s` from the default run.

    Simulates the *default* candidate with zero overhead and attributes
    the measured-vs-simulated step-time residual to per-step host work.
    The overhead is knob-independent (same Python bookkeeping whatever
    the chunk sizes), so calibrating it on the default configuration
    leaves candidate *differences* purely model-driven.  Clamped at 0:
    a simulator already slower than reality gets no negative help.
    """
    base = replace(workload, step_overhead_s=0.0)
    raw = predict_candidate(profile, base, default_candidate(), n_steps=n_steps)
    overhead = max(0.0, workload.measured_step_s - raw.step_time_s)
    return replace(workload, step_overhead_s=overhead)


# --------------------------------------------------------------------- #
# Candidate evaluation
# --------------------------------------------------------------------- #
def _pack_buckets(
    sizes: list[tuple[float, int]], bucket_elems: int
) -> list[tuple[float, int]]:
    """Greedy consecutive packing, mirroring ``RealTrainer._dense_buckets``
    (single-dtype case): returns ``(priority, total_elems)`` per bucket
    over the backward-completion (reversed) order."""
    buckets: list[tuple[float, int]] = []
    prio, total = 0.0, 0
    for p_prio, size in reversed(sizes):
        if total and total + size > bucket_elems:
            buckets.append((prio, total))
            total = 0
        prio = p_prio if total == 0 else min(prio, p_prio)
        total += size
    if total:
        buckets.append((prio, total))
    return buckets


@dataclass(frozen=True)
class PredictedRun:
    """Simulator verdict for one candidate."""

    candidate: Candidate
    step_time_s: float
    stall_frac: float
    makespan_s: float
    n_steps: int


def _pipeline_costs(cost, workload: MeasuredWorkload, candidate: Candidate):
    """Distill a :class:`MeasuredWorkload` into per-stage
    :class:`~repro.schedule.ScheduleCosts` for the tabular compiler.

    The measured fused ``fwd_bwd`` span is split 1:2 into forward and
    backward (the usual one-pass vs two-pass ratio) and spread evenly
    across stages and microbatches; dense gradient volume splits evenly
    across stages; every embedding table lives on stage 0 (the repo's
    embedding-first block order).  Activation sends are priced at pure
    link latency — the workload model does not record activation sizes.
    """
    from repro.schedule.tabular import ScheduleCosts

    p, m = candidate.pipeline_stages, candidate.microbatches
    fwd_total = workload.fwd_bwd_s / 3.0
    bwd_total = workload.fwd_bwd_s - fwd_total
    dense_elems = sum(size for _, size in workload.dense_param_sizes)
    dense_b = dense_elems * DTYPE_BYTES / p
    prior_b = sum(t.prior_bytes for t in workload.tables)
    delayed_b = sum(t.delayed_bytes for t in workload.tables)
    coalesced_b = sum(t.coalesced_bytes for t in workload.tables)
    densified_b = sum(t.dense_bytes for t in workload.tables)
    dense_s = [cost.allreduce(dense_b).seconds] * p
    sparse = [0.0] * p
    prior = [0.0] * p
    delayed = [0.0] * p
    if candidate.strategy == "embrace":
        sparse[0] = cost.alltoall(coalesced_b).seconds
        prior[0] = cost.alltoall(prior_b).seconds
        delayed[0] = cost.alltoall(delayed_b).seconds
    elif candidate.strategy == "allgather":
        sparse[0] = cost.allgather(coalesced_b).seconds
    else:  # "allreduce": densified tables ride stage 0's dense lane
        dense_s[0] = cost.allreduce(dense_b + densified_b).seconds
    return ScheduleCosts(
        n_stages=p,
        n_microbatches=m,
        fwd_s=tuple(fwd_total / (p * m) for _ in range(p)),
        bwd_s=tuple(bwd_total / (p * m) for _ in range(p)),
        act_send_s=tuple(
            cost.point_to_point(0.0).seconds for _ in range(p - 1)
        ),
        dense_s=tuple(dense_s),
        sparse_s=tuple(sparse),
        prior_s=tuple(prior),
        delayed_s=tuple(delayed),
        opt_s=tuple(workload.optimizer_s / p for _ in range(p)),
        opt_delayed_s=tuple(0.0 for _ in range(p)),
    )


def _predict_pipeline(
    cost, workload: MeasuredWorkload, candidate: Candidate, n_steps: int
) -> PredictedRun:
    """Pipeline-schedule candidates: compile the table, chain, execute.

    The knob-independent ``step_overhead_s`` is added on top of the
    simulated step, same as the host task in the data-parallel graph.
    """
    from repro.schedule.tabular import build_schedule, compile_schedule
    from repro.sim.pipeline import chain_steps

    p = candidate.pipeline_stages
    schedule = build_schedule(candidate.schedule, p, candidate.microbatches)
    graph = compile_schedule(schedule, _pipeline_costs(cost, workload, candidate))
    trace = execute(chain_steps(graph, n_steps))
    makespan = trace.makespan + n_steps * workload.step_overhead_s
    lanes = ["compute"] if p == 1 else [f"compute:{s}" for s in range(p)]
    stall = sum(trace.computation_stall(lane) for lane in lanes) / len(lanes)
    stall += n_steps * workload.step_overhead_s
    return PredictedRun(
        candidate=candidate,
        step_time_s=makespan / n_steps,
        stall_frac=stall / makespan if makespan > 0 else 0.0,
        makespan_s=makespan,
        n_steps=n_steps,
    )


def predict_candidate(
    profile: TunedProfile,
    workload: MeasuredWorkload,
    candidate: Candidate,
    n_steps: int = 3,
    world_size: int | None = None,
) -> PredictedRun:
    """Build + execute the candidate's chained-step task graph.

    One ``compute`` lane (forward/backward, optimizer) and one ``comm``
    lane (the scheduler's comm thread serving by priority) per the
    rank-0 view; collective durations come from the calibrated cost
    model.  Stall fraction uses the same §5.4 code path as real traces.

    ``world_size`` replays the workload at a different scale (the
    hybrid mode's 64..1024 ladder): the cost model prices on the
    profile's cluster grown to that many workers and the workload's
    scale-dependent volumes are extrapolated via
    :meth:`MeasuredWorkload.scaled_to`.  On a multi-node cluster
    ``knobs.hierarchical`` picks the two-level collective prices for the
    dense, sparse and hot lanes, as it picks the wires on real ranks.
    The AllGather baseline always runs flat, so it is priced flat.
    """
    cost = profile.cost_model(world_size=world_size)
    if world_size is not None and world_size != workload.world_size:
        workload = workload.scaled_to(world_size)
    if candidate.pipelined:
        return _predict_pipeline(cost, workload, candidate, n_steps)
    k = candidate.knobs
    hier = k.hierarchical and cost.cluster.multi_node
    dedup = workload.node_dedup

    def dense_cost(nbytes: float) -> float:
        coll = (
            cost.hierarchical_allreduce(nbytes) if hier else cost.allreduce(nbytes)
        )
        return coll.seconds

    def sparse_alltoall_cost(nbytes: float) -> float:
        coll = (
            cost.hierarchical_alltoall(nbytes, node_dedup=dedup)
            if hier
            else cost.alltoall(nbytes)
        )
        return coll.seconds

    buckets = _pack_buckets(list(workload.dense_param_sizes), k.bucket_elems)
    g = TaskGraph()
    prev_opt: str | None = None
    prev_refresh: list[str] = []
    prev_delayed: list[str] = []
    for i in range(n_steps):
        fwd = f"fwd:{i}"
        fwd_deps = [d for d in [prev_opt] if d] + prev_refresh
        g.add_task(
            fwd, workload.fwd_bwd_s, resource="compute", kind="compute",
            deps=fwd_deps,
        )
        # Previous step's delayed parts gate this step's boundary flush
        # (they must be applied before the optimizer touches shards).
        boundary_deps = [fwd] + prev_delayed
        prev_refresh = []
        prev_delayed = []
        # Scalar loss allreduce: submitted after fwd, waited end of step.
        loss = f"loss:{i}"
        g.add_task(
            loss, cost.allreduce(8).seconds, resource="comm", kind="comm",
            priority=0.0, deps=[fwd],
        )
        # Dense buckets -> preemptible chunks.
        dense_chunks: list[str] = []
        for b, (prio, total) in enumerate(buckets):
            bounds = dense_chunk_bounds(total, k.chunk_elems, k.max_chunks)
            for c in range(len(bounds) - 1):
                elems = bounds[c + 1] - bounds[c]
                tname = f"dense:{i}:b{b}:c{c}"
                g.add_task(
                    tname,
                    dense_cost(elems * DTYPE_BYTES),
                    resource="comm", kind="comm", priority=prio, deps=[fwd],
                )
                dense_chunks.append(tname)
        # Host time outside the compute spans: real traces count it as
        # stall (it is not a recorded ``compute``-kind span), so the
        # model gives it kind="overhead" — same §5.4 arithmetic.  The
        # comm lane keeps serving underneath it, as the real comm
        # thread does.
        host = None
        if workload.step_overhead_s > 0:
            host = f"host:{i}"
            g.add_task(
                host, workload.step_overhead_s,
                resource="compute", kind="overhead", deps=[fwd],
            )
            boundary_deps.append(host)
        sparse_done: list[str] = []
        refresh_tasks: list[tuple[str, float, str]] = []
        if candidate.strategy == "embrace":
            ids = f"ids:{i}"
            g.add_task(
                ids,
                cost.allgather(sum(t.ids_bytes for t in workload.tables)).seconds,
                resource="comm", kind="comm",
                priority=PRIORITY_URGENT, deps=[fwd],
            )
            dense_prio = min((p for p, _ in buckets), default=0.0)
            # One prior / delayed / hot exchange per same-width table
            # group, as the trainer issues them: a group pays one
            # latency for its members' summed bytes.
            for members in _table_groups(workload.tables):
                gname = "+".join(t.name for t in members)
                # Hybrid placement: the hot set absorbs `cover` of the
                # row accesses — its gradient rows leave the AlltoAll /
                # lookup lanes and ride a dense-lane allreduce (masks +
                # value blocks + the reassembly allgather, ~2x the
                # gradient payload for fully-shared rows).
                covers = [_hot_coverage(t, k.hot_fraction) for t in members]
                prior_b = sum(
                    t.prior_bytes * (1.0 - c) for t, c in zip(members, covers)
                )
                delayed_b = sum(
                    t.delayed_bytes * (1.0 - c) for t, c in zip(members, covers)
                )
                hot_b = sum(
                    2.0 * c * (t.prior_bytes + t.delayed_bytes)
                    for t, c in zip(members, covers)
                )
                if hot_b > 0.0:
                    hot = f"hot:{i}:{gname}"
                    g.add_task(
                        hot, dense_cost(hot_b),
                        resource="comm", kind="comm",
                        priority=dense_prio, deps=[fwd],
                    )
                    sparse_done.append(hot)
                delayed_rows = sum(t.delayed_rows for t in members)
                if k.delayed_min_rows and 0 < delayed_rows < k.delayed_min_rows:
                    prior_b, delayed_b = prior_b + delayed_b, 0.0
                prior = f"prior:{i}:{gname}"
                g.add_task(
                    prior, sparse_alltoall_cost(prior_b),
                    resource="comm", kind="comm",
                    priority=PRIORITY_PRIOR, deps=[fwd, ids],
                )
                delayed = f"delayed:{i}:{gname}"
                g.add_task(
                    delayed, sparse_alltoall_cost(delayed_b),
                    resource="comm", kind="comm",
                    priority=PRIORITY_DELAYED, deps=[fwd, ids],
                )
                prev_delayed.append(delayed)
                sparse_done.append(prior)
                # Hot rows are never stale, so they drop out of the
                # hoisted refresh lookup entirely.
                lookup_b = sum(
                    t.lookup_bytes * (1.0 - c) for t, c in zip(members, covers)
                )
                refresh_tasks.append((gname, lookup_b, prior))
        elif candidate.strategy == "allgather":
            for t in workload.tables:
                sp = f"sparse:{i}:{t.name}"
                g.add_task(
                    sp, cost.allgather(t.coalesced_bytes).seconds,
                    resource="comm", kind="comm",
                    priority=PRIORITY_URGENT, deps=[fwd],
                )
                sparse_done.append(sp)
        else:  # "allreduce": densified full-table ring reduction
            for t in workload.tables:
                sp = f"sparse:{i}:{t.name}"
                g.add_task(
                    sp, cost.allreduce(t.dense_bytes).seconds,
                    resource="comm", kind="comm",
                    priority=PRIORITY_URGENT, deps=[fwd],
                )
                sparse_done.append(sp)
        opt = f"opt:{i}"
        g.add_task(
            opt, workload.optimizer_s, resource="compute", kind="compute",
            deps=boundary_deps + dense_chunks + sparse_done,
        )
        if candidate.strategy == "embrace":
            for name, lookup_b, prior in refresh_tasks:
                r = f"refresh:{i}:{name}"
                g.add_task(
                    r, cost.alltoall(lookup_b).seconds,
                    resource="comm", kind="comm",
                    priority=PRIORITY_URGENT, deps=[opt, prior],
                )
                prev_refresh.append(r)
            if k.repartition_interval and (i + 1) % k.repartition_interval == 0:
                # Drift boundary: counter allgather + migration, gating
                # the next step like a refresh does.
                rp = f"repartition:{i}"
                g.add_task(
                    rp,
                    cost.allgather(
                        sum(t.vocab_rows * 8.0 for t in workload.tables)
                    ).seconds,
                    resource="comm", kind="comm",
                    priority=PRIORITY_URGENT, deps=[opt],
                )
                prev_refresh.append(rp)
        # The loss wait closes the step on the training thread.
        prev_opt = opt
        prev_refresh = prev_refresh + [loss]
    trace = execute(g)
    makespan = trace.makespan
    stall = trace.computation_stall("compute")
    return PredictedRun(
        candidate=candidate,
        step_time_s=makespan / n_steps,
        stall_frac=stall / makespan if makespan > 0 else 0.0,
        makespan_s=makespan,
        n_steps=n_steps,
    )


# --------------------------------------------------------------------- #
# Grid + successive halving
# --------------------------------------------------------------------- #
def rank_candidates(
    profile: TunedProfile,
    workload: MeasuredWorkload,
    space: SearchSpace | list[Candidate],
    *,
    rungs: tuple[int, ...] = (2, 4),
    keep: float = 0.5,
    seed: int = 0,
    map_fn=map,
) -> list[PredictedRun]:
    """Rank the grid by predicted stall fraction, then step time.

    Successive halving: all candidates are simulated at ``rungs[0]``
    chained steps; the best ``keep`` fraction advances to the next rung
    (higher fidelity), and so on.  The returned list is the final rung's
    ranking, best first (candidates eliminated early keep their
    last-rung verdicts, appended after the survivors).  ``seed`` shuffles
    initial evaluation order only — results are order-independent, so
    the ranking itself is deterministic.
    """
    cands = space.candidates() if isinstance(space, SearchSpace) else list(space)
    if not cands:
        raise ValueError("no candidates to rank")
    order = np.random.default_rng(seed).permutation(len(cands))
    active = [cands[i] for i in order]
    eliminated: list[PredictedRun] = []
    results: list[PredictedRun] = []
    for r, n_steps in enumerate(rungs):
        results = list(
            map_fn(
                lambda c, n=n_steps: predict_candidate(profile, workload, c, n),
                active,
            )
        )
        results.sort(key=lambda p: (p.stall_frac, p.step_time_s, p.candidate.label()))
        if r == len(rungs) - 1:
            break
        n_keep = max(1, math.ceil(len(results) * keep))
        eliminated = results[n_keep:] + eliminated
        active = [p.candidate for p in results[:n_keep]]
    return results + eliminated


def default_candidate(strategy: str = "embrace") -> Candidate:
    """The pre-tuning configuration (historical constants)."""
    return Candidate(knobs=SchedKnobs(), strategy=strategy)
