"""Declarative knob search over the calibrated simulator.

A :class:`SearchSpace` enumerates candidate :class:`~repro.comm.SchedKnobs`
(plus partition strategy); each :class:`Candidate` is
priced by building the overlapped trainer's per-step task graph —
forward/backward and optimizer compute lanes from *measured* spans,
every collective priced by the profile-calibrated
:class:`~repro.collectives.CostModel` — and executing it on the
discrete-event simulator (:func:`repro.sim.execute`).  The graph mirrors
:class:`~repro.engine.trainer_real.RealTrainer`'s schedule: one dense
AllReduce per bucket at its horizontal priority, prior sparse AlltoAlls at ``PRIORITY_PRIOR`` gating the hoisted refresh,
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

from repro.comm.sched import PRIORITY_URGENT, SchedKnobs, pack_buckets
from repro.comm.sparse import ids_dtype
from repro.schedule import PRIORITY_DELAYED, PRIORITY_PRIOR
from repro.sim import TaskGraph, execute
from repro.tune.fit import TunedProfile

#: Float32 — every gradient this trainer ships.
DTYPE_BYTES = 4


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: the scheduler knobs plus the
    sparse strategy, as :class:`~repro.engine.trainer_real.RealTrainer`
    runs them."""

    knobs: SchedKnobs = field(default_factory=SchedKnobs)
    strategy: str = "embrace"

    def label(self) -> str:
        k = self.knobs
        parts = [
            self.strategy,
            f"bucket={k.bucket_elems}",
        ]
        if k.hot_fraction > 0.0:
            parts.append(f"hot={k.hot_fraction:g}")
        if k.repartition_interval:
            parts.append(f"repart={k.repartition_interval}")
        if not k.hierarchical:
            parts.append("flat")
        return " ".join(parts)


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian knob grid; every axis is a tuple of candidate values."""

    bucket_elems: tuple[int, ...] = (65_536, 262_144)
    hot_fraction: tuple[float, ...] = (0.0,)
    repartition_interval: tuple[int, ...] = (0,)
    #: ``SchedKnobs.hierarchical``: two-level collectives on a
    #: multi-node profile (``True``) or the flat wires (``False``) — put
    #: both in the grid to search flat-vs-hierarchical.
    hier: tuple[bool, ...] = (True,)
    strategy: tuple[str, ...] = ("embrace",)

    def __post_init__(self):
        for name in (
            "bucket_elems", "hot_fraction", "repartition_interval",
            "hier", "strategy",
        ):
            if not getattr(self, name):
                raise ValueError(f"SearchSpace.{name} must be non-empty")

    @classmethod
    def smoke(cls) -> "SearchSpace":
        """A <= 4-candidate grid for CI smoke runs (``repro tune --smoke``):
        the default grid."""
        return cls()

    def candidates(self) -> list[Candidate]:
        """The grid in deterministic (itertools.product) order; validation
        happens in each :class:`~repro.comm.SchedKnobs`."""
        return [
            Candidate(
                knobs=SchedKnobs(
                    bucket_elems=be, hot_fraction=hf, repartition_interval=ri,
                    hierarchical=hi,
                ),
                strategy=st,
            )
            for be, hf, ri, hi, st in itertools.product(
                self.bucket_elems, self.hot_fraction,
                self.repartition_interval, self.hier, self.strategy,
            )
        ]


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
    teardown (span shipping after the last) inflating
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
                ids_bytes=st.coalesced_rows * ids_dtype(st.vocab_size).itemsize,
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
    the bucket sizes), so calibrating it on the default configuration
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
@dataclass(frozen=True)
class PredictedRun:
    """Simulator verdict for one candidate."""

    candidate: Candidate
    step_time_s: float
    stall_frac: float
    makespan_s: float
    n_steps: int


def predict_candidate(
    profile: TunedProfile,
    workload: MeasuredWorkload,
    candidate: Candidate,
    n_steps: int = 3,
    world_size: int | None = None,
) -> PredictedRun:
    """Build + execute the candidate's chained-step task graph.

    One ``compute`` lane (forward/backward, optimizer) and one ``comm``
    lane (the paper's communication stream serving by priority) per the
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

    buckets = pack_buckets(workload.dense_param_sizes, k.bucket_elems)
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
        # One AllReduce per dense bucket, as the trainer issues them.
        dense: list[str] = []
        for b, (prio, total, _members) in enumerate(buckets):
            tname = f"dense:{i}:b{b}"
            g.add_task(
                tname, dense_cost(total * DTYPE_BYTES),
                resource="comm", kind="comm", priority=prio, deps=[fwd],
            )
            dense.append(tname)
        # Host time outside the compute spans: real traces count it as
        # stall (it is not a recorded ``compute``-kind span), so the
        # model gives it kind="overhead" — same §5.4 arithmetic.  The
        # modelled comm lane keeps serving underneath it (the real
        # queue runs only when the training thread waits).
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
            dense_prio = min((b[0] for b in buckets), default=0.0)
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
            deps=boundary_deps + dense + sparse_done,
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
