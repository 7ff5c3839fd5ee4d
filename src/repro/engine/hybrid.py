"""Hybrid execution: real small-scale twins + calibrated scaling replay.

The paper's headline numbers live at scales this repo cannot run for
real, and pure simulation at those scales would rest on hand-picked
constants.  Hybrid mode splits the difference in three phases:

1. **Real twins** — train ``config.world_size`` real ranks twice over a
   two-level :class:`~repro.comm.NodeTopology`, once with the
   hierarchical collectives and once flat, asserting the losses are
   bit-identical (the correctness half of the BENCH_scale gate) and
   reading each wire's measured cross-node traffic off the
   :class:`~repro.comm.InterNodeMeter`.
2. **Per-level calibration** — :func:`repro.tune.probe_two_level` fits
   separate intra-node and inter-node alpha-beta parameters from traced
   AllReduce probes on the real sub-communicators, and the traced twin
   run is distilled into a :class:`~repro.tune.MeasuredWorkload`
   carrying the measured node-dedup ratio.
3. **Replay ladder** — the EmbRace per-step task graph
   (:func:`repro.tune.predict_candidate`) replays on the calibrated
   simulator at 64/128/256/512/1024 ranks, the probed cluster grown by
   whole nodes (:meth:`~repro.tune.TunedProfile.to_cluster`), pricing
   flat vs hierarchical wires and accounting predicted inter-node
   exchange bytes per scale.

``repro scale`` is the CLI front end; ``benchmarks/bench_scale.py``
commits the resulting curve as ``BENCH_scale.json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.comm.sched import SchedKnobs
from repro.comm.topology import NodeTopology, as_topology
from repro.engine.workload import measure_node_dedup
from repro.tune.fit import (
    DEFAULT_PROBE_ITERS,
    PROBE_SIZES_BYTES,
    TunedProfile,
    probe_two_level,
)
from repro.tune.search import (
    DTYPE_BYTES,
    Candidate,
    MeasuredWorkload,
    _hot_coverage,
    measure_workload_from_run,
    predict_candidate,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.collectives.cost import CostModel
    from repro.engine.run import RunConfig, RunResult

#: The paper-style scaling ladder replayed by default.
DEFAULT_SIM_WORLDS = (64, 128, 256, 512, 1024)


def scale_bench_model():
    """The sparse-dominated GNMT-8 derivative ``BENCH_scale`` measures.

    The inter-node gate rewards node-coalescing of duplicate gradient
    rows, so the bench model keeps the paper's two-table GNMT structure
    but shifts the byte budget to where the mechanism lives: a narrow
    dense trunk (``dim_divisor=128`` -> 8-dim LSTMs), wide 64-dim
    embedding tables over a 256-row vocab, and a large, head-heavy batch
    (96 sentences, ``head_mass=0.8``) so co-located ranks touch strongly
    overlapping row sets — measured ``node_dedup`` ~ 0.53 across two
    2-rank nodes.
    """
    from dataclasses import replace

    from repro.models.config import GNMT8

    base = GNMT8.scaled(vocab=256, dim_divisor=128)
    return dataclasses.replace(
        base,
        name="GNMT-8-scalebench",
        tables=tuple(replace(t, dim=64) for t in base.tables),
        batch_size_rtx3090=96,
        batch_size_rtx2080=96,
        head_mass=0.8,
    )


def sim_world_ladder(sim_world: Any) -> tuple[int, ...]:
    """Normalize ``RunConfig.sim_world`` into an explicit ladder.

    ``None`` -> the 64..1024 doubling ladder; an int -> doubling from 64
    up to (and including) it; a sequence -> taken as given.
    """
    if sim_world is None:
        return DEFAULT_SIM_WORLDS
    if isinstance(sim_world, int):
        if sim_world < 2:
            raise ValueError(f"sim_world must be >= 2, got {sim_world!r}")
        if sim_world <= DEFAULT_SIM_WORLDS[0]:
            return (sim_world,)
        out, w = [], DEFAULT_SIM_WORLDS[0]
        while w < sim_world:
            out.append(w)
            w *= 2
        out.append(sim_world)
        return tuple(dict.fromkeys(out))
    out = tuple(int(w) for w in sim_world)
    if not out or any(w < 2 for w in out):
        raise ValueError(f"sim_world entries must be >= 2, got {sim_world!r}")
    return out


def step_inter_bytes(
    cost: "CostModel", workload: MeasuredWorkload, knobs: SchedKnobs
) -> dict[str, float]:
    """Predicted per-step bytes crossing node boundaries, by lane.

    Prices the same lanes :func:`~repro.tune.predict_candidate` builds:
    dense bucket allreduces, the prior+delayed sparse exchanges, and
    the hot-row lane (each flat or two-level per ``knobs.hierarchical``),
    plus the id allgather and hoisted-refresh lookups that stay flat
    under either wire.  ``"exchange"`` sums the gradient lanes — the
    quantity the hierarchical collectives shrink and the BENCH_scale
    ``>=30%`` gate measures; ``"total"`` adds the wire-invariant lanes.
    """
    hier = knobs.hierarchical
    dedup = workload.node_dedup

    dense_bytes = sum(elems for _, elems in workload.dense_param_sizes) * DTYPE_BYTES
    out = {
        "dense": cost.inter_bytes_allreduce(dense_bytes, hier),
        "sparse": 0.0,
        "hot": 0.0,
        "ids": 0.0,
        "lookup": 0.0,
    }
    for t in workload.tables:
        cover = _hot_coverage(t, knobs.hot_fraction)
        grad_b = (t.prior_bytes + t.delayed_bytes) * (1.0 - cover)
        out["sparse"] += cost.inter_bytes_alltoall(grad_b, hier, dedup)
        if cover > 0.0:
            # The hot lane replicates its rows to every rank (flat) or
            # to every *node* (hierarchical) — allgather-shaped traffic.
            hot_b = 2.0 * cover * (t.prior_bytes + t.delayed_bytes)
            out["hot"] += cost.inter_bytes_allgather(hot_b, hier, dedup)
        out["ids"] += cost.inter_bytes_allgather(t.ids_bytes, False)
        out["lookup"] += cost.inter_bytes_alltoall(
            t.lookup_bytes * (1.0 - cover), False
        )
    out["exchange"] = out["dense"] + out["sparse"] + out["hot"]
    out["total"] = out["exchange"] + out["ids"] + out["lookup"]
    return out


@dataclass(frozen=True)
class ScalePoint:
    """One rung of the calibrated replay ladder."""

    world_size: int
    num_nodes: int
    step_time_flat_s: float
    step_time_hier_s: float
    stall_flat: float
    stall_hier: float
    #: Predicted per-step cross-node bytes of the gradient-exchange
    #: lanes (dense + sparse + hot) under each wire.
    inter_exchange_flat: float
    inter_exchange_hier: float
    #: Same including the wire-invariant id/lookup lanes.
    inter_total_flat: float
    inter_total_hier: float

    @property
    def speedup(self) -> float:
        """Flat-over-hierarchical step-time ratio (> 1 = two-level wins)."""
        if self.step_time_hier_s <= 0:
            return float("nan")
        return self.step_time_flat_s / self.step_time_hier_s

    @property
    def exchange_ratio(self) -> float:
        """Hierarchical exchange bytes as a fraction of flat."""
        if self.inter_exchange_flat <= 0:
            return float("nan")
        return self.inter_exchange_hier / self.inter_exchange_flat

    def to_dict(self) -> dict[str, float]:
        d = dataclasses.asdict(self)
        d["speedup"] = self.speedup
        d["exchange_ratio"] = self.exchange_ratio
        return d


@dataclass
class HybridReport:
    """Everything the hybrid run learned (``RunResult.raw``)."""

    real_world: int
    topology: NodeTopology
    #: Bit-identical per-step losses across the flat and hierarchical
    #: real twins (the correctness half of the gate).
    losses_identical: bool
    losses: list[float]
    #: Cross-rank measured inter-node bytes of each real twin.
    real_inter_bytes_flat: int
    real_inter_bytes_hier: int
    #: Measured node-coalescing factor fed to the sparse pricing.
    node_dedup: float
    profile: TunedProfile
    #: The replay at the *probed* scale — "the 2-node simulated profile"
    #: the ``>=30%`` inter-byte gate reads.
    profile_point: ScalePoint
    curve: list[ScalePoint]

    @property
    def real_inter_ratio(self) -> float:
        if self.real_inter_bytes_flat <= 0:
            return float("nan")
        return self.real_inter_bytes_hier / self.real_inter_bytes_flat

    def to_dict(self) -> dict[str, Any]:
        return {
            "real": {
                "world_size": self.real_world,
                "nodes": [list(n) for n in self.topology.nodes],
                "losses_identical": self.losses_identical,
                "losses": self.losses,
                "inter_bytes_flat": self.real_inter_bytes_flat,
                "inter_bytes_hier": self.real_inter_bytes_hier,
                "inter_ratio": self.real_inter_ratio,
                "node_dedup": self.node_dedup,
            },
            "profile": {
                label: {
                    "latency_s": link.latency_s,
                    "bandwidth_Bps": link.bandwidth_Bps,
                    "world_size": link.world_size,
                }
                for label, link in sorted(self.profile.links.items())
            },
            "profile_point": self.profile_point.to_dict(),
            "curve": [p.to_dict() for p in self.curve],
        }


def _resolve_knobs(config: "RunConfig") -> SchedKnobs:
    knobs = config.knobs
    if knobs is None:
        return SchedKnobs()
    if isinstance(knobs, SchedKnobs):
        return knobs
    return SchedKnobs.from_dict(dict(knobs))


def _default_topology(world_size: int) -> NodeTopology:
    if world_size < 4 or world_size % 2:
        raise ValueError(
            "hybrid mode needs an even world_size >= 4 to split into two "
            f"simulated nodes (got {world_size}); pass an explicit "
            "topology= for other shapes"
        )
    return NodeTopology.symmetric(2, world_size // 2)


def _scale_point(
    profile: TunedProfile,
    workload: MeasuredWorkload,
    strategy: str,
    flat_knobs: SchedKnobs,
    hier_knobs: SchedKnobs,
    world: int,
    n_steps: int,
) -> ScalePoint:
    flat = predict_candidate(
        profile,
        workload,
        Candidate(knobs=flat_knobs, strategy=strategy),
        n_steps=n_steps,
        world_size=world,
    )
    hier = predict_candidate(
        profile,
        workload,
        Candidate(knobs=hier_knobs, strategy=strategy),
        n_steps=n_steps,
        world_size=world,
    )
    cost = profile.cost_model(world_size=world)
    scaled = workload.scaled_to(world)
    ib_flat = step_inter_bytes(cost, scaled, flat_knobs)
    ib_hier = step_inter_bytes(cost, scaled, hier_knobs)
    return ScalePoint(
        world_size=world,
        num_nodes=cost.cluster.num_nodes,
        step_time_flat_s=flat.step_time_s,
        step_time_hier_s=hier.step_time_s,
        stall_flat=flat.stall_frac,
        stall_hier=hier.stall_frac,
        inter_exchange_flat=ib_flat["exchange"],
        inter_exchange_hier=ib_hier["exchange"],
        inter_total_flat=ib_flat["total"],
        inter_total_hier=ib_hier["total"],
    )


def run_hybrid(
    config: "RunConfig",
    *,
    probe_sizes_bytes: tuple[int, ...] = PROBE_SIZES_BYTES,
    probe_iters: int = DEFAULT_PROBE_ITERS,
    replay_steps: int = 3,
) -> "RunResult":
    """Execute one hybrid cell; see the module docstring for the phases.

    Returns a :class:`~repro.engine.run.RunResult` whose ``raw`` is the
    :class:`HybridReport`; ``metrics`` carries the gate-relevant scalars
    (``losses_identical``, measured and predicted inter-byte ratios, the
    ladder's end-to-end speedup).
    """
    from repro.engine.run import RunResult, real_strategy, run

    if config.mode != "hybrid":
        raise ValueError(f"run_hybrid needs mode='hybrid', got {config.mode!r}")
    strategy = real_strategy(config.strategy)
    topology = as_topology(config.topology)
    if topology is None:
        topology = _default_topology(config.world_size)
    if topology.world_size != config.world_size:
        raise ValueError(
            f"topology covers {topology.world_size} ranks but world_size "
            f"is {config.world_size}"
        )
    if not topology.multi_node or len(topology.nodes[0]) < 2:
        raise ValueError(
            "hybrid mode needs a multi-node topology with >= 2 ranks in "
            f"node 0 (to fit both link levels), got nodes={topology.nodes}"
        )

    base_knobs = _resolve_knobs(config)
    hier_knobs = dataclasses.replace(base_knobs, hierarchical=True)
    flat_knobs = dataclasses.replace(base_knobs, hierarchical=False)

    # Phase 1: bit-exact real twins over the same topology.
    steps = max(2, config.steps)  # measured_step_time needs >= 2 spans
    real_base = dataclasses.replace(
        config, mode="real", topology=topology, trace=True, steps=steps
    )
    hier_res = run(dataclasses.replace(real_base, knobs=hier_knobs))
    flat_res = run(dataclasses.replace(real_base, knobs=flat_knobs))
    losses_identical = list(hier_res.raw.losses) == list(flat_res.raw.losses)
    inter_flat = int(flat_res.raw.inter_bytes)
    inter_hier = int(hier_res.raw.inter_bytes)
    # The meter ratio above mixes wire-invariant lanes (ids, lookups,
    # dense at 2 nodes) into the denominator; the sparse pricing wants
    # the pure row-overlap factor, measured off the batch stream itself.
    node_dedup = measure_node_dedup(
        config.model, topology, gpu_kind=config.gpu_kind, seed=config.seed
    )

    # Phase 2: per-level alpha-beta calibration + workload distillation.
    profile = probe_two_level(
        topology,
        backend=config.backend,
        sizes_bytes=probe_sizes_bytes,
        iters=probe_iters,
    )
    workload = measure_workload_from_run(
        config.model, config.world_size, hier_res
    )
    workload = dataclasses.replace(workload, node_dedup=node_dedup)

    # Phase 3: calibrated replay at the probed scale + the ladder.
    profile_point = _scale_point(
        profile, workload, strategy, flat_knobs, hier_knobs,
        config.world_size, replay_steps,
    )
    gpn = len(topology.nodes[0])
    worlds: list[int] = []
    for w in sim_world_ladder(config.sim_world):
        # The probed cluster grows by whole nodes; snap each rung to the
        # nearest realizable world (>= 2 nodes).
        snapped = gpn * max(2, round(w / gpn))
        if snapped not in worlds:
            worlds.append(snapped)
    curve = [
        _scale_point(
            profile, workload, strategy, flat_knobs, hier_knobs, w, replay_steps
        )
        for w in worlds
    ]

    report = HybridReport(
        real_world=config.world_size,
        topology=topology,
        losses_identical=losses_identical,
        losses=list(hier_res.raw.losses),
        real_inter_bytes_flat=inter_flat,
        real_inter_bytes_hier=inter_hier,
        node_dedup=node_dedup,
        profile=profile,
        profile_point=profile_point,
        curve=curve,
    )
    last = curve[-1]
    metrics = {
        "losses_identical": float(losses_identical),
        "real_inter_bytes_flat": float(inter_flat),
        "real_inter_bytes_hier": float(inter_hier),
        "real_inter_ratio": report.real_inter_ratio,
        "node_dedup": node_dedup,
        "profile_exchange_ratio": profile_point.exchange_ratio,
        "max_world": float(last.world_size),
        "max_world_speedup": last.speedup,
        "max_world_step_time_hier": last.step_time_hier_s,
        "max_world_step_time_flat": last.step_time_flat_s,
    }
    return RunResult(
        mode="hybrid",
        strategy=strategy,
        world_size=config.world_size,
        steps=steps,
        wall_time=hier_res.wall_time,
        trace=hier_res.trace,
        metrics=metrics,
        raw=report,
        compute_resource="compute:0",
    )


__all__ = [
    "DEFAULT_SIM_WORLDS",
    "HybridReport",
    "ScalePoint",
    "run_hybrid",
    "scale_bench_model",
    "sim_world_ladder",
    "step_inter_bytes",
]
