"""One run API over both execution worlds: real training and simulation.

A :class:`RunConfig` names *what* to run — model, strategy, scale — and
``mode`` selects *where*: ``"real"`` executes the distributed training
loop over the multi-worker backend (:class:`~repro.engine.trainer_real.
RealTrainer`), ``"sim"`` evaluates the same cell on the discrete-event
simulator (:func:`~repro.engine.trainer_sim.simulate_training`).  Both
come back as a :class:`RunResult` with one protocol — ``steps``,
``wall_time``, ``trace``, ``metrics`` — and, because real runs record
spans into the very :class:`~repro.sim.trace.Trace` schema the simulator
emits, :meth:`RunResult.computation_stall` is the *same code path* in
either mode.  That is the calibration loop the paper's Fig. 6/7 story
needs: simulate a cell, run its tiny-scale twin for real, and compare
stall/overlap numbers like for like.

Strategy names are accepted in either spelling: the real trainer's
lowercase keys (``"embrace"``, ``"allgather"``, ``"allreduce"``) or the
simulator registry's display names (``"EmbRace"``, ``"Horovod-AllGather"``,
``"Horovod-AllReduce"``); :data:`STRATEGY_ALIASES` maps between them.
Simulator-only strategies (``"BytePS"``, ``"Parallax"``, ...) work in
``"sim"`` mode only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.models.config import ModelConfig
from repro.sim.trace import Trace
from repro.utils.validation import check_in, check_positive

#: real-trainer key -> simulator registry name (and the reverse below).
STRATEGY_ALIASES = {
    "embrace": "EmbRace",
    "allgather": "Horovod-AllGather",
    "allreduce": "Horovod-AllReduce",
}
_SIM_TO_REAL = {v: k for k, v in STRATEGY_ALIASES.items()}


def real_strategy(name: str) -> str:
    """Normalize ``name`` to a real-trainer strategy key."""
    if name in STRATEGY_ALIASES:
        return name
    if name in _SIM_TO_REAL:
        return _SIM_TO_REAL[name]
    raise ValueError(
        f"strategy {name!r} has no real-execution implementation; "
        f"choose from {sorted(STRATEGY_ALIASES)} (or their simulator "
        f"spellings {sorted(_SIM_TO_REAL)})"
    )


def sim_strategy(name: str):
    """Instantiate the simulator strategy for ``name`` (either spelling)."""
    from repro.strategies import ALL_STRATEGIES

    canonical = STRATEGY_ALIASES.get(name, name)
    if canonical not in ALL_STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r}; choose from "
            f"{sorted(ALL_STRATEGIES) + sorted(STRATEGY_ALIASES)}"
        )
    return ALL_STRATEGIES[canonical]()


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to run one (model, strategy, scale) cell.

    ``mode="real"`` trains for ``steps`` optimizer steps on the selected
    backend; ``mode="sim"`` evaluates the steady-state step on the
    simulator (``steps`` then scales the reported wall time).  ``trace``
    / ``faults`` apply to real runs (the simulator traces inherently and
    has its own degradation models).

    ``knobs`` (a :class:`~repro.comm.SchedKnobs` or dict) and
    ``profile`` (a :class:`~repro.tune.TunedProfile` from ``repro
    tune``) configure the real trainer's scheduler: explicit ``knobs``
    win, then the profile's, then the historical defaults.
    """

    model: ModelConfig
    mode: str = "sim"  # "real" | "sim" | "hybrid"
    strategy: str = "embrace"
    world_size: int = 2
    steps: int = 4
    gpu_kind: str = "rtx3090"
    lr: float = 1e-3
    seed: int = 0
    backend: str = "thread"  # real mode: "thread" | "process"
    trace: Any = None  # None/bool/TraceConfig (real mode)
    faults: Any = None  # FaultPlan (real mode)
    knobs: Any = None  # SchedKnobs / dict (real mode)
    profile: Any = None  # TunedProfile (real mode)
    #: Hybrid hot/cold placement (anything repro.placement.as_placement
    #: accepts); None = uniform column sharding (real mode, embrace).
    placement: Any = None
    #: Node structure for the real ranks (anything
    #: :func:`repro.comm.as_topology` accepts).  Real mode: selects the
    #: two-level collectives per the ``hier_*`` knobs.  Hybrid mode:
    #: the shape of the calibration run (default: 2 nodes splitting
    #: ``world_size``).
    topology: Any = None
    #: Hybrid mode: simulated world size(s) for the calibrated replay —
    #: an int (doubling ladder from 64 up to it) or an explicit
    #: sequence; ``None`` = the 64/128/256/512/1024 ladder.
    sim_world: Any = None

    def __post_init__(self) -> None:
        check_in("mode", self.mode, {"real", "sim", "hybrid"})
        check_positive("world_size", self.world_size)
        check_positive("steps", self.steps)


@dataclass
class RunResult:
    """The common result protocol of :func:`run`.

    ``trace`` is a :class:`~repro.sim.trace.Trace` in both modes —
    single ``compute``/``comm`` lanes from the simulator, per-rank
    ``compute:R``/``comm:R`` lanes from a traced real run (``None`` for
    an untraced real run).  ``raw`` keeps the mode-specific result
    (:class:`~repro.engine.trainer_real.TrainResult` or
    :class:`~repro.engine.trainer_sim.ThroughputResult`).
    """

    mode: str
    strategy: str
    world_size: int
    steps: int
    wall_time: float
    trace: Trace | None
    metrics: dict[str, float] = field(default_factory=dict)
    raw: Any = None
    #: Lane carrying rank-0 useful compute in ``trace`` (mode-dependent).
    compute_resource: str = "compute"

    def computation_stall(self) -> float:
        """§5.4 Computation Stall off the trace — identical code path in
        both modes (raises if the run was not traced)."""
        if self.trace is None:
            raise ValueError(
                "run was not traced; pass trace=True in RunConfig"
            )
        return self.trace.computation_stall(self.compute_resource)


def run(config: RunConfig) -> RunResult:
    """Execute one cell per ``config.mode``; see :class:`RunResult`."""
    if config.mode == "sim":
        return _run_sim(config)
    if config.mode == "hybrid":
        from repro.engine.hybrid import run_hybrid

        return run_hybrid(config)
    return _run_real(config)


def _run_sim(config: RunConfig) -> RunResult:
    from repro.engine.trainer_sim import simulate_training

    res = simulate_training(
        config.model, config.gpu_kind, config.world_size, sim_strategy(config.strategy)
    )
    return RunResult(
        mode="sim",
        strategy=res.strategy,
        world_size=config.world_size,
        steps=config.steps,
        wall_time=res.step_time * config.steps,
        trace=res.report.trace,
        metrics={
            "step_time": res.step_time,
            "tokens_per_sec": res.tokens_per_sec,
            "computation_stall": res.computation_stall,
            "overlap_ratio": res.report.overlap_ratio,
        },
        raw=res,
        compute_resource="compute",
    )


def _run_real(config: RunConfig) -> RunResult:
    from repro.comm import open_group
    from repro.engine.trainer_real import RealTrainer

    strategy = real_strategy(config.strategy)
    group = None
    if config.backend != "thread":
        group = open_group(
            config.world_size,
            backend=config.backend,
            topology=config.topology,
        )
    try:
        trainer = RealTrainer(
            config.model,
            strategy=strategy,
            world_size=config.world_size,
            lr=config.lr,
            seed=config.seed,
            steps=config.steps,
            gpu_kind=config.gpu_kind,
            fault_plan=config.faults,
            trace=config.trace,
            group=group,
            knobs=config.knobs,
            profile=config.profile,
            placement=config.placement,
            topology=config.topology,
        )
        result = trainer.train()
    finally:
        if group is not None:
            group.close()
    bundle = result.trace
    metrics: dict[str, float] = {
        "loss_final": result.losses[-1] if result.losses else float("nan"),
        "comm_bytes": float(result.comm_bytes),
        "inter_bytes": float(result.inter_bytes),
        "tokens_per_sec": (
            sum(result.tokens_per_step) * config.world_size / result.wall_time
            if result.wall_time > 0
            else float("nan")
        ),
    }
    trace = None
    if bundle is not None:
        trace = bundle.trace
        metrics["computation_stall"] = bundle.computation_stall(0)
        metrics["trace_dropped"] = float(sum(bundle.dropped.values()))
        metrics.update(
            {f"counter.{k}": v for k, v in bundle.total_counters().items()}
        )
    return RunResult(
        mode="real",
        strategy=strategy,
        world_size=config.world_size,
        steps=config.steps,
        wall_time=result.wall_time,
        trace=trace,
        metrics=metrics,
        raw=result,
        compute_resource="compute:0",
    )


__all__ = [
    "RunConfig",
    "RunResult",
    "STRATEGY_ALIASES",
    "real_strategy",
    "sim_strategy",
    "run",
]
