"""End-to-end throughput simulation (the engine behind Fig. 7-10)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterSpec, rtx2080_cluster, rtx3090_cluster
from repro.engine.step_simulator import StepReport, simulate_step
from repro.engine.workload import cached_workload
from repro.models.config import ModelConfig, PAPER_MODELS
from repro.strategies.base import StepContext, Strategy, build_context
from repro.utils.validation import check_in, check_positive

_CLUSTERS = {"rtx3090": rtx3090_cluster, "rtx2080": rtx2080_cluster}


@dataclass(frozen=True)
class ThroughputResult:
    """One cell of Fig. 7: (model, cluster, #GPUs, strategy) -> tokens/s."""

    model: str
    gpu_kind: str
    world_size: int
    strategy: str
    tokens_per_sec: float
    step_time: float
    computation_stall: float
    report: StepReport


def make_cluster(gpu_kind: str, world_size: int) -> ClusterSpec:
    """The paper's cluster of ``world_size`` GPUs: 4 per node, nodes added
    as the experiment scales (4 -> 1 node, 8 -> 2, 16 -> 4)."""
    check_in("gpu_kind", gpu_kind, set(_CLUSTERS))
    check_positive("world_size", world_size)
    full = _CLUSTERS[gpu_kind]()
    return full.with_workers(world_size)


def make_context(
    config: ModelConfig, gpu_kind: str, world_size: int
) -> StepContext:
    """Workload stats + cluster + perf model for one experiment cell."""
    if config.name in PAPER_MODELS:
        stats = cached_workload(config.name, gpu_kind, world_size)
    else:  # non-registry configs are measured directly (uncached)
        from repro.engine.workload import measure_workload

        stats = measure_workload(config, gpu_kind, world_size)
    cluster = make_cluster(gpu_kind, world_size)
    return build_context(config, cluster, stats.tables, gpu_kind=gpu_kind)


def simulate_training(
    config: ModelConfig,
    gpu_kind: str,
    world_size: int,
    strategy: Strategy,
) -> ThroughputResult:
    """Steady-state throughput of one (model, cluster, strategy) cell.

    tokens/s = (N workers x per-worker non-padding tokens) / step time,
    matching the paper's metric ("we accumulate the non-padding words in
    each batch as the number of tokens", §5.2.2).
    """
    ctx = make_context(config, gpu_kind, world_size)
    report = simulate_step(strategy, ctx)
    if config.name in PAPER_MODELS:
        stats = cached_workload(config.name, gpu_kind, world_size)
    else:
        from repro.engine.workload import measure_workload

        stats = measure_workload(config, gpu_kind, world_size)
    tokens = stats.avg_tokens_per_batch * world_size
    return ThroughputResult(
        model=config.name,
        gpu_kind=gpu_kind,
        world_size=world_size,
        strategy=strategy.name,
        tokens_per_sec=tokens / report.step_time,
        step_time=report.step_time,
        computation_stall=report.computation_stall,
        report=report,
    )

