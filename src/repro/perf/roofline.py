"""Roofline classification of model blocks.

For every block in a model's decomposition, computes arithmetic
intensity (FLOPs per byte of parameter+activation traffic) and
classifies it as compute-bound or memory-bound on a given GPU, plus
whether its *gradient communication* would dominate its own backward
time on a given cluster — a per-block view of why EmbRace treats
embedding tables specially (they are memory-bound to compute and huge
to communicate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterSpec
from repro.collectives.cost import CostModel
from repro.models.blocks import block_specs
from repro.models.config import ModelConfig
from repro.perf.estimator import ComputeEstimator


@dataclass(frozen=True)
class BlockRoofline:
    """Roofline data for one block."""

    name: str
    kind: str
    flops: float
    param_bytes: float
    arithmetic_intensity: float  # FLOPs per parameter byte
    compute_bound: bool  # vs the GPU's FLOP/byte ridge point
    comm_to_compute: float  # dense-allreduce time / own BP time


def analyze(
    config: ModelConfig,
    cluster: ClusterSpec,
    gpu_kind: str = "rtx3090",
) -> list[BlockRoofline]:
    """Per-block roofline analysis at the model's workload shape."""
    blocks = block_specs(config)
    estimator = ComputeEstimator(
        cluster.gpu,
        batch_size=config.batch_size(gpu_kind),
        src_seq_len=config.src_seq_len,
        tgt_seq_len=config.tgt_seq_len,
    )
    cost = CostModel(cluster)
    ridge = cluster.gpu.flops / cluster.gpu.mem_bandwidth  # FLOP per byte
    out = []
    for block in blocks:
        flops = sum(estimator.layer_flops(layer) for layer in block.layers)
        param_bytes = float(block.param_nbytes)
        intensity = flops / param_bytes if param_bytes else 0.0
        bp_time = estimator.block_time(block).bp
        comm_time = cost.allreduce(param_bytes).seconds
        out.append(
            BlockRoofline(
                name=block.name,
                kind=block.kind,
                flops=flops,
                param_bytes=param_bytes,
                arithmetic_intensity=intensity,
                compute_bound=intensity > ridge,
                comm_to_compute=comm_time / bp_time if bp_time > 0 else float("inf"),
            )
        )
    return out
