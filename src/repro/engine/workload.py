"""Workload sampling: paper-scale batch streams and their statistics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.data import (
    Batch,
    BatchIterator,
    DLRMBatchIterator,
    PairBatchIterator,
    SyntheticCorpus,
    SyntheticPairCorpus,
    TokenBudgetBatcher,
    Vocab,
)
from repro.models.config import ModelConfig, PAPER_MODELS
from repro.schedule.vertical import EmbeddingGradStats, _table_ids, measure_grad_stats
from repro.tensors import unique_rows
from repro.utils.validation import check_positive


def batch_stream(config: ModelConfig, gpu_kind: str, seed: int = 0):
    """An endless iterator of per-worker batches for (model, cluster)."""
    if config.family == "dlrm":
        return DLRMBatchIterator(config, config.batch_size(gpu_kind), seed=seed)
    if config.family in ("lm", "bert"):
        vocab = Vocab(config.table(config.tables[0].name).vocab_size)
        corpus = SyntheticCorpus(
            vocab,
            min_len=config.min_sentence_len,
            max_len=config.tgt_seq_len,
            zipf_exponent=config.zipf_exponent,
            seed=seed,
            head_size=config.head_size,
            head_mass=config.head_mass,
            recurrence=config.recurrence,
            buffer_size=config.buffer_size,
        )
        return BatchIterator(
            corpus, config.batch_size(gpu_kind), max_len=config.src_seq_len
        )
    src_v = Vocab(config.table("encoder_embedding").vocab_size)
    tgt_v = Vocab(config.table("decoder_embedding").vocab_size)
    corpus = SyntheticPairCorpus(
        src_v,
        tgt_v,
        min_len=config.min_sentence_len,
        max_len=config.tgt_seq_len,
        zipf_exponent=config.zipf_exponent,
        seed=seed,
        head_size=config.head_size,
        head_mass=config.head_mass,
        recurrence=config.recurrence,
        buffer_size=config.buffer_size,
    )
    max_tokens = (
        config.max_tokens_rtx3090 if gpu_kind == "rtx3090" else config.max_tokens_rtx2080
    )
    if config.family == "transformer" and max_tokens is not None:
        return TokenBudgetBatcher(corpus, max_tokens)
    return PairBatchIterator(corpus, config.batch_size(gpu_kind))


@dataclass(frozen=True)
class WorkloadStats:
    """Measured per-worker workload statistics for one (model, cluster)."""

    model: str
    gpu_kind: str
    world_size: int
    tables: dict[str, EmbeddingGradStats]
    avg_tokens_per_batch: float  # non-padding tokens (throughput unit)
    avg_batch_size: float

    def table(self, name: str) -> EmbeddingGradStats:
        return self.tables[name]


def _sample(
    config: ModelConfig,
    gpu_kind: str,
    world_size: int,
    n_steps: int,
    seed: int,
    warmup_steps: int = 8,
):
    """Sample global batches, discarding a warmup prefix.

    The corpus's temporal-locality buffer (``recurrence``) needs a few
    batches to reach its steady-state working set; measuring from a cold
    stream would overstate within-batch duplication.
    """
    stream = batch_stream(config, gpu_kind, seed=seed)
    for _ in range(warmup_steps * world_size):
        next(stream)
    return [next(stream) for _ in range(n_steps * world_size)]


def measure_workload(
    config: ModelConfig,
    gpu_kind: str = "rtx3090",
    world_size: int = 1,
    n_steps: int = 8,
    seed: int = 0,
) -> WorkloadStats:
    """Sample batches and measure Table 3-style statistics per table.

    ``world_size`` matters: the prior split intersects with the *global*
    next batch (Algorithm 1's gathered ``D_next``), so more workers mean
    a larger prior fraction.
    """
    check_positive("n_steps", n_steps)
    batches = _sample(config, gpu_kind, world_size, n_steps + 1, seed)
    tables = {
        t.name: measure_grad_stats(
            batches, t.name, t.vocab_size, t.dim, world_size=world_size
        )
        for t in config.tables
    }
    return WorkloadStats(
        model=config.name,
        gpu_kind=gpu_kind,
        world_size=world_size,
        tables=tables,
        avg_tokens_per_batch=float(np.mean([b.num_tokens for b in batches])),
        avg_batch_size=float(np.mean([b.batch_size for b in batches])),
    )


def measure_node_dedup(
    config: ModelConfig,
    topology,
    gpu_kind: str = "rtx3090",
    n_steps: int = 8,
    seed: int = 0,
) -> float:
    """Intra-node duplicate-row factor of the sparse gradient exchange.

    Samples the same per-rank batch stream the trainer consumes (batch
    ``step * world + rank`` belongs to ``rank``) and compares, per node
    and step, the union of its members' coalesced gradient rows against
    their sum.  A row touched by several co-located ranks crosses the
    NIC once under the node-coalesced AlltoAll instead of once per rank,
    so this ratio is exactly the factor the hierarchical sparse wires
    multiply inter-node payloads by (row indices and values both scale
    with row count).  Tables are weighted by gradient row bytes;
    1.0 means no intra-node overlap, smaller is better.
    """
    check_positive("n_steps", n_steps)
    nodes = [list(node) for node in topology.nodes]
    world = topology.world_size
    batches = _sample(config, gpu_kind, world, n_steps, seed)
    union_b = 0.0
    sum_b = 0.0
    for t in config.tables:
        row_bytes = t.row_nbytes
        for step in range(n_steps):
            group = batches[step * world : (step + 1) * world]
            for node in nodes:
                per_rank = [unique_rows(_table_ids(group[r], t.name)) for r in node]
                union_b += np.unique(np.concatenate(per_rank)).size * row_bytes
                sum_b += sum(u.size for u in per_rank) * row_bytes
    return union_b / sum_b if sum_b > 0 else 1.0


@lru_cache(maxsize=128)
def cached_workload(model_name: str, gpu_kind: str, world_size: int) -> WorkloadStats:
    """Memoized :func:`measure_workload` for the four paper models."""
    return measure_workload(PAPER_MODELS[model_name], gpu_kind, world_size)
