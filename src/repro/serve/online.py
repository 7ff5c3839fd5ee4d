"""The online training side, and its bit-exact offline replay.

The service's acceptance bar is *bit-identity*: training concurrently
with serving must produce exactly the losses and tables that a plain
single-process replay of the same id streams produces.  That pins down
every arithmetic choice here:

* tables are built from one seeded rng threaded through in declaration
  order (:func:`build_tables`) — identical on every rank and offline;
* per-rank losses are exchanged by AllGather and summed **in rank
  order** (ring-AllReduce order would not be replicable offline);
* the per-table gradient total follows the exchange's exact grouping —
  each rank's gradient is locally coalesced, parts are concatenated in
  rank order, coalesced again, and scaled *after* the cross-rank sum —
  mirroring :func:`~repro.comm.alltoall_column_shards`, whose column
  slicing commutes with all of those row-wise operations;
* Adam is element-wise, so the column-sharded optimizer states equal
  the column slices of the full-table state bit for bit.

:func:`offline_reference` can also snapshot the table after every
committed step: snapshot ``v`` is what any lookup served at version
``v`` must have read (the torn-read tests compare served bytes against
it).
"""

from __future__ import annotations

import numpy as np

from repro.data.zipf import ZipfSampler
from repro.nn import init
from repro.nn.embedding import Embedding
from repro.optim import EmbraceAdam
from repro.serve.config import ServeConfig
from repro.tensors import SparseRows


def build_tables(cfg: ServeConfig) -> dict[str, Embedding]:
    """The service's embedding tables, reproducibly initialized.

    One generator seeded with ``cfg.seed`` is threaded through the
    tables in declaration order, so every rank — and the offline
    replay — materializes identical weights, drawn straight into
    float32 like the trainer's.
    """
    rng = np.random.default_rng(cfg.seed)
    return {
        name: Embedding(cfg.vocab, cfg.dim, rng=rng, name=name, dtype=np.float32)
        for name in cfg.tables
    }


def train_stream_rng(cfg: ServeConfig, rank: int, table_index: int):
    """The per-(rank, table) training id stream generator.

    Seeded disjointly from the request load's ``(seed, 1000 + client)``
    streams; each generator is stateful — callers draw from it once per
    step, in step order, exactly as the online loop does.
    """
    return np.random.default_rng((cfg.seed, rank, table_index, 17))


class SparseEmbeddingTask:
    """A regression objective whose gradient is row-sparse.

    Each table row is pulled toward a fixed random target:
    ``loss = 0.5 * mean((rows - targets[ids])**2)``.  Deliberately
    minimal — the point of the service tests is the *plumbing*
    (scheduling, versioning, exchanges), and this objective makes the
    expected arithmetic auditable to the bit.
    """

    def __init__(self, vocab: int, dim: int, seed: int):
        rng = np.random.default_rng((seed, 99))
        self.targets = init.drawn(
            lambda size: rng.standard_normal(size) * 0.1, (vocab, dim), np.float32
        )

    def loss_and_grad(
        self, weight: np.ndarray, ids: np.ndarray
    ) -> tuple[float, SparseRows]:
        ids = np.asarray(ids, dtype=np.int64)
        err = weight[ids] - self.targets[ids]
        loss = 0.5 * float(np.mean(err * err))
        grad = SparseRows(
            ids.copy(), err / err.size, num_rows=weight.shape[0], coalesced=False
        )
        return loss, grad


def offline_reference(
    cfg: ServeConfig, snapshots: bool = False
) -> tuple[list[float], dict[str, np.ndarray], dict[int, dict[str, np.ndarray]]]:
    """Replay the online training loop single-process, bit for bit.

    Returns ``(losses, final_tables, snaps)`` where ``losses[k]`` is the
    step-``k`` global loss, ``final_tables`` maps table name to its
    final weights, and — with ``snapshots`` — ``snaps[v]`` is the full
    table state at version ``v`` (``v`` committed steps; ``snaps[0]``
    is the initial state).  Serve traffic never mutates tables, so this
    replay needs no knowledge of the request load.
    """
    tables = build_tables(cfg)
    task = SparseEmbeddingTask(cfg.vocab, cfg.dim, cfg.seed)
    sampler = ZipfSampler(cfg.vocab, cfg.zipf_exponent)
    optimizers = {
        name: EmbraceAdam([table.weight], lr=cfg.lr)
        for name, table in tables.items()
    }
    rngs = {
        (rank, ti): train_stream_rng(cfg, rank, ti)
        for rank in range(cfg.world_size)
        for ti in range(len(cfg.tables))
    }
    snaps: dict[int, dict[str, np.ndarray]] = {}
    if snapshots:
        snaps[0] = {name: t.weight.data.copy() for name, t in tables.items()}
    losses: list[float] = []
    for _step in range(cfg.train_steps):
        loss_parts: list[float] = []
        grad_parts: dict[str, list[SparseRows]] = {name: [] for name in cfg.tables}
        for rank in range(cfg.world_size):
            # Mirrors one rank's forward/backward: per-table losses
            # accumulate into one per-rank float, in table order.
            rank_loss = 0.0
            for ti, name in enumerate(cfg.tables):
                ids = sampler.sample(rngs[(rank, ti)], cfg.train_batch)
                loss, grad = task.loss_and_grad(tables[name].weight.data, ids)
                rank_loss += loss
                # Local coalesce first — the exchange's exact grouping.
                grad_parts[name].append(grad.coalesce())
            loss_parts.append(rank_loss)
        for name in cfg.tables:
            # merge_coalesced, not concat().coalesce(): the collectives
            # sum each row's per-rank parts left-to-right in rank order,
            # while coalesce's reduceat pairs groups of >= 3 — an ulp
            # apart for rows every rank touches (visible at world >= 3).
            total = SparseRows.merge_coalesced(
                [(g.indices, g.values) for g in grad_parts[name]],
                cfg.vocab,
                cfg.dim,
                dtype=tables[name].weight.data.dtype,
            ).scale(1.0 / cfg.world_size)
            optimizers[name].apply_sparse_part(
                tables[name].weight, total, final=True
            )
        losses.append(sum(loss_parts) / cfg.world_size)
        if snapshots:
            snaps[_step + 1] = {
                name: t.weight.data.copy() for name, t in tables.items()
            }
    final = {name: t.weight.data.copy() for name, t in tables.items()}
    return losses, final, snaps
