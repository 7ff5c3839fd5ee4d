"""Vertical Sparse Scheduling — Algorithm 1 of the paper.

Given a sparse embedding gradient ``G``, the tokens of the current local
batch and the (prefetched) tokens of the next global batch:

1. ``G_coalesced <- COALESCE(G)``           (sum duplicate rows)
2. ``D_u <- UNIQUE(D_cur[n])``              (this rank's unique tokens)
3. ``i_prior <- D_u  intersect  D_next``    (rows the next FP needs)
4. ``i_delayed <- D_u \\ i_prior``
5. ``G_p <- INDEX_SELECT(G_coalesced, i_prior)``
6. ``G_d <- INDEX_SELECT(G_coalesced, i_delayed)``

``G_p`` gets the highest communication priority (it blocks the next
embedding FP); ``G_d`` the lowest (it can trail into the next step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.sparse import ids_dtype
from repro.data.batching import Batch
from repro.tensors import SparseRows, rows_intersect, rows_member, unique_rows
from repro.utils.validation import check_positive


def vertical_split(
    grad: SparseRows,
    current_ids: np.ndarray,
    next_ids: np.ndarray,
) -> tuple[SparseRows, SparseRows]:
    """Algorithm 1: return ``(G_prior, G_delayed)``.

    ``current_ids`` are this rank's tokens for the just-finished step
    (``D_cur[n]``); ``next_ids`` the prefetched tokens of the upcoming
    step (``D_next``).  Both may contain duplicates; gradient rows
    outside ``current_ids`` belong to neither part.

    Steps 2-6 are two membership masks over the coalesced indices —
    ``D_u`` never has to be materialized — so the cost does not depend
    on how many tables share the row space (a table group's stacked
    gradient splits in this one call, see ``docs/mechanisms.md``).
    """
    coalesced = grad.coalesce()
    current_ids = np.asarray(current_ids, dtype=np.int64)
    if current_ids.size and (
        current_ids.min() < 0 or current_ids.max() >= grad.num_rows
    ):
        raise ValueError(f"requested rows out of range [0, {grad.num_rows})")
    idx, vals = coalesced.indices, coalesced.values
    in_current = rows_member(idx, current_ids)
    prior = in_current & rows_member(idx, next_ids)
    delayed = in_current & ~prior
    return (
        SparseRows(idx[prior], vals[prior], grad.num_rows, coalesced=True),
        SparseRows(idx[delayed], vals[delayed], grad.num_rows, coalesced=True),
    )


# ---------------------------------------------------------------------- #
# Empirical gradient-size statistics (Table 3)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EmbeddingGradStats:
    """Average per-step sparse-gradient row counts for one table.

    ``original_rows`` counts every looked-up position (duplicates and
    padding included — the uncoalesced COO gradient); ``coalesced_rows``
    the distinct ids; ``prior_rows`` the distinct ids also appearing in
    the next iteration's (global) batch.
    """

    table: str
    vocab_size: int
    dim: int
    original_rows: float
    coalesced_rows: float
    prior_rows: float

    def __post_init__(self) -> None:
        if not 0 <= self.prior_rows <= self.coalesced_rows <= self.original_rows:
            raise ValueError(
                f"{self.table}: need prior <= coalesced <= original, got "
                f"{self.prior_rows}, {self.coalesced_rows}, {self.original_rows}"
            )

    @property
    def delayed_rows(self) -> float:
        return self.coalesced_rows - self.prior_rows

    @property
    def row_nbytes(self) -> int:
        """Wire bytes per sparse row: float32 values + the index in its
        wire type (:func:`~repro.comm.ids_dtype`)."""
        return self.dim * 4 + ids_dtype(self.vocab_size).itemsize

    @property
    def original_bytes(self) -> float:
        return self.original_rows * self.row_nbytes

    @property
    def coalesced_bytes(self) -> float:
        return self.coalesced_rows * self.row_nbytes

    @property
    def prior_bytes(self) -> float:
        return self.prior_rows * self.row_nbytes

    @property
    def delayed_bytes(self) -> float:
        return self.delayed_rows * self.row_nbytes

    @property
    def density(self) -> float:
        """Average gradient density alpha (distinct rows / vocab)."""
        return self.coalesced_rows / self.vocab_size


def _table_ids(batch: Batch, table: str, pad_id: int = 0) -> np.ndarray:
    """Raw (duplicate- and padding-containing) id stream for a table."""
    streams = getattr(batch, "streams", None)
    if streams and table in streams:
        return streams[table].ravel()
    if table in ("embedding", "encoder_embedding"):
        return batch.inputs.ravel()
    if table in ("softmax_embedding", "decoder_embedding"):
        return batch.targets.ravel()
    raise KeyError(f"unknown table {table!r}")


def measure_grad_stats(
    batches: list[Batch],
    table: str,
    vocab_size: int,
    dim: int,
    world_size: int = 1,
    pad_id: int = 0,
    count_padding: bool = True,
) -> EmbeddingGradStats:
    """Measure Table 3-style statistics over a sampled batch stream.

    ``batches`` is a flat stream; consecutive groups of ``world_size``
    batches form one global step (rank 0's batch is the measured local
    batch; the union of the *following* group is ``D_next``).
    """
    check_positive("world_size", world_size)
    if len(batches) < 2 * world_size:
        raise ValueError(
            f"need at least {2 * world_size} batches, got {len(batches)}"
        )
    n_steps = len(batches) // world_size - 1
    orig, coal, prior = [], [], []
    for step in range(n_steps):
        local = batches[step * world_size]
        ids = _table_ids(local, table, pad_id)
        if not count_padding:
            ids = ids[ids != pad_id]
        next_group = batches[(step + 1) * world_size : (step + 2) * world_size]
        next_ids = np.concatenate(
            [_table_ids(b, table, pad_id) for b in next_group]
        )
        uniq = unique_rows(ids)
        orig.append(len(ids))
        coal.append(len(uniq))
        prior.append(len(rows_intersect(uniq, next_ids)))
    return EmbeddingGradStats(
        table=table,
        vocab_size=vocab_size,
        dim=dim,
        original_rows=float(np.mean(orig)),
        coalesced_rows=float(np.mean(coal)),
        prior_rows=float(np.mean(prior)),
    )
