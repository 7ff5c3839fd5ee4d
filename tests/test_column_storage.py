"""Column-only embedding storage: each rank stores its own columns.

A :class:`~repro.engine.embrace_runtime.TableGroupRuntime` keeps one
contiguous ``(rows, dim / world)`` shard per rank, a full-width row
block holding exactly the rows the current batch reads, and the hot
rows in a small full-width array — no full-width replica.  These tests
pin the layout's sizes exactly, and one rank's traced peak.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.comm import column_slices, open_group
from repro.engine.embrace_runtime import TableGroupRuntime
from repro.engine.trainer_real import RealTrainer
from repro.engine.workload import batch_stream
from repro.models.config import DLRM, GNMT8
from repro.models.registry import build_model
from repro.nn.embedding import Embedding, RowBlock
from repro.tensors import SparseRows


class TestRowBlock:
    def test_take_maps_ids_to_slots(self):
        values = np.arange(12.0).reshape(3, 4)
        block = RowBlock(np.array([2, 5, 9]), values)
        got = block.take(np.array([[9, 2], [5, 5]]))
        assert got.shape == (2, 2, 4)
        np.testing.assert_array_equal(got[0, 0], values[2])
        np.testing.assert_array_equal(got[1, 1], values[1])

    def test_a_row_outside_the_block_raises(self):
        block = RowBlock(np.array([2, 5]), np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"\[4\]"):
            block.take(np.array([2, 4]))
        with pytest.raises(ValueError):
            RowBlock(np.zeros(0, dtype=np.int64), np.ones((0, 3))).take(np.array([1]))

    def test_padding_row_reads_as_zeros(self):
        table = Embedding(8, 3, padding_idx=0, rng=np.random.default_rng(0))
        full = table.weight.data.copy()
        table.block = RowBlock(np.array([3, 6]), full[[3, 6]])
        ids = np.array([[3, 0], [0, 6]])
        np.testing.assert_array_equal(table(ids), full[ids])


def _hot_step(comm):
    """One hot-lane step on a 40 x 8 table with five hot rows."""
    table = Embedding(40, 8, rng=np.random.default_rng(3), name="t")
    rt = TableGroupRuntime(comm, {"t": table}, placement={"t": [1, 4, 9, 16, 25]})
    grad = SparseRows(
        np.array([1, 2, 9, 30]), np.random.default_rng(comm.rank).normal(size=(4, 8)), 40
    )
    hot, cold = rt.split_hot_cold(grad)
    rt.apply_part(rt.exchange(comm, cold, 0.5), final=False)
    rt.apply_hot(rt.exchange_hot(comm, hot, 0.5), final=True)
    hot_st = rt.hot_optimizer.state_for(rt.hot)
    shard_st = rt.optimizer.state_for(rt.weight)
    return (
        rt.hot.data.nbytes + hot_st["exp_avg"].nbytes + hot_st["exp_avg_sq"].nbytes,
        shard_st["exp_avg"].shape,
        rt.weight.data.shape,
    )


def test_hot_state_is_sized_to_the_hot_set():
    """Hot values and both moments are (n_hot, dim): 3 * n_hot * dim
    items, not two full-table moment arrays."""
    with open_group(2, backend="thread") as g:
        outs = g.run(_hot_step)
    for hot_bytes, moment_shape, shard_shape in outs:
        assert hot_bytes == 3 * 5 * 8 * 8  # float64 table
        assert moment_shape == shard_shape == (40, 4)


def _last_block_rows(trainer, model, rank, steps) -> int:
    """Rows of rank ``rank``'s last row block: the last step refreshes
    the rows of the batch after it (the stream is endless)."""
    stream = batch_stream(trainer.config, trainer.gpu_kind, seed=trainer.seed + 1 + rank)
    for _ in range(steps):
        next(stream)
    batch = next(stream)
    return sum(
        len(trainer._table_ids(model, name, batch)) for name in model.embedding_tables()
    )


@pytest.mark.parametrize("world", [2, 4])
def test_table_bytes_counter_is_exact(world):
    """``mem.table_bytes`` = this rank's columns of every row + the last
    row block + the hot rows, all at the tables' itemsize."""
    config = DLRM.tiny()
    hot = {"cat_0": [1, 2, 3], "cat_5": [7]}
    steps = 3
    with open_group(world, backend="thread", trace=True) as g:
        result = RealTrainer(
            config, strategy="embrace", world_size=world, steps=steps, seed=4,
            placement=hot, group=g,
        ).train()
    model = build_model(config, rng=np.random.default_rng(0))
    tables = model.embedding_tables()
    rows = sum(t.num_embeddings for t in tables.values())
    dim = config.tables[0].dim
    item = next(iter(tables.values())).weight.data.itemsize
    trainer = RealTrainer(config, strategy="embrace", world_size=world, seed=4)
    for rank in range(world):
        cols = column_slices(dim, world)[rank]
        expected = (
            rows * (cols.stop - cols.start)
            + _last_block_rows(trainer, model, rank, steps) * dim
            + 4 * dim
        ) * item
        assert result.trace.counters[rank]["mem.table_bytes"] == expected
        assert expected < rows * dim * item  # under one full-width replica


def _traced_rank_peak(comm, config, steps):
    """One rank's tracemalloc peak over a whole ``train()`` call."""
    tracemalloc.start()
    try:
        RealTrainer(
            config, strategy="embrace", world_size=comm.world_size, steps=steps, seed=1
        )._worker(comm)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_peak_holds_its_columns_not_a_replica():
    """Tables of 20.5 MB: a rank's peak stays under its 1/w share of them
    plus the shard's two Adam moments plus 8 MiB for everything else
    (batches, the id samplers' tables, the dense layers; 5.6 MiB
    measured).  A full-width replica beside the moments would need
    10.2 MB more, and so would an end-of-run copy of the shard."""
    config = replace(DLRM.scaled(vocab=20000, dim_divisor=2), batch_size_rtx3090=32)
    world = 2
    tables = sum(t.vocab_size * t.dim for t in config.tables) * 4
    bound = tables / world + 2 * tables / world + 8 * 2**20
    with open_group(world, backend="process") as g:
        peaks = g.run(_traced_rank_peak, config, 3)
    assert all(peak < bound for peak in peaks), (peaks, bound)


def test_validation_puts_the_training_block_back():
    """Validation fetches its own rows into the block; the next training
    forward reads the training batch's rows again, bit for bit."""
    kw = dict(world_size=2, steps=5, seed=3, eval_every=2)
    ag = RealTrainer(GNMT8.tiny(), strategy="allgather", **kw).train()
    em = RealTrainer(GNMT8.tiny(), strategy="embrace", **kw).train()
    assert em.losses == ag.losses
    assert em.val_losses == ag.val_losses
