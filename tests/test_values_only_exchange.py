"""Values-only column-shard exchanges (``rows=``): row ids cross the wire once.

Every rank already holds every peer's row set (the trainer and the
service gather the ids anyway), so ``alltoall_column_shards`` and
``two_level_alltoall_shards`` can send the value blocks alone.  Asserted
here: the result is bit-identical to the exchange that ships ids, the
ids' bytes are gone from the wire, and a row set that disagrees with the
values raises :class:`~repro.comm.RowSetMismatch` — on every rank when
a rank's own entry is wrong, within the group timeout, with no hang, no
leaked ``/dev/shm`` segment and no surviving child — never a wrong sum.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.comm import (
    NodeTopology,
    RowSetMismatch,
    open_group,
    two_level_alltoall_shards,
)
from repro.comm.shm import SEGMENT_PREFIX
from repro.comm.sparse import alltoall_column_shards
from repro.tensors import SparseRows

NUM_ROWS, DIM = 41, 10
TIMEOUT = 5.0

TOPOLOGIES = [
    pytest.param(NodeTopology.symmetric(2, 2), id="2x2"),
    pytest.param(NodeTopology.of_sizes((3, 2)), id="3+2-asymmetric"),
]


def _rank_grad(rank: int) -> SparseRows:
    """Uncoalesced (duplicate rows) float32 gradient, fixed per rank."""
    rng = np.random.default_rng(300 + rank)
    ids = rng.integers(0, NUM_ROWS, size=int(rng.integers(4, 16)))
    vals = rng.standard_normal((len(ids), DIM)).astype(np.float32)
    return SparseRows(ids, vals, NUM_ROWS)


def _all_rows(world: int) -> list[np.ndarray]:
    return [_rank_grad(r).coalesce().indices for r in range(world)]


def _corrupt(rows: np.ndarray, how: str) -> np.ndarray:
    if how == "extra":
        extra = np.setdiff1d(np.arange(NUM_ROWS), rows)[:1]
        return np.union1d(rows, extra)
    return rows[1:]  # "missing"


def _same(a: SparseRows, b: SparseRows) -> bool:
    return (
        np.array_equal(a.indices, b.indices)
        and a.values.dtype == b.values.dtype
        and np.array_equal(a.values, b.values)
    )


# --------------------------------------------------------------------- #
# bits and bytes
# --------------------------------------------------------------------- #
def flat_pair(comm, fold_groups):
    grad = _rank_grad(comm.rank)
    before = comm.bytes_sent
    ref = alltoall_column_shards(comm, grad, fold_groups=fold_groups)
    with_ids = comm.bytes_sent - before
    got = alltoall_column_shards(
        comm, grad, fold_groups=fold_groups, rows=_all_rows(comm.world_size)
    )
    values_only = comm.bytes_sent - before - with_ids
    return _same(ref, got), with_ids - values_only, len(grad.coalesce().indices)


@pytest.mark.parametrize("world, fold_groups", [
    (2, None), (3, None), (4, None), (4, (2, 2)), (5, (3, 2)),
])
def test_flat_values_only_is_bit_identical_and_drops_the_ids(world, fold_groups):
    with open_group(world, backend="thread") as g:
        out = g.run(flat_pair, fold_groups)
    for same, saved, n in out:
        assert same
        assert saved == (world - 1) * n * np.dtype(np.int32).itemsize


def two_level_pair(comm, topology):
    grad = _rank_grad(comm.rank)
    ref = two_level_alltoall_shards(comm, grad, topology)
    got = two_level_alltoall_shards(
        comm, grad, topology, rows=_all_rows(comm.world_size)
    )
    flat = alltoall_column_shards(
        comm, grad, fold_groups=topology.node_sizes,
        rows=_all_rows(comm.world_size),
    )
    return _same(ref, got) and _same(ref, flat)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_two_level_values_only_is_bit_identical(topology):
    with open_group(topology.world_size, backend="thread") as g:
        assert all(g.run(two_level_pair, topology))


def test_process_backend_values_only_is_bit_identical():
    with open_group(3, backend="process", timeout=TIMEOUT) as g:
        out = g.run(flat_pair, None)
    assert all(same for same, _, _ in out)


# --------------------------------------------------------------------- #
# mismatches
# --------------------------------------------------------------------- #
def exchange_with_bad_rows(comm, bad_rank, entry, how, topology=None):
    """Rank ``bad_rank`` alone holds a corrupted ``rows[entry]``; report
    what each rank saw and how long it took."""
    grad = _rank_grad(comm.rank)
    rows = _all_rows(comm.world_size)
    if comm.rank == bad_rank:
        rows[entry] = _corrupt(rows[entry], how)
    ref = alltoall_column_shards(comm, grad)  # the exchange that ships ids
    t0 = time.monotonic()
    try:
        if topology is None:
            out = alltoall_column_shards(comm, grad, rows=rows)
        else:
            out = two_level_alltoall_shards(comm, grad, topology, rows=rows)
    except RowSetMismatch as exc:
        assert exc.rank == comm.rank
        return "RowSetMismatch", time.monotonic() - t0
    return ("correct" if _same(out, ref) else "wrong"), time.monotonic() - t0


def _segments() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)}


@pytest.fixture
def clean_exit():
    """No shm segment and no child process may outlive the test."""
    before = _segments()
    yield
    assert _segments() - before == set()
    assert mp.active_children() == []


@pytest.mark.parametrize("how", ["extra", "missing"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_wrong_own_rows_raise_on_every_rank(backend, how, clean_exit):
    """A rank whose gradient rows differ from its own entry sends
    ``None`` in place of its values, so every rank raises."""
    world, bad = 3, 1
    with open_group(world, backend=backend, timeout=TIMEOUT) as g:
        out = g.run(exchange_with_bad_rows, bad, bad, how)
        # The communicator stayed in step: the next exchange is clean.
        again = g.run(exchange_with_bad_rows, -1, 0, how)
    assert [seen for seen, _ in out] == ["RowSetMismatch"] * world
    assert all(elapsed < TIMEOUT for _, elapsed in out)
    assert [seen for seen, _ in again] == ["correct"] * world


@pytest.mark.parametrize("how", ["extra", "missing"])
def test_wrong_peer_rows_raise_at_the_receiver(how):
    """A receiver whose entry for a peer is wrong finds a block of the
    wrong length and raises; no rank returns a wrong sum."""
    world, bad, peer = 3, 2, 0
    with open_group(world, backend="thread", timeout=TIMEOUT) as g:
        out = g.run(exchange_with_bad_rows, bad, peer, how)
    seen = [s for s, _ in out]
    assert seen[bad] == "RowSetMismatch"
    assert "wrong" not in seen


@pytest.mark.parametrize("how", ["extra", "missing"])
@pytest.mark.parametrize("bad", [0, 1, 3], ids=["leader", "member", "remote-member"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_two_level_wrong_own_rows_raise_on_every_rank(topology, bad, how):
    """The leader forwards a member's mismatch to every other leader and
    to its members, so every rank of every node raises."""
    world = topology.world_size
    with open_group(world, backend="thread", timeout=TIMEOUT) as g:
        out = g.run(exchange_with_bad_rows, bad, bad, how, topology)
    assert [seen for seen, _ in out] == ["RowSetMismatch"] * world
    assert all(elapsed < TIMEOUT for _, elapsed in out)


def test_trainer_raises_when_inferred_rows_disagree(monkeypatch):
    """If the rows a step infers from the gathered ids ever stopped
    matching the gradient, training stops with the typed error instead
    of summing the wrong rows."""
    from repro.engine.embrace_runtime import TableGroupRuntime
    from repro.engine.trainer_real import RealTrainer
    from repro.models.config import DLRM

    cold_rows = TableGroupRuntime.cold_rows
    monkeypatch.setattr(
        TableGroupRuntime, "cold_rows",
        lambda self, all_ids: [r[1:] for r in cold_rows(self, all_ids)],
    )
    with pytest.raises(RuntimeError, match="RowSetMismatch"):
        RealTrainer(DLRM.tiny(), strategy="embrace", world_size=2, steps=2,
                    seed=5).train()
