"""Adaptive sparse collectives: bit-identity, dense switching, arena.

Covers ISSUE 7's satellite matrix:

* adaptive sparse allreduce bit-identical to
  ``allreduce_sparse_via_allgather`` across thread / queue / shm;
* densities on both sides of the ``dense_switch`` threshold (the
  switched path is index-exact and value-``allclose``, like
  ``coalesce``);
* world sizes 1 / 2 / 4 plus the non-power-of-two fallback (3);
* drops + delays from a seeded :class:`~repro.faults.plan.FaultPlan`;
* arena starvation: an arena smaller than the payload falls back to
  plain allocation with a counter bump, never a crash;
* wire accounting: ``bytes_sent`` equals the obs ``wire_bytes.*`` sum
  on both sparse and densified hops, and densified hops actually
  change the on-wire byte count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    BufferArena,
    allreduce_sparse_adaptive,
    allreduce_sparse_via_allgather,
    alltoall_column_shards,
    column_slices,
    open_group,
    run_threaded,
)
from repro.faults import run_threaded_with_faults
from repro.faults.plan import FaultPlan
from repro.obs import SpanRecorder
from repro.obs.merge import install_recorder
from repro.tensors import SparseRows

NUM_ROWS = 64
DIM = 8

FAULT_PLAN = dict(
    seed=11,
    drop_prob=0.08,
    delay_prob=0.15,
    delay_s=0.003,
    recv_deadline=30.0,
)


def _grad(rank: int, nnz: int = 24, num_rows: int = NUM_ROWS) -> SparseRows:
    rng = np.random.default_rng(100 + rank)
    idx = rng.integers(0, num_rows, nnz).astype(np.int64)
    vals = rng.standard_normal((nnz, DIM))
    return SparseRows(idx, vals, num_rows, coalesced=False)


# Module-level so the process backend can pickle them.
def run_both(comm, dense_switch, nnz=24):
    g = _grad(comm.rank, nnz=nnz)
    ref = allreduce_sparse_via_allgather(comm, g)
    ada = allreduce_sparse_adaptive(comm, g, dense_switch=dense_switch)
    return ref, ada


def run_adaptive(comm, dense_switch, nnz=24):
    return allreduce_sparse_adaptive(
        comm, _grad(comm.rank, nnz=nnz), dense_switch=dense_switch
    )


def run_shard(comm, dense_switch, nnz=24):
    return alltoall_column_shards(
        comm, _grad(comm.rank, nnz=nnz), dense_switch=dense_switch
    )


def run_accounting(comm, dense_switch):
    """Adaptive allreduce under a recorder; returns (bytes_sent, counters)."""
    recorder = SpanRecorder(rank=comm.rank)
    install_recorder(comm, recorder)
    before = comm.bytes_sent
    allreduce_sparse_adaptive(
        comm, _grad(comm.rank), dense_switch=dense_switch
    )
    return comm.bytes_sent - before, dict(recorder.counters)


class TestBitIdentity:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_matches_reference_thread(self, world):
        for ref, ada in run_threaded(world, run_both, 1.0):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.array_equal(ref.values, ada.values)

    def test_non_power_of_two_falls_back(self):
        # World 3 routes through the ring-allgather reference path —
        # still bit-identical, whatever the threshold.
        for ref, ada in run_threaded(3, run_both, 0.0):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.array_equal(ref.values, ada.values)

    def test_below_threshold_stays_exact(self):
        # nnz=4 over 64 rows never reaches density 0.9: no dense switch,
        # so the recursive-doubling path must stay bit-exact.
        for ref, ada in run_threaded(4, run_both, 0.9, 4):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.array_equal(ref.values, ada.values)

    def test_process_backend_matches_thread(self):
        reference = run_threaded(4, run_adaptive, 1.0)
        with open_group(4, backend="process") as group:
            got = group.run(run_adaptive, 1.0)
        for ref, g in zip(reference, got):
            assert np.array_equal(ref.indices, g.indices)
            assert np.array_equal(ref.values, g.values)


class TestDenseSwitch:
    @pytest.mark.parametrize("dense_switch", [0.0, 0.3])
    def test_switched_path_allclose(self, dense_switch):
        for ref, ada in run_threaded(4, run_both, dense_switch):
            assert np.array_equal(ref.indices, ada.indices)  # presence exact
            assert np.allclose(ref.values, ada.values)

    @pytest.mark.parametrize("dense_switch", [0.0, 1.0])
    def test_alltoall_dense_switch(self, dense_switch):
        full = run_threaded(4, run_adaptive, 1.0)
        shards = run_threaded(4, run_shard, dense_switch)
        for rank, shard in enumerate(shards):
            s = column_slices(DIM, 4)[rank]
            assert np.array_equal(shard.indices, full[rank].indices)
            if dense_switch == 1.0:
                assert np.array_equal(shard.values, full[rank].values[:, s])
            else:
                assert np.allclose(shard.values, full[rank].values[:, s])

    def test_switch_changes_wire_bytes(self):
        sparse_bytes = run_threaded(2, run_accounting, 1.0)
        dense_bytes = run_threaded(2, run_accounting, 0.0)
        # Densified hops ship (num_rows, dim) accumulator + bool mask
        # instead of the COO parts + union — different byte counts.
        assert sparse_bytes[0][0] != dense_bytes[0][0]
        expected_dense = NUM_ROWS * DIM * 8 + NUM_ROWS + 8  # acc + mask + tag
        assert dense_bytes[0][0] == expected_dense


class TestWireAccounting:
    @pytest.mark.parametrize("dense_switch", [1.0, 0.0])
    def test_obs_matches_payload_nbytes(self, dense_switch):
        # Satellite 1: the wire-bytes-by-dtype counters and bytes_sent
        # must agree on the actual on-wire representation of every hop,
        # sparse or densified.
        for sent, counters in run_threaded(4, run_accounting, dense_switch):
            wire = sum(
                v for k, v in counters.items() if k.startswith("wire_bytes.")
            )
            assert wire == sent
        if dense_switch == 0.0:
            # Densified hops are visible as bool-mask traffic.
            _, counters = run_threaded(2, run_accounting, 0.0)[0]
            assert counters.get("wire_bytes.bool", 0) > 0


class TestFaulted:
    def test_adaptive_under_drops_and_delays(self):
        reference = run_threaded(4, run_adaptive, 1.0)
        got = run_threaded_with_faults(
            4, run_adaptive, FaultPlan(**FAULT_PLAN), 1.0
        )
        for ref, g in zip(reference, got):
            assert np.array_equal(ref.indices, g.indices)
            assert np.array_equal(ref.values, g.values)

    def test_shard_fast_path_under_faults(self):
        reference = run_threaded(4, run_shard, 1.0)
        got = run_threaded_with_faults(
            4, run_shard, FaultPlan(**FAULT_PLAN), 1.0
        )
        for ref, g in zip(reference, got):
            assert np.array_equal(ref.indices, g.indices)
            assert np.array_equal(ref.values, g.values)


class TestArena:
    def test_recycles_buffers(self):
        arena = BufferArena()
        a = arena.take((128, 8), np.float64)
        arena.put(a)
        b = arena.take((128, 8), np.float64)

        def root(arr):
            while arr.base is not None:
                arr = arr.base
            return arr

        assert root(b) is root(a)  # same pooled buffer came back
        assert arena.counters()["arena.hits"] == 1
        assert arena.counters()["arena.misses"] == 1

    def test_starvation_falls_back_without_crash(self):
        # Capacity one page: the second concurrent take cannot be pooled.
        arena = BufferArena(capacity_bytes=4096)
        a = arena.take(1024, np.uint8)
        b = arena.take(1024, np.uint8)  # cap exhausted -> plain np.empty
        assert arena.counters()["arena.fallbacks"] == 1
        arena.put(a, b)  # putting a fallback back is a harmless no-op
        assert arena.counters()["arena.retained_bytes"] <= 4096

    def test_oversized_request_falls_back(self):
        arena = BufferArena()
        big = arena.take(arena.max_bytes + 1, np.uint8)
        assert big.nbytes == arena.max_bytes + 1
        assert arena.counters()["arena.fallbacks"] == 1

    def test_collectives_survive_starved_arena(self):
        # An arena far smaller than the payload: every take falls back,
        # results stay correct, fallback counter bumps, no crash.  The
        # purely-sparse lanes no longer need scratch at all, so the
        # dense-switched paths (which take accumulators and masks) are
        # the ones driven through the starved arena.
        arena = BufferArena(capacity_bytes=0)

        def run(comm):
            g = _grad(comm.rank)
            ref = allreduce_sparse_via_allgather(comm, g)
            ada = allreduce_sparse_adaptive(comm, g, dense_switch=0.1, arena=arena)
            shard = alltoall_column_shards(comm, g, dense_switch=0.1, arena=arena)
            return ref, ada, shard

        for rank, (ref, ada, shard) in enumerate(run_threaded(4, run)):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.allclose(ref.values, ada.values, rtol=1e-6, atol=1e-9)
            s = column_slices(DIM, 4)[rank]
            assert np.allclose(shard.values, ref.values[:, s], rtol=1e-6, atol=1e-9)
        assert arena.counters()["arena.fallbacks"] > 0
        assert arena.counters()["arena.misses"] == 0
