"""Sparse collectives: bit-identity, wire accounting, arena.

* recursive-doubling sparse allreduce bit-identical to
  ``allreduce_sparse_via_allgather`` on the thread and process backends;
* world sizes 1 / 2 / 4 plus the non-power-of-two fallback (3);
* drops + delays from a seeded :class:`~repro.faults.plan.FaultPlan`;
* arena starvation: an arena smaller than the payload falls back to
  plain allocation with a counter bump, never a crash;
* wire accounting: ``bytes_sent`` equals the obs ``wire_bytes.*`` sums,
  so every message carries exactly its arrays and nothing else;
* id width: row ids travel as int32 up to 2**31 rows and as int64 past
  it, and both round-trip exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    BufferArena,
    allreduce_hot_rows,
    allreduce_sparse_adaptive,
    allreduce_sparse_via_allgather,
    alltoall_column_shards,
    column_slices,
    ids_dtype,
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
def run_both(comm, nnz=24):
    g = _grad(comm.rank, nnz=nnz)
    ref = allreduce_sparse_via_allgather(comm, g)
    ada = allreduce_sparse_adaptive(comm, g)
    return ref, ada


def run_adaptive(comm, nnz=24):
    return allreduce_sparse_adaptive(comm, _grad(comm.rank, nnz=nnz))


def run_shard(comm, nnz=24):
    return alltoall_column_shards(comm, _grad(comm.rank, nnz=nnz))


def _accounted(comm, collective):
    """Run ``collective(comm)`` under a recorder; (bytes_sent, counters)."""
    recorder = SpanRecorder(rank=comm.rank)
    install_recorder(comm, recorder)
    before = comm.bytes_sent
    collective(comm)
    return comm.bytes_sent - before, dict(recorder.counters)


def run_accounting(comm):
    return _accounted(comm, run_adaptive)


def run_shard_accounting(comm):
    return _accounted(comm, run_shard)


class TestBitIdentity:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_matches_reference_thread(self, world):
        for ref, ada in run_threaded(world, run_both):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.array_equal(ref.values, ada.values)

    def test_non_power_of_two_falls_back(self):
        # World 3 routes through the ring-allgather reference path.
        for ref, ada in run_threaded(3, run_both):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.array_equal(ref.values, ada.values)

    def test_below_threshold_stays_exact(self):
        # nnz=4 over 64 rows: most ranks' parts are disjoint, so the
        # finish merges runs that barely overlap.
        for ref, ada in run_threaded(4, run_both, 4):
            assert np.array_equal(ref.indices, ada.indices)
            assert np.array_equal(ref.values, ada.values)

    def test_process_backend_matches_thread(self):
        reference = run_threaded(4, run_adaptive)
        with open_group(4, backend="process") as group:
            got = group.run(run_adaptive)
        for ref, g in zip(reference, got):
            assert np.array_equal(ref.indices, g.indices)
            assert np.array_equal(ref.values, g.values)


class TestWireAccounting:
    def test_obs_matches_payload_nbytes(self):
        # The wire-bytes-by-dtype counters and bytes_sent must agree on
        # every hop, and no scalar rides beside the arrays.
        for sent, counters in run_threaded(4, run_accounting):
            wire = sum(
                v for k, v in counters.items() if k.startswith("wire_bytes.")
            )
            assert wire == sent
            assert "wire_bytes.other" not in counters

    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_shard_counter_matches_bytes_sent(self, world):
        # The AlltoAll's own tally (indices + value columns per peer) is
        # exactly what the transport counted: a message is
        # (indices, values) and nothing else.
        for sent, counters in run_threaded(world, run_shard_accounting):
            assert counters["wire_bytes.alltoall_sparse"] == sent


class TestFaulted:
    def test_adaptive_under_drops_and_delays(self):
        reference = run_threaded(4, run_adaptive)
        got = run_threaded_with_faults(4, run_adaptive, FaultPlan(**FAULT_PLAN))
        for ref, g in zip(reference, got):
            assert np.array_equal(ref.indices, g.indices)
            assert np.array_equal(ref.values, g.values)

    def test_shard_fast_path_under_faults(self):
        reference = run_threaded(4, run_shard)
        got = run_threaded_with_faults(4, run_shard, FaultPlan(**FAULT_PLAN))
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
        # results stay bit-exact, fallback counter bumps, no crash.  The
        # hot-row lane takes its masks and owner accumulators from the
        # arena, so it is the collective driven through the starved one.
        arena = BufferArena(capacity_bytes=0)
        hot_ids = np.arange(0, NUM_ROWS, 2, dtype=np.int64)

        def run(comm):
            g = _grad(comm.rank)
            g = SparseRows(hot_ids[g.indices // 2], g.values, NUM_ROWS)
            ref = allreduce_sparse_via_allgather(comm, g)
            hot = allreduce_hot_rows(comm, hot_ids, g, arena=arena)
            return ref, hot

        for ref, hot in run_threaded(4, run):
            assert np.array_equal(ref.indices, hot.indices)
            assert np.array_equal(ref.values, hot.values)
        assert arena.counters()["arena.fallbacks"] > 0
        assert arena.counters()["arena.misses"] == 0


#: One row past the int32 id range: ids travel as int64.
WIDE_ROWS = 2**31 + 1


def _wide_grad(rank: int) -> SparseRows:
    idx = np.array([0, 7 + rank, WIDE_ROWS - 2 - rank, WIDE_ROWS - 1])
    vals = np.arange(len(idx) * DIM, dtype=np.float32).reshape(-1, DIM) + rank
    return SparseRows(idx, vals, WIDE_ROWS)


def run_wide(comm):
    g = _wide_grad(comm.rank)
    sent, counters = _accounted(comm, lambda c: alltoall_column_shards(c, g))
    return (
        sent,
        counters,
        alltoall_column_shards(comm, g),
        allreduce_sparse_adaptive(comm, g),
        allreduce_sparse_via_allgather(comm, g),
    )


class TestIdWidth:
    def test_wire_type_follows_the_row_space(self):
        assert ids_dtype(1) == np.int32
        assert ids_dtype(2**31) == np.int32  # largest id 2**31 - 1 fits
        assert ids_dtype(WIDE_ROWS) == np.int64

    def test_ids_travel_as_int32(self):
        for sent, counters in run_threaded(2, run_shard_accounting):
            assert "wire_bytes.int64" not in counters
            assert counters["wire_bytes.int32"] > 0
            assert counters["wire_bytes.alltoall_sparse"] == sent

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_wide_row_space_takes_the_int64_path(self, backend):
        """No table is allocated: four rows of a 2**31 + 1 row space."""
        grads = [_wide_grad(r) for r in range(2)]
        total = SparseRows.merge_coalesced(
            [(g.indices, g.values) for g in grads], WIDE_ROWS, DIM,
            dtype=np.float32,
        )
        with open_group(2, backend=backend) as group:
            results = group.run(run_wide)
        for rank, (sent, counters, shard, ada, ref) in enumerate(results):
            # Every index a peer receives is 8 bytes; none go as int32.
            assert counters["wire_bytes.int64"] == 4 * 8
            assert "wire_bytes.int32" not in counters
            assert counters["wire_bytes.alltoall_sparse"] == sent
            cols = column_slices(DIM, 2)[rank]
            np.testing.assert_array_equal(shard.indices, total.indices)
            np.testing.assert_array_equal(shard.values, total.values[:, cols])
            for summed in (ada, ref):
                assert summed.indices.dtype == np.int64
                np.testing.assert_array_equal(summed.indices, total.indices)
                np.testing.assert_array_equal(summed.values, total.values)
