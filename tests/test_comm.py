"""Tests for the real communication backend and its collectives."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    allgather_sparse,
    allreduce_sparse_via_allgather,
    alltoall_column_shards,
    alltoall_lookup_results,
    column_slices,
    run_multiprocess,
    run_threaded,
)
from repro.tensors import SparseRows


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, {"x": 42})
                return None
            return comm.recv(0)

        results = run_threaded(2, fn)
        assert results[1] == {"x": 42}

    def test_self_send_rejected(self):
        def fn(comm):
            with pytest.raises(ValueError):
                comm.send(comm.rank, 1)
            return True

        assert all(run_threaded(2, fn))

    def test_byte_accounting(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100))
            else:
                comm.recv(0)
            return comm.bytes_sent

        sent = run_threaded(2, fn)
        assert sent[0] == 800 and sent[1] == 0

    def test_worker_error_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1"):
            run_threaded(2, fn)


class TestCollectives:
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5])
    def test_allreduce_matches_sum(self, world):
        def fn(comm):
            data = np.arange(10, dtype=float) * (comm.rank + 1)
            return comm.allreduce(data)

        results = run_threaded(world, fn)
        expected = np.arange(10, dtype=float) * sum(range(1, world + 1))
        for r in results:
            np.testing.assert_allclose(r, expected)

    def test_allreduce_multidim(self):
        def fn(comm):
            return comm.allreduce(np.full((3, 4), float(comm.rank)))

        for r in run_threaded(3, fn):
            np.testing.assert_allclose(r, np.full((3, 4), 3.0))

    def test_allreduce_mean(self):
        def fn(comm):
            return comm.allreduce_mean(np.array([float(comm.rank)]))

        for r in run_threaded(4, fn):
            assert r[0] == pytest.approx(1.5)

    def test_allreduce_smaller_than_world(self):
        def fn(comm):
            return comm.allreduce(np.array([1.0, 2.0]))

        for r in run_threaded(4, fn):
            np.testing.assert_allclose(r, [4.0, 8.0])

    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_allgather_order(self, world):
        def fn(comm):
            return comm.allgather(f"r{comm.rank}")

        for r in run_threaded(world, fn):
            assert r == [f"r{i}" for i in range(world)]

    @pytest.mark.parametrize("world", [2, 3, 5])
    def test_alltoall_personalized(self, world):
        def fn(comm):
            outgoing = [f"{comm.rank}->{j}" for j in range(world)]
            return comm.alltoall(outgoing)

        results = run_threaded(world, fn)
        for rank, received in enumerate(results):
            assert received == [f"{src}->{rank}" for src in range(world)]

    def test_alltoall_wrong_size(self):
        def fn(comm):
            with pytest.raises(ValueError):
                comm.alltoall([1])
            return True

        assert all(run_threaded(2, fn))

    @pytest.mark.parametrize("root", [0, 2])
    def test_broadcast(self, root):
        def fn(comm, root):
            obj = {"data": 99} if comm.rank == root else None
            return comm.broadcast(obj, root=root)

        for r in run_threaded(4, fn, root):
            assert r == {"data": 99}

    def test_barrier_runs(self):
        def fn(comm):
            comm.barrier()
            return comm.rank

        assert run_threaded(3, fn) == [0, 1, 2]

    @given(world=st.integers(2, 4), n=st.integers(1, 40), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_property(self, world, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(world, n))

        def fn(comm):
            return comm.allreduce(data[comm.rank])

        for r in run_threaded(world, fn):
            np.testing.assert_allclose(r, data.sum(axis=0), atol=1e-9)


class TestSparseCollectives:
    @staticmethod
    def _grad(rank, num_rows=12, dim=6):
        rng = np.random.default_rng(rank)
        idx = rng.integers(0, num_rows, size=5)
        return SparseRows(idx, rng.normal(size=(5, dim)), num_rows)

    def test_allgather_sparse(self):
        def fn(comm):
            return allgather_sparse(comm, self._grad(comm.rank))

        results = run_threaded(3, fn)
        for received in results:
            assert len(received) == 3
            for src, g in enumerate(received):
                assert g.allclose(self._grad(src))

    def test_sparse_allreduce_matches_dense(self):
        world = 4

        def fn(comm):
            return allreduce_sparse_via_allgather(comm, self._grad(comm.rank))

        results = run_threaded(world, fn)
        expected = sum(self._grad(r).to_dense() for r in range(world))
        for r in results:
            np.testing.assert_allclose(r.to_dense(), expected, atol=1e-12)

    def test_column_slices_partition(self):
        slices = column_slices(10, 3)
        widths = [s.stop - s.start for s in slices]
        assert sum(widths) == 10 and max(widths) - min(widths) <= 1
        assert slices[0].start == 0 and slices[-1].stop == 10

    def test_alltoall_column_shards_matches_allgather(self):
        """EmbRace's sharded exchange must agree with the baseline's
        gather-and-sum on each rank's columns."""
        world, dim = 3, 7

        def fn(comm):
            grad = self._grad(comm.rank, dim=dim)
            shard = alltoall_column_shards(comm, grad)
            full = allreduce_sparse_via_allgather(comm, grad)
            return shard, full

        results = run_threaded(world, fn)
        slices = column_slices(dim, world)
        for rank, (shard, full) in enumerate(results):
            np.testing.assert_array_equal(shard.indices, full.indices)
            np.testing.assert_array_equal(
                shard.values, full.values[:, slices[rank]]
            )

    def test_alltoall_lookup_results(self):
        """Forward exchange reassembles full-dimension vectors."""
        world, vocab, dim = 3, 20, 6
        table = np.random.default_rng(0).normal(size=(vocab, dim))
        ids_per_rank = [
            np.random.default_rng(10 + r).integers(0, vocab, size=4 + r)
            for r in range(world)
        ]
        slices = column_slices(dim, world)

        def fn(comm):
            my_slice = slices[comm.rank]
            all_ids = comm.allgather(ids_per_rank[comm.rank])
            shard_lookup = np.concatenate(
                [table[ids][:, my_slice] for ids in all_ids]
            )
            return alltoall_lookup_results(
                comm, all_ids, shard_lookup, own_count=len(ids_per_rank[comm.rank])
            )

        results = run_threaded(world, fn)
        for rank, vectors in enumerate(results):
            np.testing.assert_allclose(vectors, table[ids_per_rank[rank]])

    def test_lookup_results_validates_counts(self):
        def fn(comm):
            with pytest.raises(ValueError):
                alltoall_lookup_results(
                    comm,
                    [np.array([1]), np.array([2])],
                    np.zeros((5, 2)),
                    own_count=1,
                )
            return True

        assert all(run_threaded(2, fn))


class TestProcessBackend:
    """The OS-process backend runs the same algorithms."""

    def test_allreduce_processes(self):
        def fn(comm):
            return comm.allreduce(np.full(4, float(comm.rank + 1)))

        for r in run_multiprocess(3, fn):
            np.testing.assert_allclose(r, np.full(4, 6.0))

    def test_alltoall_processes(self):
        def fn(comm):
            return comm.alltoall([np.array([comm.rank * 10 + j]) for j in range(comm.world_size)])

        results = run_multiprocess(2, fn)
        assert results[0][1][0] == 10  # rank1 -> rank0 slot: 1*10+0
        assert results[1][0][0] == 1  # rank0 -> rank1 slot: 0*10+1

    def test_process_error_propagates(self):
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("bad worker")
            return True

        with pytest.raises(RuntimeError, match="rank 0"):
            run_multiprocess(2, fn)


class TestFailureInjection:
    """Dead or hung peers surface as errors, not deadlocks."""

    def test_dead_peer_times_out_recv(self):
        def fn(comm):
            if comm.rank == 0:
                return "exited early"  # never sends
            return comm.recv(0)

        with pytest.raises(RuntimeError, match="rank 1"):
            run_threaded(2, fn, timeout=0.3)

    def test_collective_with_dead_peer_fails(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("crash before the collective")
            return comm.allreduce(np.ones(4))

        with pytest.raises(RuntimeError):
            run_threaded(3, fn, timeout=0.5)

    def test_barrier_abort_on_failure(self):
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("dies before barrier")
            comm.barrier()
            return True

        with pytest.raises(RuntimeError):
            run_threaded(2, fn, timeout=0.5)

    def test_timeout_validation(self):
        from repro.comm.local import ThreadGroup

        with pytest.raises(ValueError):
            ThreadGroup(2, timeout=0)

    def test_process_timeout_validation(self):
        from repro.comm.process import ProcessGroup

        with pytest.raises(ValueError):
            ProcessGroup(2, timeout=0)

    def test_dead_peer_recv_error_is_informative(self):
        """The thread backend's recv timeout names the silent peer."""

        def fn(comm):
            if comm.rank == 0:
                return None  # exits without ever sending
            with pytest.raises(TimeoutError, match="no message from rank 0"):
                comm.recv(0)
            return True

        assert run_threaded(2, fn, timeout=0.3)[1] is True

    def test_hung_worker_raises_instead_of_returning_partial(self):
        """A thread that outlives the join budget is an error, not a
        silently dropped result."""

        def fn(comm):
            if comm.rank == 1:
                time.sleep(1.0)
            return comm.rank

        with pytest.raises(RuntimeError, match="still alive"):
            run_threaded(2, fn, timeout=0.05)

    @pytest.mark.slow
    def test_process_dead_peer_recv_times_out(self):
        """The process backend's recv timeout names the silent peer too."""

        def fn(comm):
            if comm.rank == 0:
                return "early exit"
            try:
                comm.recv(0)
            except TimeoutError as exc:
                return str(exc)
            return "no error"

        results = run_multiprocess(2, fn, timeout=0.5)
        assert "no message from rank 0" in results[1]

    @pytest.mark.slow
    def test_process_worker_exception_surfaces_origin_rank(self):
        """A worker dying before a barrier breaks the others out of it,
        and the error reported to the caller names the origin rank."""

        def fn(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploding before the barrier")
            comm.barrier()
            return True

        with pytest.raises(RuntimeError, match="rank 1"):
            run_multiprocess(2, fn, timeout=1.0)

    def test_survivors_unaffected_after_clean_run(self):
        """The same group machinery still works for healthy runs."""
        def fn(comm):
            return comm.allreduce(np.full(2, float(comm.rank)))

        for r in run_threaded(3, fn, timeout=5.0):
            np.testing.assert_allclose(r, [3.0, 3.0])
