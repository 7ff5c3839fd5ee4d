"""Tests for the extended collective algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import NodeTopology, run_threaded, two_level_allreduce
from repro.comm.algorithms import (
    alltoallv,
    gather,
    reduce_scatter,
    scatter,
    tree_allreduce,
)


def rank_data(rank, n=12):
    return (np.arange(n, dtype=float) + 1) * (rank + 1)


class TestReduceScatter:
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    def test_chunks_sum(self, world):
        def fn(comm):
            return reduce_scatter(comm, rank_data(comm.rank))

        results = run_threaded(world, fn)
        full = sum(rank_data(r) for r in range(world))
        chunks = np.array_split(full, world)
        for rank, got in enumerate(results):
            np.testing.assert_allclose(got, chunks[rank])


class TestTreeAllreduce:
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5, 6, 8])
    def test_matches_sum(self, world):
        def fn(comm):
            return tree_allreduce(comm, rank_data(comm.rank))

        expected = sum(rank_data(r) for r in range(world))
        for got in run_threaded(world, fn):
            np.testing.assert_allclose(got, expected)

    @given(world=st.integers(1, 6), n=st.integers(1, 30), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_random(self, world, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(world, n))

        def fn(comm):
            return tree_allreduce(comm, data[comm.rank])

        for got in run_threaded(world, fn):
            np.testing.assert_allclose(got, data.sum(axis=0), atol=1e-9)


class TestTwoLevelAllreduce:
    @pytest.mark.parametrize("nodes,gpus", [(2, 2), (2, 3), (3, 2), (1, 4), (4, 1)])
    def test_matches_flat_ring(self, nodes, gpus):
        world = nodes * gpus
        topology = NodeTopology.symmetric(nodes, gpus)

        def fn(comm):
            return two_level_allreduce(comm, rank_data(comm.rank, 17), topology)

        expected = sum(rank_data(r, 17) for r in range(world))
        for got in run_threaded(world, fn):
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_world_mismatch_rejected(self):
        topology = NodeTopology.symmetric(2, 2)

        def fn(comm):
            with pytest.raises(ValueError):
                two_level_allreduce(comm, np.ones(4), topology)
            return True

        assert all(run_threaded(3, fn))

    def test_preserves_shape(self):
        topology = NodeTopology.symmetric(2, 2)

        def fn(comm):
            return two_level_allreduce(comm, np.ones((3, 5)), topology)

        for got in run_threaded(4, fn):
            assert got.shape == (3, 5)
            np.testing.assert_allclose(got, 4.0)


class TestAlltoallv:
    def test_variable_block_sizes(self):
        world = 3

        def fn(comm):
            blocks = [
                np.full(comm.rank + dst + 1, 10 * comm.rank + dst, dtype=float)
                for dst in range(world)
            ]
            return alltoallv(comm, blocks)

        results = run_threaded(world, fn)
        for rank, received in enumerate(results):
            for src, block in enumerate(received):
                assert len(block) == src + rank + 1
                assert np.all(block == 10 * src + rank)

    def test_block_count_validated(self):
        def fn(comm):
            with pytest.raises(ValueError):
                alltoallv(comm, [np.ones(1)])
            return True

        assert all(run_threaded(2, fn))


class TestRootedCollectives:
    @pytest.mark.parametrize("root", [0, 1])
    def test_gather(self, root):
        def fn(comm, root):
            return gather(comm, f"r{comm.rank}", root=root)

        results = run_threaded(3, fn, root)
        for rank, got in enumerate(results):
            if rank == root:
                assert got == ["r0", "r1", "r2"]
            else:
                assert got is None

    @pytest.mark.parametrize("root", [0, 2])
    def test_scatter(self, root):
        def fn(comm, root):
            objs = [f"obj{i}" for i in range(comm.world_size)] if comm.rank == root else None
            return scatter(comm, objs, root=root)

        results = run_threaded(3, fn, root)
        assert results == ["obj0", "obj1", "obj2"]

    def test_scatter_validates_root_payload(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    scatter(comm, [1], root=0)
                # Unblock peers after the failure.
                for dst in range(1, comm.world_size):
                    comm.send(dst, "recover")
                return True
            return comm.recv(0) == "recover"

        assert all(run_threaded(2, fn))

    def test_gather_scatter_roundtrip(self):
        def fn(comm):
            gathered = gather(comm, comm.rank * 2, root=0)
            doubled = [x + 1 for x in gathered] if comm.rank == 0 else None
            return scatter(comm, doubled, root=0)

        assert run_threaded(3, fn) == [1, 3, 5]
