"""Bit-identity of every collective across the two backends.

The same collective algorithms run over the thread backend (the
in-process reference) and the process backend's zero-copy shared-memory
wire.  Gradients must not depend on which wire moved them, so every
result here is compared with ``==`` (bitwise), never ``allclose`` — and
the equivalence must survive fault injection (drops with retransmission,
delays with reordering), which forces copies where zero-copy would race.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    NodeTopology,
    allgather_sparse,
    alltoall_column_shards,
    open_group,
    payload_nbytes,
    run_threaded,
    two_level_allreduce,
)
from repro.comm.algorithms import (
    alltoallv,
    gather,
    reduce_scatter,
    scatter,
    tree_allreduce,
)
from repro.faults.inject import (
    run_multiprocess_with_faults,
    run_threaded_with_faults,
)
from repro.faults.plan import FaultPlan
from repro.tensors import SparseRows

WORLD = 4


def _payload(rank: int, dtype=np.float32, n: int = 1000) -> np.ndarray:
    rng = np.random.default_rng(100 + rank)
    return rng.normal(size=n).astype(dtype)


def _sparse(rank: int, rows: int = 64, dim: int = 8) -> SparseRows:
    rng = np.random.default_rng(200 + rank)
    return SparseRows(
        rng.integers(0, rows, size=rows // 2),
        rng.normal(size=(rows // 2, dim)).astype(np.float32),
        rows,
    )


# Runner functions are module-level so the persistent process groups can
# dispatch them by pickled reference.
def run_allreduce(comm, dtype_str):
    return comm.allreduce(_payload(comm.rank, np.dtype(dtype_str)))


def run_allreduce_out(comm):
    data = _payload(comm.rank)
    out = np.empty_like(data)
    ret = comm.allreduce(data, out=out)
    return ret, ret is out


def run_allreduce_inplace(comm):
    data = _payload(comm.rank)
    comm.allreduce(data, out=data)
    return data


def run_reduce_scatter(comm):
    return reduce_scatter(comm, _payload(comm.rank))


def run_tree_allreduce(comm):
    return tree_allreduce(comm, _payload(comm.rank))


def run_hierarchical(comm):
    topology = NodeTopology.symmetric(comm.world_size // 2, 2)
    return two_level_allreduce(comm, _payload(comm.rank), topology)


def run_allgather(comm):
    return comm.allgather(_payload(comm.rank, n=37))


def run_broadcast(comm):
    obj = _payload(0) if comm.rank == 0 else None
    return comm.broadcast(obj, root=0)


def run_alltoall(comm):
    blocks = [
        _payload(comm.rank * comm.world_size + dst, n=23)
        for dst in range(comm.world_size)
    ]
    return comm.alltoall(blocks)


def run_alltoallv(comm):
    rng = np.random.default_rng(comm.rank)
    blocks = [
        rng.normal(size=(dst + 1, 3)).astype(np.float32)
        for dst in range(comm.world_size)
    ]
    return alltoallv(comm, blocks)


def run_gather_scatter(comm):
    gathered = gather(comm, _payload(comm.rank, n=11), root=1)
    objs = (
        [_payload(50 + r, n=7) for r in range(comm.world_size)]
        if comm.rank == 1
        else None
    )
    mine = scatter(comm, objs, root=1)
    return gathered, mine


def run_sparse_allgather(comm):
    return allgather_sparse(comm, _sparse(comm.rank))


def run_sparse_alltoall(comm):
    return alltoall_column_shards(comm, _sparse(comm.rank))


def run_mixed_tuple(comm):
    """Tuple-of-arrays + scalars + dict: the multi-frame wire format."""
    msg = (
        _payload(comm.rank, n=17),
        {"rank": comm.rank, "ids": np.arange(comm.rank + 1)},
        "tag",
    )
    return comm.allgather(msg)


RUNNERS = [
    ("allreduce_f32", run_allreduce, ("<f4",)),
    ("allreduce_f64", run_allreduce, ("<f8",)),
    ("allreduce_out", run_allreduce_out, ()),
    ("allreduce_inplace", run_allreduce_inplace, ()),
    ("reduce_scatter", run_reduce_scatter, ()),
    ("tree_allreduce", run_tree_allreduce, ()),
    ("hierarchical", run_hierarchical, ()),
    ("allgather", run_allgather, ()),
    ("broadcast", run_broadcast, ()),
    ("alltoall", run_alltoall, ()),
    ("alltoallv", run_alltoallv, ()),
    ("gather_scatter", run_gather_scatter, ()),
    ("sparse_allgather", run_sparse_allgather, ()),
    ("sparse_alltoall", run_sparse_alltoall, ()),
    ("mixed_tuple", run_mixed_tuple, ()),
]


def _flatten(obj) -> list[np.ndarray]:
    """Every ndarray reachable inside ``obj``, in deterministic order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, SparseRows):
        return [obj.indices, obj.values]
    if isinstance(obj, (tuple, list)):
        return [a for x in obj for a in _flatten(x)]
    if isinstance(obj, dict):
        return [a for k in sorted(obj) for a in _flatten(obj[k])]
    return []


def assert_bit_identical(a, b) -> None:
    fa, fb = _flatten(a), _flatten(b)
    assert len(fa) == len(fb)
    for x, y in zip(fa, fb):
        assert x.dtype == y.dtype
        assert x.shape == y.shape
        assert np.array_equal(x, y)


@pytest.fixture(scope="module")
def shm_group():
    with open_group(WORLD, backend="process", timeout=60.0) as group:
        yield group


@pytest.mark.parametrize(
    "name,fn,args", RUNNERS, ids=[name for name, _, _ in RUNNERS]
)
def test_shm_matches_threads(name, fn, args, shm_group):
    reference = run_threaded(WORLD, fn, *args)
    got = shm_group.run(fn, *args)
    for rank in range(WORLD):
        assert_bit_identical(reference[rank], got[rank])


#: PR 8's ulp bug sat latent because every case here ran at one world
#: size; rings, trees and the sparse merges take different paths at 2,
#: at an odd world, and past a power of two.
OTHER_WORLDS = (2, 3, 5)


@pytest.fixture(scope="module", params=OTHER_WORLDS)
def shm_group_of(request):
    with open_group(request.param, backend="process", timeout=60.0) as group:
        yield group


@pytest.mark.parametrize(
    "name,fn,args", RUNNERS, ids=[name for name, _, _ in RUNNERS]
)
def test_shm_matches_threads_at_other_worlds(name, fn, args, shm_group_of):
    world = shm_group_of.world_size
    if name == "hierarchical" and world % 2:
        pytest.skip("two ranks per node need an even world")
    reference = run_threaded(world, fn, *args)
    got = shm_group_of.run(fn, *args)
    for rank in range(world):
        assert_bit_identical(reference[rank], got[rank])


def test_allreduce_out_returns_buffer(shm_group):
    for _, used_out in shm_group.run(run_allreduce_out):
        assert used_out


class TestFaultedEquivalence:
    """Drops + delays must reorder/retransmit, never change the bits."""

    PLAN = dict(
        seed=11,
        drop_prob=0.08,
        delay_prob=0.15,
        delay_s=0.003,
        reorder_prob=0.1,
        reorder_s=0.005,
        recv_deadline=30.0,
    )

    def test_thread_backend(self):
        reference = run_threaded(WORLD, run_allreduce, "<f4")
        got = run_threaded_with_faults(
            WORLD, run_allreduce, FaultPlan(**self.PLAN), "<f4"
        )
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])

    @pytest.mark.slow
    def test_process_backend(self):
        reference = run_threaded(WORLD, run_allreduce, "<f4")
        got = run_multiprocess_with_faults(
            WORLD, run_allreduce, FaultPlan(**self.PLAN), "<f4"
        )
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])

    @pytest.mark.slow
    def test_sparse_exchange_under_faults_shm(self):
        reference = run_threaded(WORLD, run_sparse_alltoall)
        got = run_multiprocess_with_faults(
            WORLD, run_sparse_alltoall, FaultPlan(**self.PLAN)
        )
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])


class TestDtypePreservation:
    """float32 stays float32 end to end — and pays float32 wire bytes."""

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64]
    )
    def test_collectives_preserve_dtype(self, dtype):
        topology = NodeTopology.symmetric(WORLD // 2, 2)

        def fn(comm):
            data = np.arange(24, dtype=dtype) + comm.rank
            return (
                comm.allreduce(data).dtype,
                reduce_scatter(comm, data).dtype,
                tree_allreduce(comm, data).dtype,
                two_level_allreduce(comm, data, topology).dtype,
            )

        for dtypes in run_threaded(WORLD, fn):
            assert all(dt == np.dtype(dtype) for dt in dtypes)

    def test_float32_halves_wire_bytes(self):
        def fn(comm, dtype_str):
            comm.allreduce(np.ones(96, dtype=np.dtype(dtype_str)))
            return comm.bytes_sent

        bytes32 = run_threaded(WORLD, fn, "<f4")
        bytes64 = run_threaded(WORLD, fn, "<f8")
        assert all(2 * b32 == b64 for b32, b64 in zip(bytes32, bytes64))
        # 2(N-1) transfers of n/N elements each.
        assert bytes32[0] == 2 * (WORLD - 1) * (96 // WORLD) * 4


class TestPayloadAccounting:
    """payload_nbytes drives bytes_sent — pin its rules per payload kind."""

    def test_ndarray(self):
        assert payload_nbytes(np.zeros((5, 3), dtype=np.float32)) == 60

    def test_sparse_rows(self):
        s = _sparse(0, rows=10, dim=4)  # 5 int64 indices + 5x4 float32
        assert payload_nbytes(s) == 5 * 8 + 5 * 4 * 4
        assert payload_nbytes(s) == s.nbytes

    def test_python_scalars(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(True) == 8
        assert payload_nbytes(np.float32(1.0)) == 8

    def test_containers_recurse(self):
        inner = np.ones(4, dtype=np.float64)  # 32 bytes
        assert payload_nbytes((inner, inner)) == 64
        assert payload_nbytes([inner, 1]) == 40
        assert payload_nbytes({"a": inner, "b": 2}) == 40

    def test_bytes_and_strings(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(6)) == 6
        assert payload_nbytes("héllo") == len("héllo".encode())

    def test_none_is_free(self):
        assert payload_nbytes(None) == 0
