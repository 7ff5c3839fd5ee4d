"""One-hop collectives keep the ring's bits and bytes.

* AllGather and AlltoAll are one-shot: each rank sends ``N-1`` messages
  and receives every peer's object in its slot;
* an AllReduce of fewer elements than ranks is gathered and folded in
  the ring's own order — chunk ``c`` sums ``((x_c + x_{c+1}) + ...) +
  x_{c-1}`` (ranks mod N) — so it is bit-equal to the ring on random
  non-integer float32 and float64 inputs, ``out=`` and in place
  included, in ``N-1`` messages instead of ``2(N-1)``;
* the ring itself (sizes ``N`` and up) obeys the same fold, which ties
  the reference below to the algorithm it stands for;
* ``allreduce_sparse_adaptive`` equals ``allreduce_sparse_via_allgather``
  bit for bit;
* ``CommScheduler.allreduce_chunks`` submits the buffer as one item.

Every case runs at worlds 2-5 on the thread and process backends; each
group runs one worker that does all of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    CommScheduler,
    allreduce_sparse_adaptive,
    allreduce_sparse_via_allgather,
    open_group,
)
from repro.comm.backend import ring_chunk_bounds
from repro.tensors import SparseRows

DTYPES = (np.float32, np.float64)
NUM_ROWS = 64
DIM = 4


def _dense_input(rank: int, n: int, dtype) -> np.ndarray:
    """Non-integer values spread over many magnitudes: a sum taken in
    any other order than the ring's rounds differently."""
    rng = np.random.default_rng((rank, n, np.dtype(dtype).itemsize))
    scale = 10.0 ** rng.integers(-6, 7, size=n)
    return (rng.standard_normal(n) * scale).astype(dtype)


def _sparse_input(rank: int) -> SparseRows:
    rng = np.random.default_rng((7, rank))
    idx = rng.integers(0, NUM_ROWS, size=12)
    vals = rng.standard_normal((12, DIM)).astype(np.float32)
    return SparseRows(idx, vals, NUM_ROWS, coalesced=False)


def ring_fold(xs: list[np.ndarray]) -> np.ndarray:
    """The ring AllReduce's sums: chunk ``c`` starts at rank ``c`` and
    adds each next rank's chunk, left operand first."""
    world, n = len(xs), xs[0].size
    b = ring_chunk_bounds(n, world)
    out = np.empty_like(xs[0])
    for c in range(world):
        lo, hi = b[c], b[c + 1]
        acc = xs[c][lo:hi]
        for k in range(1, world):
            acc = acc + xs[(c + k) % world][lo:hi]
        out[lo:hi] = acc
    return out


def _sizes(world: int) -> range:
    """Gather-fold sizes ``1..N-1``, then ring sizes ``N..2N``."""
    return range(1, 2 * world + 1)


def _messages(comm, fn):
    before = comm.messages_sent
    result = fn()
    return result, comm.messages_sent - before


def _conformance(comm) -> dict:
    world, rank = comm.world_size, comm.rank
    dense = {}
    for dtype in DTYPES:
        for n in _sizes(world):
            x = _dense_input(rank, n, dtype)
            plain, msgs = _messages(comm, lambda: comm.allreduce(x))
            out = np.empty_like(x)
            comm.allreduce(x, out=out)
            inplace = x.copy()
            comm.allreduce(inplace, out=inplace)
            dense[np.dtype(dtype).name, n] = (plain, out, inplace, msgs)

    mine = np.arange(3, dtype=np.int64) + 10 * rank
    gathered, ag_msgs = _messages(comm, lambda: comm.allgather(mine))
    outgoing = [np.array([100 * rank + dst]) for dst in range(world)]
    exchanged, a2a_msgs = _messages(comm, lambda: comm.alltoall(outgoing))

    grad = _sparse_input(rank)
    adaptive = allreduce_sparse_adaptive(comm, grad)
    reference = allreduce_sparse_via_allgather(comm, grad)

    sched = CommScheduler(comm)
    try:
        flat = _dense_input(rank, 3 * world + 1, np.float64)
        handles = sched.allreduce_chunks(flat, label="dense")
        for h in handles:
            h.wait(30)
    finally:
        sched.close()
    return {
        "dense": dense,
        "allgather": (gathered, ag_msgs),
        "alltoall": (exchanged, a2a_msgs),
        "sparse": (adaptive, reference),
        "chunks": (len(handles), flat),
    }


CASES = [(b, w) for b in ("thread", "process") for w in (2, 3, 4, 5)]


@pytest.fixture(scope="module", params=CASES, ids=[f"{b}-w{w}" for b, w in CASES])
def run(request):
    backend, world = request.param
    with open_group(world, backend=backend) as group:
        return world, group.run(_conformance)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_small_allreduce_is_the_ring_fold(run):
    world, outs = run
    for dtype in DTYPES:
        name = np.dtype(dtype).name
        for n in _sizes(world):
            want = ring_fold([_dense_input(r, n, dtype) for r in range(world)])
            for out in outs:
                plain, given_out, inplace, msgs = out["dense"][name, n]
                for got in (plain, given_out, inplace):
                    assert got.dtype == want.dtype
                    assert _bits(got) == _bits(want), (name, n)
                # One hop below the world size, the ring's 2(N-1) above.
                assert msgs == (world - 1 if n < world else 2 * (world - 1))


def test_allgather_and_alltoall_are_one_shot(run):
    world, outs = run
    for rank, out in enumerate(outs):
        gathered, ag_msgs = out["allgather"]
        assert ag_msgs == world - 1
        for src, got in enumerate(gathered):
            np.testing.assert_array_equal(got, np.arange(3) + 10 * src)
        exchanged, a2a_msgs = out["alltoall"]
        assert a2a_msgs == world - 1
        assert [int(a[0]) for a in exchanged] == [
            100 * src + rank for src in range(world)
        ]


def test_sparse_adaptive_is_the_allgather_reference(run):
    _, outs = run
    for out in outs:
        adaptive, reference = out["sparse"]
        assert _bits(adaptive.indices) == _bits(reference.indices)
        assert _bits(adaptive.values) == _bits(reference.values)


def test_allreduce_chunks_is_one_item(run):
    world, outs = run
    n = 3 * world + 1
    want = ring_fold([_dense_input(r, n, np.float64) for r in range(world)])
    for out in outs:
        n_handles, flat = out["chunks"]
        assert n_handles == 1
        assert _bits(flat) == _bits(want)
