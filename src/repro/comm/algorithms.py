"""Additional collective algorithms over the Communicator primitives.

Beyond the core ring collectives on :class:`~repro.comm.Communicator`,
this module implements the algorithm families the paper's related work
discusses, usable with any backend:

* :func:`reduce_scatter` — the first half of ring AllReduce;
* :func:`tree_allreduce` — recursive halving/doubling (latency-optimal
  for small tensors, the regime where ring's 2(N-1) steps lose);
* :func:`alltoallv` — personalized exchange with per-peer row counts
  (what EmbRace's sparse exchanges actually need);
* :func:`gather` / :func:`scatter` — rooted collectives used by the
  parameter-server paths.
"""

from __future__ import annotations

import numpy as np

from repro.comm.backend import Communicator, ring_chunk_bounds
from repro.obs.instrument import traced_collective


@traced_collective("reduce_scatter")
def reduce_scatter(comm: Communicator, array: np.ndarray) -> np.ndarray:
    """Ring reduce-scatter: returns this rank's fully-reduced chunk.

    Chunks follow ``np.array_split`` over the flattened array; rank i
    owns chunk i.  Input dtype is preserved, the input is never copied
    wholesale, and partial sums are forwarded the moment they form
    (``send_sum`` reduces straight into the wire buffer on zero-copy
    transports).
    """
    array = np.asarray(array)
    size = comm.world_size
    flat_in = np.ascontiguousarray(array).reshape(-1)
    b = ring_chunk_bounds(flat_in.size, size)
    if size == 1:
        return flat_in[b[0] : b[1]].copy()
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    # Indices shifted by -1 versus the textbook ring so that after the
    # final step rank r's last accumulation lands on chunk r exactly.
    partial = None
    for step in range(size - 1):
        send_idx = (comm.rank - step - 1) % size
        outgoing = flat_in[b[send_idx] : b[send_idx + 1]]
        if step == 0:
            comm.send(right, comm.snapshot(outgoing))
        else:
            comm.send_sum(right, partial, outgoing)
        partial = comm.recv_view(left)
    out = np.empty(b[comm.rank + 1] - b[comm.rank], dtype=flat_in.dtype)
    np.add(
        np.asarray(partial).reshape(-1),
        flat_in[b[comm.rank] : b[comm.rank + 1]],
        out=out,
    )
    return out


@traced_collective("tree_allreduce")
def tree_allreduce(comm: Communicator, array: np.ndarray) -> np.ndarray:
    """Recursive-doubling AllReduce (sum) in ``ceil(log2 N)`` rounds.

    Works for any world size via a fold-in step for the non-power-of-two
    remainder ranks.  Input dtype is preserved.
    """
    array = np.asarray(array).copy()
    size = comm.world_size
    if size == 1:
        return array
    # Largest power of two <= size.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    rank = comm.rank

    # Fold the remainder: ranks >= pof2 send to rank - rem... standard
    # MPI approach: the first 2*rem ranks pair up.
    if rank < 2 * rem:
        if rank % 2 == 1:  # odd ranks send and retire
            comm.send(rank - 1, array)
            new_rank = -1
        else:
            comm.recv_into(rank + 1, array, accumulate=True)
            new_rank = rank // 2
    else:
        new_rank = rank - rem

    if new_rank != -1:
        mask = 1
        while mask < pof2:
            peer_new = new_rank ^ mask
            peer = peer_new * 2 if peer_new < rem else peer_new + rem
            comm.send(peer, comm.snapshot(array))
            comm.recv_into(peer, array, accumulate=True)
            mask <<= 1

    # Unfold: even ranks of the folded pairs send results back.
    if rank < 2 * rem:
        if rank % 2 == 1:
            array = comm.recv(rank - 1)
        else:
            comm.send(rank + 1, array)
    return array


@traced_collective("alltoallv")
def alltoallv(
    comm: Communicator, send_blocks: list[np.ndarray]
) -> list[np.ndarray]:
    """Personalized exchange of variable-sized arrays.

    ``send_blocks[j]`` goes to rank ``j``; returns received blocks in
    source-rank order.  This is what EmbRace's sparse exchanges use —
    each peer gets a different number of gradient rows.
    """
    if len(send_blocks) != comm.world_size:
        raise ValueError(
            f"need {comm.world_size} blocks, got {len(send_blocks)}"
        )
    return comm.alltoall([np.asarray(b) for b in send_blocks])


@traced_collective("gather")
def gather(comm: Communicator, obj, root: int = 0) -> list | None:
    """Rooted gather: root returns the rank-ordered list, others None."""
    if comm.rank == root:
        out = [None] * comm.world_size
        out[root] = obj
        for src in range(comm.world_size):
            if src != root:
                out[src] = comm.recv(src)
        return out
    comm.send(root, obj)
    return None


@traced_collective("scatter")
def scatter(comm: Communicator, objs: list | None, root: int = 0):
    """Rooted scatter: root provides one object per rank."""
    if comm.rank == root:
        if objs is None or len(objs) != comm.world_size:
            raise ValueError(f"root needs {comm.world_size} objects")
        for dst in range(comm.world_size):
            if dst != root:
                comm.send(dst, objs[dst])
        return objs[root]
    return comm.recv(root)
