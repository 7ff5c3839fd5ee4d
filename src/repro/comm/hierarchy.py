"""Two-level collectives: node-aware algorithms, bit-identical to flat.

Multi-node runs pay two different links — fast shm/PCIe inside a node,
the NIC across nodes — and the flat collectives treat both the same.
The algorithms here restructure each collective around a
:class:`~repro.comm.NodeTopology` so that bulk traffic crosses the node
boundary once per *node* instead of once per *rank*:

* :func:`two_level_allreduce` — dense ring allreduce hosted on node
  leaders.  Members hand their raw arrays to their leader; leaders
  execute the **exact arithmetic of the flat ring** (each chunk's
  partial sum folds ranks left-associated in ring order, starting at
  the chunk's own rank), then results allgather among leaders and
  broadcast within nodes.  Because the flat ring's fold sequence is
  replayed verbatim — no sum is formed that the flat path would not
  form — the result is bit-identical to ``comm.allreduce`` on every
  input, not merely ``allclose``.
* :func:`two_level_alltoall_shards` /
  :func:`two_level_allreduce_hot_rows` — sparse exchanges that
  coalesce each node's contributions with
  :meth:`~repro.tensors.SparseRows.merge_coalesced` *before* rows cross
  the node boundary, so inter-node wire bytes shrink by the intra-node
  duplicate-row overlap (the EmbRace tables' Zipf skew makes that
  overlap large).  Their fold order is the node-grouped merge —
  identical to the flat collectives run with ``fold_groups=
  topology.node_sizes`` — so flat and hierarchical wires produce the
  same bits whenever the same topology governs both.

All functions accept ``comms=`` (a prebuilt
:class:`~repro.comm.topology.NodeComms`) so callers can wrap the
inter-node level, e.g. in a :class:`~repro.faults.FaultyCommunicator`
for inter-node-only fault injection; by default sub-communicators are
carved out of ``comm`` per call (cheap, no wire traffic).
"""

from __future__ import annotations

import numpy as np

from repro.comm.arena import BufferArena, default_arena
from repro.comm.backend import Communicator, ring_chunk_bounds
from repro.comm.sparse import (
    allreduce_hot_rows,
    alltoall_column_shards,
    column_slices,
)
from repro.comm.topology import NodeComms, NodeTopology, node_comms
from repro.obs.instrument import traced_collective
from repro.tensors import SparseRows


def _comms(comm: Communicator, topology: NodeTopology, comms: NodeComms | None) -> NodeComms:
    if comms is not None:
        if comms.topology is not topology and comms.topology != topology:
            raise ValueError("comms was built for a different topology")
        return comms
    return node_comms(comm, topology)


def _owned(obj) -> np.ndarray:
    """A writable C-contiguous ndarray from a received payload."""
    arr = np.asarray(obj)
    if not arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr).copy() if not arr.flags.c_contiguous else arr.copy()
    return arr


@traced_collective("two_level_allreduce")
def two_level_allreduce(
    comm: Communicator,
    array: np.ndarray,
    topology: NodeTopology,
    *,
    out: np.ndarray | None = None,
    comms: NodeComms | None = None,
) -> np.ndarray:
    """Hierarchical dense sum-allreduce, bit-identical to the flat ring.

    The flat ring (:meth:`~repro.comm.Communicator.allreduce`) reduces
    chunk ``j`` by folding ranks **left-associated in ring order
    starting at rank j**: ``((x_j + x_{j+1}) + ...) + x_{j-1}``.  With
    node-major rank numbering that walk crosses whole nodes at a time,
    so leaders can replay it exactly: each leader gathers its members'
    raw arrays (no intra-node summing that the flat ring wouldn't do),
    computes the walk's *starting segments* for the chunks homed in its
    node, and the per-chunk partials travel leader-to-leader in node
    ring order, each leader folding its members one at a time in rank
    order.  A final homecoming folds each chunk's tail ranks, blocks
    allgather among leaders, and leaders broadcast within their nodes.

    Wire structure: ``2(g-1)`` full-array intra-node transfers per node
    (gather + broadcast) and ``~2n`` bytes per leader on the inter-node
    level — the flat ring's ``2n(N-1)/N`` per *rank* collapses to per
    *node*.  Arithmetic: the identical fold sequence, hence identical
    bits.
    """
    array = np.asarray(array)
    if out is not None:
        out = np.asarray(out)
        if (
            out.shape != array.shape
            or out.dtype != array.dtype
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                "out must be a C-contiguous array matching the input's shape and dtype"
            )
    if topology.world_size != comm.world_size:
        raise ValueError(
            f"topology world {topology.world_size} != comm world {comm.world_size}"
        )
    if comm.world_size == 1 or not topology.multi_node:
        return comm.allreduce(array, out=out)

    nc = _comms(comm, topology, comms)
    intra, inter = nc.intra, nc.inter
    rank, size = comm.rank, comm.world_size
    flat_in = np.ascontiguousarray(array).reshape(-1)
    n = flat_in.size
    b = ring_chunk_bounds(n, size)
    result = out if out is not None else np.empty(array.shape, array.dtype)
    flat_out = result.reshape(-1)

    if not nc.is_leader:
        # Members contribute their raw array and receive the finished sum.
        intra.send(0, intra.snapshot(flat_in))
        intra.recv_into(0, flat_out)
        return result

    assert inter is not None
    my = topology.nodes[nc.node]
    m = topology.num_nodes
    me = nc.node
    # Gather members' raw arrays (read-only from here on).
    xs: dict[int, np.ndarray] = {rank: flat_in}
    for li, r in enumerate(my):
        if r != rank:
            xs[r] = np.asarray(intra.recv(li)).reshape(-1)

    # Chunk j is "homed" at node_of(j); node h's home chunks cover the
    # contiguous flat range [b[first(h)], b[last(h)+1]].
    def node_range(h: int) -> tuple[int, int]:
        ranks = topology.nodes[h]
        return b[ranks[0]], b[ranks[-1] + 1]

    lo, hi = node_range(me)
    batch = np.empty(hi - lo, dtype=flat_in.dtype)
    # Starting segments: chunk j folds ranks j..last(me), left-associated.
    for j in my:
        seg = batch[b[j] - lo : b[j + 1] - lo]
        np.copyto(seg, xs[j][b[j] : b[j + 1]])
        for r in range(j + 1, my[-1] + 1):
            np.add(seg, xs[r][b[j] : b[j + 1]], out=seg)

    # Walk: the batch moves around the node ring; each leader folds its
    # members (in rank order) into every chunk passing through, and each
    # chunk's home leader finishes the tail ranks on homecoming.
    succ = (me + 1) % m
    pred = (me - 1) % m
    for t in range(m):
        inter.send(succ, inter.snapshot(batch))
        h = (me - 1 - t) % m  # home node of the incoming batch
        buf = _owned(inter.recv(pred))
        hlo, hhi = node_range(h)
        if t < m - 1:
            for r in my:
                np.add(buf, xs[r][hlo:hhi], out=buf)
            batch = buf
        else:
            # Homecoming (h == me): fold chunk j's tail ranks first..j-1.
            for j in my:
                seg = buf[b[j] - hlo : b[j + 1] - hlo]
                for r in range(my[0], j):
                    np.add(seg, xs[r][b[j] : b[j + 1]], out=seg)
            batch = buf

    # Assemble: my home block is final; exchange blocks among leaders,
    # then broadcast the full result within the node.
    flat_out[lo:hi] = batch
    for q in range(m):
        if q != me:
            inter.send(q, inter.snapshot(flat_out[lo:hi]))
    for q in range(m):
        if q != me:
            qlo, qhi = node_range(q)
            inter.recv_into(q, flat_out[qlo:qhi])
    for li, r in enumerate(my):
        if r != rank:
            intra.send(li, intra.snapshot(flat_out))
    return result


def _gather_node_parts(
    nc: NodeComms,
    grad: SparseRows,
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Leader: members' coalesced ``(indices, values)`` in rank order
    (own included).  Member: sends its part and returns ``None``."""
    intra = nc.intra
    if not nc.is_leader:
        intra.send(0, (grad.indices, intra.snapshot(grad.values)))
        return None
    members = nc.topology.nodes[nc.node]
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for li, r in enumerate(members):
        if li == intra.rank:
            parts.append((grad.indices, grad.values))
        else:
            idx, vals = intra.recv(li)
            idx = np.asarray(idx)
            parts.append((idx, np.asarray(vals).reshape(len(idx), grad.dim)))
    return parts


def _merge_node(
    parts: list[tuple[np.ndarray, np.ndarray]],
    grad: SparseRows,
) -> SparseRows:
    """The node's rank-ordered coalesced sum (the inner fold)."""
    if len(parts) == 1:
        return grad  # single-rank node: already coalesced, nothing to merge
    return SparseRows.merge_coalesced(
        parts, grad.num_rows, grad.dim, dtype=grad.values.dtype
    )


def _scatter_result(nc: NodeComms, result: SparseRows | None, num_rows: int, dim: int, vdtype) -> SparseRows:
    """Leader sends ``result`` to its members; members receive theirs."""
    intra = nc.intra
    if nc.is_leader:
        assert result is not None
        for li in range(1, intra.world_size):
            intra.send(li, (result.indices, intra.snapshot(result.values)))
        return result
    idx, vals = intra.recv(0)
    idx = np.asarray(idx)
    return SparseRows(
        idx, np.asarray(vals).reshape(len(idx), dim), num_rows, coalesced=True
    )


@traced_collective("two_level_alltoall_shards")
def two_level_alltoall_shards(
    comm: Communicator,
    grad: SparseRows,
    topology: NodeTopology,
    *,
    table: str | None = None,
    comms: NodeComms | None = None,
) -> SparseRows:
    """Hierarchical EmbRace gradient exchange: this rank's column shard
    of the globally-summed sparse gradient, with intra-node coalescing
    before rows cross the node boundary.

    Members hand their coalesced gradient to the node leader, which
    merges the node's parts (rank order — the inner fold), then each
    leader sends every *other* leader one message carrying the remote
    node's full column range of the node gradient.  Receiving leaders
    merge the per-node parts in node order (the outer fold), slice per
    member column shard, and scatter the shards back.  Bit-identical to
    ``alltoall_column_shards(..., fold_groups=topology.node_sizes)``:
    both execute the same nested ``merge_coalesced`` fold, and column
    slicing commutes with the per-row assign-then-add.

    The wire win: a row contributed by several ranks of one node crosses
    the NIC **once** (in the merged node gradient) instead of once per
    contributing rank, and only one index vector per node pair moves.
    """
    grad = grad.coalesce()
    if comm.world_size == 1:
        return grad
    if topology.world_size != comm.world_size:
        raise ValueError(
            f"topology world {topology.world_size} != comm world {comm.world_size}"
        )
    if not topology.multi_node:
        return alltoall_column_shards(comm, grad, table=table)
    nc = _comms(comm, topology, comms)
    rank, world = comm.rank, comm.world_size
    num_rows, dim, vdtype = grad.num_rows, grad.dim, grad.values.dtype
    slices = column_slices(dim, world)
    my_width = slices[rank].stop - slices[rank].start
    obs = comm.obs

    parts = _gather_node_parts(nc, grad)
    if parts is None:
        # Member: account the intra leg, then wait for the merged shard.
        if obs.enabled:
            sent = float(grad.indices.nbytes + grad.values.nbytes)
            obs.count("wire_bytes.alltoall_sparse", sent)
            if table is not None:
                obs.count(f"wire_bytes.table.{table}", sent)
        idx, vals = nc.intra.recv(0)
        idx = np.asarray(idx)
        return SparseRows(
            idx, np.asarray(vals).reshape(len(idx), my_width), num_rows,
            coalesced=True,
        )

    node_grad = _merge_node(parts, grad)
    inter = nc.inter
    assert inter is not None
    m = topology.num_nodes
    me = nc.node
    # Node h owns the contiguous column range spanning its members' shards.
    node_cols = [
        slice(slices[node[0]].start, slices[node[-1]].stop)
        for node in topology.nodes
    ]
    sent = 0
    for q in range(m):
        if q == me:
            continue
        block = node_grad.values[:, node_cols[q]]
        inter.send(q, (node_grad.indices, inter.snapshot(block)))
        sent += node_grad.indices.nbytes + block.nbytes
    my_cols = node_cols[me]
    my_node_width = my_cols.stop - my_cols.start
    node_parts: list[tuple[np.ndarray, np.ndarray]] = []
    try:
        for q in range(m):
            if q == me:
                node_parts.append((node_grad.indices, node_grad.values[:, my_cols]))
            else:
                idx, vals = inter.recv_view_pinned(q)
                idx = np.asarray(idx)
                node_parts.append(
                    (idx, np.asarray(vals).reshape(len(idx), my_node_width))
                )
        # Outer fold per member shard: node order, assign-then-add.
        members = topology.nodes[me]
        mine: SparseRows | None = None
        for li, r in enumerate(members):
            rel = slice(
                slices[r].start - my_cols.start, slices[r].stop - my_cols.start
            )
            merged = SparseRows.merge_coalesced(
                [(idx, vals[:, rel]) for idx, vals in node_parts],
                num_rows,
                slices[r].stop - slices[r].start,
                dtype=vdtype,
            )
            if r == rank:
                mine = merged
            else:
                nc.intra.send(li, (merged.indices, nc.intra.snapshot(merged.values)))
                sent += merged.indices.nbytes + merged.values.nbytes
    finally:
        comm.release_views()
    if obs.enabled:
        obs.count("wire_bytes.alltoall_sparse", float(sent))
        if table is not None:
            obs.count(f"wire_bytes.table.{table}", float(sent))
    assert mine is not None
    return mine


@traced_collective("two_level_allreduce_hot_rows")
def two_level_allreduce_hot_rows(
    comm: Communicator,
    hot_ids: np.ndarray,
    grad: SparseRows,
    topology: NodeTopology,
    *,
    table: str | None = None,
    arena: BufferArena | None = None,
    comms: NodeComms | None = None,
) -> SparseRows:
    """Hierarchical hot-row lane: intra-node merge, leader-level
    :func:`~repro.comm.sparse.allreduce_hot_rows`, intra broadcast.

    The node's hot contributions merge at the leader (rank order), the
    flat hot-lane collective runs among leaders only (node order — the
    outer fold), and the replicated result broadcasts within each node.
    Bit-identical to ``allreduce_hot_rows(..., fold_groups=
    topology.node_sizes)``.
    """
    grad = grad.coalesce()
    n_hot = len(np.asarray(hot_ids))
    if comm.world_size == 1 or n_hot == 0:
        return grad
    if topology.world_size != comm.world_size:
        raise ValueError(
            f"topology world {topology.world_size} != comm world {comm.world_size}"
        )
    if not topology.multi_node:
        return allreduce_hot_rows(comm, hot_ids, grad, table=table, arena=arena)
    nc = _comms(comm, topology, comms)
    num_rows, dim, vdtype = grad.num_rows, grad.dim, grad.values.dtype
    obs = comm.obs
    parts = _gather_node_parts(nc, grad)
    result: SparseRows | None = None
    if parts is None:
        if obs.enabled:
            sent = float(grad.indices.nbytes + grad.values.nbytes)
            obs.count("wire_bytes.hot_lane", sent)
            if table is not None:
                obs.count(f"wire_bytes.table.{table}", sent)
    else:
        node_grad = _merge_node(parts, grad)
        inter = nc.inter
        assert inter is not None
        result = allreduce_hot_rows(
            inter, hot_ids, node_grad, table=table, arena=arena
        )
        if obs.enabled and nc.intra.world_size > 1:
            sent = float(
                (nc.intra.world_size - 1)
                * (result.indices.nbytes + result.values.nbytes)
            )
            obs.count("wire_bytes.hot_lane", sent)
            if table is not None:
                obs.count(f"wire_bytes.table.{table}", sent)
    return _scatter_result(nc, result, num_rows, dim, vdtype)


__all__ = [
    "two_level_allreduce",
    "two_level_allreduce_hot_rows",
    "two_level_alltoall_shards",
]
