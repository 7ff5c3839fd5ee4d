"""Sparse-tensor collectives: the real data movement of each strategy.

* :func:`allgather_sparse` — the Horovod-AllGather baseline's sparse
  path: every rank receives every peer's raw COO gradient;
* :func:`allreduce_sparse_via_allgather` — gather + deterministic
  rank-ordered sum (what the baseline's optimizer consumes);
* :func:`allreduce_sparse_adaptive` — the same sum over a
  recursive-doubling sparse allgather (log N hops);
* :func:`alltoall_column_shards` — EmbRace's hybrid path: each rank
  sends each peer the *column slice* that peer owns, and receives the
  slices of its own columns from everyone (one AlltoAll of §4.1.1),
  moving indices and values as raw frames with no scratch buffers.

Every sparse message is a plain ``(indices, values)`` pair — or, on the
recursive-doubling path, ``(parts, union)`` — so ``payload_nbytes`` /
``obs.count_bytes`` account exactly the arrays that travel.

Determinism contract: every collective here reproduces the canonical
rank-ordered sum **bit for bit**: locally-coalesced parts merged
left-to-right per row via
:meth:`~repro.tensors.SparseRows.merge_coalesced` (the historical
``np.add.at`` scatter grouping).  The adaptive path carries the
per-rank parts unsummed and performs one final rank-ordered merge.

Allocation contract: steady state, the wire path performs zero numpy
allocations — outgoing column slices are strided views packed at byte
capture, received parts are pinned transport views, and the scratch
the recursive-doubling and hot-row paths need comes from a
:class:`~repro.comm.arena.BufferArena` (``arena=None`` uses the
process-wide :func:`~repro.comm.arena.default_arena`) — gated by
``benchmarks/check_comm_regression.py``.  The final merge that builds
the caller-owned result is compute, not wire, and allocates normally.
"""

from __future__ import annotations

import numpy as np

from repro.comm.arena import BufferArena, default_arena
from repro.comm.backend import Communicator
from repro.obs.instrument import traced_collective
from repro.tensors import SparseRows, sorted_union


def column_slices(dim: int, world_size: int) -> list[slice]:
    """Column ranges per rank (matches ``TensorSpec.column_shard``)."""
    base, extra = divmod(dim, world_size)
    slices, start = [], 0
    for r in range(world_size):
        width = base + (1 if r < extra else 0)
        slices.append(slice(start, start + width))
        start += width
    return slices


def _merge_unions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-unique union of two sorted-unique index sets (vectorized)."""
    merged = sorted_union([a, b])
    # Micro-assert: the final merge_coalesced(union=) assumes the merged
    # set stays sorted-unique at every hop.
    assert merged.size == 0 or bool(np.all(np.diff(merged) > 0)), (
        "merged index union is not sorted-unique"
    )
    return merged


def _check_fold_groups(fold_groups, world: int) -> tuple[int, ...] | None:
    if fold_groups is None:
        return None
    groups = tuple(int(g) for g in fold_groups)
    if any(g < 1 for g in groups) or sum(groups) != world:
        raise ValueError(
            f"fold_groups {fold_groups!r} must be positive sizes summing to "
            f"world size {world}"
        )
    return groups


def merge_grouped(
    parts: list[tuple[np.ndarray, np.ndarray]],
    num_rows: int,
    dim: int,
    dtype,
    groups: tuple[int, ...],
) -> SparseRows:
    """Node-grouped canonical sum: merge each group's consecutive parts
    (rank order), then merge the group results (group order).

    This nested :meth:`~repro.tensors.SparseRows.merge_coalesced` is the
    fold the two-level sparse collectives execute physically (the inner
    merge happens on the node before rows cross the NIC), so running the
    *flat* collectives with ``fold_groups=topology.node_sizes`` yields
    bit-identical results to the hierarchical wires.  Single-rank groups
    pass through unmerged, exactly as a single-rank node's gradient does.
    """
    if len(parts) != sum(groups):
        raise ValueError(f"{len(parts)} parts cannot fold into groups {groups!r}")
    outer: list[tuple[np.ndarray, np.ndarray]] = []
    i = 0
    for g in groups:
        if g == 1:
            outer.append(parts[i])
        else:
            merged = SparseRows.merge_coalesced(
                parts[i : i + g], num_rows, dim, dtype=dtype
            )
            outer.append((merged.indices, merged.values))
        i += g
    return SparseRows.merge_coalesced(outer, num_rows, dim, dtype=dtype)


@traced_collective("allgather_sparse")
def allgather_sparse(comm: Communicator, grad: SparseRows) -> list[SparseRows]:
    """Gather every rank's sparse gradient (Horovod-AllGather semantics)."""
    payload = (grad.indices, grad.values, grad.num_rows)
    gathered = comm.allgather(payload)
    return [
        SparseRows(idx, vals, rows, coalesced=False) for idx, vals, rows in gathered
    ]


@traced_collective("allreduce_sparse")
def allreduce_sparse_via_allgather(comm: Communicator, grad: SparseRows) -> SparseRows:
    """Sum of all ranks' sparse gradients, coalesced, rank-ordered.

    Each rank's gradient is coalesced locally before the exchange (as
    PyTorch does when serializing sparse tensors), then the parts merge
    through :meth:`~repro.tensors.SparseRows.merge_coalesced` — per row,
    contributions accumulate left-to-right in rank order.  That merge is
    *the* canonical cross-rank grouping: any strategy summing the same
    per-rank gradients the same way produces bit-identical results.
    """
    parts = allgather_sparse(comm, grad.coalesce())
    first = parts[0]
    return SparseRows.merge_coalesced(
        [(p.indices, p.values) for p in parts],
        first.num_rows,
        first.dim,
        dtype=first.values.dtype,
    )


@traced_collective("allreduce_sparse_adaptive")
def allreduce_sparse_adaptive(
    comm: Communicator,
    grad: SparseRows,
    *,
    arena: BufferArena | None = None,
) -> SparseRows:
    """Sparse allreduce by recursive doubling.

    Power-of-two worlds run ``log2(N)`` hops: each hop exchanges the
    accumulated rank-ordered part list, plus the sorted-unique union of
    its indices, with the partner block.  After the last hop every rank
    holds every rank's locally-coalesced part in rank order and finishes
    with one :meth:`~repro.tensors.SparseRows.merge_coalesced` over the
    tracked union.  Non-power-of-two worlds fall back to the
    ring-allgather reference.  Either way the result is bit-identical
    to :func:`allreduce_sparse_via_allgather`.

    ``arena`` supplies the copies of received parts on transports whose
    receive views die at the next communication call.
    """
    grad = grad.coalesce()
    world, rank = comm.world_size, comm.rank
    if world == 1:
        return grad
    if world & (world - 1):  # non-power-of-two: reference ring allgather
        return allreduce_sparse_via_allgather(comm, grad)
    if arena is None:
        arena = default_arena()
    num_rows, dim = grad.num_rows, grad.dim
    vdtype = grad.values.dtype
    taken: list[np.ndarray] = []  # every arena buffer, returned at the end

    # Locally-coalesced (indices, values) parts in rank order, plus the
    # sorted-unique union of their indices.
    parts: list[tuple[np.ndarray, np.ndarray]] = [(grad.indices, grad.values)]
    union = grad.indices
    hop = 1
    while hop < world:
        partner = rank ^ hop
        i_am_low = not (rank & hop)  # my block covers the lower rank range
        comm.send(
            partner,
            (
                [(comm.snapshot(i), comm.snapshot(v)) for i, v in parts],
                comm.snapshot(union),
            ),
        )
        their_parts, their_union = comm.recv_view(partner)
        # On snapshot-free transports the received arrays may alias
        # transport memory that dies at the next comm call — copy those
        # into arena scratch; elsewhere the arrays are already owned.
        if comm.SEND_SNAPSHOTS:
            copied = []
            for p_idx, p_vals in their_parts:
                c_idx = arena.take(len(p_idx), np.int64)
                c_vals = arena.take(p_vals.shape, vdtype)
                taken += (c_idx, c_vals)
                c_idx[...] = p_idx
                c_vals[...] = p_vals
                copied.append((c_idx, c_vals))
            their_parts = copied
            their_union = np.asarray(their_union).copy()
        parts = parts + their_parts if i_am_low else their_parts + parts
        union = _merge_unions(union, np.asarray(their_union))
        hop *= 2

    if sum(len(i) for i, _ in parts) == 0:
        result = grad  # every rank was empty; grad is the coalesced empty
    else:
        # The union was tracked hop by hop, so the finish is a straight
        # merge of the sorted per-rank runs (bit-identical to the
        # rank-ordered concat + coalesce, several times cheaper).
        result = SparseRows.merge_coalesced(
            parts, num_rows, dim, dtype=vdtype, union=union
        )
    arena.put(*taken)
    return result


@traced_collective("alltoall_column_shards")
def alltoall_column_shards(
    comm: Communicator,
    grad: SparseRows,
    *,
    table: str | None = None,
    fold_groups: tuple[int, ...] | None = None,
) -> SparseRows:
    """EmbRace gradient exchange: return this rank's column shard of the
    globally-summed sparse gradient.

    Each rank slices its local gradient by owner columns and sends each
    peer its slice as raw ``(indices, block)`` frames — no tuple
    re-pickling, no intermediate copies: received parts stay pinned
    transport views (``recv_view_pinned``) and the rank-ordered merge
    reads them straight out of the sender's shared-memory segments.
    The result's ``dim`` is this rank's shard width.

    The local gradient is coalesced before slicing so that every
    strategy sums per-row contributions with identical grouping (local
    pre-sum, then rank order).  Outgoing value blocks are *strided
    views* of the coalesced gradient — the frame layer packs them only
    at byte capture, fusing the pack into the wire copy.

    ``table`` (optional) labels this exchange's sent bytes with the
    owning table (``wire_bytes.alltoall_sparse`` and
    ``wire_bytes.table.<name>`` counters) so placement studies can
    attribute traffic per table.

    ``fold_groups`` (a topology's node sizes) switches the receive
    merge to the node-grouped fold of :func:`merge_grouped`, matching
    :func:`~repro.comm.hierarchy.two_level_alltoall_shards` bit for
    bit.
    """
    groups = _check_fold_groups(fold_groups, comm.world_size)
    grad = grad.coalesce()
    world, rank = comm.world_size, comm.rank
    if world == 1:
        return grad
    slices = column_slices(grad.dim, world)
    my_width = slices[rank].stop - slices[rank].start
    num_rows, n = grad.num_rows, len(grad.indices)
    vdtype = grad.values.dtype

    # -- send ------------------------------------------------------------ #
    # Column slices go out as strided views: the frame layer packs them
    # at byte capture (shm gathers straight into the segment), so there
    # is no separate pack copy.  ``snapshot`` is the identity there;
    # transports that defer capture copy here instead.
    for dst in range(world):
        if dst != rank:
            comm.send(
                dst, (grad.indices, comm.snapshot(grad.values[:, slices[dst]]))
            )

    obs = comm.obs
    if obs.enabled:
        itemsize = np.dtype(vdtype).itemsize
        peer_cols = grad.dim - my_width  # value columns leaving this rank
        sent = (world - 1) * grad.indices.nbytes + n * peer_cols * itemsize
        obs.count("wire_bytes.alltoall_sparse", float(sent))
        if table is not None:
            obs.count(f"wire_bytes.table.{table}", float(sent))

    # -- receive & merge straight from transport memory ------------------ #
    # Received parts stay *pinned views* of transport-owned memory (on
    # shm: the sender's pooled segment) until the merge has consumed
    # them, so each incoming byte is copied exactly once — into the
    # merged result.
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    try:
        for src in range(world):
            if src == rank:
                parts.append((grad.indices, grad.values[:, slices[rank]]))
                continue
            p_idx, p_vals = comm.recv_view_pinned(src)
            p_idx = np.asarray(p_idx)
            parts.append(
                (p_idx, np.asarray(p_vals).reshape(len(p_idx), my_width))
            )
        # Every received part is a coalesced (sorted-unique) run: merge
        # the runs directly instead of sorting their concatenation —
        # bit-identical, and it skips the argsort + reduceat that
        # dominated the step.
        if groups is not None:
            return merge_grouped(parts, num_rows, my_width, vdtype, groups)
        return SparseRows.merge_coalesced(parts, num_rows, my_width, dtype=vdtype)
    finally:
        comm.release_views()


@traced_collective("alltoall_lookup_results")
def alltoall_lookup_results(
    comm: Communicator,
    all_ids: list[np.ndarray],
    shard_lookup: np.ndarray,
    own_count: int,
) -> np.ndarray:
    """EmbRace forward exchange: redistribute column-sharded lookup results.

    ``all_ids[j]`` are the token ids rank ``j`` needs (this rank already
    looked *all* of them up against its column shard, producing
    ``shard_lookup`` — the concatenation over ranks in order).  Each rank
    sends rank ``j`` the block of rows for ``j``'s ids, and receives its
    own ``own_count`` rows' slices from everyone, which it concatenates
    column-wise into full-dimension vectors.
    """
    counts = [len(ids) for ids in all_ids]
    if sum(counts) != len(shard_lookup):
        raise ValueError(
            f"shard_lookup has {len(shard_lookup)} rows, ids total {sum(counts)}"
        )
    offsets = np.cumsum([0] + counts)
    outgoing = [
        np.ascontiguousarray(shard_lookup[offsets[j] : offsets[j + 1]])
        for j in range(comm.world_size)
    ]
    obs = comm.obs
    if obs.enabled:
        sent = sum(
            outgoing[j].nbytes for j in range(comm.world_size) if j != comm.rank
        )
        obs.count("wire_bytes.lookup", float(sent))
    received = comm.alltoall(outgoing)
    for j, block in enumerate(received):
        if len(block) != own_count:
            raise ValueError(
                f"rank {comm.rank}: expected {own_count} rows from rank {j}, got {len(block)}"
            )
    return np.concatenate(received, axis=1)


@traced_collective("allreduce_hot_rows")
def allreduce_hot_rows(
    comm: Communicator,
    hot_ids: np.ndarray,
    grad: SparseRows,
    *,
    table: str | None = None,
    arena: BufferArena | None = None,
    fold_groups: tuple[int, ...] | None = None,
) -> SparseRows:
    """Dense-lane exchange of a *replicated hot row set*'s gradients.

    ``hot_ids`` (sorted, unique, identical on every rank — the table's
    :class:`~repro.placement.TablePlacement` hot set) positions the
    exchange; ``grad`` holds this rank's contributions, whose rows must
    all be hot.  Returns the full-dimension cross-rank sum over the
    union of contributing rows.

    The shape is an AllReduce folded with a presence mask, bucketed the
    same way the dense lane buckets chunks: the hot positions are
    partitioned into one contiguous range per owner rank
    (:func:`column_slices` reused as row ranges), each rank AlltoAlls
    every peer its (mask, present-rows block) slice of each range, the
    range owner merges the per-rank parts **in rank order with
    mask-driven assign-then-add** — exactly
    :meth:`~repro.tensors.SparseRows.merge_coalesced`'s grouping — and
    an AllGather replicates the merged ranges.  Because that per-row
    grouping is the canonical one and column slicing commutes with
    row-wise assign/add, the result equals the
    :func:`alltoall_column_shards` shards of the same rows concatenated
    — **bit for bit**, which is what keeps hybrid placement loss-exact.

    Sent bytes are tallied as ``wire_bytes.hot_lane`` plus
    ``wire_bytes.table.<name>`` when ``table`` is given, so the
    replicated-row dense traffic is attributed to its owning table.

    ``fold_groups`` (a topology's node sizes) nests the owner merge:
    each group's parts merge first (rank order), then the group results
    merge (group order) — the fold
    :func:`~repro.comm.hierarchy.two_level_allreduce_hot_rows` executes
    physically, so flat and hierarchical hot lanes agree bit for bit.
    """
    fold_groups = _check_fold_groups(fold_groups, comm.world_size)
    grad = grad.coalesce()
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    n_hot = len(hot_ids)
    world, rank = comm.world_size, comm.rank
    if len(grad.indices):
        pos = np.searchsorted(hot_ids, grad.indices)
        if pos.size and (
            pos.max(initial=0) >= n_hot
            or not np.array_equal(hot_ids[pos], grad.indices)
        ):
            raise ValueError("allreduce_hot_rows: gradient has non-hot rows")
    else:
        pos = np.empty(0, dtype=np.int64)
    if world == 1 or n_hot == 0:
        return grad
    if arena is None:
        arena = default_arena()
    num_rows, dim = grad.num_rows, grad.dim
    vdtype = grad.values.dtype
    itemsize = np.dtype(vdtype).itemsize
    ranges = column_slices(n_hot, world)  # hot *positions*, one range/rank
    taken: list[np.ndarray] = []

    def _take(shape, dtype) -> np.ndarray:
        buf = arena.take(shape, dtype)
        taken.append(buf)
        return buf

    # -- reduce-scatter: slice my contribution per owner range ----------- #
    outgoing: list[tuple[np.ndarray, np.ndarray]] = []
    sent = 0
    for dst in range(world):
        lo, hi = ranges[dst].start, ranges[dst].stop
        a, b = np.searchsorted(pos, (lo, hi))
        mask = _take(hi - lo, np.bool_)
        mask[...] = False
        mask[pos[a:b] - lo] = True
        block = grad.values[a:b]  # contiguous row run of the coalesced grad
        outgoing.append((comm.snapshot(mask), comm.snapshot(block)))
        if dst != rank:
            sent += mask.nbytes + block.nbytes
    received = comm.alltoall(outgoing)

    # -- owner merge: rank order, mask-driven assign-then-add ------------ #
    lo, hi = ranges[rank].start, ranges[rank].stop
    width = hi - lo
    acc = _take((width, dim), vdtype)
    seen = _take(width, np.bool_)
    seen[...] = False

    def _fold_part(t_acc, t_seen, m, b) -> None:
        p = np.flatnonzero(np.asarray(m))
        if not p.size:
            return
        vals = np.asarray(b).reshape(p.size, dim)
        fresh = ~t_seen[p]
        t_acc[p[fresh]] = vals[fresh]  # assign first touch: -0.0 survives
        t_acc[p[~fresh]] += vals[~fresh]
        t_seen[p] = True

    if fold_groups is None:
        for src in range(world):
            m, b = received[src]
            _fold_part(acc, seen, m, b)
    else:
        # Node-grouped fold: merge each group's parts into scratch, then
        # fold the group results — the two-level hot lane's exact order.
        src = 0
        g_acc = _take((width, dim), vdtype)
        g_seen = _take(width, np.bool_)
        for g in fold_groups:
            if g == 1:
                _fold_part(acc, seen, *received[src])
                src += 1
                continue
            g_seen[...] = False
            for _ in range(g):
                _fold_part(g_acc, g_seen, *received[src])
                src += 1
            p = np.flatnonzero(g_seen)
            if p.size:
                fresh = ~seen[p]
                acc[p[fresh]] = g_acc[p[fresh]]
                acc[p[~fresh]] += g_acc[p[~fresh]]
                seen[p] = True

    # -- allgather the merged ranges ------------------------------------- #
    my_pos = np.flatnonzero(seen)
    payload = (comm.snapshot(seen), acc[my_pos])  # fancy index: owned copy
    sent += (world - 1) * (seen.nbytes + acc[my_pos].nbytes)
    gathered = comm.allgather(payload)

    obs = comm.obs
    if obs.enabled:
        obs.count("wire_bytes.hot_lane", float(sent))
        if table is not None:
            obs.count(f"wire_bytes.table.{table}", float(sent))

    idx_parts, val_parts = [], []
    for r, (m, b) in enumerate(gathered):
        p = ranges[r].start + np.flatnonzero(np.asarray(m))
        if p.size:
            idx_parts.append(hot_ids[p])
            val_parts.append(np.asarray(b).reshape(p.size, dim))
    comm.release_views()
    arena.put(*taken)
    if not idx_parts:
        return SparseRows.empty(num_rows, dim, dtype=vdtype)
    return SparseRows(
        np.concatenate(idx_parts),
        np.concatenate(val_parts),
        num_rows,
        coalesced=True,  # ranges ascend and positions ascend within each
    )
