"""Sparse-tensor collectives: the real data movement of each strategy.

* :func:`allgather_sparse` — the Horovod-AllGather baseline's sparse
  path: every rank receives every peer's raw COO gradient;
* :func:`allreduce_sparse_via_allgather` — gather + deterministic
  rank-ordered sum (what the baseline's optimizer consumes);
* :func:`allreduce_sparse_adaptive` — the name the strategies call
  that same sum by (one dependent hop over the one-shot allgather);
* :func:`alltoall_column_shards` — EmbRace's hybrid path: each rank
  sends each peer the *column slice* that peer owns, and receives the
  slices of its own columns from everyone (one AlltoAll of §4.1.1),
  moving values as raw frames — with their row ids (the narrow id copy
  is the one scratch buffer, from the arena), or alone when the caller
  passes every rank's row set (``rows=``; a mismatch raises
  :class:`RowSetMismatch` instead of summing wrong rows).

Every sparse message is a plain ``(indices, values)`` pair — or a bare
value block when the receiver knows the rows — so ``payload_nbytes`` /
``obs.count_bytes`` account exactly the arrays that travel.  Row ids
travel in :func:`ids_dtype` of the row space — ``int32`` up to 2**31
rows — which both ends derive from ``num_rows``, so no tag travels;
:func:`narrow_ids` / :func:`wide_ids` convert at the two ends, and
``SparseRows`` widens received indices on construction.

Determinism contract: every collective here reproduces the canonical
rank-ordered sum **bit for bit**: locally-coalesced parts merged
left-to-right per row via
:meth:`~repro.tensors.SparseRows.merge_coalesced` (the historical
``np.add.at`` scatter grouping).

Allocation contract: steady state, the wire path performs zero numpy
allocations — outgoing column slices are strided views packed at byte
capture, received parts are pinned transport views, and the scratch
the narrow id copies and the hot-row path need comes from a
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
from repro.tensors import SparseRows


#: Row spaces up to this size send their ids as int32 (ids < 2**31).
NARROW_ID_ROWS = 2**31


def ids_dtype(num_rows: int) -> np.dtype:
    """Wire type of row ids in a ``num_rows`` row space: ``int32`` when
    every id fits, else ``int64``."""
    return np.dtype(np.int32 if num_rows <= NARROW_ID_ROWS else np.int64)


def narrow_ids(
    comm: Communicator,
    ids: np.ndarray,
    num_rows: int,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """``ids`` in :func:`ids_dtype` of ``num_rows``, ready to send.

    Already-narrow ids come back as they are.  With ``arena`` on a
    transport that captures bytes at send (``SEND_SNAPSHOTS``), the copy
    is arena scratch — ``arena.put`` it after the last send; elsewhere it
    is a fresh array the receiver may keep (``put`` ignores it).
    """
    ids = np.asarray(ids)
    dtype = ids_dtype(num_rows)
    if ids.dtype == dtype:
        return ids
    if arena is None or not comm.SEND_SNAPSHOTS:
        return ids.astype(dtype)
    out = arena.take(len(ids), dtype)
    np.copyto(out, ids, casting="unsafe")
    return out


def wide_ids(ids) -> np.ndarray:
    """Received wire ids as int64 (no copy when they already are)."""
    return np.asarray(ids, dtype=np.int64)


class RowSetMismatch(RuntimeError):
    """A values-only exchange (``rows=``) met a row set that disagrees
    with the values: a sender's coalesced gradient rows differ from its
    own ``rows`` entry, or a received block's row count differs from the
    sender's entry.  A sender that finds its own mismatch sends ``None``
    in place of its values, so each of its peers raises this too; every
    rank still sends and receives all its messages first, so the
    communicator stays in step.  ``rank`` is the rank that raised.
    """

    def __init__(self, rank: int, faults: list[str]):
        super().__init__(f"rank {rank}: " + "; ".join(faults))
        self.rank = rank
        self.faults = list(faults)


def _rank_rows(rows, world_size: int) -> list[np.ndarray]:
    """``rows`` (one sorted-unique id set per rank) as int64 arrays,
    checked for one entry per rank."""
    if len(rows) != world_size:
        raise ValueError(
            f"rows has {len(rows)} entries for world size {world_size}"
        )
    return [np.asarray(r, dtype=np.int64) for r in rows]


def _own_rows_fault(indices: np.ndarray, rows: np.ndarray) -> list[str]:
    """The sender guard: ``[]`` when this rank's coalesced ``indices``
    are exactly its ``rows`` entry, else the fault to report."""
    if np.array_equal(indices, rows):
        return []
    return [
        f"its {len(indices)} gradient rows differ from the {len(rows)} rows "
        f"its peers infer for it"
    ]


def _block_fault(src: int, block, n_rows: int) -> list[str]:
    """The receiver check of one values-only block from ``src``: ``[]``
    when it holds ``n_rows`` rows, else the fault to report (``None``
    is a sender that found its own mismatch)."""
    if block is None:
        return [f"rank {src} sent no values: some rank's rows disagree with its entry"]
    got = np.shape(block)[0]
    if got != n_rows:
        return [f"rank {src} sent {got} value rows where {n_rows} are known"]
    return []


def column_slices(dim: int, world_size: int) -> list[slice]:
    """Column ranges per rank (matches ``TensorSpec.column_shard``)."""
    base, extra = divmod(dim, world_size)
    slices, start = [], 0
    for r in range(world_size):
        width = base + (1 if r < extra else 0)
        slices.append(slice(start, start + width))
        start += width
    return slices


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
    arena = default_arena()
    idx = narrow_ids(comm, grad.indices, grad.num_rows, arena)
    # Every rank shares the row space, so ``num_rows`` never travels.
    gathered = comm.allgather((idx, grad.values))
    parts = [
        SparseRows(i, vals, grad.num_rows, coalesced=False) for i, vals in gathered
    ]
    arena.put(idx)  # every part above holds its own int64 copy
    return parts


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
def allreduce_sparse_adaptive(comm: Communicator, grad: SparseRows) -> SparseRows:
    """Sparse allreduce: :func:`allreduce_sparse_via_allgather` itself.

    The one-shot allgather under it takes one dependent hop, which no
    multi-hop scheme (recursive doubling: ``log2 N`` hops, shipping
    part lists and index unions) beats on a latency-bound transport.
    The name stays for the strategies and benchmarks that call it; the
    result is bit-identical to the reference by construction.
    """
    return allreduce_sparse_via_allgather(comm, grad)


@traced_collective("alltoall_column_shards")
def alltoall_column_shards(
    comm: Communicator,
    grad: SparseRows,
    *,
    table: str | None = None,
    fold_groups: tuple[int, ...] | None = None,
    rows: list[np.ndarray] | None = None,
) -> SparseRows:
    """EmbRace gradient exchange: return this rank's column shard of the
    globally-summed sparse gradient.

    Each rank slices its local gradient by owner columns and sends each
    peer its slice as raw ``(indices, block)`` frames — no tuple
    re-pickling, no value copies (the indices go out once, narrowed by
    :func:`narrow_ids` into arena scratch): received parts stay pinned
    transport views (``recv_view_pinned``) and the rank-ordered merge
    reads them straight out of the sender's shared-memory segments.
    The result's ``dim`` is this rank's shard width.

    ``rows`` (optional) is every rank's coalesced row ids, in rank
    order — sorted unique, identical on every rank.  With it only the
    ``(n, peer_cols)`` value blocks travel and the merge runs on the
    given ids.  Each rank first checks that its own gradient rows equal
    its entry, and each receiver that every block has its sender's row
    count; a disagreement raises :class:`RowSetMismatch` on every rank
    it reaches, never a wrong sum.

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
    arena = default_arena()
    wire_idx = None
    faults: list[str] = []
    if rows is None:
        wire_idx = narrow_ids(comm, grad.indices, num_rows, arena)
    else:
        rows = _rank_rows(rows, world)
        faults = _own_rows_fault(grad.indices, rows[rank])
    for dst in range(world):
        if dst != rank:
            block = comm.snapshot(grad.values[:, slices[dst]])
            if wire_idx is not None:
                comm.send(dst, (wire_idx, block))
            else:
                comm.send(dst, None if faults else block)

    obs = comm.obs
    if obs.enabled:
        itemsize = np.dtype(vdtype).itemsize
        peer_cols = grad.dim - my_width  # value columns leaving this rank
        sent = n * peer_cols * itemsize
        if wire_idx is not None:
            sent += (world - 1) * wire_idx.nbytes
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
            if rows is None:
                p_idx, p_vals = comm.recv_view_pinned(src)
                p_idx = np.asarray(p_idx)
            else:
                p_idx, p_vals = rows[src], comm.recv_view_pinned(src)
                fault = _block_fault(src, p_vals, len(p_idx))
                if fault:
                    faults += fault
                    continue
            parts.append(
                (p_idx, np.asarray(p_vals).reshape(len(p_idx), my_width))
            )
        if faults:
            raise RowSetMismatch(rank, faults)
        # Every received part is a coalesced (sorted-unique) run: merge
        # the runs directly instead of sorting their concatenation —
        # bit-identical, and it skips the argsort + reduceat that
        # dominated the step.
        if groups is not None:
            return merge_grouped(parts, num_rows, my_width, vdtype, groups)
        return SparseRows.merge_coalesced(parts, num_rows, my_width, dtype=vdtype)
    finally:
        comm.release_views()
        arena.put(wire_idx)


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
