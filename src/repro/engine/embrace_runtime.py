"""Reusable EmbRace runtime for a group of same-width embedding tables.

:class:`TableGroupRuntime` encapsulates the full lifecycle of
column-partitioned embedding tables under EmbRace semantics, so any
training or serving loop — :class:`~repro.engine.trainer_real.RealTrainer`
and :class:`~repro.serve.ShardedEmbeddingService` both run on it — can
adopt it:

* ``apply_gradient`` — Algorithm 1 split, the two AlltoAll column-shard
  exchanges, and the modified-Adam shard updates; ``exchange`` sends
  values alone when the caller passes every rank's row set
  (``cold_rows`` / ``split_rows``, derived from the gathered ids every
  rank already holds), so the row ids cross the wire once a step;
* ``refresh_rows`` — the forward lookup-result AlltoAll that fills the
  row block for the upcoming batch;
* ``own_columns`` — this rank's authoritative columns of every member,
  which the launcher joins (:func:`join_column_shards`) after a run;
  ``gather_tables`` joins them collectively, for checkpoints.

The group stacks its tables into **one virtual row space** (row = table
offset + row), so an iteration costs one split, one prior / delayed /
hot exchange, one lookup AlltoAll and one shard update per *group*
instead of per table (``docs/mechanisms.md``, "Table groups").  A group
of one table is the per-table runtime.

Column-only storage, the paper's model parallelism: each rank stores
its own columns of every row, one contiguous ``(rows, dim / world)``
shard, and nothing else of the cold rows.  The forward reads a
full-width **row block** holding exactly the rows the current batch
reads (:class:`~repro.nn.embedding.RowBlock`, installed on each member
table): ``refresh_rows``' lookup AlltoAll fills it for the next batch,
and construction fills the first one from the tables it adopts, so no
extra exchange precedes step 0.  Gradients stay ``SparseRows`` over
global rows, so Algorithm 1, the optimizer and every wire are the
same as for a full replica.

Hybrid placement (:mod:`repro.placement`): a non-uniform placement
marks a *hot set* of rows that are replicated — not sharded — on every
rank, in a small full-width ``(n_hot, dim)`` array with its own Adam
moments.  Hot-row gradients travel on the dense lane
(:func:`~repro.comm.allreduce_hot_rows`, bit-identical to the AlltoAll
sum) and are applied full-dimension by a second
:class:`~repro.optim.EmbraceAdam` on every rank identically, so hot rows
never need refreshing; cold rows keep the sharded path above.  The hot
array is the authority for its rows: their shard entries are settled
from it when the shard is read whole (``own_columns``,
``gather_tables``) and when a row is demoted.
"""

from __future__ import annotations

import numpy as np

from repro.comm import (
    Communicator,
    allreduce_hot_rows,
    alltoall_column_shards,
    alltoall_lookup_results,
    as_topology,
    column_slices,
    narrow_ids,
    two_level_allreduce_hot_rows,
    two_level_alltoall_shards,
    wide_ids,
)
from repro.nn.embedding import Embedding, RowBlock
from repro.nn.parameter import Parameter
from repro.optim import EmbraceAdam
from repro.placement import TablePlacement, as_placement, learn_hot_ids
from repro.schedule.vertical import vertical_split
from repro.tensors import SparseRows, unique_rows
from repro.utils.memory import trim_heap


def join_column_shards(shards: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Per-rank column shards, in rank order -> full-width arrays, for
    every key of the last rank's dict."""
    return {key: np.concatenate([s[key] for s in shards], axis=1) for key in shards[-1]}


class TableGroupRuntime:
    """EmbRace semantics for several same-width tables in one row space.

    Virtual row = table offset + row.  The group stores this rank's
    columns of every member as one contiguous ``(sum of vocab, width)``
    array, ``weight``, and rebinds every member's ``table.weight.data``
    to its row slice, so split, prior / delayed / hot exchange, refresh,
    shard update, state gather and repartition each run once for all
    members.  The member tables look up through the group's row
    :attr:`block` instead.  Offsets keep the tables' rows disjoint and
    every fold on the path (``coalesce``, ``merge_coalesced``,
    ``merge_grouped``, the Adam row update) is per-row, so the result is
    bit-identical to one group per table.  A group of one table whose
    columns are its whole width (world 1) adopts its array as is.

    ``placement`` is anything :func:`repro.placement.as_placement`
    accepts, in the member tables' own row ids.  ``first_rows`` maps
    each member to the rows (its own ids) the first forward reads:
    their full-width values are kept from the adopted tables as the
    first row block, so no lookup exchange precedes the first step.
    """

    def __init__(
        self,
        comm: Communicator,
        tables: dict[str, Embedding],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        placement=None,
        topology=None,
        hierarchical: bool = True,
        first_rows: dict[str, np.ndarray] | None = None,
    ):
        if not tables:
            raise ValueError("a table group needs at least one table")
        if len({(t.embedding_dim, t.weight.data.dtype) for t in tables.values()}) != 1:
            raise ValueError(
                f"tables {sorted(tables)} differ in width or dtype; group "
                "them with TableGroupRuntime.by_width"
            )
        self.comm = comm
        self.tables = dict(tables)
        ends = np.cumsum([t.num_embeddings for t in tables.values()])
        #: ``name -> (first, past-last)`` virtual rows of each member.
        self.bounds = {
            name: (int(hi - t.num_embeddings), int(hi))
            for (name, t), hi in zip(tables.items(), ends)
        }
        self.name = "+".join(tables)
        # Node structure: when a multi-node NodeTopology is
        # in force, the flat wires fold node-grouped (``fold_groups``)
        # so the physically two-level wires — selected by
        # ``hierarchical``, default on — produce bit-identical sums.
        topology = as_topology(topology)
        if topology is None:
            topology = getattr(comm, "topology", None)
        if topology is not None and topology.world_size != comm.world_size:
            raise ValueError(
                f"topology covers {topology.world_size} ranks but the "
                f"communicator has {comm.world_size}"
            )
        self.topology = topology
        multi = topology is not None and topology.multi_node
        self.fold_groups = topology.fold_groups if multi else None
        self.hierarchical = hierarchical and multi
        first = next(iter(tables.values())).weight.data
        self.dim = first.shape[1]
        self.my_columns = column_slices(self.dim, comm.world_size)[comm.rank]
        plan = as_placement(placement)
        hot = []
        for member, (lo, hi) in self.bounds.items():
            ids = plan.for_table(member).hot_array
            if ids.size and ids[-1] >= hi - lo:
                raise ValueError(
                    f"{member}: hot row {ids[-1]} outside its {hi - lo} rows"
                )
            hot.append(ids + lo)
        self.placement = TablePlacement(
            table=self.name, hot_ids=tuple(int(i) for i in np.concatenate(hot))
        )
        self.hot_ids = self.placement.hot_array
        block_ids = (
            self.stack_ids({name: first_rows[name] for name in tables})
            if first_rows is not None
            else np.zeros(0, dtype=np.int64)
        )
        if len(block_ids) > 1 and not np.all(block_ids[1:] > block_ids[:-1]):
            block_ids = unique_rows(block_ids)
        width = self.my_columns.stop - self.my_columns.start
        adopt = len(tables) == 1 and width == self.dim
        shard = first if adopt else np.empty((ends[-1], width), dtype=first.dtype)
        hot_values = np.empty((self.n_hot, self.dim), dtype=first.dtype)
        block_values = np.empty((len(block_ids), self.dim), dtype=first.dtype)
        # One member at a time: each full-width table is dropped as soon
        # as its columns, hot rows and first-block rows are copied out.
        for name, (lo, hi) in self.bounds.items():
            table = self.tables[name]
            if not adopt:
                shard[lo:hi] = table.weight.data[:, self.my_columns]
            for ids, values in ((self.hot_ids, hot_values), (block_ids, block_values)):
                a, b = np.searchsorted(ids, (lo, hi))
                values[a:b] = table.weight.data[ids[a:b] - lo]
            table.weight.data = shard[lo:hi]
        #: This rank's columns of every row — the shard its Adam
        #: moments (``optimizer``) update.  Hot rows' entries are
        #: settled from ``hot`` when read (:meth:`own_columns`).
        self.weight = Parameter(
            shard, name=f"{self.name}.shard{comm.rank}", sparse_grad=True
        )
        self.optimizer = EmbraceAdam([self.weight], lr=lr, betas=betas)
        # Hot lane: the replicated rows, full width, updated in place
        # identically on every rank by their own optimizer (moments
        # allocated on first use, ``(n_hot, dim)`` like the values).
        self.hot = Parameter(hot_values, name=f"{self.name}.hot", sparse_grad=True)
        self.hot_optimizer = EmbraceAdam([self.hot], lr=lr, betas=betas)
        self.block = RowBlock(block_ids, block_values)
        # glibc keeps freed pages resident: hand the dropped full-width
        # tables' pages back, or the rank's RSS would still hold them.
        trim_heap()

    @classmethod
    def by_width(
        cls, comm: Communicator, tables: dict[str, Embedding], **kwargs
    ) -> list["TableGroupRuntime"]:
        """One group per ``(embedding_dim, dtype)`` class of ``tables``,
        in first-appearance order (deterministic, so SPMD-safe)."""
        classes: dict[tuple, dict[str, Embedding]] = {}
        for name, table in tables.items():
            key = (table.embedding_dim, table.weight.data.dtype)
            classes.setdefault(key, {})[name] = table
        return [cls(comm, members, **kwargs) for members in classes.values()]

    @property
    def num_rows(self) -> int:
        """Size of the virtual row space (sum of the members' vocab)."""
        return len(self.weight.data)

    @property
    def block(self) -> RowBlock:
        """The full-width rows the current batch reads, over virtual rows.

        Setting it hands every member table its slice (in the member's
        own row ids) as ``table.block``, which its lookups read."""
        return self._block

    @block.setter
    def block(self, block: RowBlock) -> None:
        self._block = block
        for name, (lo, hi) in self.bounds.items():
            a, b = np.searchsorted(block.ids, (lo, hi))
            self.tables[name].block = RowBlock(block.ids[a:b] - lo, block.values[a:b])

    @property
    def table_bytes(self) -> int:
        """Bytes of table values this rank holds: its column shard, the
        row block and the hot rows (moments not included)."""
        return self.weight.data.nbytes + self._block.values.nbytes + self.hot.data.nbytes

    @property
    def n_hot(self) -> int:
        """Replicated hot rows (0 = uniform column sharding)."""
        return len(self.hot_ids)

    def hot_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask over virtual ``ids``: True where the row is hot."""
        return self.placement.hot_mask(ids)

    def stack_ids(self, ids: dict[str, np.ndarray]) -> np.ndarray:
        """Per-table row ids -> virtual rows, concatenated in table order."""
        return np.concatenate(
            [
                np.asarray(ids[name], dtype=np.int64) + lo
                for name, (lo, _) in self.bounds.items()
            ]
        )

    def stack_grads(self, grads: dict[str, SparseRows]) -> SparseRows:
        """Per-table sparse gradients -> one gradient over the virtual
        rows.  Storage order within a table is kept, so ``coalesce``
        folds each row's duplicates exactly as the per-table call does."""
        parts = [grads[name] for name in self.bounds]
        return SparseRows(
            np.concatenate(
                [g.indices + lo for g, (lo, _) in zip(parts, self.bounds.values())]
            ),
            np.concatenate([g.values for g in parts]),
            self.num_rows,
            coalesced=all(g.coalesced for g in parts),
        )

    # ------------------------------------------------------------------ #
    # The three phases of one iteration's sparse update, separable so the
    # comm engine (:class:`~repro.comm.CommScheduler`) can run the two
    # exchanges as prioritized work items — prior at ``PRIORITY_PRIOR``,
    # delayed trailing into the next step — while ``apply_gradient``
    # below remains the fused synchronous composition.

    def split(
        self,
        grad: SparseRows,
        current_ids: np.ndarray,
        next_ids: np.ndarray | None,
    ) -> tuple[SparseRows, SparseRows]:
        """Algorithm 1's prior/delayed partition of ``grad``.

        ``next_ids`` is the *gathered* next-iteration token set; pass
        ``None`` at end of stream (everything becomes prior).
        """
        if next_ids is None:
            return grad.coalesce(), SparseRows.empty(
                grad.num_rows, grad.dim, dtype=grad.values.dtype
            )
        return vertical_split(grad, current_ids, next_ids)

    def cold_rows(self, all_ids: list[np.ndarray]) -> list[np.ndarray]:
        """Every rank's coalesced cold gradient rows, from the ids each
        rank's batch reads (``all_ids``, in rank order, as gathered).

        A rank's gradient touches exactly the rows its batch reads, so
        its coalesced rows are those ids, sorted unique, less the hot
        set (replicated, so every rank drops the same rows).  Every rank
        already holds every peer's ids from the ids AllGather, so no
        index has to travel beside the values (``docs/mechanisms.md``,
        "Row ids travel once"); the exchange checks the claim.
        """
        out = []
        for ids in all_ids:
            ids = np.asarray(ids, dtype=np.int64)
            # A batch carries each table's ids sorted unique, so stacked
            # ids usually are already; the sort is only for those not.
            u = ids if np.all(ids[1:] > ids[:-1]) else unique_rows(ids)
            out.append(u[~self.hot_mask(u)] if self.n_hot else u)
        return out

    def split_rows(
        self, rows: list[np.ndarray], next_ids: np.ndarray | None
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Algorithm 1's membership test on every rank's ``rows``: the
        row sets of :meth:`split`'s prior and delayed parts on each rank
        (rows in the gathered ``next_ids`` are prior; at end of stream,
        ``None``, every row is).

        One mark per row of the group's space serves every rank's test
        with a gather — over an order of magnitude cheaper than a
        ``searchsorted`` per rank at these sizes."""
        if next_ids is None:
            return rows, [r[:0] for r in rows]
        wanted = np.zeros(self.num_rows, dtype=np.bool_)
        wanted[next_ids] = True
        masks = [wanted[r] for r in rows]
        return (
            [r[m] for r, m in zip(rows, masks)],
            [r[~m] for r, m in zip(rows, masks)],
        )

    def exchange(
        self,
        comm: Communicator,
        part: SparseRows,
        scale: float = 1.0,
        rows: list[np.ndarray] | None = None,
    ) -> SparseRows:
        """AlltoAll one split part into this rank's scaled column shard.

        Takes the communicator explicitly so the same code runs inline
        (``self.comm``) or inside a scheduled work item on the
        communicator it is given; the arithmetic — exchange then scale
        — is identical either way.  ``rows`` (every rank's row ids of
        this part, from :meth:`cold_rows` / :meth:`split_rows`) sends
        the values alone; without it the ids travel beside them.

        Under a multi-node topology the exchange is node-aware: the
        two-level wire (``hierarchical``, the default) coalesces each
        node's rows at its leader before anything crosses the
        inter-node boundary, and the flat wire folds node-grouped
        (``fold_groups``) — the two produce bit-identical shards, so
        the flag only moves bytes.
        """
        if self.hierarchical:
            out = two_level_alltoall_shards(
                comm, part, self.topology, table=self.name, rows=rows
            )
        else:
            out = alltoall_column_shards(
                comm, part, table=self.name, fold_groups=self.fold_groups,
                rows=rows,
            )
        self._credit_tables(comm.obs, part)
        return out.scale(scale)

    def split_hot_cold(self, grad: SparseRows) -> tuple[SparseRows, SparseRows]:
        """Partition a coalesced gradient into (hot, cold) row sets.

        Hot rows ride the replicated dense lane; cold rows continue into
        Algorithm 1's prior/delayed split.  Both halves come back
        coalesced (row partition of an already-coalesced gradient).
        """
        g = grad if grad.coalesced else grad.coalesce()
        if not self.n_hot or not g.nnz_rows:
            return SparseRows.empty(g.num_rows, g.dim, dtype=g.values.dtype), g
        hot_sel = self.placement.hot_mask(g.indices)
        hot = SparseRows(
            g.indices[hot_sel], g.values[hot_sel], g.num_rows, coalesced=True
        )
        cold = SparseRows(
            g.indices[~hot_sel], g.values[~hot_sel], g.num_rows, coalesced=True
        )
        return hot, cold

    def exchange_hot(
        self, comm: Communicator, part: SparseRows, scale: float = 1.0
    ) -> SparseRows:
        """AllReduce the hot part into its full-dimension cross-rank sum.

        Bit-identical to the AlltoAll column-shard sum for the same rows
        (rank-ordered assign-then-add merge; column slicing commutes with
        the per-row arithmetic), so routing a row hot vs cold never
        changes loss bits.  Under a multi-node topology the hot lane is
        node-aware too: two-level (``hierarchical``) or flat with the
        node-grouped fold — bit-identical to each other.
        """
        if self.hierarchical:
            out = two_level_allreduce_hot_rows(
                comm, self.hot_ids, part, self.topology, table=self.name
            )
        else:
            out = allreduce_hot_rows(
                comm, self.hot_ids, part, table=self.name,
                fold_groups=self.fold_groups,
            )
        self._credit_tables(comm.obs, part)
        return out.scale(scale)

    def _credit_tables(self, obs, part: SparseRows) -> None:
        """Move ``wire_bytes.table.<group>`` onto the member tables in
        proportion to the rows each contributed to ``part`` (coalesced,
        hence sorted: one ``searchsorted`` cuts it per table), so
        ``TraceBundle.wire_bytes_by_table`` stays per table."""
        if not obs.enabled or len(self.tables) == 1:
            return
        sent = obs.take(f"wire_bytes.table.{self.name}")
        if not sent:
            return
        edges = [lo for lo, _ in self.bounds.values()] + [self.num_rows]
        rows = np.diff(np.searchsorted(part.indices, edges))
        if not rows.any():  # an empty part still sends masks / headers
            rows = np.ones_like(rows)
        for name, n in zip(self.bounds, rows):
            obs.count(f"wire_bytes.table.{name}", float(sent * n / rows.sum()))

    def apply_part(self, shard_grad: SparseRows, final: bool) -> None:
        """Modified-Adam shard update for one exchanged part.

        ``final=False`` for the prior part (Adam ``step`` not yet
        committed), ``final=True`` for the delayed part — which an
        overlapped trainer applies at the *next* step boundary, a
        reordering that is bit-safe because delayed rows are by
        construction disjoint from the gathered next-batch ids (no
        refresh or forward reads them in between) and the per-row
        optimizer-op sequence is unchanged.
        """
        self.optimizer.apply_sparse_part(self.weight, shard_grad, final=final)

    def apply_hot(self, summed: SparseRows, final: bool = True) -> None:
        """Full-width Adam update of the hot rows for an exchanged hot part.

        Runs identically on every rank (the summed hot gradient is
        replicated), so hot rows never need refreshing.
        """
        slots = np.searchsorted(self.hot_ids, summed.indices)
        self.hot_optimizer.apply_sparse_part(
            self.hot,
            SparseRows(slots, summed.values, self.n_hot, coalesced=summed.coalesced),
            final=final,
        )

    def apply_gradient(
        self,
        grad: SparseRows,
        current_ids: np.ndarray,
        next_ids: np.ndarray | None,
        scale: float = 1.0,
    ) -> tuple[int, int]:
        """One iteration's sparse update (Algorithm 1 + AlltoAll + Adam).

        ``next_ids`` is the *gathered* next-iteration token set (pass
        ``None`` at end of stream: everything becomes prior).  ``scale``
        divides the cross-rank sum (gradient averaging).  Returns the
        (prior, delayed) row counts actually exchanged.
        """
        prior, delayed = self.split(grad, current_ids, next_ids)
        self.apply_part(self.exchange(self.comm, prior, scale), final=False)
        self.apply_part(self.exchange(self.comm, delayed, scale), final=True)
        return prior.nnz_rows, delayed.nnz_rows

    def refresh_rows(
        self, local_ids: np.ndarray, all_ids: list[np.ndarray] | None = None
    ) -> None:
        """Make the rows ``local_ids`` the row :attr:`block`, fresh.

        Performs the forward AlltoAll of §4.1.1: every rank looks up all
        ranks' ids against its own columns; each rank reassembles its
        ids' full-dimension vectors.  ``all_ids`` (optional) is the
        already-gathered per-rank id list — the training loop gathers
        next-batch ids once for Algorithm 1's split and passes them here,
        skipping a second identical AllGather.
        """
        wanted = local_ids = np.asarray(local_ids, dtype=np.int64)
        hot = None
        if self.n_hot:
            # Hot rows are updated identically on every rank and are
            # never stale; dropping them here (deterministically — the
            # hot set is replicated) is the lookup-byte saving.
            hot = self.placement.hot_mask(wanted)
            local_ids = wanted[~hot]
            if all_ids is not None:
                all_ids = [
                    ids[~self.placement.hot_mask(np.asarray(ids, dtype=np.int64))]
                    for ids in all_ids
                ]
        if all_ids is None:
            all_ids = [
                wide_ids(ids)
                for ids in self.comm.allgather(
                    narrow_ids(self.comm, local_ids, self.num_rows)
                )
            ]
        # One copy of exactly this rank's columns, already in rank order.
        shard_lookup = self.weight.data[np.concatenate(all_ids)]
        values = alltoall_lookup_results(
            self.comm, all_ids, shard_lookup, own_count=len(local_ids)
        )
        if hot is not None:
            fresh, values = values, np.empty((len(wanted), self.dim), dtype=values.dtype)
            values[~hot] = fresh
            values[hot] = self.hot.data[np.searchsorted(self.hot_ids, wanted[hot])]
        if len(wanted) > 1 and not np.all(wanted[1:] > wanted[:-1]):
            # The block is sorted unique; duplicates carry equal values.
            wanted, first = np.unique(wanted, return_index=True)
            values = values[first]
        self.block = RowBlock(wanted, values)

    def _gather_columns(self, shard_rows: np.ndarray) -> dict[str, np.ndarray]:
        """Collective: shard-width group rows -> each member's full-width
        rows (every rank's columns side by side).

        One message per member table, not one for the stacked rows: a
        message of N bytes pins a pooled shm segment of up to 2N bytes
        on both ends for the life of the pool (docs/mechanisms.md).
        """
        per_member = [
            self.comm.allgather(np.ascontiguousarray(shard_rows[lo:hi]))
            for lo, hi in self.bounds.values()
        ]
        return join_column_shards([dict(zip(self.bounds, r)) for r in zip(*per_member)])

    def _settle_hot(self) -> None:
        """Write the hot rows' own columns into ``weight``, which then
        holds every row's authoritative columns."""
        if self.n_hot:
            self.weight.data[self.hot_ids] = self.hot.data[:, self.my_columns]

    def own_columns(self) -> dict[str, np.ndarray]:
        """This rank's authoritative columns of every member table, hot
        rows included: row slices of ``weight`` itself, not copies."""
        self._settle_hot()
        return {name: self.weight.data[lo:hi] for name, (lo, hi) in self.bounds.items()}

    def gather_tables(self) -> dict[str, np.ndarray]:
        """Every member's full table (collective; for checkpoints), each
        its own array — nothing the size of the stacked rows is built."""
        self._settle_hot()
        return self._gather_columns(self.weight.data)

    def table_hot_ids(self) -> dict[str, np.ndarray]:
        """The hot set in force, per member table, in its own row ids."""
        out = {}
        for name, (lo, hi) in self.bounds.items():
            a, b = np.searchsorted(self.hot_ids, (lo, hi))
            out[name] = self.hot_ids[a:b] - lo
        return out

    def learn_hot_ids(self, counts: np.ndarray, hot_fraction: float) -> np.ndarray:
        """The next hot set, in virtual rows, from access ``counts`` over
        the virtual rows (identical on every rank that passes identical
        counts).

        Per member table: its ``round(hot_fraction * vocab)`` most
        accessed rows, or as many as it holds now when ``hot_fraction``
        is 0 (:func:`repro.placement.learn_hot_ids` breaks ties).
        """
        new = []
        for name, old in self.table_hot_ids().items():
            lo, hi = self.bounds[name]
            n_hot = len(old)
            if hot_fraction > 0.0:
                n_hot = int(round(hot_fraction * (hi - lo)))
            new.append(learn_hot_ids(counts[lo:hi], n_hot) + lo)
        return np.concatenate(new)

    # ------------------------------------------------------------------ #
    # Placement-invariant optimizer state + live hot-set migration.

    def optimizer_state_full(self) -> tuple[dict[str, np.ndarray], int]:
        """Collective: full-table-layout Adam moments + step counter,
        over the virtual rows.

        Shard moments are column-allgathered; hot rows are overlaid from
        the full-width hot state.  The result is independent of the
        placement in force, so checkpoints restore under any hot set.
        """
        shard_st = self.optimizer.state_for(self.weight)
        full = {
            key: np.concatenate(list(self._gather_columns(shard_st[key]).values()))
            for key in ("exp_avg", "exp_avg_sq")
        }
        step = int(shard_st["step"])
        if self.n_hot:
            hot_st = self.hot_optimizer.state_for(self.hot)
            if int(hot_st["step"]) != step:
                raise RuntimeError(
                    f"{self.name}: hot step {hot_st['step']} != shard step "
                    f"{step}; hot and cold lanes must advance together"
                )
            for key in ("exp_avg", "exp_avg_sq"):
                full[key][self.hot_ids] = hot_st[key]
        return full, step

    def restore_optimizer_state(
        self, exp_avg: np.ndarray, exp_avg_sq: np.ndarray, step: int
    ) -> None:
        """Load full-table-layout moments under the current placement,
        in the shard's dtype (a float64 checkpoint resumes float32)."""
        dtype = self.weight.data.dtype
        shard_st = self.optimizer.state_for(self.weight)
        shard_st["exp_avg"] = np.ascontiguousarray(
            exp_avg[:, self.my_columns], dtype=dtype
        )
        shard_st["exp_avg_sq"] = np.ascontiguousarray(
            exp_avg_sq[:, self.my_columns], dtype=dtype
        )
        shard_st["step"] = int(step)
        if self.n_hot:
            hot_st = self.hot_optimizer.state_for(self.hot)
            for key, full in (("exp_avg", exp_avg), ("exp_avg_sq", exp_avg_sq)):
                hot_st[key][...] = full[self.hot_ids]
            hot_st["step"] = int(step)

    def repartition(self, comm: Communicator, new_hot_ids: np.ndarray) -> None:
        """Collective: migrate to a new hot set, bit-exact mid-training.

        ``new_hot_ids`` are virtual rows.  Must run at a step boundary
        with no delayed parts outstanding and with the same
        ``new_hot_ids`` on every rank.  Demotion writes each demoted
        row's own value and moment columns back into the shard.
        Promotion allgathers each newly hot row's authoritative value
        and moment columns into the full-width hot arrays, which are
        re-laid out to the new hot set; per-row Adam arithmetic
        commutes with column slicing, so training continues with
        unchanged bits.
        """
        new = np.unique(np.asarray(new_hot_ids, dtype=np.int64))
        old = self.hot_ids
        promoted = np.setdiff1d(new, old, assume_unique=True)
        demoted = np.setdiff1d(old, new, assume_unique=True)
        if promoted.size or demoted.size:
            self._settle_hot()  # the demoted rows' values
            shard_st = self.optimizer.state_for(self.weight)
            hot_st = self.hot_optimizer.state_for(self.hot)
            keys = ("exp_avg", "exp_avg_sq")
            if demoted.size:
                slots = np.searchsorted(old, demoted)
                for key in keys:
                    shard_st[key][demoted] = hot_st[key][slots, self.my_columns]
            kept = np.isin(new, old, assume_unique=True)
            slots = np.searchsorted(old, new[kept])
            moved = []
            for arr in (self.hot.data, hot_st["exp_avg"], hot_st["exp_avg_sq"]):
                out = np.empty((len(new), self.dim), dtype=arr.dtype)
                out[kept] = arr[slots]
                moved.append(out)
            if promoted.size:
                # new[~kept] is promoted, in order.
                own = (
                    self.weight.data[promoted],
                    shard_st["exp_avg"][promoted],
                    shard_st["exp_avg_sq"][promoted],
                )
                blocks = comm.allgather(own)
                for i, out in enumerate(moved):
                    out[~kept] = np.concatenate([b[i] for b in blocks], axis=1)
                for key in keys:
                    shard_st[key][promoted] = 0.0
            self.hot.data, hot_st["exp_avg"], hot_st["exp_avg_sq"] = moved
            hot_st["step"] = int(shard_st["step"])
        self.placement = TablePlacement(
            table=self.name, hot_ids=tuple(int(i) for i in new)
        )
        self.hot_ids = self.placement.hot_array
