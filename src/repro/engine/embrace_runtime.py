"""Reusable EmbRace runtime for a group of same-width embedding tables.

:class:`TableGroupRuntime` encapsulates the full lifecycle of
column-partitioned embedding tables under EmbRace semantics, so any
training or serving loop — :class:`~repro.engine.trainer_real.RealTrainer`
and :class:`~repro.serve.ShardedEmbeddingService` both run on it — can
adopt it:

* ``apply_gradient`` — Algorithm 1 split, the two AlltoAll column-shard
  exchanges, and the modified-Adam shard updates;
* ``refresh_rows`` — the forward lookup-result AlltoAll that rewrites
  the local replica's rows for the upcoming batch;
* ``gather_tables`` — reassemble every member's authoritative table from
  all ranks' column shards (checkpointing / evaluation).

The group stacks its tables into **one virtual row space** (row = table
offset + row), so an iteration costs one split, one prior / delayed /
hot exchange, one lookup AlltoAll and one shard update per *group*
instead of per table (``docs/mechanisms.md``, "Table groups").  A group
of one table is the per-table runtime.

The local replica trick: each rank holds the full ``(vocab, dim)``
array but only its column slice is authoritative; ``refresh_rows``
makes exactly the rows the next forward reads fresh, which is
numerically identical to true model parallelism while letting the
unmodified model code look up locally.

Hybrid placement (:mod:`repro.placement`): a non-uniform placement
marks a *hot set* of rows that are replicated — not sharded — on every
rank.  Hot-row gradients travel on the dense lane
(:func:`~repro.comm.allreduce_hot_rows`, bit-identical to the AlltoAll
sum) and are applied full-dimension to the replica by a second
:class:`~repro.optim.EmbraceAdam` on every rank identically, so hot rows
never need refreshing; cold rows keep the sharded path above.  Because
the shard is a *view* of the replica's columns, hot updates are visible
through it automatically and a hot→cold demotion migrates only optimizer
moments, never values.
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
    two_level_allreduce_hot_rows,
    two_level_alltoall_shards,
)
from repro.nn.embedding import Embedding
from repro.nn.parameter import Parameter
from repro.optim import EmbraceAdam
from repro.placement import TablePlacement, as_placement, learn_hot_ids
from repro.schedule.vertical import vertical_split
from repro.tensors import SparseRows


class TableGroupRuntime:
    """EmbRace semantics for several same-width tables in one row space.

    The group owns one stacked ``(sum of vocab, dim)`` array, ``weight``
    — virtual row = table offset + row — and rebinds every member's
    ``table.weight.data`` to its row-slice view, so the unmodified model
    keeps looking up locally while split, prior / delayed / hot
    exchange, refresh, shard update, state gather and repartition each
    run once for all members.  Offsets keep the tables' rows disjoint
    and every fold on the path (``coalesce``, ``merge_coalesced``,
    ``merge_grouped``, the Adam row update) is per-row, so the result is
    bit-identical to one group per table.  A group of one table adopts
    its array as is.

    ``placement`` is anything :func:`repro.placement.as_placement`
    accepts, in the member tables' own row ids.
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
    ):
        if not tables:
            raise ValueError("a table group needs at least one table")
        weights = [t.weight.data for t in tables.values()]
        if len({(w.shape[1], w.dtype) for w in weights}) != 1:
            raise ValueError(
                f"tables {sorted(tables)} differ in width or dtype; group "
                "them with TableGroupRuntime.by_width"
            )
        self.comm = comm
        self.tables = dict(tables)
        ends = np.cumsum([len(w) for w in weights])
        #: ``name -> (first, past-last)`` virtual rows of each member.
        self.bounds = {
            name: (int(hi - len(w)), int(hi))
            for name, w, hi in zip(tables, weights, ends)
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
        self.weight = Parameter(
            weights[0] if len(weights) == 1 else np.concatenate(weights),
            name=f"{self.name}.weight",
            sparse_grad=True,
        )
        plan = as_placement(placement)
        hot = []
        for member, table in tables.items():
            lo, hi = self.bounds[member]
            table.weight.data = self.weight.data[lo:hi]
            ids = plan.for_table(member).hot_array
            if ids.size and ids[-1] >= hi - lo:
                raise ValueError(
                    f"{member}: hot row {ids[-1]} outside its {hi - lo} rows"
                )
            hot.append(ids + lo)
        cols = column_slices(self.weight.data.shape[1], comm.world_size)
        self.my_columns = cols[comm.rank]
        # A writable view of this rank's authoritative columns.
        self.shard = Parameter(
            self.weight.data[:, self.my_columns],
            name=f"{self.weight.name}.shard{comm.rank}",
            sparse_grad=True,
        )
        self.optimizer = EmbraceAdam([self.shard], lr=lr, betas=betas)
        # Hot lane: the replicated rows update the *full replica* in
        # place, identically on every rank.  ``Parameter`` keeps a
        # floating array by reference, so ``hot_param.data`` *is*
        # ``weight.data`` and the shard view observes hot updates
        # automatically.  Moment state is allocated lazily on first use.
        self.placement = TablePlacement(
            table=self.name, hot_ids=tuple(int(i) for i in np.concatenate(hot))
        )
        self.hot_ids = self.placement.hot_array
        self.hot_param = Parameter(
            self.weight.data,
            name=f"{self.weight.name}.hot",
            sparse_grad=True,
        )
        self.hot_optimizer = EmbraceAdam([self.hot_param], lr=lr, betas=betas)

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
    # The three phases of one iteration's sparse update, separable so an
    # async engine (:class:`~repro.comm.CommScheduler`) can run the two
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

    def exchange(
        self,
        comm: Communicator,
        part: SparseRows,
        scale: float = 1.0,
    ) -> SparseRows:
        """AlltoAll one split part into this rank's scaled column shard.

        Takes the communicator explicitly so the same code runs inline
        (``self.comm``) or inside a scheduled work item on its channel
        communicator; the arithmetic — exchange then scale — is
        identical either way.

        Under a multi-node topology the exchange is node-aware: the
        two-level wire (``hierarchical``, the default) coalesces each
        node's rows at its leader before anything crosses the
        inter-node boundary, and the flat wire folds node-grouped
        (``fold_groups``) — the two produce bit-identical shards, so
        the flag only moves bytes.
        """
        if self.hierarchical:
            out = two_level_alltoall_shards(
                comm, part, self.topology, table=self.name
            )
        else:
            out = alltoall_column_shards(
                comm, part, table=self.name, fold_groups=self.fold_groups
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
        self.optimizer.apply_sparse_part(self.shard, shard_grad, final=final)

    def apply_hot(self, summed: SparseRows, final: bool = True) -> None:
        """Replica-side Adam update for an exchanged hot part.

        Runs identically on every rank (the summed hot gradient is
        replicated), writing through ``hot_param`` into the shared
        ``weight.data`` — the shard view sees the new values, so no
        refresh is ever needed for hot rows.
        """
        self.hot_optimizer.apply_sparse_part(self.hot_param, summed, final=final)

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
        """Rewrite the replica's ``local_ids`` rows with fresh values.

        Performs the forward AlltoAll of §4.1.1: every rank looks up all
        ranks' ids against its own columns; each rank reassembles its
        ids' full-dimension vectors.  ``all_ids`` (optional) is the
        already-gathered per-rank id list — the training loop gathers
        next-batch ids once for Algorithm 1's split and passes them here,
        skipping a second identical AllGather.
        """
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if self.n_hot:
            # Hot rows are updated identically on every replica and are
            # never stale; dropping them here (deterministically — the
            # hot set is replicated) is the lookup-byte saving.
            local_ids = local_ids[~self.placement.hot_mask(local_ids)]
            if all_ids is not None:
                all_ids = [
                    ids[~self.placement.hot_mask(np.asarray(ids, dtype=np.int64))]
                    for ids in all_ids
                ]
        if all_ids is None:
            all_ids = self.comm.allgather(local_ids)
        # Gathered from the shard view: one copy of exactly this rank's
        # columns, already in rank order.
        shard_lookup = self.shard.data[np.concatenate(all_ids)]
        fresh = alltoall_lookup_results(
            self.comm, all_ids, shard_lookup, own_count=len(local_ids)
        )
        self.weight.data[local_ids] = fresh

    def _gather_columns(self, shard_rows: np.ndarray) -> dict[str, np.ndarray]:
        """Collective: shard-width group rows -> each member's full-width
        rows (every rank's columns side by side).

        One message per member table, not one for the stacked rows: a
        message of N bytes pins a pooled shm segment of up to 2N bytes
        on both ends for the life of the pool (docs/mechanisms.md).
        """
        return {
            name: np.concatenate(
                self.comm.allgather(np.ascontiguousarray(shard_rows[lo:hi])),
                axis=1,
            )
            for name, (lo, hi) in self.bounds.items()
        }

    def gather_tables(self) -> dict[str, np.ndarray]:
        """Every member's authoritative full table (collective), each
        its own array — nothing the size of the stacked rows is built.

        Needs no hot-lane special case: hot updates write through the
        replica into this rank's shard columns, so the column allgather
        reassembles hot rows correctly too.
        """
        return self._gather_columns(self.shard.data)

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
        the replica-local hot state.  The result is independent of the
        placement in force, so checkpoints restore under any hot set.
        """
        shard_st = self.optimizer.state_for(self.shard)
        full = {
            key: np.concatenate(list(self._gather_columns(shard_st[key]).values()))
            for key in ("exp_avg", "exp_avg_sq")
        }
        step = int(shard_st["step"])
        if self.n_hot:
            hot_st = self.hot_optimizer.state_for(self.hot_param)
            if int(hot_st["step"]) != step:
                raise RuntimeError(
                    f"{self.name}: hot step {hot_st['step']} != shard step "
                    f"{step}; hot and cold lanes must advance together"
                )
            for key in ("exp_avg", "exp_avg_sq"):
                full[key][self.hot_ids] = hot_st[key][self.hot_ids]
        return full, step

    def restore_optimizer_state(
        self, exp_avg: np.ndarray, exp_avg_sq: np.ndarray, step: int
    ) -> None:
        """Load full-table-layout moments under the current placement,
        in the shard's dtype (a float64 checkpoint resumes float32)."""
        dtype = self.shard.data.dtype
        shard_st = self.optimizer.state_for(self.shard)
        shard_st["exp_avg"] = np.ascontiguousarray(
            exp_avg[:, self.my_columns], dtype=dtype
        )
        shard_st["exp_avg_sq"] = np.ascontiguousarray(
            exp_avg_sq[:, self.my_columns], dtype=dtype
        )
        shard_st["step"] = int(step)
        if self.n_hot:
            hot_st = self.hot_optimizer.state_for(self.hot_param)
            for key, full in (("exp_avg", exp_avg), ("exp_avg_sq", exp_avg_sq)):
                hot_st[key][...] = 0.0
                hot_st[key][self.hot_ids] = full[self.hot_ids]
            hot_st["step"] = int(step)

    def repartition(self, comm: Communicator, new_hot_ids: np.ndarray) -> None:
        """Collective: migrate to a new hot set, bit-exact mid-training.

        ``new_hot_ids`` are virtual rows.  Must run at a step boundary
        with no delayed parts outstanding and with the same
        ``new_hot_ids`` on every rank.  Demotion moves moment columns
        back into the shard state (values need no move — the shard is a
        view of the replica, which is already fresh on the owner).
        Promotion allgathers each newly hot row's authoritative value
        and moment columns into the replica and the full-dimension hot
        state; per-row Adam arithmetic commutes with column slicing, so
        training continues with unchanged bits.
        """
        new = np.unique(np.asarray(new_hot_ids, dtype=np.int64))
        old = self.hot_ids
        promoted = np.setdiff1d(new, old, assume_unique=True)
        demoted = np.setdiff1d(old, new, assume_unique=True)
        if promoted.size or demoted.size:
            shard_st = self.optimizer.state_for(self.shard)
            hot_st = self.hot_optimizer.state_for(self.hot_param)
            weight = self.weight.data
            if demoted.size:
                for key in ("exp_avg", "exp_avg_sq"):
                    shard_st[key][demoted] = hot_st[key][demoted][
                        :, self.my_columns
                    ]
                    hot_st[key][demoted] = 0.0
            if promoted.size:
                # Weight is the full-width replica (slice this rank's
                # columns); the shard moments are already shard-width.
                own = (
                    np.ascontiguousarray(weight[promoted][:, self.my_columns]),
                    np.ascontiguousarray(shard_st["exp_avg"][promoted]),
                    np.ascontiguousarray(shard_st["exp_avg_sq"][promoted]),
                )
                blocks = comm.allgather(own)
                weight[promoted] = np.concatenate([b[0] for b in blocks], axis=1)
                hot_st["exp_avg"][promoted] = np.concatenate(
                    [b[1] for b in blocks], axis=1
                )
                hot_st["exp_avg_sq"][promoted] = np.concatenate(
                    [b[2] for b in blocks], axis=1
                )
                for key in ("exp_avg", "exp_avg_sq"):
                    shard_st[key][promoted] = 0.0
            hot_st["step"] = int(shard_st["step"])
        self.placement = TablePlacement(
            table=self.name, hot_ids=tuple(int(i) for i in new)
        )
        self.hot_ids = self.placement.hot_array
