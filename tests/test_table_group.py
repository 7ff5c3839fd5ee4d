"""Table groups: one sparse step for all same-width tables.

:class:`~repro.engine.embrace_runtime.TableGroupRuntime` stacks
same-width tables into one virtual row space and runs Algorithm 1, the
exchanges, the refresh and the shard update once per group.  Everything
here asserts the contract that makes that legal: the grouped step is
**bit-identical** — losses, tables, Adam moments — to one group of one
table per table, and never sends more bytes.
"""

import numpy as np
import pytest

from repro.comm import NodeTopology, open_group
from repro.comm.sched import SchedKnobs
from repro.engine.embrace_runtime import TableGroupRuntime
from repro.engine.trainer_real import RealTrainer
from repro.faults import FaultPlan
from repro.models.config import DLRM
from repro.nn.embedding import Embedding
from repro.tensors import SparseRows

STEPS = 4
#: (vocab, dim) of the default case: three same-width tables, one group.
SAME_WIDTH = ((40, 8), (24, 8), (56, 8))


def _sparse_update(rt, comm, grad, current, global_next, inv):
    """One iteration's sparse update on the group ``rt``; returns the
    bytes its hot-lane exchange sent."""
    if not rt.n_hot:
        rt.apply_gradient(grad, current, global_next, scale=inv)
        return 0
    hot, cold = rt.split_hot_cold(grad)
    before = comm.bytes_sent
    summed = rt.exchange_hot(comm, hot, inv)
    hot_sent = comm.bytes_sent - before
    prior, delayed = rt.split(cold, current, global_next)
    rt.apply_part(rt.exchange(comm, prior, inv), final=False)
    rt.apply_hot(summed, final=True)
    rt.apply_part(rt.exchange(comm, delayed, inv), final=True)
    return hot_sent


def _drive(comm, case, grouped):
    """A few synthetic training steps over ``case["tables"]``, per table
    or grouped; returns everything the two must agree on, and the bytes
    sent outside the hot lane.

    The hot lane's owner ranges span the group, not the table, so which
    contributed rows stay on their own rank — and so the lane's bytes —
    move either way with grouping; every other exchange must not grow.
    """
    sizes = case.get("tables", SAME_WIDTH)
    tables = {
        f"t{i}": Embedding(vocab, dim, rng=np.random.default_rng(7 + i), name=f"t{i}")
        for i, (vocab, dim) in enumerate(sizes)
    }
    hot = case.get("hot", {})
    kw = dict(
        lr=0.01,
        topology=case.get("topology"),
        hierarchical=case.get("hierarchical", True),
    )
    if grouped:
        units = TableGroupRuntime.by_width(comm, tables, placement=hot, **kw)
        assert len(units) == len({dim for _, dim in sizes})
    else:
        units = [
            TableGroupRuntime(comm, {name: t}, placement=hot, **kw)
            for name, t in tables.items()
        ]

    # Per-rank id streams; ``idle`` names a table that draws nothing on
    # odd steps (its part of every exchange is empty).
    rng = np.random.default_rng(100 + comm.rank)
    def draws(name, s):
        return 0 if name == case.get("idle") and s % 2 else 12

    raw = [
        {
            name: rng.integers(0, t.num_embeddings, size=draws(name, s))
            for name, t in tables.items()
        }
        for s in range(STEPS)
    ]
    inv = 1.0 / comm.world_size
    sent_before = comm.bytes_sent
    hot_sent = 0
    losses = []
    for s in range(STEPS):
        unique = {name: np.unique(ids) for name, ids in raw[s].items()}
        # Reads the replica rows this step looks up: they must be fresh.
        losses.append(
            sum(float(tables[name].weight.data[ids].sum()) for name, ids in unique.items())
        )
        nxt = (
            {name: np.unique(ids) for name, ids in raw[s + 1].items()}
            if s + 1 < STEPS
            else None  # end of stream: everything is prior, no refresh
        )
        per_rank = comm.allgather(nxt) if nxt is not None else None
        for unit in units:
            grads = {
                name: SparseRows(
                    raw[s][name],
                    np.random.default_rng((s, comm.rank, len(name))).normal(
                        size=(len(raw[s][name]), tables[name].embedding_dim)
                    ),
                    tables[name].num_embeddings,
                )
                for name in unit.tables
            }
            grad = unit.stack_grads(grads)
            all_next = (
                [unit.stack_ids(ids) for ids in per_rank] if per_rank is not None else None
            )
            hot_sent += _sparse_update(
                unit, comm, grad, unit.stack_ids(unique),
                np.concatenate(all_next) if all_next is not None else None, inv,
            )
            if all_next is not None:
                unit.refresh_rows(all_next[comm.rank], all_ids=all_next)
        if s + 1 == case.get("repartition_at"):
            new_hot = case["new_hot"]
            for unit in units:
                unit.repartition(
                    comm,
                    np.concatenate(
                        [np.asarray(new_hot[n]) + unit.bounds[n][0] for n in unit.tables]
                    ),
                )
    sent = comm.bytes_sent - sent_before - hot_sent

    values, moments = {}, {}
    for unit in units:
        full, step = unit.optimizer_state_full()
        values.update(unit.gather_tables())
        hot_now = unit.table_hot_ids()
        for name, (lo, hi) in unit.bounds.items():
            moments[name] = (full["exp_avg"][lo:hi], full["exp_avg_sq"][lo:hi], step)
            np.testing.assert_array_equal(
                hot_now[name],
                np.asarray(case.get("new_hot", hot).get(name, ()), dtype=np.int64),
            )
    return losses, values, moments, sent


def _assert_grouped_equals_per_table(world, case, backend="thread"):
    topology = case.get("topology")
    with open_group(world, backend=backend, topology=topology) as g:
        reference = g.run(_drive, case, False)
        grouped = g.run(_drive, case, True)
    for (ref_l, ref_v, ref_m, _), (got_l, got_v, got_m, _) in zip(reference, grouped):
        assert got_l == ref_l
        assert sorted(got_v) == sorted(ref_v)
        for name in ref_v:
            np.testing.assert_array_equal(got_v[name], ref_v[name], err_msg=name)
            for ref_part, got_part in zip(ref_m[name], got_m[name]):
                np.testing.assert_array_equal(got_part, ref_part, err_msg=name)
    ref_sent = [r[3] for r in reference]
    got_sent = [r[3] for r in grouped]
    assert all(got <= ref for got, ref in zip(got_sent, ref_sent))


class TestGroupedStepBitIdentity:
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5])
    def test_worlds(self, world):
        _assert_grouped_equals_per_table(world, {})

    def test_process_backend(self):
        _assert_grouped_equals_per_table(2, {}, backend="process")

    @pytest.mark.parametrize("hierarchical", [True, False])
    def test_multi_node_topology(self, hierarchical):
        case = {"topology": NodeTopology.symmetric(2, 2), "hierarchical": hierarchical}
        _assert_grouped_equals_per_table(4, case)

    def test_mixed_width_tables_form_two_groups(self):
        case = {"tables": ((40, 8), (24, 6), (56, 8), (32, 6))}
        _assert_grouped_equals_per_table(3, case)

    def test_table_with_an_empty_part(self):
        _assert_grouped_equals_per_table(3, {"idle": "t1"})

    def test_hybrid_placement_with_mid_run_repartition(self):
        case = {
            "hot": {"t0": [1, 5, 9], "t2": [0, 2, 50]},
            "repartition_at": 2,
            # Promotions, demotions, a table gaining and one losing its set.
            "new_hot": {"t0": [5, 11], "t1": [3, 4], "t2": []},
        }
        _assert_grouped_equals_per_table(3, case)


class TestGroupRuntime:
    @staticmethod
    def _tables(sizes=SAME_WIDTH):
        return {
            f"t{i}": Embedding(v, d, rng=np.random.default_rng(i), name=f"t{i}")
            for i, (v, d) in enumerate(sizes)
        }

    def test_members_become_views_of_the_stacked_rows(self):
        tables = self._tables()
        before = {name: t.weight.data.copy() for name, t in tables.items()}

        def fn(comm):
            (group,) = TableGroupRuntime.by_width(comm, tables)
            assert group.num_rows == sum(v for v, _ in SAME_WIDTH)
            for name, (lo, hi) in group.bounds.items():
                data = tables[name].weight.data
                np.testing.assert_array_equal(data, before[name])
                assert np.shares_memory(data, group.weight.data)
                assert hi - lo == len(data)
            ids = group.stack_ids({"t0": [3], "t1": [0, 5], "t2": [7]})
            assert ids.tolist() == [3, 40, 45, 71]
            return True

        with open_group(1, backend="thread") as g:
            assert g.run(fn) == [True]

    def test_group_of_one_adopts_the_table(self):
        tables = self._tables(((16, 4),))
        array = tables["t0"].weight.data

        def fn(comm):
            (group,) = TableGroupRuntime.by_width(comm, tables)
            return group.name == "t0" and group.weight.data is array

        with open_group(1, backend="thread") as g:
            assert g.run(fn) == [True]

    def test_rejects_mixed_widths_and_foreign_hot_rows(self):
        def fn(comm):
            with pytest.raises(ValueError, match="width"):
                TableGroupRuntime(comm, self._tables(((8, 4), (8, 6))))
            with pytest.raises(ValueError, match="outside"):
                TableGroupRuntime(comm, self._tables(), placement={"t1": [24]})
            return True

        with open_group(1, backend="thread") as g:
            assert g.run(fn) == [True]


class TestTrainerOnGroups:
    """RealTrainer on DLRM.tiny(): eight same-width tables, one group."""

    KW = dict(strategy="embrace", world_size=3, steps=5, seed=7)

    @staticmethod
    def _assert_same(a, b):
        assert a.losses == b.losses
        for key in a.state:
            np.testing.assert_array_equal(a.state[key], b.state[key], err_msg=key)

    @pytest.mark.parametrize("min_rows", [8, 10**6])
    def test_delayed_min_rows_folds_on_the_group_count(self, min_rows):
        """8 is above nearly every single table's delayed row count here
        (1-9 a step) and below the group's (22-36): per table it folded
        most exchanges, on the group it folds none; 10**6 always folds.
        The fold is bit-safe, so the new granularity moves no bits."""
        base = RealTrainer(DLRM.tiny(), **self.KW).train()
        folded = RealTrainer(
            DLRM.tiny(), knobs=SchedKnobs(delayed_min_rows=min_rows), **self.KW
        ).train()
        self._assert_same(base, folded)

    def test_live_repartition_matches_uniform_sharding(self):
        base = RealTrainer(DLRM.tiny(), **self.KW).train()
        hybrid = RealTrainer(
            DLRM.tiny(),
            placement={f"cat_{i}": np.arange(3) for i in range(4)},
            knobs=SchedKnobs(repartition_interval=2, hot_fraction=0.05),
            **self.KW,
        ).train()
        self._assert_same(base, hybrid)

    def test_wire_bytes_stay_attributed_per_table(self):
        with open_group(2, backend="thread", trace=True) as g:
            result = RealTrainer(
                DLRM.tiny(), strategy="embrace", world_size=2, steps=3, seed=1,
                group=g,
            ).train()
        per_table = result.trace.wire_bytes_by_table()
        assert sorted(per_table) == sorted(f"cat_{i}" for i in range(8))
        assert all(sent > 0 for sent in per_table.values())
        # Re-credited, not double-counted: the tables' shares add up to
        # what the group's exchanges put on the sparse lane.
        lane = result.trace.total_counters()["wire_bytes.alltoall_sparse"]
        assert sum(per_table.values()) == pytest.approx(lane)

    def test_checkpoint_resume_is_bit_exact(self, tmp_path):
        kw = dict(self.KW, world_size=2, steps=6)
        expected = RealTrainer(DLRM.tiny(), **kw).train()
        out = RealTrainer(
            DLRM.tiny(),
            fault_plan=FaultPlan(seed=5, crashes={1: 5}, recv_deadline=5.0),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            **kw,
        ).train_resilient()
        assert out.report.crash_events == [(1, 5)]
        assert out.report.restore_steps == [4]
        self._assert_same(expected, out.result)


def _comm_lane_collectives_per_step(config, steps=6):
    with open_group(2, backend="thread", trace=True) as g:
        result = RealTrainer(
            config, strategy="embrace", world_size=2, steps=steps, seed=1, group=g
        ).train()
    return len(result.trace.trace.by_resource("comm:0")) / steps


class TestCollectiveCount:
    """Counts repeat exactly (they are a function of the step's
    structure, not of timing), so these bounds cannot flake."""

    def test_dlrm_smoke_step_issues_at_most_eight_collectives(self):
        from dataclasses import replace

        config = replace(
            DLRM.scaled(vocab=2000, dim_divisor=4), batch_size_rtx3090=32
        )
        # 28.3 with one prior/delayed/lookup exchange per table.
        assert _comm_lane_collectives_per_step(config) <= 8

    def test_gnmt_smoke_step_issues_no_more_than_per_table(self):
        from dataclasses import replace

        from repro.models import GNMT8

        config = replace(
            GNMT8.scaled(vocab=512, dim_divisor=32), batch_size_rtx3090=8
        )
        # 9.33 with per-table exchanges (two tables); one group now.
        assert _comm_lane_collectives_per_step(config) <= 9.34
