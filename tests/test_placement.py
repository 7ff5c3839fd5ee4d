"""Skew-aware hybrid placement: the hot/cold split never changes math.

The contract under test: a :class:`~repro.placement.PlacementPlan` moves
hot-row gradients onto the replicated dense lane and hot-row serves onto
the local replica, and at **any** hot fraction — including live
re-partitioning mid-training — losses, optimizer state and served rows
are bit-identical to the uniform column-sharded path.
"""

import numpy as np
import pytest

from repro.comm import SchedKnobs, open_group
from repro.comm.sparse import allreduce_hot_rows, alltoall_column_shards
from repro.engine.trainer_real import RealTrainer
from repro.faults import FaultPlan
from repro.models import GNMT8, build_model
from repro.obs import TraceConfig
from repro.placement import (
    DriftMonitor,
    PlacementPlan,
    TablePlacement,
    as_placement,
    learn_hot_ids,
    uniform_column_sharding,
)
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference
from repro.tensors import SparseRows


def gnmt_tables():
    """{name: vocab} of GNMT8.tiny's embedding tables."""
    model = build_model(GNMT8.tiny(), rng=np.random.default_rng(0))
    return {n: t.num_embeddings for n, t in model.embedding_tables().items()}


class TestLearnHotIds:
    def test_top_rows_sorted_unique(self):
        counts = np.array([5, 0, 9, 9, 1])
        assert learn_hot_ids(counts, 2).tolist() == [2, 3]
        # Ties break toward the lower row id.
        assert learn_hot_ids(counts, 3).tolist() == [0, 2, 3]

    def test_zero_count_rows_never_qualify(self):
        counts = np.array([0, 3, 0])
        assert learn_hot_ids(counts, 10).tolist() == [1]

    def test_non_positive_n_hot_is_empty(self):
        assert learn_hot_ids(np.array([1, 2]), 0).size == 0


class TestTablePlacement:
    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            TablePlacement(table="t", hot_ids=(-1, 2))
        with pytest.raises(ValueError, match="sorted and unique"):
            TablePlacement(table="t", hot_ids=(3, 1))
        with pytest.raises(ValueError, match="sorted and unique"):
            TablePlacement(table="t", hot_ids=(1, 1))

    def test_mask_and_split(self):
        p = TablePlacement(table="t", hot_ids=(1, 4))
        ids = np.array([0, 4, 1, 4, 3])
        assert p.hot_mask(ids).tolist() == [False, True, True, True, False]
        assert not p.is_uniform and p.n_hot == 2
        assert TablePlacement(table="t").is_uniform


class TestPlacementPlan:
    def test_roundtrip_and_lookup(self, tmp_path):
        plan = PlacementPlan.from_hot_ids({"b": [3, 1], "a": [7]})
        assert plan.for_table("b").hot_ids == (1, 3)
        assert plan.for_table("unknown").is_uniform
        assert plan.hot_counts() == {"a": 1, "b": 2}
        path = tmp_path / "plan.json"
        plan.save(str(path))
        again = PlacementPlan.load(str(path))
        assert again == plan
        assert "hybrid placement" in plan.summary()
        assert "uniform" in uniform_column_sharding().summary()

    def test_duplicate_tables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PlacementPlan(
                tables=(TablePlacement(table="t"), TablePlacement(table="t"))
            )

    def test_as_placement_forms(self):
        assert as_placement(None).is_uniform
        plan = PlacementPlan.from_hot_ids({"t": [2]})
        assert as_placement(plan) is plan
        assert as_placement({"t": [5, 2]}).for_table("t").hot_ids == (2, 5)
        single = TablePlacement(table="t", hot_ids=(1,))
        assert as_placement(single).for_table("t") == single
        with pytest.raises(TypeError):
            as_placement(42)

    def test_drift_monitor(self):
        mon = DriftMonitor(hot_fraction=0.5, repartition_interval=3)
        assert not mon.due(0) and not mon.due(2)
        assert mon.due(3) and mon.due(6)
        assert mon.target_n_hot(vocab=10) == 5
        keep = DriftMonitor(repartition_interval=3)
        assert keep.target_n_hot(vocab=10, current_n_hot=4) == 4
        new = mon.learn({"t": np.array([9, 1, 5, 0])}, vocab={"t": 4})
        assert new["t"].tolist() == [0, 2]
        assert mon.repartitions == 1


class TestTraceLearning:
    def _traced_bundle(self):
        cfg = ServeConfig(
            vocab=256, dim=8, world_size=2, zipf_exponent=1.4,
            clients=1, requests_per_client=5, train_steps=4, seed=3,
        )
        with open_group(2, backend="thread", trace=TraceConfig(row_topk=64)) as g:
            report = ShardedEmbeddingService(cfg, group=g).run()
        return report.trace

    def test_row_cdf_and_from_trace(self):
        bundle = self._traced_bundle()
        ids, counts, cov = bundle.row_cdf("embedding")
        assert len(ids) == len(counts) == len(cov) > 0
        assert counts.tolist() == sorted(counts.tolist(), reverse=True)
        assert np.all(np.diff(cov) >= 0) and cov[-1] <= 1.0 + 1e-12
        plan = PlacementPlan.from_trace(bundle, hot_fraction=0.05, vocab=256)
        assert plan.source == "trace"
        table = plan.for_table("embedding")
        assert table.n_hot == round(0.05 * 256)
        # The learned set is the head of the cdf ordering.
        assert set(table.hot_ids) == set(ids[: table.n_hot].tolist())
        missing = bundle.row_cdf("no_such_table")
        assert all(a.size == 0 for a in missing)

    def test_from_trace_validates_fraction(self):
        with pytest.raises(ValueError, match="hot_fraction"):
            PlacementPlan.from_trace(None, hot_fraction=1.5)

    def test_wire_bytes_by_table(self):
        bundle = self._traced_bundle()
        per_table = bundle.wire_bytes_by_table()
        assert per_table.get("embedding", 0.0) > 0.0


def _hot_lane_worker(comm, payload):
    hot_ids, parts = payload
    return allreduce_hot_rows(comm, hot_ids, parts[comm.rank], table="t")


class TestHotLaneBitIdentity:
    """allreduce_hot_rows == the AlltoAll's canonical rank-ordered sum."""

    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_matches_merge_coalesced_reference(self, world):
        vocab, dim = 96, 12
        rng = np.random.default_rng(world)
        hot_ids = np.sort(rng.choice(vocab, size=17, replace=False))
        parts = []
        for _ in range(world):
            ids = rng.choice(hot_ids, size=11, replace=True)
            parts.append(
                SparseRows(ids, rng.normal(size=(len(ids), dim)), vocab).coalesce()
            )
        expected = SparseRows.merge_coalesced(
            [(p.indices, p.values) for p in parts], vocab, dim, dtype=np.float64
        )
        with open_group(world, backend="thread") as g:
            outs = g.run(_hot_lane_worker, (hot_ids, parts))
        for out in outs:
            got = out.coalesce()
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_array_equal(got.values, expected.values)

    def test_rejects_non_hot_rows(self):
        grad = SparseRows(np.array([5]), np.ones((1, 4)), 10)
        with open_group(2, backend="thread") as g:
            with pytest.raises(Exception, match="non-hot"):
                g.run(
                    lambda comm: allreduce_hot_rows(
                        comm, np.array([1, 2]), grad
                    )
                )


def _trainer_placement(fraction):
    """A static plan covering ``fraction`` of each GNMT8.tiny table."""
    return {
        name: np.arange(max(1, round(fraction * vocab)))
        for name, vocab in gnmt_tables().items()
    }


class TestTrainerBitIdentity:
    KW = dict(strategy="embrace", world_size=2, steps=3, seed=5)

    def _assert_same(self, a, b):
        assert a.losses == b.losses
        for key in a.state:
            np.testing.assert_array_equal(a.state[key], b.state[key], err_msg=key)

    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.1, 1.0])
    def test_static_placement_matches_uniform(self, fraction):
        base = RealTrainer(GNMT8.tiny(), **self.KW).train()
        placement = _trainer_placement(fraction) if fraction else None
        placed = RealTrainer(
            GNMT8.tiny(), placement=placement, **self.KW
        ).train()
        self._assert_same(base, placed)

    def test_placement_on_process_backend(self):
        base = RealTrainer(GNMT8.tiny(), **self.KW).train()
        with open_group(2, backend="process") as g:
            placed = RealTrainer(
                GNMT8.tiny(), placement=_trainer_placement(0.1),
                group=g, **self.KW,
            ).train()
        self._assert_same(base, placed)

    def test_placement_under_faults(self):
        plan = FaultPlan(
            seed=3, delay_prob=0.3, delay_s=0.002, drop_prob=0.1,
            reorder_prob=0.2, reorder_s=0.003, recv_deadline=30.0,
        )
        base = RealTrainer(GNMT8.tiny(), overlap=False, **self.KW).train()
        placed = RealTrainer(
            GNMT8.tiny(), placement=_trainer_placement(0.1),
            fault_plan=plan, overlap=True, **self.KW,
        ).train()
        self._assert_same(base, placed)

    def test_live_repartition_matches_uniform(self):
        base = RealTrainer(GNMT8.tiny(), world_size=2, strategy="embrace",
                           steps=6, seed=5).train()
        dynamic = RealTrainer(
            GNMT8.tiny(), world_size=2, strategy="embrace", steps=6, seed=5,
            knobs={"hot_fraction": 0.1, "repartition_interval": 2},
        ).train()
        self._assert_same(base, dynamic)

    def test_crash_recovery_with_placement(self, tmp_path):
        kw = dict(strategy="embrace", world_size=2, steps=6, seed=5,
                  placement=_trainer_placement(0.1),
                  knobs={"hot_fraction": 0.1, "repartition_interval": 2})
        clean = RealTrainer(GNMT8.tiny(), **kw).train()
        out = RealTrainer(
            GNMT8.tiny(),
            fault_plan=FaultPlan(seed=5, crashes={1: 5}, recv_deadline=2.0),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            **kw,
        ).train_resilient()
        assert out.report.attempts == 2
        assert out.result.losses == clean.losses
        for key in clean.state:
            np.testing.assert_array_equal(
                out.result.state[key], clean.state[key], err_msg=key
            )


class TestServePlacement:
    BASE = dict(vocab=512, dim=16, world_size=4, zipf_exponent=1.3,
                clients=2, requests_per_client=10, train_steps=8, seed=7)

    def test_hot_serves_stay_bit_identical(self):
        cfg = ServeConfig(
            **self.BASE,
            placement={"embedding": range(16)},
            record_serve_results=True,
        )
        with open_group(4, backend="thread") as g:
            report = ShardedEmbeddingService(cfg, group=g).run()
        losses, _, snaps = offline_reference(cfg, snapshots=True)
        assert report.torn_batches == 0
        assert report.losses == losses
        hot = set(range(16))
        saw_hot = False
        for table, ids, version, values in report.serve_results:
            np.testing.assert_array_equal(values, snaps[version][table][ids])
            saw_hot |= any(int(i) in hot for i in ids)
        assert saw_hot  # Zipf head: the hot rows really were served

    def test_live_repartition_never_tears(self):
        cfg = ServeConfig(
            **self.BASE,
            placement={"embedding": range(8)},
            hot_fraction=0.05,
            repartition_interval=3,
            record_serve_results=True,
        )
        with open_group(4, backend="thread") as g:
            report = ShardedEmbeddingService(cfg, group=g).run()
        losses, finals, snaps = offline_reference(cfg, snapshots=True)
        assert report.repartitions >= 1
        assert report.torn_batches == 0
        assert report.losses == losses
        for table, ids, version, values in report.serve_results:
            np.testing.assert_array_equal(values, snaps[version][table][ids])
        for name, ref in finals.items():
            np.testing.assert_array_equal(report.final_tables[name], ref)


class TestKnobsAndSearch:
    def test_knobs_roundtrip_with_placement_keys(self):
        k = SchedKnobs(hot_fraction=0.05, repartition_interval=8)
        assert SchedKnobs.from_dict(k.to_dict()) == k

    def test_old_knob_dicts_still_load(self):
        old = SchedKnobs().to_dict()
        del old["hot_fraction"], old["repartition_interval"]
        k = SchedKnobs.from_dict(old)
        assert k.hot_fraction == 0.0 and k.repartition_interval == 0

    def test_search_space_carries_placement_axes(self):
        from repro.tune import SearchSpace

        space = SearchSpace(
            hot_fraction=(0.0, 0.01),
            repartition_interval=(0, 8),
        )
        cands = space.candidates()
        fractions = {c.knobs.hot_fraction for c in cands}
        assert fractions == {0.0, 0.01}
        assert any("hot=0.01" in c.label() for c in cands)

    def test_hot_fraction_prices_into_prediction(self):
        from repro.tune import Candidate, predict_candidate
        from tests.test_tune import make_profile, make_workload

        workload = make_workload()
        table = workload.tables[0]
        import dataclasses

        hot_table = dataclasses.replace(
            table, vocab_rows=4096.0,
            hot_coverage=((0, 0.0), (41, 0.45), (409, 0.8), (4096, 1.0)),
        )
        workload = dataclasses.replace(workload, tables=(hot_table,))
        profile = make_profile()
        base = predict_candidate(
            profile, workload, Candidate(strategy="embrace"), n_steps=3
        )
        hot = predict_candidate(
            profile, workload,
            Candidate(strategy="embrace", knobs=SchedKnobs(hot_fraction=0.01)),
            n_steps=3,
        )
        assert hot.step_time_s != pytest.approx(base.step_time_s, rel=1e-9)
        repart = predict_candidate(
            profile, workload,
            Candidate(strategy="embrace", knobs=SchedKnobs(
                hot_fraction=0.01, repartition_interval=2)),
            n_steps=4,
        )
        assert repart.step_time_s > hot.step_time_s
