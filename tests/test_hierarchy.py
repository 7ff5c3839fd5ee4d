"""Two-level collectives, topology plumbing, and hybrid scaling.

Bit-identity of the hierarchical wires against their flat references —
including non-power-of-2 and asymmetric node shapes — plus fault
injection scoped to the inter-node level, the per-level alpha-beta
probe/profile, and the hybrid-mode replay ladder.
"""

import dataclasses

import numpy as np
import pytest

from repro.comm import (
    NodeTopology,
    SchedKnobs,
    as_topology,
    node_comms,
    open_group,
    two_level_allreduce,
    two_level_allreduce_hot_rows,
    two_level_alltoall_shards,
)
from repro.comm.sparse import allreduce_hot_rows, alltoall_column_shards
from repro.tensors import SparseRows

TOPOLOGIES = [
    pytest.param(NodeTopology.symmetric(2, 2), id="2x2"),
    pytest.param(NodeTopology.of_sizes((3, 3)), id="3x3-nonpow2"),
    pytest.param(NodeTopology.of_sizes((3, 2)), id="3+2-asymmetric"),
]


def _rank_grad(rank: int, num_rows: int = 23, dim: int = 10) -> SparseRows:
    rng = np.random.default_rng(100 + rank)
    n = int(rng.integers(3, 9))
    ids = rng.choice(num_rows, size=n, replace=False)
    return SparseRows(
        np.sort(ids), rng.standard_normal((n, dim)).astype(np.float32), num_rows
    )


class TestTwoLevelBitIdentity:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_dense_allreduce_matches_flat(self, topology):
        world = topology.world_size

        def worker(comm):
            rng = np.random.default_rng(comm.rank)
            x = rng.standard_normal(37).astype(np.float32)
            flat = comm.allreduce(x)
            hier = two_level_allreduce(comm, x, topology)
            return np.array_equal(flat, hier)

        with open_group(world, backend="thread") as g:
            assert all(g.run(worker))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_dense_allreduce_out_buffer(self, topology):
        def worker(comm):
            x = np.full(11, float(comm.rank + 1), dtype=np.float64)
            out = np.empty_like(x)
            res = two_level_allreduce(comm, x, topology, out=out)
            return res is out and np.array_equal(out, comm.allreduce(x))

        with open_group(topology.world_size, backend="thread") as g:
            assert all(g.run(worker))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_alltoall_shards_matches_grouped_flat(self, topology):
        """The node-coalesced AlltoAll executes the same nested fold as
        the flat collective with ``fold_groups=node_sizes`` — exactly."""
        world = topology.world_size

        def worker(comm):
            grad = _rank_grad(comm.rank)
            ref = alltoall_column_shards(
                comm, grad, fold_groups=topology.node_sizes
            )
            got = two_level_alltoall_shards(comm, grad, topology)
            return (
                np.array_equal(ref.indices, got.indices)
                and np.array_equal(ref.values, got.values)
            )

        with open_group(world, backend="thread") as g:
            assert all(g.run(worker))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_hot_rows_matches_grouped_flat(self, topology):
        hot = np.array([1, 4, 7, 9, 15], dtype=np.int64)

        def worker(comm):
            # The hot lane only carries rows from the hot set.
            rng = np.random.default_rng(100 + comm.rank)
            ids = np.sort(rng.choice(hot, size=3, replace=False))
            grad = SparseRows(
                ids, rng.standard_normal((3, 10)).astype(np.float32), 23
            )
            ref = allreduce_hot_rows(
                comm, hot, grad, fold_groups=topology.node_sizes
            )
            got = two_level_allreduce_hot_rows(comm, hot, grad, topology)
            return (
                np.array_equal(ref.indices, got.indices)
                and np.array_equal(ref.values, got.values)
            )

        with open_group(topology.world_size, backend="thread") as g:
            assert all(g.run(worker))

    def test_single_node_topology_falls_back_to_flat(self):
        topo = NodeTopology.of_sizes((3,))

        def worker(comm):
            x = np.full(9, float(comm.rank), dtype=np.float32)
            return np.array_equal(
                two_level_allreduce(comm, x, topo), comm.allreduce(x)
            )

        with open_group(3, backend="thread") as g:
            assert all(g.run(worker))

    def test_world_mismatch_rejected(self):
        topo = NodeTopology.symmetric(2, 2)

        def worker(comm):
            try:
                two_level_allreduce(comm, np.zeros(4, np.float32), topo)
            except ValueError:
                return True
            return False

        with open_group(2, backend="thread") as g:
            assert all(g.run(worker))


class TestTrainerBitIdentity:
    """Real training over asymmetric / non-power-of-2 topologies: the
    two-level wires must reproduce the flat loss curve bit for bit."""

    @pytest.mark.parametrize(
        "sizes", [(3, 2), (3, 3)], ids=["3+2", "3x3"]
    )
    def test_hier_vs_flat_losses(self, sizes):
        from repro.engine.run import RunConfig, run
        from repro.models.config import GNMT8

        topo = NodeTopology.of_sizes(sizes)
        base = RunConfig(
            model=GNMT8.tiny(),
            mode="real",
            world_size=topo.world_size,
            steps=2,
            backend="thread",
            topology=topo,
            trace=True,
        )
        losses, wires = {}, {}
        for name, hier in (("hier", True), ("flat", False)):
            knobs = SchedKnobs(hierarchical=hier)
            raw = run(dataclasses.replace(base, knobs=knobs)).raw
            losses[name] = raw.losses
            wires[name] = {
                e.name for e in raw.trace.trace.entries if "two_level" in e.name
            }
        assert losses["hier"] == losses["flat"]
        # The one switch moves the dense and sparse lanes together.
        assert wires == {
            "hier": {"two_level_allreduce", "two_level_alltoall_shards"},
            "flat": set(),
        }


class TestInterLevelFaults:
    """FaultPlan injection scoped to the inter-node level only: drops on
    the leader ring retry to completion while intra-node traffic stays
    untouched, and every collective still lands bit-exact."""

    def _faulty_nc(self, comm, topology, stats_out):
        from repro.faults import FaultPlan
        from repro.faults.inject import FaultyCommunicator

        plan = FaultPlan(seed=7, drop_prob=0.3)

        def wrap(inter):
            faulty = FaultyCommunicator(inter, plan)
            stats_out[comm.rank] = faulty.stats
            return faulty

        return node_comms(comm, topology, inter_wrap=wrap)

    def test_dense_exact_under_inter_drops(self):
        topology = NodeTopology.symmetric(2, 2)
        stats: dict[int, object] = {}

        def worker(comm):
            nc = self._faulty_nc(comm, topology, stats)
            results = []
            for trial in range(4):
                x = np.full(31, float(comm.rank + trial + 1), np.float32)
                hier = two_level_allreduce(comm, x, topology, comms=nc)
                results.append(np.array_equal(hier, comm.allreduce(x)))
            return all(results)

        with open_group(4, backend="thread") as g:
            assert all(g.run(worker))
        assert set(stats) == {0, 2}  # leaders only carry the faulty wire
        assert sum(s.retransmits for s in stats.values()) > 0
        assert all(s.lost == 0 for s in stats.values())

    def test_sparse_exact_under_inter_drops(self):
        topology = NodeTopology.of_sizes((3, 2))
        stats: dict[int, object] = {}

        def worker(comm):
            nc = self._faulty_nc(comm, topology, stats)
            grad = _rank_grad(comm.rank)
            ref = alltoall_column_shards(
                comm, grad, fold_groups=topology.node_sizes
            )
            got = two_level_alltoall_shards(comm, grad, topology, comms=nc)
            return (
                np.array_equal(ref.indices, got.indices)
                and np.array_equal(ref.values, got.values)
            )

        with open_group(5, backend="thread") as g:
            assert all(g.run(worker))
        assert set(stats) == {0, 3}


class TestProbeAndProfile:
    def test_probe_two_level_fits_both_links(self):
        from repro.tune import TunedProfile, probe_two_level

        topo = NodeTopology.symmetric(2, 2)
        profile = probe_two_level(
            topo, sizes_bytes=(4_096, 65_536, 262_144), iters=3
        )
        assert profile.two_level
        assert set(profile.links) == {"intra", "inter"}
        assert profile.links["intra"].world_size == 2
        assert profile.links["inter"].world_size == 2
        for link in profile.links.values():
            assert link.bandwidth_Bps > 0 and link.latency_s >= 0
        # JSON round trip preserves the two-level structure.
        clone = TunedProfile.from_json(profile.to_json())
        assert clone.two_level
        assert clone.meta["gpus_per_node"] == 2
        assert clone.links["inter"].bandwidth_Bps == pytest.approx(
            profile.links["inter"].bandwidth_Bps
        )

    def test_profile_to_cluster_grows_by_nodes(self):
        from repro.tune import probe_two_level

        topo = NodeTopology.symmetric(2, 2)
        profile = probe_two_level(
            topo, sizes_bytes=(4_096, 65_536, 262_144), iters=3
        )
        base = profile.to_cluster()
        assert (base.num_nodes, base.gpus_per_node) == (2, 2)
        grown = profile.to_cluster(world_size=1024)
        assert grown.num_nodes == 512
        assert grown.gpus_per_node == 2
        assert grown.inter_bw == pytest.approx(base.inter_bw)
        cost = profile.cost_model(world_size=64)
        assert cost.cluster.world_size == 64
        assert cost.cluster.multi_node

    def test_probe_rejects_flat_topology(self):
        from repro.tune import probe_two_level

        with pytest.raises(ValueError):
            probe_two_level(NodeTopology.of_sizes((4,)))

    def test_hierarchical_pricing_shrinks_inter_bytes(self):
        from repro.cluster import rtx3090_cluster
        from repro.collectives.cost import CostModel

        cost = CostModel(rtx3090_cluster(num_nodes=4, gpus_per_node=4))
        nbytes = 1 << 20
        # Dense: (2m-1)*n hierarchical vs m*2(N-1)/N*n flat.
        assert cost.inter_bytes_allreduce(nbytes, True) < (
            cost.inter_bytes_allreduce(nbytes, False)
        )
        # Sparse: dedup scales the crossing payload.
        flat = cost.inter_bytes_alltoall(nbytes, False)
        assert cost.inter_bytes_alltoall(nbytes, True, 0.5) == pytest.approx(
            0.5 * flat
        )
        assert cost.inter_bytes_allgather(nbytes, True, 0.5) < (
            cost.inter_bytes_allgather(nbytes, False)
        )
        # Hierarchical collective costs are positive and finite.
        for c in (
            cost.hierarchical_allreduce(nbytes),
            cost.hierarchical_alltoall(nbytes, node_dedup=0.5),
        ):
            assert 0 < c.seconds < float("inf")
        with pytest.raises(ValueError):
            cost.hierarchical_alltoall(nbytes, node_dedup=0.0)

    def test_single_node_cost_falls_back_to_flat(self):
        from repro.cluster import rtx3090_cluster
        from repro.collectives.cost import CostModel

        cost = CostModel(rtx3090_cluster(num_nodes=1, gpus_per_node=4))
        nbytes = 1 << 16
        assert cost.hierarchical_allreduce(nbytes).seconds == pytest.approx(
            cost.allreduce(nbytes).seconds
        )
        assert cost.inter_bytes_allreduce(nbytes, True) == 0.0


class TestHybridMode:
    def test_sim_world_ladder(self):
        from repro.engine.hybrid import DEFAULT_SIM_WORLDS, sim_world_ladder

        assert sim_world_ladder(None) == DEFAULT_SIM_WORLDS
        assert sim_world_ladder(256) == (64, 128, 256)
        assert sim_world_ladder(16) == (16,)
        assert sim_world_ladder([32, 96]) == (32, 96)
        with pytest.raises(ValueError):
            sim_world_ladder(1)
        with pytest.raises(ValueError):
            sim_world_ladder([])

    def test_measure_node_dedup_bounds(self):
        from repro.engine.workload import measure_node_dedup
        from repro.models.config import GNMT8

        topo = NodeTopology.symmetric(2, 2)
        d = measure_node_dedup(GNMT8.tiny(), topo, n_steps=3)
        assert 0.5 <= d <= 1.0  # union >= max member, sum <= 2*max
        # Single-rank nodes cannot dedup anything.
        flat = measure_node_dedup(
            GNMT8.tiny(), NodeTopology.of_sizes((1, 1, 1, 1)), n_steps=3
        )
        assert flat == pytest.approx(1.0)

    def test_search_space_hier_axis(self):
        from repro.tune import SearchSpace

        space = SearchSpace(
            chunk_elems=(16_384,),
            max_chunks=(4,),
            bucket_elems=(65_536,),
            hier=(True, False),
        )
        cands = list(space.candidates())
        assert len(cands) == 2
        assert {c.knobs.hierarchical for c in cands} == {True, False}
        assert SearchSpace().hier == (True,)
        labels = {c.knobs.hierarchical: c.label() for c in cands}
        assert "flat" in labels[False] and "flat" not in labels[True]

    def test_workload_scaled_to(self):
        from repro.tune import MeasuredWorkload, TableLoad

        w = MeasuredWorkload(
            world_size=4,
            fwd_bwd_s=0.01,
            optimizer_s=0.001,
            dense_param_sizes=((0.0, 1000),),
            tables=(
                TableLoad(
                    name="t",
                    prior_bytes=100.0,
                    delayed_bytes=50.0,
                    coalesced_bytes=150.0,
                    dense_bytes=1000.0,
                    delayed_rows=10.0,
                    ids_bytes=80.0,
                    lookup_bytes=400.0,
                    vocab_rows=64.0,
                ),
            ),
            measured_step_s=0.02,
            measured_stall_frac=0.1,
        )
        scaled = w.scaled_to(16)
        assert scaled.world_size == 16
        # Lookups fan in from every rank; per-rank payloads are weak-scaled.
        assert scaled.tables[0].lookup_bytes == pytest.approx(1600.0)
        assert scaled.tables[0].prior_bytes == pytest.approx(100.0)
        assert w.scaled_to(4) is w

    def test_run_hybrid_smoke(self):
        from repro.engine.hybrid import run_hybrid
        from repro.engine.run import RunConfig
        from repro.models.config import GNMT8
        from repro.tune import SMOKE_SIZES_BYTES

        res = run_hybrid(
            RunConfig(
                model=GNMT8.tiny(),
                mode="hybrid",
                world_size=4,
                steps=2,
                backend="thread",
                sim_world=(8, 16),
            ),
            probe_sizes_bytes=SMOKE_SIZES_BYTES,
            probe_iters=3,
        )
        assert res.mode == "hybrid"
        m = res.metrics
        assert m["losses_identical"] == 1.0
        assert 0.0 < m["node_dedup"] <= 1.0
        assert 0.0 < m["profile_exchange_ratio"] <= 1.0
        report = res.raw
        assert report.profile.two_level
        assert [p.world_size for p in report.curve] == [8, 16]
        assert all(p.num_nodes == p.world_size // 2 for p in report.curve)
        assert res.trace is not None  # twins run traced

    def test_run_hybrid_rejects_bad_shapes(self):
        from repro.engine.hybrid import run_hybrid
        from repro.engine.run import RunConfig
        from repro.models.config import GNMT8

        with pytest.raises(ValueError, match="mode"):
            run_hybrid(RunConfig(model=GNMT8.tiny(), mode="real"))
        with pytest.raises(ValueError, match="even world_size"):
            run_hybrid(
                RunConfig(model=GNMT8.tiny(), mode="hybrid", world_size=3)
            )
        with pytest.raises(ValueError, match="multi-node"):
            run_hybrid(
                RunConfig(
                    model=GNMT8.tiny(),
                    mode="hybrid",
                    world_size=4,
                    topology=NodeTopology.of_sizes((4,)),
                )
            )

    def test_scale_bench_model_is_sparse_dominated(self):
        from repro.engine.hybrid import scale_bench_model

        cfg = scale_bench_model()
        dense_trunk = cfg.hidden_dim
        assert dense_trunk <= 8
        assert all(t.dim == 64 for t in cfg.tables)
        assert cfg.batch_size("rtx3090") == 96


class TestTopologyHelpers:
    def test_as_topology_passthrough(self):
        topo = NodeTopology.symmetric(2, 2)
        assert as_topology(topo) is topo
        assert as_topology(None) is None
        assert as_topology(topo.to_dict()).nodes == topo.nodes
        with pytest.raises(TypeError):
            as_topology("2x2")

    def test_round_trip(self):
        topo = NodeTopology.of_sizes((3, 2), inter_latency=1e-4)
        clone = NodeTopology.from_dict(topo.to_dict())
        assert clone.nodes == topo.nodes
