"""Tests for cluster topology + collective cost models (Table 2, Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CPU_HOST,
    RTX2080,
    RTX3090,
    rtx2080_cluster,
    rtx3090_cluster,
)
from repro.collectives import (
    CostModel,
    OmniReduceModel,
    crossover_sparsity,
    effective_bandwidth,
    sparsity_sweep,
)
from repro.utils.units import MB

GNMT_EMB = 252.5 * MB  # Fig. 4's embedding table


class TestHardware:
    def test_gpu_ratio_sane(self):
        # The 3090 is ~3-4x the 2080 in sustained training FLOPs.
        assert 2.5 < RTX3090.flops / RTX2080.flops < 4.5

    def test_compute_time_monotone(self):
        assert RTX3090.compute_time(2e12) > RTX3090.compute_time(1e12)

    def test_memory_time(self):
        assert RTX3090.memory_time(700e9) == pytest.approx(1.0, rel=0.01)

    def test_cpu_host_slower(self):
        assert CPU_HOST.mem_bandwidth < RTX2080.mem_bandwidth

    def test_validation(self):
        from repro.cluster.hardware import GPUSpec

        with pytest.raises(ValueError):
            GPUSpec("x", flops=0, mem_bandwidth=1, kernel_overhead=0, memory_bytes=1)


class TestClusterSpec:
    def test_world_size(self):
        assert rtx3090_cluster().world_size == 16

    def test_single_node_bottleneck_is_pcie(self):
        c = rtx3090_cluster(num_nodes=1, gpus_per_node=4)
        assert c.pairwise_bandwidth() == c.intra_bw
        assert c.latency() == c.intra_latency

    def test_multi_node_nic_sharing(self):
        c = rtx3090_cluster(num_nodes=2, gpus_per_node=4)
        # 100 Gbps / 4 GPUs = 3.125 GB/s per worker.
        assert c.pairwise_bandwidth() == pytest.approx(12.5e9 / 4)

    def test_one_gpu_per_node_no_nic_sharing(self):
        c = rtx3090_cluster(num_nodes=4, gpus_per_node=1)
        # Sole GPU per node: full NIC, bounded only by the PCIe hop.
        assert c.pairwise_bandwidth() == pytest.approx(min(c.intra_bw, 12.5e9))
        assert c.pairwise_bandwidth() > rtx3090_cluster(4, 4).pairwise_bandwidth()

    def test_with_workers_scaling(self):
        c = rtx3090_cluster()
        assert c.with_workers(4).num_nodes == 1
        assert c.with_workers(8).num_nodes == 2
        assert c.with_workers(16).num_nodes == 4
        # Scaling past the spec adds whole nodes of the same shape
        # (used by hybrid mode to extrapolate a calibration).
        grown = c.with_workers(32)
        assert grown.num_nodes == 8
        assert grown.gpus_per_node == c.gpus_per_node
        with pytest.raises(ValueError):
            c.with_workers(6)

    def test_nodes_iterator(self):
        c = rtx3090_cluster(num_nodes=2, gpus_per_node=4)
        assert c.nodes() == ((0, 1, 2, 3), (4, 5, 6, 7))
        # Truncated / extended groupings fill nodes in order.
        assert c.nodes(6) == ((0, 1, 2, 3), (4, 5))
        assert c.nodes(12) == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))

    def test_rtx2080_lower_intra_bw(self):
        assert rtx2080_cluster().intra_bw < rtx3090_cluster().intra_bw


class TestEffectiveBandwidth:
    def test_large_messages_approach_peak(self):
        assert effective_bandwidth(10e9, 1e9) == pytest.approx(10e9, rel=0.01)

    def test_half_utilization_point(self):
        assert effective_bandwidth(10e9, 128 * 1024) == pytest.approx(5e9)

    def test_zero_message(self):
        assert effective_bandwidth(10e9, 0) == 10e9

    @given(st.floats(1, 1e9), st.floats(0, 1e10))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_link(self, bw, msg):
        assert effective_bandwidth(bw, msg) <= bw


class TestCostModelTable2:
    @pytest.fixture
    def model(self):
        return CostModel(rtx3090_cluster(num_nodes=4, gpus_per_node=4))

    def test_symbolic_formulas(self, model):
        N, B, beta = model.N, model.B, model.beta
        M, alpha = 1e8, 0.3
        t = model.table2_symbolic(M, alpha)
        assert t["AlltoAll"] == pytest.approx(2 * (N - 1) * (alpha * M / (N * B) + beta))
        assert t["AllReduce"] == pytest.approx(2 * (N - 1) * (M / (N * B) + beta))
        assert t["PS"] == pytest.approx(2 * N * (alpha * M / (4 * B) + beta))
        assert t["AllGather"] == pytest.approx((N - 1) * (alpha * M / B + beta))

    def test_symbolic_alltoall_beats_allreduce_when_sparse(self, model):
        t = model.table2_symbolic(1e8, alpha=0.2)
        assert t["AlltoAll"] < t["AllReduce"]

    def test_single_worker_costs_zero(self):
        model = CostModel(rtx3090_cluster(num_nodes=1, gpus_per_node=1))
        assert model.allreduce(1e8).seconds == 0.0
        assert model.alltoall(1e8).seconds == 0.0
        assert model.allgather(1e8).seconds == 0.0

    def test_allreduce_independent_of_density_wire(self, model):
        # Dense AllReduce always moves the full tensor.
        assert model.allreduce(1e8).wire_bytes == pytest.approx(
            2 * 15 / 16 * 1e8
        )

    def test_allgather_wire_scales_linearly_with_N(self):
        small = CostModel(rtx3090_cluster(num_nodes=1, gpus_per_node=4))
        big = CostModel(rtx3090_cluster(num_nodes=4, gpus_per_node=4))
        assert big.allgather(1e7).wire_bytes / small.allgather(1e7).wire_bytes == pytest.approx(15 / 3)

    def test_ps_server_count_validation(self, model):
        with pytest.raises(ValueError):
            model.parameter_server(1e7, num_servers=5)
        with pytest.raises(ValueError):
            model.parameter_server(1e7, num_servers=0)

    def test_ring_vs_pairwise_bandwidth(self):
        # Multi-node multi-GPU: ring collectives keep full NIC rate,
        # pairwise exchanges share it.
        shared = CostModel(rtx3090_cluster(2, 4))
        assert shared.B_pairwise < shared.B_ring
        # One GPU per node or single node: no sharing penalty.
        assert CostModel(rtx3090_cluster(4, 1)).B_pairwise == CostModel(
            rtx3090_cluster(4, 1)
        ).B_ring
        single = CostModel(rtx3090_cluster(1, 4))
        assert single.B_pairwise == single.B_ring == single.cluster.intra_bw

    def test_broadcast_log_steps(self, model):
        assert model.broadcast(1e6).num_messages == 4  # log2(16)

    def test_reduce_scatter_half_of_allreduce(self, model):
        ar = model.allreduce(1e8)
        rs = model.reduce_scatter(1e8)
        assert rs.wire_bytes == pytest.approx(ar.wire_bytes / 2)

    def test_cost_addition(self, model):
        a, b = model.allreduce(1e6), model.allgather(1e6)
        c = a + b
        assert c.seconds == pytest.approx(a.seconds + b.seconds)
        assert c.num_messages == a.num_messages + b.num_messages


class TestFigure4Shape:
    """The qualitative claims of Fig. 4 hold on our cost model."""

    def test_fig4a_crossover_near_40_percent(self):
        c = rtx3090_cluster(num_nodes=2, gpus_per_node=4)
        x = crossover_sparsity(c, GNMT_EMB)
        assert x is not None and 0.30 <= x <= 0.55

    def test_fig4b_alltoall_wins_everywhere(self):
        c = rtx3090_cluster(num_nodes=4, gpus_per_node=1)
        sweep = sparsity_sweep(
            c, GNMT_EMB, schemes=("alltoall", "allreduce", "allgather", "omnireduce", "ps")
        )
        others = np.vstack([sweep[s] for s in ("allreduce", "allgather", "omnireduce", "ps")])
        assert np.all(sweep["alltoall"] <= others.min(axis=0) + 1e-12)

    def test_omnireduce_improves_with_sparsity(self):
        c = rtx3090_cluster(num_nodes=4, gpus_per_node=1)
        sweep = sparsity_sweep(c, GNMT_EMB, schemes=("omnireduce",))
        assert np.all(np.diff(sweep["omnireduce"]) <= 1e-12)

    def test_allgather_scalability_poor(self):
        # AllGather's time grows ~linearly with N; AlltoAll's stays flat.
        times = {}
        for n_nodes in (1, 2, 4):
            c = rtx3090_cluster(num_nodes=n_nodes, gpus_per_node=4)
            m = CostModel(c)
            times[n_nodes * 4] = (
                m.allgather(0.1 * GNMT_EMB).seconds,
                2 * m.alltoall(0.1 * GNMT_EMB).seconds,
            )
        ag_growth = times[16][0] / times[8][0]
        a2a_growth = times[16][1] / times[8][1]
        assert ag_growth > 1.5
        assert a2a_growth < 1.3

    def test_model_sparsities_favor_alltoall(self):
        """§4.1.2: at the four models' average sparsities (99.7%, 89.7%,
        86.6%, 59.7%), AlltoAll beats dense AllReduce on the 2x4 topology."""
        c = rtx3090_cluster(num_nodes=2, gpus_per_node=4)
        model = CostModel(c)
        for sparsity in (0.997, 0.897, 0.866, 0.597):
            payload = (1 - sparsity) * GNMT_EMB
            assert 2 * model.alltoall(payload).seconds < model.allreduce(GNMT_EMB).seconds


class TestOmniReduce:
    def test_requires_single_gpu_nodes(self):
        with pytest.raises(ValueError):
            OmniReduceModel(rtx3090_cluster(num_nodes=2, gpus_per_node=4))

    def test_block_fraction_bounds(self):
        m = OmniReduceModel(rtx3090_cluster(4, 1))
        assert m.nonzero_block_fraction(0.0, 4096) == 0.0
        assert m.nonzero_block_fraction(1.0, 4096) == 1.0
        # Coarser blocks (smaller rows) raise the non-zero fraction.
        assert m.nonzero_block_fraction(0.1, 64) > m.nonzero_block_fraction(0.1, 4096)

    def test_dense_worse_than_plain_allreduce(self):
        c = rtx3090_cluster(4, 1)
        omni = OmniReduceModel(c)
        plain = CostModel(c)
        assert omni.allreduce(GNMT_EMB, 1.0).seconds > plain.allreduce(GNMT_EMB).seconds
