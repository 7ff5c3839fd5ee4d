"""Tests for workload measurement, throughput simulation and perf model."""

import pytest

from repro.cluster import RTX2080, RTX3090
from repro.engine import measure_workload, simulate_training
from repro.engine.trainer_sim import make_cluster
from repro.engine.workload import batch_stream, cached_workload
from repro.models import BERT_BASE, GNMT8, LM, TRANSFORMER, block_specs
from repro.perf import ComputeEstimator
from repro.perf.flops import (
    attention_flops,
    embedding_lookup_bytes,
    ffn_flops,
    linear_flops,
    lstm_layer_flops,
    transformer_layer_flops,
)
from repro.strategies import EmbRace, HorovodAllGather


class TestFlops:
    def test_linear(self):
        assert linear_flops(10, 4, 8) == 2 * 10 * 4 * 8

    def test_lstm_dominated_by_gates(self):
        f = lstm_layer_flops(100, 64, 128)
        assert f > 2 * 100 * (64 + 128) * 4 * 128

    def test_attention_quadratic_in_seq(self):
        short = attention_flops(1, 64, 256)
        long = attention_flops(1, 128, 256)
        # Projections are linear, score matmuls quadratic.
        assert long > 2 * short

    def test_cross_attention_more_expensive(self):
        plain = transformer_layer_flops(2, 32, 256, 1024)
        cross = transformer_layer_flops(2, 32, 256, 1024, cross_attention=True)
        assert cross > plain

    def test_ffn(self):
        assert ffn_flops(10, 8, 32) == linear_flops(10, 8, 32) + linear_flops(10, 32, 8)

    def test_embedding_bytes(self):
        assert embedding_lookup_bytes(100, 64) == 2 * 100 * 64 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_flops(0, 4, 8)


class TestComputeEstimator:
    def test_bp_twice_fp(self):
        est = ComputeEstimator(RTX3090, batch_size=8, src_seq_len=16, tgt_seq_len=16)
        blocks = block_specs(GNMT8)
        t = est.block_time(blocks[3])  # a dense LSTM block
        overhead = RTX3090.kernel_overhead
        assert (t.bp - overhead) == pytest.approx(2 * (t.fp - overhead), rel=1e-6)

    def test_embedding_memory_bound(self):
        est = ComputeEstimator(RTX3090, batch_size=8, src_seq_len=16, tgt_seq_len=16)
        emb_block = block_specs(GNMT8)[0]
        t = est.block_time(emb_block)
        expected = RTX3090.memory_time(2 * 8 * 16 * 1024 * 4)
        assert t.fp == pytest.approx(expected)

    def test_slower_gpu_slower_blocks(self):
        fast = ComputeEstimator(RTX3090, 8, 16, 16)
        slow = ComputeEstimator(RTX2080, 8, 16, 16)
        blocks = block_specs(TRANSFORMER)
        assert slow.step_compute_time(blocks) > fast.step_compute_time(blocks)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeEstimator(RTX3090, batch_size=0, src_seq_len=1, tgt_seq_len=1)


class TestWorkload:
    def test_batch_stream_families(self):
        for cfg in (LM.tiny(), GNMT8.tiny(), BERT_BASE.tiny()):
            b = next(iter(batch_stream(cfg, "rtx3090")))
            assert b.num_tokens > 0

    def test_transformer_token_budget_stream(self):
        b = next(iter(batch_stream(TRANSFORMER, "rtx3090")))
        # ~5120 max tokens per batch at ~30 tokens/sentence.
        assert 20 < b.batch_size < 400

    def test_measure_workload_tables(self):
        w = measure_workload(GNMT8, "rtx3090", world_size=2, n_steps=2)
        assert set(w.tables) == {"encoder_embedding", "decoder_embedding"}
        for s in w.tables.values():
            assert s.original_rows >= s.coalesced_rows >= s.prior_rows

    def test_cached_workload_identity(self):
        a = cached_workload("GNMT-8", "rtx3090", 4)
        b = cached_workload("GNMT-8", "rtx3090", 4)
        assert a is b

    def test_grad_sparsity_matches_paper_scale(self):
        """§4.1.2: the four models' gradient sparsities are high (the LM
        above 99%, others above ~50%)."""
        expected_min = {"LM": 0.99, "GNMT-8": 0.80, "Transformer": 0.80,
                        "BERT-base": 0.55}
        for name, cfg in (("LM", LM), ("GNMT-8", GNMT8),
                          ("Transformer", TRANSFORMER), ("BERT-base", BERT_BASE)):
            w = cached_workload(name, "rtx3090", 1)
            density = max(s.density for s in w.tables.values())
            assert 1 - density >= expected_min[name], name


class TestSimulatedTraining:
    def test_cluster_scaling_layout(self):
        assert make_cluster("rtx3090", 4).num_nodes == 1
        assert make_cluster("rtx3090", 16).num_nodes == 4
        with pytest.raises(ValueError):
            make_cluster("a100", 4)

    def test_throughput_positive_and_scales(self):
        t4 = simulate_training(GNMT8, "rtx3090", 4, EmbRace())
        t16 = simulate_training(GNMT8, "rtx3090", 16, EmbRace())
        assert 0 < t4.tokens_per_sec < t16.tokens_per_sec

    def test_scaling_sublinear(self):
        t4 = simulate_training(GNMT8, "rtx3090", 4, EmbRace())
        t16 = simulate_training(GNMT8, "rtx3090", 16, EmbRace())
        assert t16.tokens_per_sec < 4.05 * t4.tokens_per_sec

    def test_embrace_beats_allgather_at_16(self):
        for cfg in (LM, GNMT8, TRANSFORMER, BERT_BASE):
            emb = simulate_training(cfg, "rtx3090", 16, EmbRace())
            ag = simulate_training(cfg, "rtx3090", 16, HorovodAllGather())
            assert emb.tokens_per_sec > ag.tokens_per_sec, cfg.name

    def test_report_invariants(self):
        r = simulate_training(GNMT8, "rtx3090", 8, EmbRace())
        rep = r.report
        assert rep.step_time >= rep.compute_time
        assert rep.computation_stall >= 0
        assert 0 <= rep.overlap_ratio <= 1
