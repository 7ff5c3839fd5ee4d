"""Tests for span metrics and the roofline analysis."""

import numpy as np
import pytest

from repro.cluster import rtx3090_cluster
from repro.eval.accuracy import span_exact_match, span_f1, token_accuracy
from repro.models import BERT_BASE, GNMT8, LM
from repro.models.blocks import EMBEDDING
from repro.perf.roofline import analyze


class TestTokenAccuracy:
    def test_exact(self):
        pred = np.array([[1, 2, 0], [3, 4, 0]])
        assert token_accuracy(pred, pred) == 1.0

    def test_partial_excludes_padding(self):
        pred = np.array([1, 9, 5])
        gold = np.array([1, 2, 0])
        # Position 2 is padding; 1/2 of the rest correct.
        assert token_accuracy(pred, gold) == 0.5

    def test_all_padding(self):
        assert token_accuracy(np.array([1]), np.array([0])) == 0.0

    def test_no_pad_mode(self):
        pred = np.array([0, 1])
        gold = np.array([0, 2])
        assert token_accuracy(pred, gold, pad_id=None) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            token_accuracy(np.zeros(3), np.zeros(4))


class TestSpanMetrics:
    def test_exact_match(self):
        pred = np.array([[2, 5], [1, 3]])
        gold = np.array([[2, 5], [1, 4]])
        assert span_exact_match(pred, gold) == 0.5

    def test_f1_perfect(self):
        spans = np.array([[0, 4]])
        assert span_f1(spans, spans) == 1.0

    def test_f1_partial_overlap(self):
        pred = np.array([[0, 3]])  # 4 tokens
        gold = np.array([[2, 5]])  # 4 tokens, overlap = 2
        # precision = recall = 0.5 -> F1 = 0.5
        assert span_f1(pred, gold) == pytest.approx(0.5)

    def test_f1_no_overlap(self):
        assert span_f1(np.array([[0, 1]]), np.array([[5, 6]])) == 0.0

    def test_f1_at_least_em(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 10, size=20)
        pred = np.stack([starts, starts + rng.integers(0, 5, 20)], axis=1)
        gold = np.stack([starts, starts + rng.integers(0, 5, 20)], axis=1)
        assert span_f1(pred, gold) >= span_exact_match(pred, gold)

    def test_validation(self):
        with pytest.raises(ValueError):
            span_f1(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            span_f1(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            span_f1(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRoofline:
    @pytest.fixture(scope="class")
    def cluster(self):
        return rtx3090_cluster()

    def test_embeddings_memory_bound(self, cluster):
        rows = analyze(LM, cluster)
        emb = [r for r in rows if r.kind == "embedding"]
        assert emb and all(not r.compute_bound for r in emb)

    def test_transformer_ffn_blocks_compute_heavy(self, cluster):
        from repro.models import TRANSFORMER

        rows = analyze(TRANSFORMER, cluster)
        enc = [r for r in rows if r.name.startswith("encoder.")]
        # Big-batch transformer blocks sit far above embedding intensity.
        emb = [r for r in rows if r.kind == "embedding"]
        assert min(r.arithmetic_intensity for r in enc) > max(
            r.arithmetic_intensity for r in emb
        )

    @pytest.mark.parametrize("cfg", [LM, GNMT8, BERT_BASE], ids=lambda c: c.name)
    def test_paper_premise_holds(self, cluster, cfg):
        """Embedding blocks' dense comm dwarfs their compute — the reason
        an individual sparse scheme is worth building (§2.1): every
        embedding block's comm-to-compute ratio is over 3x the dense
        blocks' median."""
        rows = analyze(cfg, cluster)
        emb = [r.comm_to_compute for r in rows if r.kind == EMBEDDING]
        dense = sorted(r.comm_to_compute for r in rows if r.kind != EMBEDDING)
        assert emb and dense
        assert min(emb) > 3 * dense[len(dense) // 2]

    def test_comm_to_compute_positive(self, cluster):
        for r in analyze(GNMT8, cluster):
            assert r.comm_to_compute > 0
            assert r.param_bytes > 0


class TestBertSpanPipeline:
    """End-to-end: BERT fine-tuning improves span EM/F1 on its task."""

    def test_span_metrics_improve_with_training(self):
        import numpy as np

        from repro.engine.workload import batch_stream
        from repro.models import BERT_BASE, build_model
        from repro.optim import Adam

        cfg = BERT_BASE.tiny()
        model = build_model(cfg, rng=np.random.default_rng(0))
        batch = next(iter(batch_stream(cfg, "rtx3090", seed=2)))
        gold = np.stack(model.span_targets(batch.inputs), axis=1)
        opt = Adam(model.parameters(), lr=5e-3)

        model.forward_backward(batch)
        f1_before = span_f1(model.predicted_spans(), gold)
        for _ in range(25):
            opt.step()
            model.zero_grad()
            model.forward_backward(batch)
        f1_after = span_f1(model.predicted_spans(), gold)
        assert f1_after > f1_before

    def test_predicted_spans_requires_forward(self):
        import numpy as np

        from repro.models import BERT_BASE, build_model

        model = build_model(BERT_BASE.tiny(), rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            model.predicted_spans()
