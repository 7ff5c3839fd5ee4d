"""Tests for autoregressive decoding (greedy + beam)."""

import numpy as np
import pytest

from repro.data import PairBatchIterator, SyntheticPairCorpus, Vocab
from repro.eval import beam_decode, bleu, greedy_decode, sequence_log_prob
from repro.models import GNMT8, TRANSFORMER, build_model
from repro.optim import Adam


def make_model_and_batch(paper_cfg, seed=0):
    cfg = paper_cfg.scaled(vocab=48, dim_divisor=64)
    model = build_model(cfg, rng=np.random.default_rng(seed))
    v = Vocab(48)
    corpus = SyntheticPairCorpus(v, v, min_len=3, max_len=6, seed=seed)
    batch = next(iter(PairBatchIterator(corpus, batch_size=4)))
    return cfg, model, batch


class TestDecodeLogits:
    @pytest.mark.parametrize("paper_cfg", [GNMT8, TRANSFORMER],
                             ids=["GNMT-8", "Transformer"])
    def test_shapes(self, paper_cfg):
        cfg, model, batch = make_model_and_batch(paper_cfg)
        tgt_in = batch.targets[:, :3]
        logits = model.decode_logits(batch.inputs, tgt_in)
        assert logits.shape == (batch.batch_size, 3, 48)

    def test_matches_training_forward(self):
        """decode_logits on the training inputs equals the logits the
        training forward produced (same computation, no loss)."""
        cfg, model, batch = make_model_and_batch(TRANSFORMER)
        model.forward_backward(batch)
        trained_logits = model._last_logits.copy()
        model.zero_grad()
        again = model.decode_logits(batch.inputs, batch.targets[:, :-1])
        np.testing.assert_allclose(again, trained_logits, atol=1e-12)


class TestGreedyDecode:
    def test_output_shape_and_padding(self):
        cfg, model, batch = make_model_and_batch(GNMT8)
        out = greedy_decode(model, batch.inputs, max_len=8)
        assert out.shape[0] == batch.batch_size
        assert out.shape[1] <= 8
        # After an eos, positions are padded with 0.
        for row in out:
            seen_eos = False
            for token in row:
                if seen_eos:
                    assert token == 0
                if token == 2:
                    seen_eos = True

    def test_deterministic(self):
        cfg, model, batch = make_model_and_batch(GNMT8)
        a = greedy_decode(model, batch.inputs, max_len=6)
        b = greedy_decode(model, batch.inputs, max_len=6)
        np.testing.assert_array_equal(a, b)

    def test_training_improves_decoded_bleu(self):
        """Overfit a tiny model on one batch: decoded BLEU against the
        batch's references rises."""
        cfg, model, batch = make_model_and_batch(GNMT8, seed=3)
        refs = [row for row in batch.targets[:, 1:]]

        def decoded_bleu():
            hyp = [row for row in greedy_decode(model, batch.inputs, max_len=10)]
            return bleu(hyp, refs)

        before = decoded_bleu()
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(60):
            model.forward_backward(batch)
            opt.step()
            model.zero_grad()
        after = decoded_bleu()
        assert after > before

    def test_validation(self):
        cfg, model, batch = make_model_and_batch(GNMT8)
        with pytest.raises(ValueError):
            greedy_decode(model, batch.inputs, max_len=0)


class TestBeamDecode:
    def test_single_sentence_required(self):
        cfg, model, batch = make_model_and_batch(GNMT8)
        with pytest.raises(ValueError):
            beam_decode(model, batch.inputs)

    def test_beam1_equals_greedy(self):
        cfg, model, batch = make_model_and_batch(TRANSFORMER)
        src = batch.inputs[:1]
        greedy = greedy_decode(model, src, max_len=6)[0]
        beam, _ = beam_decode(model, src, beam_size=1, max_len=6)
        n = min(len(greedy), len(beam))
        np.testing.assert_array_equal(greedy[:n], beam[:n])

    def test_wider_beam_not_worse(self):
        """Beam search's hypothesis log-prob is >= greedy's."""
        cfg, model, batch = make_model_and_batch(GNMT8, seed=5)
        src = batch.inputs[:1]
        g_ids, g_score = beam_decode(model, src, beam_size=1, max_len=6)
        b_ids, b_score = beam_decode(model, src, beam_size=4, max_len=6)
        assert b_score >= g_score - 1e-9

    def test_score_matches_sequence_log_prob(self):
        cfg, model, batch = make_model_and_batch(TRANSFORMER, seed=2)
        src = batch.inputs[:1]
        ids, score = beam_decode(model, src, beam_size=2, max_len=5)
        recomputed = sequence_log_prob(model, src, ids)
        # A float32 model: one full-sequence pass vs per-prefix passes
        # round differently (different GEMM shapes), to float32 ulps.
        assert recomputed == pytest.approx(score, abs=1e-5)

    def test_sequence_log_prob_validation(self):
        cfg, model, batch = make_model_and_batch(GNMT8)
        with pytest.raises(ValueError):
            sequence_log_prob(model, batch.inputs[:1], np.array([], dtype=np.int64))
