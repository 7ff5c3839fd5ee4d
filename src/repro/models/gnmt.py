"""GNMT-style recurrent seq2seq model (8+8 LSTM layers at paper scale).

The runnable implementation keeps the communication-relevant structure —
two sparse embedding tables, deep encoder/decoder LSTM stacks, Bahdanau
additive attention bridging encoder outputs into the decoder input, and
a dense output projection.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.batching import Batch
from repro.models.base import EncoderDecoderModel
from repro.models.config import ModelConfig


class GNMTModel(EncoderDecoderModel):
    """Runnable GNMT-8 at any configured scale."""

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype=None,
    ):
        super().__init__(config)
        if config.family != "gnmt":
            raise ValueError(f"GNMTModel requires a 'gnmt' config, got {config.family}")
        rng = rng or np.random.default_rng(0)
        enc_cfg = config.table("encoder_embedding")
        dec_cfg = config.table("decoder_embedding")
        self.encoder_embedding = nn.Embedding(
            enc_cfg.vocab_size, enc_cfg.dim, padding_idx=0, rng=rng,
            name="encoder_embedding", dtype=dtype,
        )
        self.decoder_embedding = nn.Embedding(
            dec_cfg.vocab_size, dec_cfg.dim, padding_idx=0, rng=rng,
            name="decoder_embedding", dtype=dtype,
        )
        self.encoder = nn.LSTM(
            enc_cfg.dim, config.hidden_dim, config.num_encoder_layers, rng=rng,
            name="encoder", dtype=dtype,
        )
        self.attention = nn.BahdanauAttention(
            dec_cfg.dim, config.hidden_dim, config.hidden_dim, rng=rng,
            name="attention", dtype=dtype,
        )
        # Decoder consumes [embedding ; attention context].
        self.decoder = nn.LSTM(
            dec_cfg.dim + config.hidden_dim,
            config.hidden_dim,
            config.num_decoder_layers,
            rng=rng,
            name="decoder",
            dtype=dtype,
        )
        self.output_projection = nn.Linear(
            config.hidden_dim, dec_cfg.vocab_size, rng=rng, name="output_projection",
            dtype=dtype,
        )

    # ------------------------------------------------------------------ #
    def forward_backward(self, batch: Batch) -> float:
        src, tgt = batch.inputs, batch.targets
        dec_in = tgt[:, :-1]
        dec_target = tgt[:, 1:]

        enc_h = self.encoder(self.encoder_embedding(src))
        dec_emb = self.decoder_embedding(dec_in)
        context = self.attention(dec_emb, enc_h)  # (batch, tgt, hidden)
        dec_in_seq = np.concatenate([dec_emb, context], axis=-1)
        dec_h = self.decoder(dec_in_seq)
        loss, grad_dec_h = self._output_head(dec_h, dec_target)
        grad_dec_in = self.decoder.backward(grad_dec_h)
        emb_dim = dec_emb.shape[-1]
        grad_queries, grad_enc_h = self.attention.backward(
            grad_dec_in[..., emb_dim:]
        )
        self.decoder_embedding.backward(grad_dec_in[..., :emb_dim] + grad_queries)
        grad_src_emb = self.encoder.backward(grad_enc_h)
        self.encoder_embedding.backward(grad_src_emb)
        return loss

    def decode_logits(self, src: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
        """Forward-only logits over target positions (for decoding).

        Not re-entrant with a pending backward: calling this between
        ``forward_backward`` and its optimizer step would clobber the
        layers' stored backward closures.
        """
        enc_h = self.encoder(self.encoder_embedding(src))
        dec_emb = self.decoder_embedding(tgt_in)
        context = self.attention(dec_emb, enc_h)
        dec_h = self.decoder(np.concatenate([dec_emb, context], axis=-1))
        return self.output_projection(dec_h)

    def embedding_tables(self) -> dict[str, nn.Embedding]:
        return {
            "encoder_embedding": self.encoder_embedding,
            "decoder_embedding": self.decoder_embedding,
        }

    def dense_blocks(self):
        blocks = [
            (f"encoder.{i}", [cell.w_x, cell.w_h, cell.bias])
            for i, cell in enumerate(self.encoder.cells)
        ]
        blocks.append(
            (
                "attention",
                [self.attention.w_query, self.attention.w_key, self.attention.v],
            )
        )
        blocks += [
            (f"decoder.{i}", [cell.w_x, cell.w_h, cell.bias])
            for i, cell in enumerate(self.decoder.cells)
        ]
        blocks.append(
            (
                "output_projection",
                [self.output_projection.weight, self.output_projection.bias],
            )
        )
        return blocks
