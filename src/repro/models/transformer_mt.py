"""Transformer translation model (Vaswani et al. "big" at paper scale)."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.batching import Batch
from repro.models.base import EncoderDecoderModel
from repro.models.config import ModelConfig


def sinusoidal_positions(seq_len: int, dim: int, dtype=float) -> np.ndarray:
    """Standard fixed sinusoidal positional encoding ``(seq_len, dim)``.

    Angles are computed in double precision and stored in ``dtype`` —
    the embeddings' dtype, so adding the table never promotes them.
    """
    pos = np.arange(seq_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.empty((seq_len, dim), dtype=dtype)
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


class TransformerMTModel(EncoderDecoderModel):
    """Runnable encoder-decoder Transformer at any configured scale."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__(config)
        if config.family != "transformer":
            raise ValueError(
                f"TransformerMTModel requires a 'transformer' config, got {config.family}"
            )
        rng = rng or np.random.default_rng(0)
        enc_cfg = config.table("encoder_embedding")
        dec_cfg = config.table("decoder_embedding")
        if enc_cfg.dim != config.hidden_dim or dec_cfg.dim != config.hidden_dim:
            raise ValueError("transformer embeddings must match hidden_dim")
        self.encoder_embedding = nn.Embedding(
            enc_cfg.vocab_size, enc_cfg.dim, padding_idx=0, rng=rng,
            name="encoder_embedding",
        )
        self.decoder_embedding = nn.Embedding(
            dec_cfg.vocab_size, dec_cfg.dim, padding_idx=0, rng=rng,
            name="decoder_embedding",
        )
        self.encoder_layers = [
            nn.TransformerLayer(
                config.hidden_dim, config.num_heads, config.ffn_dim,
                rng=rng, name=f"encoder.{i}",
            )
            for i in range(config.num_encoder_layers)
        ]
        self.decoder_layers = [
            nn.TransformerLayer(
                config.hidden_dim, config.num_heads, config.ffn_dim,
                cross_attention=True, rng=rng, name=f"decoder.{i}",
            )
            for i in range(config.num_decoder_layers)
        ]
        self.output_projection = nn.Linear(
            config.hidden_dim, dec_cfg.vocab_size, rng=rng, name="output_projection"
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _embed(table: nn.Embedding, ids: np.ndarray) -> np.ndarray:
        """Token lookup plus positions, in the table's dtype."""
        emb = table(ids)
        return emb + sinusoidal_positions(ids.shape[1], emb.shape[-1], emb.dtype)

    def forward_backward(self, batch: Batch) -> float:
        src, tgt = batch.inputs, batch.targets
        dec_in = tgt[:, :-1]
        dec_target = tgt[:, 1:]

        enc_h = self._embed(self.encoder_embedding, src)
        for layer in self.encoder_layers:
            enc_h = layer(enc_h)
        memory = enc_h

        dec_h = self._embed(self.decoder_embedding, dec_in)
        for layer in self.decoder_layers:
            dec_h = layer(dec_h, memory=memory, causal=True)
        loss, grad = self._output_head(dec_h, dec_target)
        grad_memory_total = np.zeros_like(memory)
        for layer in reversed(self.decoder_layers):
            grad, grad_memory = layer.backward(grad)
            grad_memory_total += grad_memory
        self.decoder_embedding.backward(grad)

        grad_enc = grad_memory_total
        for layer in reversed(self.encoder_layers):
            grad_enc = layer.backward(grad_enc)
        self.encoder_embedding.backward(grad_enc)
        return loss

    def decode_logits(self, src: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
        """Forward-only logits over target positions (for decoding).

        Not re-entrant with a pending backward (see GNMTModel.decode_logits).
        """
        enc_h = self._embed(self.encoder_embedding, src)
        for layer in self.encoder_layers:
            enc_h = layer(enc_h)
        dec_h = self._embed(self.decoder_embedding, tgt_in)
        for layer in self.decoder_layers:
            dec_h = layer(dec_h, memory=enc_h, causal=True)
        return self.output_projection(dec_h)

    def embedding_tables(self) -> dict[str, nn.Embedding]:
        return {
            "encoder_embedding": self.encoder_embedding,
            "decoder_embedding": self.decoder_embedding,
        }

    def dense_blocks(self):
        blocks = [
            (f"encoder.{i}", [p for _, p in layer.named_parameters()])
            for i, layer in enumerate(self.encoder_layers)
        ]
        blocks += [
            (f"decoder.{i}", [p for _, p in layer.named_parameters()])
            for i, layer in enumerate(self.decoder_layers)
        ]
        blocks.append(
            (
                "output_projection",
                [self.output_projection.weight, self.output_projection.bias],
            )
        )
        return blocks
