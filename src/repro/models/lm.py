"""Language model: embedding -> stacked LSTM -> sampled-softmax table.

Structure of the Jozefowicz et al. big LSTM LM: the input lookup table
and the softmax output table are both sparse embedding tables (97% of
parameters at paper scale, Table 1), around a small recurrent core.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.batching import Batch
from repro.models.base import BaseNLPModel, SampledSoftmax
from repro.models.config import ModelConfig


class LMModel(BaseNLPModel):
    """Runnable LM at any configured scale."""

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | None = None,
        num_sampled: int | None = None,
        dtype=None,
    ):
        super().__init__(config)
        if config.family != "lm":
            raise ValueError(f"LMModel requires an 'lm' config, got {config.family}")
        rng = rng or np.random.default_rng(0)
        emb_cfg = config.table("embedding")
        out_cfg = config.table("softmax_embedding")
        self.embedding = nn.Embedding(
            emb_cfg.vocab_size, emb_cfg.dim, padding_idx=0, rng=rng, name="embedding",
            dtype=dtype,
        )
        self.lstm = nn.LSTM(
            emb_cfg.dim, config.hidden_dim, config.num_encoder_layers, rng=rng, name="lstm",
            dtype=dtype,
        )
        self.projection = nn.Linear(
            config.hidden_dim, out_cfg.dim, rng=rng, name="projection", dtype=dtype
        )
        self.softmax_embedding = nn.Embedding(
            out_cfg.vocab_size, out_cfg.dim, rng=rng, name="softmax_embedding",
            dtype=dtype,
        )
        self.loss_head = SampledSoftmax(
            self.softmax_embedding, num_sampled=num_sampled, rng=rng
        )

    # ------------------------------------------------------------------ #
    def forward_backward(self, batch: Batch) -> float:
        h = self.embedding(batch.inputs)
        h = self.lstm(h)
        h = self.projection(h)
        loss = self.loss_head(h, batch.targets, pad_id=0)
        self._last_tokens = self.loss_head.last_token_count

        grad_h = self.loss_head.backward()
        grad_h = self.projection.backward(grad_h)
        grad_h = self.lstm.backward(grad_h)
        self.embedding.backward(grad_h)
        return loss

    def embedding_tables(self) -> dict[str, nn.Embedding]:
        return {
            "embedding": self.embedding,
            "softmax_embedding": self.softmax_embedding,
        }

    def dense_blocks(self):
        blocks = [
            (f"lstm.{i}", [cell.w_x, cell.w_h, cell.bias])
            for i, cell in enumerate(self.lstm.cells)
        ]
        blocks.append(("projection", [self.projection.weight, self.projection.bias]))
        return blocks
