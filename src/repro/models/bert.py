"""BERT-base encoder fine-tuned for SQuAD-style span extraction."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.batching import Batch
from repro.models.base import BaseNLPModel
from repro.models.config import ModelConfig
from repro.nn.parameter import Parameter


class BertModel(BaseNLPModel):
    """Runnable BERT at any configured scale.

    Word embeddings are the single sparse table; learned position
    embeddings are *dense* (every position is used every step, so their
    gradient is dense — they belong to the AllReduce traffic class).
    The QA head predicts answer start/end positions; targets are derived
    deterministically from the batch (first/last non-pad token), which
    preserves the loss/gradient structure without SQuAD labels.
    """

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype=None,
    ):
        super().__init__(config)
        if config.family != "bert":
            raise ValueError(f"BertModel requires a 'bert' config, got {config.family}")
        rng = rng or np.random.default_rng(0)
        emb_cfg = config.table("embedding")
        if emb_cfg.dim != config.hidden_dim:
            raise ValueError("BERT embedding dim must equal hidden_dim")
        self.embedding = nn.Embedding(
            emb_cfg.vocab_size, emb_cfg.dim, padding_idx=0, rng=rng, name="embedding",
            dtype=dtype,
        )
        self.position_embedding = Parameter(
            nn.init.normal(rng, (config.src_seq_len, emb_cfg.dim), dtype=dtype),
            name="position_embedding",
        )
        self.embedding_ln = nn.LayerNorm(emb_cfg.dim, name="embedding_ln", dtype=dtype)
        self.encoder_layers = [
            nn.TransformerLayer(
                config.hidden_dim, config.num_heads, config.ffn_dim,
                activation="gelu", rng=rng, name=f"encoder.{i}", dtype=dtype,
            )
            for i in range(config.num_encoder_layers)
        ]
        self.qa_head = nn.Linear(
            config.hidden_dim, 2, rng=rng, name="qa_head", dtype=dtype
        )
        self.loss_fn = nn.CrossEntropyLoss()

    # ------------------------------------------------------------------ #
    @staticmethod
    def span_targets(inputs: np.ndarray, pad_id: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic start/end positions: first and last non-pad token."""
        mask = inputs != pad_id
        starts = mask.argmax(axis=1)
        ends = inputs.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
        return starts.astype(np.int64), ends.astype(np.int64)

    def forward_backward(self, batch: Batch) -> float:
        ids = batch.inputs
        seq = ids.shape[1]
        if seq > self.position_embedding.shape[0]:
            raise ValueError(
                f"sequence length {seq} exceeds max positions "
                f"{self.position_embedding.shape[0]}"
            )
        h = self.embedding(ids) + self.position_embedding.data[:seq]
        h = self.embedding_ln(h)
        for layer in self.encoder_layers:
            h = layer(h)
        logits = self.qa_head(h)  # (batch, seq, 2)
        self._last_logits = logits
        starts, ends = self.span_targets(ids)
        start_loss = _position_ce(logits[..., 0], starts)
        end_loss = _position_ce(logits[..., 1], ends)
        loss = 0.5 * (start_loss[0] + end_loss[0])
        self._last_tokens = int((ids != 0).sum())

        grad_logits = np.zeros_like(logits)
        grad_logits[..., 0] = 0.5 * start_loss[1]
        grad_logits[..., 1] = 0.5 * end_loss[1]
        grad = self.qa_head.backward(grad_logits)
        for layer in reversed(self.encoder_layers):
            grad = layer.backward(grad)
        grad = self.embedding_ln.backward(grad)
        pos_grad = np.zeros_like(self.position_embedding.data)
        pos_grad[:seq] = grad.sum(axis=0)
        self.position_embedding.accumulate(pos_grad)
        self.embedding.backward(grad)
        return float(loss)

    def predicted_spans(self) -> np.ndarray:
        """Argmax (start, end) spans from the latest forward pass, shape (n, 2)."""
        logits = getattr(self, "_last_logits", None)
        if logits is None:
            raise RuntimeError("predicted_spans requires a prior forward_backward")
        starts = np.argmax(logits[..., 0], axis=1)
        ends = np.argmax(logits[..., 1], axis=1)
        return np.stack([starts, ends], axis=1)

    def embedding_tables(self) -> dict[str, nn.Embedding]:
        return {"embedding": self.embedding}

    def dense_blocks(self):
        blocks = [
            (
                "embedding_postproc",
                [self.position_embedding, self.embedding_ln.gamma, self.embedding_ln.beta],
            )
        ]
        blocks += [
            (f"encoder.{i}", [p for _, p in layer.named_parameters()])
            for i, layer in enumerate(self.encoder_layers)
        ]
        blocks.append(("qa_head", [self.qa_head.weight, self.qa_head.bias]))
        return blocks


def _position_ce(scores: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """CE over sequence positions: scores (batch, seq), targets (batch,)."""
    from repro.nn import functional as F

    loss, grad, _ = F.cross_entropy(scores, targets)
    return loss, grad
