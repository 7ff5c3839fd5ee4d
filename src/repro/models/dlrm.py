"""DLRM-style recommendation model: many tables, two MLPs, one logit.

Naumov et al.'s deep learning recommendation model: each categorical
feature owns an embedding table whose multi-hot lookups are mean-pooled,
a bottom MLP embeds the continuous features into the same space, and a
top MLP scores the concatenated representations with a sigmoid click
probability.  Embedding tables dominate the parameter count — the
workload class EmbRace's sparse scheduling targets — while every MLP
gradient stays dense.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.batching import Batch
from repro.models.base import BaseNLPModel
from repro.models.blocks import DLRM_DENSE_FEATURES
from repro.models.config import ModelConfig
from repro.nn import functional as F


class _MLP(nn.Module):
    """Linear stack with ReLU between layers (none after the last)."""

    def __init__(self, dims: list[int], rng: np.random.Generator, name: str, dtype):
        super().__init__()
        self.layers = [
            nn.Linear(dims[i], dims[i + 1], rng=rng, name=f"{name}.{i}", dtype=dtype)
            for i in range(len(dims) - 1)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._pre_relu: list[np.ndarray] = []
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                self._pre_relu.append(x)
                x = F.relu(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                grad = F.relu_backward(grad, self._pre_relu[i])
            grad = self.layers[i].backward(grad)
        return grad

    def parameters(self):
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            if layer.bias is not None:
                out.append(layer.bias)
        return out


class DLRMModel(BaseNLPModel):
    """Runnable DLRM at any configured scale.

    Batches must carry per-table id streams (``batch.streams``, as
    :class:`~repro.data.batching.DLRMBatchIterator` produces); the
    binary cross-entropy loss is computed over one logit per sample.
    """

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype=None,
    ):
        super().__init__(config)
        if config.family != "dlrm":
            raise ValueError(f"DLRMModel requires a 'dlrm' config, got {config.family}")
        rng = rng or np.random.default_rng(0)
        dim = config.tables[0].dim
        self.tables = {
            t.name: nn.Embedding(
                t.vocab_size, t.dim, padding_idx=0, rng=rng, name=t.name, dtype=dtype
            )
            for t in config.tables
        }
        self.bottom_mlp = _MLP(
            [DLRM_DENSE_FEATURES, config.hidden_dim, dim], rng, "bottom_mlp", dtype
        )
        concat = (len(config.tables) + 1) * dim
        top_dims = (
            [concat]
            + [config.hidden_dim] * max(1, config.num_encoder_layers - 1)
            + [1]
        )
        self.top_mlp = _MLP(top_dims, rng, "top_mlp", dtype)

    # ------------------------------------------------------------------ #
    def forward_backward(self, batch: Batch) -> float:
        degree = None
        pooled = []
        for name, table in self.tables.items():
            ids = batch.streams[name]  # (B, degree)
            degree = ids.shape[1]
            pooled.append(table(ids).mean(axis=1))  # (B, dim)
        dense = self.bottom_mlp(batch.streams["__dense__"])  # (B, dim)
        x = np.concatenate([dense] + pooled, axis=1)
        logits = self.top_mlp(x).reshape(-1)  # (B,)
        y = np.asarray(batch.targets, dtype=logits.dtype).reshape(-1)
        p = F.sigmoid(logits)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        self._last_tokens = int(y.size)

        grad_logits = ((p - y) / y.size).reshape(-1, 1)
        grad_x = self.top_mlp.backward(grad_logits)
        dim = self.config.tables[0].dim
        self.bottom_mlp.backward(grad_x[:, :dim])
        for i, (name, table) in enumerate(self.tables.items()):
            g = grad_x[:, (i + 1) * dim : (i + 2) * dim]  # (B, dim)
            # Mean pooling spreads the pooled gradient over the lookups.
            table.backward(
                np.repeat(g[:, None, :], degree, axis=1) / degree
            )
        return loss

    def embedding_tables(self) -> dict[str, nn.Embedding]:
        return dict(self.tables)

    def dense_blocks(self):
        return [
            ("bottom_mlp", self.bottom_mlp.parameters()),
            ("top_mlp", self.top_mlp.parameters()),
        ]
