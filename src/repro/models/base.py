"""Runnable-model protocol shared by the four benchmark models."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.batching import Batch
from repro.models.config import ModelConfig
from repro.nn import functional as F
from repro.nn.parameter import Parameter
from repro.tensors import SparseRows


class BaseNLPModel(nn.Module):
    """Common surface the trainers rely on.

    * ``forward_backward(batch)`` — one full step: returns the scalar loss
      with all gradients accumulated (dense on blocks, sparse on tables);
    * ``embedding_tables()`` — name -> :class:`~repro.nn.Embedding`
      mapping matching the config's table names;
    * ``dense_blocks()`` — ordered ``(block_name, [parameters])`` pairs in
      forward-pass order (the unit of Block-level Horizontal Scheduling).
    """

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config

    # -- protocol ------------------------------------------------------- #
    def forward_backward(self, batch: Batch) -> float:  # pragma: no cover
        raise NotImplementedError

    def embedding_tables(self) -> dict[str, nn.Embedding]:  # pragma: no cover
        raise NotImplementedError

    def dense_blocks(self) -> list[tuple[str, list[Parameter]]]:  # pragma: no cover
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------- #
    def sparse_grads(self) -> dict[str, SparseRows]:
        """Current sparse gradient per embedding table (tables with none omitted)."""
        out = {}
        for name, table in self.embedding_tables().items():
            if table.weight.grad is not None:
                out[name] = table.weight.grad
        return out

    def last_token_count(self) -> int:
        """Non-padding target tokens in the latest step (throughput unit)."""
        return self._last_tokens

    _last_tokens: int = 0

    def summary(self) -> str:
        """Human-readable per-block parameter table."""
        from repro.utils.tables import Table
        from repro.utils.units import fmt_bytes

        table = Table(
            ["block", "kind", "params", "bytes"],
            title=f"{self.config.name} ({self.num_parameters():,} parameters)",
        )
        for name, emb in self.embedding_tables().items():
            table.add_row(
                [name, "embedding", f"{emb.weight.numel:,}",
                 fmt_bytes(emb.weight.numel * 4)]
            )
        for name, params in self.dense_blocks():
            count = sum(p.numel for p in params)
            table.add_row([name, "dense", f"{count:,}", fmt_bytes(count * 4)])
        return table.render()


class EncoderDecoderModel(BaseNLPModel):
    """The output head GNMT and the Transformer share.

    Subclasses build ``output_projection`` (an ``nn.Linear``).  Training
    sends decoder states through :meth:`_output_head`, the projection
    fused with the loss; decoding sends them through
    ``output_projection``.
    """

    #: Decoder states of the latest ``forward_backward``.
    _last_states: np.ndarray | None = None

    def _output_head(self, dec_h: np.ndarray, dec_target: np.ndarray):
        """``(loss, grad_dec_h)`` of the padding-free projection and
        cross-entropy; the projection's gradients accumulate."""
        proj = self.output_projection
        loss, grad_dec_h, grad_w, grad_b, n_valid = F.linear_cross_entropy(
            dec_h, proj.weight.data, proj.bias.data, dec_target, ignore_index=0
        )
        proj.weight.accumulate(grad_w)
        proj.bias.accumulate(grad_b)
        self._last_states = dec_h
        self._last_tokens = n_valid
        return loss, grad_dec_h

    @property
    def _last_logits(self) -> np.ndarray | None:
        """Logits of the latest ``forward_backward`` at every target
        position, padding included, projected on demand from its decoder
        states.  Read it before an optimizer step moves the projection.
        """
        if self._last_states is None:
            return None
        return self.output_projection(self._last_states)


class SampledSoftmax(nn.Module):
    """Sampled-softmax output layer over a (vocab, dim) embedding table.

    The LM's second huge table (Jozefowicz et al.) — scoring only the
    target classes plus ``num_sampled`` shared negatives keeps both the
    compute and the table gradient *sparse*.  With ``num_sampled=None``
    the full vocabulary is scored (exact softmax), which tiny-scale
    convergence runs use.
    """

    def __init__(
        self,
        table: nn.Embedding,
        num_sampled: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.table = table
        self.num_sampled = num_sampled
        self.rng = rng or np.random.default_rng(0)
        self.last_token_count = 0

    def forward(self, hidden: np.ndarray, targets: np.ndarray, pad_id: int) -> float:
        """Mean CE loss of ``targets`` given ``hidden`` states.

        ``hidden`` is ``(..., dim)``; ``targets`` broadcast to
        ``hidden.shape[:-1]``.  Padding targets are excluded.
        """
        dim = self.table.embedding_dim
        flat_h = hidden.reshape(-1, dim)
        flat_t = np.asarray(targets, dtype=np.int64).reshape(-1)
        vocab = self.table.num_embeddings

        if self.num_sampled is None:
            candidates = np.arange(vocab, dtype=np.int64)
        else:
            positives = np.unique(flat_t[flat_t != pad_id])
            negatives = self.rng.integers(0, vocab, size=self.num_sampled)
            candidates = np.union1d(positives, negatives).astype(np.int64)
        # Map each target to its position within the candidate list.
        positions = np.searchsorted(candidates, flat_t)
        positions = np.clip(positions, 0, len(candidates) - 1)
        valid = (flat_t != pad_id) & (candidates[positions] == flat_t)
        self.last_token_count = int(valid.sum())

        weights = self.table.rows(candidates)  # (C, dim)
        logits = flat_h @ weights.T  # (T, C)
        mapped = np.where(valid, positions, -1)
        loss, grad_logits, _ = F.cross_entropy(logits, mapped, ignore_index=-1)

        def back(upstream=1.0):
            g = grad_logits if upstream == 1.0 else grad_logits * upstream
            grad_h = g @ weights
            grad_w = g.T @ flat_h  # (C, dim)
            self.table.weight.accumulate(
                SparseRows(candidates.copy(), grad_w, vocab, coalesced=True)
            )
            return grad_h.reshape(hidden.shape)

        self._back = back
        return loss

    def backward(self, upstream: float = 1.0):  # type: ignore[override]
        if self._back is None:
            raise RuntimeError("SampledSoftmax.backward before forward")
        back, self._back = self._back, None
        return back(upstream)
