"""Multi-head scaled-dot-product attention with full manual backward."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.linear import Linear
from repro.nn.module import Module


class MultiHeadAttention(Module):
    """Self- or cross-attention over ``(batch, seq, dim)`` inputs.

    ``forward(q, kv=None, causal=False)`` — when ``kv`` is ``None`` the
    layer performs self-attention; ``causal=True`` applies a lower-
    triangular mask (decoder self-attention).  ``backward`` returns
    ``grad_q`` (self-attention) or ``(grad_q, grad_kv)`` (cross-attention).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
        name: str = "attn",
        dtype=None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"{name}: dim {dim} not divisible by heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.wq = Linear(dim, dim, rng=rng, name=f"{name}.wq", dtype=dtype)
        self.wk = Linear(dim, dim, rng=rng, name=f"{name}.wk", dtype=dtype)
        self.wv = Linear(dim, dim, rng=rng, name=f"{name}.wv", dtype=dtype)
        self.wo = Linear(dim, dim, rng=rng, name=f"{name}.wo", dtype=dtype)

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, s, _ = x.shape
        return x.reshape(b, s, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, s, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * d)

    def forward(
        self,
        q_in: np.ndarray,
        kv_in: np.ndarray | None = None,
        causal: bool = False,
    ) -> np.ndarray:
        dtype = self.wq.weight.data.dtype
        q_in = np.asarray(q_in, dtype=dtype)
        self_attention = kv_in is None
        kv = q_in if self_attention else np.asarray(kv_in, dtype=dtype)
        if q_in.ndim != 3 or kv.ndim != 3:
            raise ValueError("attention inputs must be (batch, seq, dim)")

        q = self._split_heads(self.wq(q_in))
        k = self._split_heads(self.wk(kv))
        v = self._split_heads(self.wv(kv))

        # A Python float, so it scales in the activations' dtype.
        scale = float(1.0 / np.sqrt(self.head_dim))
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if causal:
            sq, sk = scores.shape[-2], scores.shape[-1]
            mask = np.triu(np.ones((sq, sk), dtype=bool), k=1)
            scores = np.where(mask, -1e30, scores)
        probs = F.softmax(scores, axis=-1)
        context = probs @ v
        out = self.wo(self._merge_heads(context))

        def back(grad):
            grad_ctx = self._split_heads(self.wo.backward(np.asarray(grad)))
            grad_probs = grad_ctx @ v.transpose(0, 1, 3, 2)
            grad_v = probs.transpose(0, 1, 3, 2) @ grad_ctx
            grad_scores = F.softmax_backward(grad_probs, probs, axis=-1) * scale
            grad_q = grad_scores @ k
            grad_k = grad_scores.transpose(0, 1, 3, 2) @ q
            dq_in = self.wq.backward(self._merge_heads(grad_q))
            dk_in = self.wk.backward(self._merge_heads(grad_k))
            dv_in = self.wv.backward(self._merge_heads(grad_v))
            if self_attention:
                return dq_in + dk_in + dv_in
            return dq_in, dk_in + dv_in

        self._back = back
        return out
