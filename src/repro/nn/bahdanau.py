"""Bahdanau (additive) attention — the GNMT attention mechanism.

``score(q, k) = v^T tanh(W_q q + W_k k)``; the context for each decoder
position is the attention-weighted sum of encoder states.  Full manual
backward, verified against finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class BahdanauAttention(Module):
    """Additive attention over ``(batch, src_len, enc_dim)`` memories.

    ``forward(queries, memory)`` with queries ``(batch, tgt_len, dec_dim)``
    returns contexts ``(batch, tgt_len, enc_dim)``.  ``backward(grad)``
    returns ``(grad_queries, grad_memory)``.
    """

    def __init__(
        self,
        dec_dim: int,
        enc_dim: int,
        attn_dim: int,
        rng: np.random.Generator | None = None,
        name: str = "attention",
        dtype=None,
    ):
        super().__init__()
        if min(dec_dim, enc_dim, attn_dim) <= 0:
            raise ValueError(f"{name}: dims must be positive")
        rng = rng or np.random.default_rng(0)
        self.w_query = Parameter(
            init.xavier_uniform(rng, (dec_dim, attn_dim), dtype), name=f"{name}.w_query"
        )
        self.w_key = Parameter(
            init.xavier_uniform(rng, (enc_dim, attn_dim), dtype), name=f"{name}.w_key"
        )
        self.v = Parameter(
            init.xavier_uniform(rng, (attn_dim, 1), dtype)[:, 0], name=f"{name}.v"
        )

    def forward(self, queries: np.ndarray, memory: np.ndarray) -> np.ndarray:
        dtype = self.w_query.data.dtype
        queries = np.asarray(queries, dtype=dtype)
        memory = np.asarray(memory, dtype=dtype)
        if queries.ndim != 3 or memory.ndim != 3:
            raise ValueError("queries and memory must be (batch, len, dim)")

        q_proj = queries @ self.w_query.data  # (b, tq, a)
        k_proj = memory @ self.w_key.data  # (b, ts, a)
        # Broadcast add: (b, tq, ts, a)
        pre = q_proj[:, :, None, :] + k_proj[:, None, :, :]
        np.tanh(pre, out=pre)
        scores = pre @ self.v.data  # (b, tq, ts)
        probs = F.softmax(scores, axis=-1)
        context = probs @ memory  # (b, tq, enc)

        def back(grad):
            grad = np.asarray(grad)
            grad_probs = grad @ memory.transpose(0, 2, 1)  # (b, tq, ts)
            grad_memory = probs.transpose(0, 2, 1) @ grad  # (b, ts, enc)
            grad_scores = F.softmax_backward(grad_probs, probs, axis=-1)
            # scores = pre @ v
            self.v.accumulate(
                np.einsum("bqs,bqsa->a", grad_scores, pre)
            )
            grad_pre = grad_scores[..., None] * self.v.data  # (b, tq, ts, a)
            grad_pre *= 1.0 - pre**2  # tanh'
            grad_qproj = grad_pre.sum(axis=2)  # (b, tq, a)
            grad_kproj = grad_pre.sum(axis=1)  # (b, ts, a)
            bq = queries.reshape(-1, queries.shape[-1])
            bk = memory.reshape(-1, memory.shape[-1])
            self.w_query.accumulate(bq.T @ grad_qproj.reshape(-1, grad_qproj.shape[-1]))
            self.w_key.accumulate(bk.T @ grad_kproj.reshape(-1, grad_kproj.shape[-1]))
            grad_queries = grad_qproj @ self.w_query.data.T
            grad_memory = grad_memory + grad_kproj @ self.w_key.data.T
            return grad_queries, grad_memory

        self._back = back
        return context
