"""Transformer encoder/decoder layers (pre-LN residual blocks)."""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.feedforward import FeedForward
from repro.nn.layernorm import LayerNorm
from repro.nn.module import Module


class TransformerLayer(Module):
    """One pre-LN Transformer block, optionally with a cross-attention stage.

    Encoder layers: ``forward(x)``.
    Decoder layers (``cross_attention=True``): ``forward(x, memory=enc_out,
    causal=True)``; ``backward`` then returns ``(grad_x, grad_memory)``.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_dim: int,
        cross_attention: bool = False,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
        name: str = "layer",
        dtype=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cross_attention = cross_attention
        self.ln1 = LayerNorm(dim, name=f"{name}.ln1", dtype=dtype)
        self.attn = MultiHeadAttention(
            dim, num_heads, rng=rng, name=f"{name}.attn", dtype=dtype
        )
        if cross_attention:
            self.ln_cross = LayerNorm(dim, name=f"{name}.ln_cross", dtype=dtype)
            self.cross = MultiHeadAttention(
                dim, num_heads, rng=rng, name=f"{name}.cross", dtype=dtype
            )
        self.ln2 = LayerNorm(dim, name=f"{name}.ln2", dtype=dtype)
        self.ffn = FeedForward(
            dim, ffn_dim, activation=activation, rng=rng, name=f"{name}.ffn", dtype=dtype
        )

    def forward(
        self,
        x: np.ndarray,
        memory: np.ndarray | None = None,
        causal: bool = False,
    ) -> np.ndarray:
        if self.cross_attention and memory is None:
            raise ValueError("decoder layer requires encoder memory")
        if not self.cross_attention and memory is not None:
            raise ValueError("encoder layer does not accept memory")

        h = x + self.attn(self.ln1(x), causal=causal)
        if self.cross_attention:
            h = h + self.cross(self.ln_cross(h), kv_in=memory)
        out = h + self.ffn(self.ln2(h))

        def back(grad):
            grad = np.asarray(grad)
            grad_h = grad + self.ln2.backward(self.ffn.backward(grad))
            grad_memory = None
            if self.cross_attention:
                gq, grad_memory = self.cross.backward(grad_h)
                grad_h = grad_h + self.ln_cross.backward(gq)
            grad_x = grad_h + self.ln1.backward(self.attn.backward(grad_h))
            if self.cross_attention:
                return grad_x, grad_memory
            return grad_x

        self._back = back
        return out
