"""Layer normalization over the last axis."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter


class LayerNorm(Module):
    """``y = gamma * (x - mean) / sqrt(var + eps) + beta`` over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5, name: str = "ln"):
        super().__init__()
        if dim <= 0:
            raise ValueError(f"{name}: dim must be positive, got {dim}")
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.gamma.data.dtype)
        if x.shape[-1] != self.dim:
            raise ValueError(f"{self.gamma.name}: last dim {x.shape[-1]} != {self.dim}")
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered**2).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered * inv_std
        out = self.gamma.data * x_hat + self.beta.data

        def back(grad):
            grad = np.asarray(grad)
            flat_g = grad.reshape(-1, self.dim)
            flat_xhat = x_hat.reshape(-1, self.dim)
            self.gamma.accumulate((flat_g * flat_xhat).sum(axis=0))
            self.beta.accumulate(flat_g.sum(axis=0))
            # dL/dx via the standard layernorm backward identity.
            g_xhat = grad * self.gamma.data
            n = self.dim
            dx = (
                g_xhat
                - g_xhat.mean(axis=-1, keepdims=True)
                - x_hat * (g_xhat * x_hat).mean(axis=-1, keepdims=True)
            ) * inv_std
            return dx

        self._back = back
        return out
