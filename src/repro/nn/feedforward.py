"""Position-wise feed-forward block (Transformer FFN)."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.utils.validation import check_in


class FeedForward(Module):
    """``Linear -> activation -> Linear`` applied per position."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
        name: str = "ffn",
        dtype=None,
    ):
        super().__init__()
        check_in("activation", activation, {"relu", "gelu"})
        rng = rng or np.random.default_rng(0)
        self.activation = activation
        self.fc1 = Linear(dim, hidden_dim, rng=rng, name=f"{name}.fc1", dtype=dtype)
        self.fc2 = Linear(hidden_dim, dim, rng=rng, name=f"{name}.fc2", dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.fc1(x)
        if self.activation == "relu":
            act = F.relu(hidden)
            act_back = lambda g: F.relu_backward(g, hidden)
        else:
            act = F.gelu(hidden)
            act_back = lambda g: F.gelu_backward(g, hidden)
        out = self.fc2(act)

        def back(grad):
            grad = self.fc2.backward(grad)
            grad = act_back(grad)
            return self.fc1.backward(grad)

        self._back = back
        return out
