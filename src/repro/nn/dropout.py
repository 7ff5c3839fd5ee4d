"""Inverted dropout with an explicit RNG."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.validation import check_probability


class Dropout(Module):
    """Zero activations with probability ``p`` during training; identity in eval."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        check_probability("p", p)
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if not self.training or self.p == 0.0:
            self._back = lambda grad: grad
            return x
        keep = 1.0 - self.p
        mask = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
        self._back = lambda grad: grad * mask
        return x * mask
