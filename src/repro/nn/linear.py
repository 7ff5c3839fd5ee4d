"""Affine layer ``y = x @ W + b``."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Linear(Module):
    """Dense affine map over the last axis.

    Accepts inputs of shape ``(..., in_features)``; weight gradients are
    accumulated densely (AllReduce traffic in the paper's taxonomy).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "linear",
        dtype=None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"{name}: features must be positive, got ({in_features}, {out_features})"
            )
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform(rng, (in_features, out_features), dtype),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(np.zeros(out_features, dtype=dtype), name=f"{name}.bias")
            if bias
            else None
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.data.dtype)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.weight.name}: input last dim {x.shape[-1]} != {self.in_features}"
            )
        # One 2-D GEMM for any number of leading axes: a stacked ``@``
        # would issue one small GEMM per leading index.
        rows = x.reshape(-1, self.in_features)
        out = rows @ self.weight.data
        if self.bias is not None:
            out += self.bias.data

        def back(grad):
            flat_g = np.asarray(grad).reshape(-1, self.out_features)
            self.weight.accumulate(rows.T @ flat_g)
            if self.bias is not None:
                self.bias.accumulate(flat_g.sum(axis=0))
            return (flat_g @ self.weight.data.T).reshape(x.shape)

        self._back = back
        return out.reshape(*x.shape[:-1], self.out_features)
