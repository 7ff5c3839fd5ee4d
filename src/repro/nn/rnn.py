"""LSTM cell and full-sequence layer with manual BPTT.

Used by the LM and GNMT-8 model families; the gradients are exact (verified
against finite differences in the test suite).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class LSTMCell(Module):
    """Single-step LSTM with fused gate weights.

    Gate layout along the output axis: ``[input, forget, cell, output]``.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator | None = None,
        name: str = "lstm_cell",
    ):
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError(f"{name}: dims must be positive")
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(
            init.xavier_uniform(rng, (input_dim, 4 * hidden_dim)), name=f"{name}.w_x"
        )
        self.w_h = Parameter(
            init.xavier_uniform(rng, (hidden_dim, 4 * hidden_dim)), name=f"{name}.w_h"
        )
        # Forget-gate bias starts at 1 (standard trick for gradient flow).
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Parameter(bias, name=f"{name}.bias")

    def step(
        self, x: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """One timestep. Returns (h_next, c_next, cache-for-backward)."""
        gates = x @ self.w_x.data + h @ self.w_h.data + self.bias.data
        hd = self.hidden_dim
        i = F.sigmoid(gates[:, :hd])
        f = F.sigmoid(gates[:, hd : 2 * hd])
        g = np.tanh(gates[:, 2 * hd : 3 * hd])
        o = F.sigmoid(gates[:, 3 * hd :])
        c_next = f * c + i * g
        tanh_c = np.tanh(c_next)
        h_next = o * tanh_c
        cache = dict(x=x, h=h, c=c, i=i, f=f, g=g, o=o, tanh_c=tanh_c)
        return h_next, c_next, cache

    def step_backward(
        self,
        grad_h: np.ndarray,
        grad_c: np.ndarray,
        cache: dict,
        accumulate: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward for one timestep.

        Returns ``(grad_x, grad_h_prev, grad_c_prev)``; parameter grads are
        accumulated unless ``accumulate=False``.
        """
        i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
        tanh_c = cache["tanh_c"]
        do = grad_h * tanh_c
        dc = grad_c + grad_h * o * (1.0 - tanh_c**2)
        di = dc * g
        df = dc * cache["c"]
        dg = dc * i
        hd = self.hidden_dim
        d_gates = np.empty((dc.shape[0], 4 * hd), dtype=dc.dtype)
        d_gates[:, :hd] = di * i * (1 - i)
        d_gates[:, hd : 2 * hd] = df * f * (1 - f)
        d_gates[:, 2 * hd : 3 * hd] = dg * (1 - g**2)
        d_gates[:, 3 * hd :] = do * o * (1 - o)
        if accumulate:
            self.w_x.accumulate(cache["x"].T @ d_gates)
            self.w_h.accumulate(cache["h"].T @ d_gates)
            self.bias.accumulate(d_gates.sum(axis=0))
        grad_x = d_gates @ self.w_x.data.T
        grad_h_prev = d_gates @ self.w_h.data.T
        grad_c_prev = dc * f
        return grad_x, grad_h_prev, grad_c_prev

    def forward(self, x, state=None):
        """Module-protocol single step over ``(batch, input_dim)``."""
        dtype = self.w_x.data.dtype
        x = np.asarray(x, dtype=dtype)
        batch = x.shape[0]
        if state is None:
            h = np.zeros((batch, self.hidden_dim), dtype=dtype)
            c = np.zeros((batch, self.hidden_dim), dtype=dtype)
        else:
            h, c = state
        h_next, c_next, cache = self.step(x, h, c)

        def back(grad_h):
            grad_x, _, _ = self.step_backward(
                np.asarray(grad_h), np.zeros_like(c_next), cache
            )
            return grad_x

        self._back = back
        return h_next, c_next


class LSTM(Module):
    """Stacked unidirectional LSTM over ``(batch, seq, input_dim)``.

    ``forward`` returns the top-layer hidden sequence
    ``(batch, seq, hidden_dim)``; ``backward`` runs truncated-free BPTT
    through every layer and timestep.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
        name: str = "lstm",
    ):
        super().__init__()
        if num_layers <= 0:
            raise ValueError(f"{name}: num_layers must be positive")
        rng = rng or np.random.default_rng(0)
        self.num_layers = num_layers
        self.hidden_dim = hidden_dim
        self.cells = [
            LSTMCell(
                input_dim if layer == 0 else hidden_dim,
                hidden_dim,
                rng=rng,
                name=f"{name}.cell{layer}",
            )
            for layer in range(num_layers)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        dtype = self.cells[0].w_x.data.dtype
        x = np.asarray(x, dtype=dtype)
        if x.ndim != 3:
            raise ValueError(f"LSTM input must be (batch, seq, dim), got {x.shape}")
        batch, seq, _ = x.shape
        caches: list[list[dict]] = [[] for _ in self.cells]
        layer_in = x
        for li, cell in enumerate(self.cells):
            h = np.zeros((batch, self.hidden_dim), dtype=dtype)
            c = np.zeros((batch, self.hidden_dim), dtype=dtype)
            outs = np.empty((batch, seq, self.hidden_dim), dtype=dtype)
            for t in range(seq):
                h, c, cache = cell.step(layer_in[:, t], h, c)
                caches[li].append(cache)
                outs[:, t] = h
            layer_in = outs

        def back(grad):
            grad = np.asarray(grad)
            grad_seq = grad
            for li in range(self.num_layers - 1, -1, -1):
                cell = self.cells[li]
                grad_in = np.zeros((batch, seq, cell.input_dim), dtype=dtype)
                gh = np.zeros((batch, self.hidden_dim), dtype=dtype)
                gc = np.zeros((batch, self.hidden_dim), dtype=dtype)
                for t in range(seq - 1, -1, -1):
                    gx, gh, gc = cell.step_backward(
                        grad_seq[:, t] + gh, gc, caches[li][t]
                    )
                    grad_in[:, t] = gx
                grad_seq = grad_in
            return grad_seq

        self._back = back
        return layer_in
