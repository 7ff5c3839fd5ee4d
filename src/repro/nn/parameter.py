"""Parameters: dense arrays with dense or row-sparse gradients."""

from __future__ import annotations

import numpy as np

from repro.tensors import SparseRows


class Parameter:
    """A trainable array plus its accumulated gradient.

    ``sparse_grad=True`` marks embedding-style parameters whose gradient is
    accumulated as a :class:`~repro.tensors.SparseRows` instead of a dense
    array — the distinction EmbRace's hybrid communication is built on.

    A floating array keeps its dtype and is held by reference; any other
    input (ints, nested lists of ints) becomes float64.
    """

    def __init__(self, data: np.ndarray, name: str = "", sparse_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.name = name
        self.sparse_grad = bool(sparse_grad)
        if self.sparse_grad and self.data.ndim != 2:
            raise ValueError(
                f"{name or 'parameter'}: sparse gradients require a 2-D table, "
                f"got shape {self.data.shape}"
            )
        self.grad: np.ndarray | SparseRows | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def accumulate(self, grad: np.ndarray | SparseRows) -> None:
        """Add ``grad`` into the stored gradient (creating it if absent)."""
        if self.sparse_grad:
            if not isinstance(grad, SparseRows):
                raise TypeError(
                    f"{self.name}: expected SparseRows gradient, got {type(grad).__name__}"
                )
            self.grad = grad if self.grad is None else SparseRows.concat([self.grad, grad])
        else:
            grad = np.asarray(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"{self.name}: gradient shape {grad.shape} != data shape {self.data.shape}"
                )
            if self.grad is None:
                self.grad = grad.copy()
            elif np.result_type(self.grad, grad) == self.grad.dtype:
                self.grad += grad
            else:
                self.grad = self.grad + grad

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "sparse" if self.sparse_grad else "dense"
        return f"Parameter({self.name!r}, shape={self.data.shape}, grad={kind})"
