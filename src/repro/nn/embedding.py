"""Embedding lookup with row-sparse gradients (the paper's central layer)."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensors import SparseRows


class RowBlock:
    """Full-width rows of a table that stores only some of its columns.

    ``values[i]`` is row ``ids[i]``; ``ids`` is sorted and unique, so
    :meth:`take` maps a batch's ids to their slots with one
    ``searchsorted``.
    """

    __slots__ = ("ids", "values")

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        self.ids = ids
        self.values = values

    def take(self, ids: np.ndarray, padding_idx: int | None = None) -> np.ndarray:
        """Rows ``ids`` (any shape) -> ``ids.shape + (dim,)``.

        A row outside the block raises, except ``padding_idx``: that row
        is frozen at zero, so it reads as zeros without being held.
        """
        flat = ids.reshape(-1)
        dim = self.values.shape[1]
        if len(self.ids):
            slots = np.searchsorted(self.ids, flat)
            np.minimum(slots, len(self.ids) - 1, out=slots)
            missing = self.ids[slots] != flat
            out = self.values[slots]
        else:
            missing = np.ones(flat.shape, dtype=np.bool_)
            out = np.empty((len(flat), dim), dtype=self.values.dtype)
        if missing.any():
            if padding_idx is None or np.any(flat[missing] != padding_idx):
                raise ValueError(
                    f"rows {np.unique(flat[missing])[:8].tolist()} are not in the row block"
                )
            out[missing] = 0.0
        return out.reshape(ids.shape + (dim,))


class Embedding(Module):
    """Token-id -> vector lookup; gradient is a :class:`SparseRows`.

    Matches ``torch.nn.Embedding(sparse=True)`` semantics:

    * ``forward(ids)`` gathers rows for arbitrary-shaped integer ids,
    * the backward pass produces one (possibly duplicate-indexed) gradient
      row per looked-up token — **uncoalesced**, which is exactly the
      "Original Grad Size" column of the paper's Table 3,
    * ``padding_idx`` rows receive no gradient and stay frozen.

    The table is drawn into ``dtype`` (``None``: float64) with
    :func:`repro.nn.init.normal`, so a float32 table never has a
    double-precision copy.

    A column-partitioned owner (EmbRace's
    :class:`~repro.engine.embrace_runtime.TableGroupRuntime`) keeps only
    its own columns in ``weight`` and installs the full-width rows the
    current batch reads as ``block``; lookups then read the block.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: int | None = None,
        rng: np.random.Generator | None = None,
        name: str = "embedding",
        dtype=None,
    ):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"{name}: sizes must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        if padding_idx is not None and not 0 <= padding_idx < num_embeddings:
            raise ValueError(f"{name}: padding_idx {padding_idx} out of range")
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = Parameter(
            init.normal(rng, (num_embeddings, embedding_dim), dtype=dtype),
            name=f"{name}.weight",
            sparse_grad=True,
        )
        if padding_idx is not None:
            self.weight.data[padding_idx] = 0.0
        #: The rows lookups read when ``weight`` holds only some columns.
        self.block: RowBlock | None = None

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Full-width rows ``ids`` (any shape), from ``block`` when one is
        installed, else from ``weight``; records no gradient."""
        if self.block is None:
            return self.weight.data[ids]
        return self.block.take(ids, self.padding_idx)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ValueError(
                f"{self.weight.name}: ids out of range [0, {self.num_embeddings})"
            )
        out = self.rows(ids)

        def back(grad):
            grad = np.asarray(grad)
            flat_ids = ids.reshape(-1)
            flat_grad = grad.reshape(-1, self.embedding_dim)
            if self.padding_idx is not None:
                keep = flat_ids != self.padding_idx
                flat_ids = flat_ids[keep]
                flat_grad = flat_grad[keep]
            self.weight.accumulate(
                SparseRows(
                    flat_ids.copy(),
                    flat_grad.copy(),
                    num_rows=self.num_embeddings,
                    coalesced=False,
                )
            )
            return None  # ids carry no gradient

        self._back = back
        return out
