"""Tensor substrate: dense metadata wrapper and COO sparse tensors.

The EmbRace mechanisms operate on PyTorch-style COO sparse gradients
(row indices + value rows).  :class:`~repro.tensors.coo.SparseRows`
reimplements the subset of COO semantics the paper relies on —
``coalesce`` (sum duplicate rows), ``index_select`` (split into
prior/delayed parts), and dense scatter-add application.
"""

from repro.tensors.coo import SparseRows, sorted_union
from repro.tensors.dense import TensorSpec
from repro.tensors.ops import (
    rows_intersect,
    rows_member,
    rows_setdiff,
    scatter_add_rows,
    unique_rows,
)

__all__ = [
    "SparseRows",
    "sorted_union",
    "TensorSpec",
    "rows_intersect",
    "rows_member",
    "rows_setdiff",
    "scatter_add_rows",
    "unique_rows",
]
