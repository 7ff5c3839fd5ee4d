"""Vectorized row-set operations used throughout the scheduling layer.

Algorithm 1 of the paper is a sequence of set operations over token-id
arrays (UNIQUE, intersection, difference) plus scatter-adds; these helpers
implement them with numpy set routines so they stay O(n log n).
"""

from __future__ import annotations

import numpy as np


def unique_rows(ids: np.ndarray) -> np.ndarray:
    """Sorted unique int64 ids (UNIQUE in Algorithm 1)."""
    return np.unique(np.asarray(ids, dtype=np.int64).ravel())


def rows_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted intersection of two id sets (``i_prior`` in Algorithm 1)."""
    return np.intersect1d(
        np.asarray(a, dtype=np.int64).ravel(),
        np.asarray(b, dtype=np.int64).ravel(),
        assume_unique=False,
    )


def rows_setdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted ``a \\ b`` (``i_delayed`` in Algorithm 1)."""
    return np.setdiff1d(
        np.asarray(a, dtype=np.int64).ravel(),
        np.asarray(b, dtype=np.int64).ravel(),
        assume_unique=False,
    )


def rows_member(sorted_rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask over ``sorted_rows`` (sorted, unique): True where the row
    occurs in ``ids`` (any order, duplicates allowed).

    One ``searchsorted`` of ``ids`` into the rows — no sort, no table
    over the row space — so it costs the same whether the rows index one
    table or a group's whole stacked row space.
    """
    sorted_rows = np.asarray(sorted_rows, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64).ravel()
    mask = np.zeros(len(sorted_rows), dtype=np.bool_)
    if len(sorted_rows) and len(ids):
        pos = np.searchsorted(sorted_rows, ids)
        pos[pos == len(sorted_rows)] = 0
        mask[pos[sorted_rows[pos] == ids]] = True
    return mask


def scatter_add_rows(
    table: np.ndarray, indices: np.ndarray, rows: np.ndarray, scale: float = 1.0
) -> None:
    """In-place ``table[indices] += scale * rows`` with duplicate accumulation."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.asarray(rows)
    if rows.shape[0] != indices.shape[0]:
        raise ValueError(
            f"{indices.shape[0]} indices vs {rows.shape[0]} value rows"
        )
    np.add.at(table, indices, scale * rows)
