"""Row-sparse COO tensors with PyTorch-equivalent semantics.

Embedding gradients are sparse along the row (vocabulary) dimension only:
an entry is a ``(row_index, value_vector)`` pair.  This matches how PyTorch
represents ``Embedding(sparse=True)`` gradients, and it is the object that
EmbRace's Vertical Sparse Scheduling (Algorithm 1) manipulates:

* ``coalesce``   — sum rows with duplicate indices (COALESCE in Alg. 1),
* ``index_select`` — pick the sub-gradient for a set of rows
  (INDEX_SELECT in Alg. 1, used to form prior/delayed parts),
* ``to_dense`` / ``add_to`` — materialize or scatter-add into a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def sorted_union(arrays: list[np.ndarray]) -> np.ndarray:
    """Sorted-unique union of sorted-unique index sets, as a new int64
    array (inputs may be narrow wire views that die after the merge).

    Concatenate, radix-sort (numpy's stable sort for ints, O(n)), and
    drop adjacent duplicates.  Exact — integer set union — and an order
    of magnitude faster than chaining ``np.union1d``, which re-hashes
    the accumulated set at every step.
    """
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    if len(arrays) == 1:
        return np.array(arrays[0], dtype=np.int64)
    cat = np.concatenate(arrays, dtype=np.int64)
    cat.sort(kind="stable")
    keep = np.empty(len(cat), dtype=np.bool_)
    keep[0] = True
    np.not_equal(cat[1:], cat[:-1], out=keep[1:])
    return cat[keep]


def _intp_parts(parts):
    """The non-empty parts, indices as intp: a narrow (int32 wire) index
    array would otherwise be cast again by every index operation."""
    for idx, vals in parts:
        if len(idx):
            yield np.asarray(idx, dtype=np.intp), vals


@dataclass
class SparseRows:
    """A row-sparse 2-D tensor: ``values[k]`` belongs to row ``indices[k]``.

    Invariants enforced at construction: ``indices`` is 1-D int64,
    ``values`` is 2-D float with ``len(values) == len(indices)``, and all
    indices lie in ``[0, num_rows)``.
    """

    indices: np.ndarray
    values: np.ndarray
    num_rows: int
    coalesced: bool = False
    # Lazily-computed distinct-row count; coalesced tensors know it for free.
    _distinct_rows: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {self.indices.shape}")
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if len(self.indices) != len(self.values):
            raise ValueError(
                f"{len(self.indices)} indices vs {len(self.values)} value rows"
            )
        if self.num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {self.num_rows}")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_rows
        ):
            raise ValueError(
                f"indices out of range [0, {self.num_rows}): "
                f"[{self.indices.min()}, {self.indices.max()}]"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, num_rows: int, dim: int, *, dtype) -> "SparseRows":
        """A sparse tensor with no stored rows, of value type ``dtype``."""
        return cls(
            indices=np.empty(0, dtype=np.int64),
            values=np.empty((0, dim), dtype=dtype),
            num_rows=num_rows,
            coalesced=True,
        )

    @classmethod
    def merge_coalesced(
        cls,
        parts: list[tuple[np.ndarray, np.ndarray]],
        num_rows: int,
        dim: int,
        *,
        dtype,
    ) -> "SparseRows":
        """Merge sorted-unique ``(indices, values)`` runs into one tensor.

        ``dtype`` is the accumulator's value type — required, so a
        float32 merge never silently runs in a float64 accumulator.

        Each part is a sorted run (an already-coalesced gradient);
        positions come from a ``searchsorted`` into the merged index
        union and values accumulate part by part in list order.  Per
        output row the first contribution is *assigned* (so ``-0.0``
        survives) and later ones add **left-to-right in part order** — the
        ``np.add.at`` scatter grouping, which the sparse collectives
        define as the canonical cross-rank sum.  Note this is not
        always ``concat(parts).coalesce()`` to the last bit: for rows
        contributed by four or more parts, ``coalesce``'s ``reduceat``
        uses pairwise summation, which may differ by an ulp.

        The sparse collectives' hot finish: merging the per-rank parts
        this way is several times cheaper than sorting their
        concatenation.  High-coverage merges (parts totalling a quarter
        of the row space or more) scatter into a dense ``(num_rows,
        dim)`` accumulator by raw row index instead — no searchsorted,
        union from the written mask — with a bit-identical result.
        """
        total = sum(len(idx) for idx, _ in parts)
        if total * 4 >= num_rows:
            # Dense-accumulator finish: when the parts cover a sizable
            # fraction of the row space, scatter by raw row index into a
            # (num_rows, dim) scratch — no searchsorted, and the union
            # falls out of the written mask.  Same assign-then-add
            # sequence per row, so bit-identical to the sparse finish.
            acc = np.empty((num_rows, dim), dtype=dtype)
            written = np.zeros(num_rows, dtype=np.bool_)
            for idx, vals in _intp_parts(parts):
                seen = written[idx]
                if seen.any():
                    fresh = ~seen
                    acc[idx[fresh]] = vals[fresh]
                    acc[idx[seen]] += vals[seen]
                else:
                    acc[idx] = vals
                written[idx] = True
            rows = np.flatnonzero(written)
            return cls(rows, acc[rows], num_rows, coalesced=True)
        union = sorted_union([idx for idx, _ in parts])
        if len(union) == 0:
            return cls.empty(num_rows, dim, dtype=dtype)
        out = np.empty((len(union), dim), dtype=dtype)
        written = np.zeros(len(union), dtype=np.bool_)
        for idx, vals in _intp_parts(parts):
            pos = np.searchsorted(union, idx)
            seen = written[pos]
            if seen.any():
                fresh = ~seen
                out[pos[fresh]] = vals[fresh]
                out[pos[seen]] += vals[seen]
            else:
                out[pos] = vals
            written[pos] = True
        return cls(np.asarray(union), out, num_rows, coalesced=True)

    @classmethod
    def from_dense(cls, dense: np.ndarray, atol: float = 0.0) -> "SparseRows":
        """Extract the rows of ``dense`` whose max-abs exceeds ``atol``."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"from_dense requires a 2-D array, got {dense.shape}")
        mask = np.abs(dense).max(axis=1) > atol
        idx = np.nonzero(mask)[0].astype(np.int64)
        return cls(idx, dense[idx].copy(), dense.shape[0], coalesced=True)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nnz_rows(self) -> int:
        """Number of stored (possibly duplicate) rows."""
        return len(self.indices)

    @property
    def dim(self) -> int:
        """Row width (embedding dimension)."""
        return self.values.shape[1]

    @property
    def nbytes(self) -> int:
        """In-memory size: value payload plus int64 indices (the wire
        sends the indices narrower, see ``repro.comm.ids_dtype``)."""
        return int(self.values.nbytes + self.indices.nbytes)

    @property
    def density(self) -> float:
        """Fraction of distinct rows stored, in [0, 1]."""
        if self.nnz_rows == 0:
            return 0.0
        if self._distinct_rows is None:
            self._distinct_rows = (
                self.nnz_rows if self.coalesced else len(np.unique(self.indices))
            )
        return self._distinct_rows / self.num_rows

    def __len__(self) -> int:
        return self.nnz_rows

    # ------------------------------------------------------------------ #
    # Core operations (Algorithm 1 building blocks)
    # ------------------------------------------------------------------ #
    def coalesce(self) -> "SparseRows":
        """Sum duplicate row indices into single rows; sort by index.

        Equivalent to ``torch.sparse_coo_tensor(...).coalesce()`` restricted
        to row sparsity.  Idempotent; returns self when already coalesced.
        """
        if self.coalesced:
            return self
        if self.nnz_rows == 0:
            return SparseRows(self.indices, self.values, self.num_rows, coalesced=True)
        # Stable sort keeps duplicates in storage order; grouping follows
        # ``np.add.reduceat`` exactly.  Duplicates are typically rare
        # (embedding batches draw far fewer rows than the vocabulary), so
        # groups of up to four rows are summed vectorized in reduceat's
        # empirically-pinned fold order — bit-identical, guarded by the
        # randomized equivalence test — and only the rare larger groups
        # run reduceat itself, on their own slice.  A duplicate-heavy
        # input falls back to one full reduceat pass.
        order = np.argsort(self.indices, kind="stable")
        sorted_idx = self.indices[order]
        starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
        counts = np.diff(starts, append=len(sorted_idx))
        big = np.flatnonzero(counts >= 5)
        if len(big) > max(64, len(starts) // 16):
            summed = np.add.reduceat(
                np.take(self.values, order, axis=0), starts, axis=0
            )
        else:
            # Gather source rows through the composed index (``order`` at
            # each group offset) instead of materializing the permuted
            # copy: every source row is read exactly once.
            v = self.values
            summed = np.empty((len(starts), self.dim), dtype=v.dtype)
            ones = counts == 1
            summed[ones] = v[order[starts[ones]]]
            twos = counts == 2
            s2 = starts[twos]
            if len(s2):
                summed[twos] = v[order[s2]] + v[order[s2 + 1]]
            threes = counts == 3
            s3 = starts[threes]
            if len(s3):  # reduceat folds a 3-group as x0 + (x1 + x2)
                summed[threes] = v[order[s3]] + (v[order[s3 + 1]] + v[order[s3 + 2]])
            fours = counts == 4
            s4 = starts[fours]
            if len(s4):  # ... and a 4-group as x0 + ((x1 + x2) + x3)
                summed[fours] = v[order[s4]] + (
                    (v[order[s4 + 1]] + v[order[s4 + 2]]) + v[order[s4 + 3]]
                )
            for j in big:
                s = starts[j]
                summed[j] = np.add.reduceat(
                    v[order[s : s + counts[j]]], [0], axis=0
                )[0]
        return SparseRows(sorted_idx[starts], summed, self.num_rows, coalesced=True)

    def index_select(self, rows: np.ndarray) -> "SparseRows":
        """Sub-gradient containing only the stored rows whose index is in ``rows``.

        Rows requested but not stored are simply absent from the result
        (their gradient is zero).  The input may be unsorted and contain
        duplicates; the output follows this tensor's storage order.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if len(rows) and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise ValueError(
                f"requested rows out of range [0, {self.num_rows})"
            )
        mask = np.isin(self.indices, rows, assume_unique=False)
        return SparseRows(
            self.indices[mask],
            self.values[mask],
            self.num_rows,
            coalesced=self.coalesced,
        )

    def split(self, rows: np.ndarray) -> tuple["SparseRows", "SparseRows"]:
        """Partition into (rows in ``rows``, rows not in ``rows``).

        This is the prior/delayed split of Algorithm 1 expressed on the
        tensor itself; the two parts are disjoint and together hold exactly
        the stored rows.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        mask = np.isin(self.indices, rows)
        inside = SparseRows(
            self.indices[mask], self.values[mask], self.num_rows, self.coalesced
        )
        outside = SparseRows(
            self.indices[~mask], self.values[~mask], self.num_rows, self.coalesced
        )
        return inside, outside

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``(num_rows, dim)`` array (sums duplicates)."""
        out = np.zeros((self.num_rows, self.dim), dtype=self.values.dtype)
        np.add.at(out, self.indices, self.values)
        return out

    def add_to(self, table: np.ndarray, scale: float = 1.0) -> None:
        """Scatter-add ``scale * values`` into ``table`` in place."""
        table = np.asarray(table)
        if table.shape != (self.num_rows, self.dim):
            raise ValueError(
                f"table shape {table.shape} != ({self.num_rows}, {self.dim})"
            )
        np.add.at(table, self.indices, scale * self.values)

    def scale(self, factor: float) -> "SparseRows":
        """Return a copy with values multiplied by ``factor``."""
        return SparseRows(
            self.indices.copy(), self.values * factor, self.num_rows, self.coalesced
        )

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #
    @staticmethod
    def concat(parts: list["SparseRows"]) -> "SparseRows":
        """Stack several sparse tensors over the same row space (no coalescing)."""
        if not parts:
            raise ValueError("concat requires at least one part")
        num_rows = parts[0].num_rows
        dim = parts[0].dim
        for p in parts[1:]:
            if p.num_rows != num_rows or p.dim != dim:
                raise ValueError("all parts must share num_rows and dim")
        return SparseRows(
            np.concatenate([p.indices for p in parts]),
            np.concatenate([p.values for p in parts]),
            num_rows,
            coalesced=False,
        )

    def __add__(self, other: "SparseRows") -> "SparseRows":
        """Sparse sum: concatenate then coalesce."""
        if not isinstance(other, SparseRows):
            return NotImplemented
        return SparseRows.concat([self, other]).coalesce()

    def allclose(self, other: "SparseRows", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Numerically compare after coalescing (order-insensitive)."""
        a, b = self.coalesce(), other.coalesce()
        if a.num_rows != b.num_rows or a.dim != b.dim:
            return False
        if not np.array_equal(a.indices, b.indices):
            return False
        return np.allclose(a.values, b.values, rtol=rtol, atol=atol)
