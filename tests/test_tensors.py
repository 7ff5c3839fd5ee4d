"""Unit + property tests for repro.tensors (COO semantics underlying Alg. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensors import (
    SparseRows,
    TensorSpec,
    rows_intersect,
    rows_setdiff,
    scatter_add_rows,
    sorted_union,
    unique_rows,
)


# --------------------------------------------------------------------- #
# TensorSpec
# --------------------------------------------------------------------- #
class TestTensorSpec:
    def test_sizes(self):
        spec = TensorSpec("emb", (1000, 256))
        assert spec.numel == 256_000
        assert spec.itemsize == 4
        assert spec.nbytes == 1_024_000
        assert spec.mb == pytest.approx(1.024)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TensorSpec("x", ())
        with pytest.raises(ValueError):
            TensorSpec("x", (0, 5))

    def test_rejects_bad_dtype(self):
        with pytest.raises(TypeError):
            TensorSpec("x", (2,), dtype="notadtype")

    def test_with_rows(self):
        spec = TensorSpec("emb", (1000, 64))
        sub = spec.with_rows(10)
        assert sub.shape == (10, 64)
        with pytest.raises(ValueError):
            spec.with_rows(0)
        with pytest.raises(ValueError):
            TensorSpec("v", (5,)).with_rows(2)

    def test_column_shard_covers_all_columns(self):
        spec = TensorSpec("emb", (100, 10))
        widths = [spec.column_shard(4, r).shape[1] for r in range(4)]
        assert sum(widths) == 10
        assert max(widths) - min(widths) <= 1
        # Every shard keeps the full vocabulary (column-wise property, §4.1.1).
        assert all(spec.column_shard(4, r).shape[0] == 100 for r in range(4))

    def test_row_shard_covers_all_rows(self):
        spec = TensorSpec("emb", (103, 8))
        heights = [spec.row_shard(4, r).shape[0] for r in range(4)]
        assert sum(heights) == 103
        assert max(heights) - min(heights) <= 1

    def test_shard_rank_range(self):
        spec = TensorSpec("emb", (10, 10))
        with pytest.raises(ValueError):
            spec.column_shard(4, 4)
        with pytest.raises(ValueError):
            spec.row_shard(4, -1)

    def test_column_shard_too_many_ranks(self):
        with pytest.raises(ValueError):
            TensorSpec("e", (10, 2)).column_shard(3, 2)


# --------------------------------------------------------------------- #
# SparseRows basics
# --------------------------------------------------------------------- #
def make_sparse(indices, values, num_rows=10):
    return SparseRows(np.array(indices), np.array(values, dtype=float), num_rows)


class TestSparseRowsConstruction:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            make_sparse([0, 1], [[1.0, 2.0]])

    def test_validates_range(self):
        with pytest.raises(ValueError):
            make_sparse([10], [[1.0]], num_rows=10)
        with pytest.raises(ValueError):
            make_sparse([-1], [[1.0]], num_rows=10)

    def test_validates_dims(self):
        with pytest.raises(ValueError):
            SparseRows(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3)), 5)
        with pytest.raises(ValueError):
            SparseRows(np.zeros(2, dtype=np.int64), np.zeros(2), 5)

    def test_empty(self):
        s = SparseRows.empty(100, 16, dtype=np.float32)
        assert s.nnz_rows == 0
        assert s.dim == 16
        assert s.density == 0.0
        assert s.to_dense().shape == (100, 16)

    def test_from_dense(self):
        dense = np.zeros((5, 3))
        dense[1] = 1.0
        dense[4] = -2.0
        s = SparseRows.from_dense(dense)
        assert list(s.indices) == [1, 4]
        assert np.array_equal(s.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError):
            SparseRows.from_dense(np.zeros(5))

    def test_nbytes_counts_indices_and_values(self):
        s = make_sparse([1, 2], [[1.0, 2.0], [3.0, 4.0]])
        assert s.nbytes == 2 * 2 * 8 + 2 * 8


class TestCoalesce:
    def test_sums_duplicates(self):
        s = make_sparse([3, 1, 3], [[1.0], [2.0], [4.0]])
        c = s.coalesce()
        assert list(c.indices) == [1, 3]
        assert c.values[:, 0].tolist() == [2.0, 5.0]
        assert c.coalesced

    def test_idempotent(self):
        s = make_sparse([3, 1, 3], [[1.0], [2.0], [4.0]]).coalesce()
        assert s.coalesce() is s

    def test_empty_coalesce(self):
        s = SparseRows.empty(4, 2, dtype=np.float32)
        assert s.coalesce().nnz_rows == 0
        assert s.values.dtype == np.float32

    def test_empty_and_merge_require_dtype(self):
        # No silent float64 default: a float32 merge must never run in a
        # float64 accumulator.
        with pytest.raises(TypeError):
            SparseRows.empty(4, 2)
        with pytest.raises(TypeError):
            SparseRows.merge_coalesced([], 4, 2)

    def test_reduces_size(self):
        # Table 3's "coalesced size" effect: duplicates shrink the payload.
        s = make_sparse([0, 0, 0, 1], [[1.0]] * 4)
        assert s.coalesce().nbytes < s.nbytes

    def test_matches_add_at_reference(self):
        """The vectorized argsort+reduceat path groups each row's
        entries in their original relative order; the per-row sums match
        the np.add.at scatter it replaced (reduceat may pair-wise-sum
        long buckets, so the comparison is allclose, and determinism is
        asserted separately: same input, same bits)."""
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 20, size=200)
        vals = rng.normal(size=(200, 4))
        c = SparseRows(idx, vals, 20).coalesce()
        assert np.array_equal(c.indices, np.sort(np.unique(idx)))
        ref = np.zeros((20, 4))
        np.add.at(ref, idx, vals)
        dense = np.zeros((20, 4))
        dense[c.indices] = c.values
        np.testing.assert_allclose(dense, ref, rtol=1e-12, atol=1e-12)
        again = SparseRows(idx, vals, 20).coalesce()
        np.testing.assert_array_equal(c.values, again.values)

    def test_bit_equal_to_add_at_for_short_buckets(self):
        """Real embedding-gradient buckets (a handful of duplicate hits
        per row) sum left-to-right in both implementations: bit-equal."""
        idx = np.array([5, 2, 5, 2, 5, 9])
        vals = np.array([[1e16], [3.0], [1.0], [7.0], [-1e16], [0.5]])
        c = SparseRows(idx, vals, 10).coalesce()
        ref = np.zeros((10, 1))
        np.add.at(ref, idx, vals)
        dense = np.zeros((10, 1))
        dense[c.indices] = c.values
        np.testing.assert_array_equal(dense, ref)

    def test_density_cached_and_consistent(self):
        s = make_sparse([3, 1, 3], [[1.0], [2.0], [4.0]])
        assert s._distinct_rows is None
        assert s.density == 0.2  # 2 distinct of 10
        assert s._distinct_rows == 2  # computed once, then cached
        assert s.coalesce().density == 0.2

    def test_bit_identical_to_reduceat_randomized(self):
        """The grouped fast path (vectorized 1/2/3/4-row groups + per-group
        reduceat for larger ones) pins reduceat's fold order empirically;
        every output must be bit-identical to one full reduceat pass,
        across dup-light and dup-heavy inputs, both float dtypes."""
        rng = np.random.default_rng(17)
        for _ in range(150):
            rows = int(rng.integers(1, 300))
            n = int(rng.integers(0, 1500))
            lim = max(1, int(rows * rng.choice([0.02, 0.2, 1.0])))
            idx = rng.integers(0, min(lim, rows), size=n)
            dim = int(rng.integers(1, 9))
            vals = (
                rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
            ).astype(rng.choice([np.float32, np.float64]))
            c = SparseRows(idx, vals, rows).coalesce()
            if n == 0:
                assert c.nnz_rows == 0
                continue
            order = np.argsort(idx, kind="stable")
            si = idx[order]
            starts = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
            ref = np.add.reduceat(vals[order], starts, axis=0)
            np.testing.assert_array_equal(c.indices, si[starts])
            np.testing.assert_array_equal(c.values, ref)

    def test_sorted_union_matches_unique(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            parts = [
                np.unique(rng.integers(0, 500, size=int(rng.integers(0, 200))))
                for _ in range(int(rng.integers(0, 5)))
            ]
            got = sorted_union(parts)
            total = sum(len(p) for p in parts)
            ref = (
                np.unique(np.concatenate(parts))
                if parts and total
                else np.empty(0, np.int64)
            )
            np.testing.assert_array_equal(got, ref)
            assert got.dtype == np.int64 or total == 0


class TestIndexSelectAndSplit:
    def test_index_select_subset(self):
        s = make_sparse([1, 3, 5], [[1.0], [2.0], [3.0]])
        sub = s.index_select(np.array([3, 5, 7]))
        assert list(sub.indices) == [3, 5]

    def test_index_select_out_of_range(self):
        s = make_sparse([1], [[1.0]])
        with pytest.raises(ValueError):
            s.index_select(np.array([100]))

    def test_split_partitions(self):
        s = make_sparse([1, 3, 5, 7], [[1.0], [2.0], [3.0], [4.0]])
        prior, delayed = s.split(np.array([3, 7]))
        assert sorted(prior.indices.tolist()) == [3, 7]
        assert sorted(delayed.indices.tolist()) == [1, 5]
        # Reassembling both parts recovers the original gradient.
        assert (prior + delayed).allclose(s.coalesce())


class TestApplyAndCombine:
    def test_add_to_matches_dense(self):
        s = make_sparse([0, 0, 2], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], num_rows=4)
        table = np.ones((4, 2))
        s.add_to(table, scale=0.5)
        expected = np.ones((4, 2))
        expected[0] += 0.5 * 3.0
        expected[2] += 0.5 * 3.0
        assert np.allclose(table, expected)

    def test_add_to_shape_check(self):
        s = make_sparse([0], [[1.0]])
        with pytest.raises(ValueError):
            s.add_to(np.zeros((3, 1)))

    def test_add_sums(self):
        a = make_sparse([1], [[1.0]])
        b = make_sparse([1], [[2.0]])
        assert (a + b).to_dense()[1, 0] == 3.0

    def test_concat_validates(self):
        a = make_sparse([1], [[1.0]], num_rows=10)
        b = make_sparse([1], [[1.0]], num_rows=11)
        with pytest.raises(ValueError):
            SparseRows.concat([a, b])
        with pytest.raises(ValueError):
            SparseRows.concat([])

    def test_scale(self):
        s = make_sparse([2], [[3.0]])
        assert s.scale(2.0).values[0, 0] == 6.0

    def test_allclose_shape_mismatch(self):
        a = make_sparse([1], [[1.0]], num_rows=4)
        b = make_sparse([2], [[1.0]], num_rows=4)
        assert not a.allclose(b)


# --------------------------------------------------------------------- #
# Set ops
# --------------------------------------------------------------------- #
class TestRowOps:
    def test_unique_rows_flattens(self):
        out = unique_rows(np.array([[3, 1], [3, 2]]))
        assert out.tolist() == [1, 2, 3]

    def test_intersect_and_diff_partition(self):
        a = np.array([1, 2, 3, 4])
        b = np.array([3, 4, 5])
        inter = rows_intersect(a, b)
        diff = rows_setdiff(a, b)
        assert inter.tolist() == [3, 4]
        assert diff.tolist() == [1, 2]
        assert sorted(inter.tolist() + diff.tolist()) == a.tolist()

    def test_scatter_add_rows(self):
        table = np.zeros((3, 2))
        scatter_add_rows(table, np.array([0, 0]), np.ones((2, 2)), scale=2.0)
        assert table[0].tolist() == [4.0, 4.0]

    def test_scatter_add_rows_length_check(self):
        with pytest.raises(ValueError):
            scatter_add_rows(np.zeros((3, 2)), np.array([0]), np.ones((2, 2)))


# --------------------------------------------------------------------- #
# Property tests
# --------------------------------------------------------------------- #
sparse_strategy = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 19), min_size=0, max_size=n).map(np.array),
        st.just(n),
    )
)


@st.composite
def sparse_tensors(draw, num_rows=20, dim=3):
    nnz = draw(st.integers(0, 30))
    idx = draw(
        st.lists(st.integers(0, num_rows - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.lists(
                st.floats(-100, 100, allow_nan=False, width=32),
                min_size=dim,
                max_size=dim,
            ),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return SparseRows(
        np.array(idx, dtype=np.int64),
        np.array(vals, dtype=float).reshape(nnz, dim),
        num_rows,
    )


class TestSparseProperties:
    @given(sparse_tensors())
    @settings(max_examples=60, deadline=None)
    def test_coalesce_preserves_dense(self, s):
        assert np.allclose(s.coalesce().to_dense(), s.to_dense())

    @given(sparse_tensors())
    @settings(max_examples=60, deadline=None)
    def test_coalesce_unique_sorted(self, s):
        c = s.coalesce()
        assert len(np.unique(c.indices)) == len(c.indices)
        assert np.all(np.diff(c.indices) > 0) or len(c.indices) <= 1

    @given(sparse_tensors(), st.lists(st.integers(0, 19), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_split_is_partition(self, s, rows):
        rows = np.array(rows, dtype=np.int64)
        inside, outside = s.split(rows)
        # Dense reconstruction is preserved by the split.
        assert np.allclose(
            inside.to_dense() + outside.to_dense(), s.to_dense()
        )
        # No selected row leaks into the outside part.
        assert not np.isin(outside.indices, rows).any()

    @given(sparse_tensors(), sparse_tensors())
    @settings(max_examples=60, deadline=None)
    def test_add_matches_dense_add(self, a, b):
        assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense())

    @given(sparse_tensors())
    @settings(max_examples=60, deadline=None)
    def test_density_bounds(self, s):
        assert 0.0 <= s.density <= 1.0
