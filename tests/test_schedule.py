"""Tests for the 2D scheduling layer: Algorithm 1, priorities, partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BatchIterator, SyntheticCorpus, Vocab
from repro.models import GNMT8, LM, block_specs
from repro.schedule import (
    PRIORITY_DELAYED,
    PRIORITY_PRIOR,
    EmbeddingGradStats,
    horizontal_priorities,
    measure_grad_stats,
    partition_tensor,
    vertical_split,
)
from repro.schedule.horizontal import fifo_priorities
from repro.tensors import SparseRows


def sparse(indices, num_rows=20, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.array(indices, dtype=np.int64)
    return SparseRows(idx, rng.normal(size=(len(idx), dim)), num_rows)


class TestVerticalSplit:
    def test_algorithm1_example(self):
        """Direct trace of Algorithm 1's steps."""
        grad = sparse([3, 5, 3, 7, 9])  # duplicates: row 3
        current = np.array([3, 5, 7, 9])
        nxt = np.array([5, 9, 11])
        prior, delayed = vertical_split(grad, current, nxt)
        assert sorted(prior.indices.tolist()) == [5, 9]
        assert sorted(delayed.indices.tolist()) == [3, 7]
        # Coalescing happened: row 3 is a single (summed) row.
        assert delayed.coalesced

    def test_parts_reassemble_coalesced_grad(self):
        grad = sparse([1, 1, 2, 8, 8, 8])
        prior, delayed = vertical_split(grad, np.array([1, 2, 8]), np.array([2]))
        assert (prior + delayed).allclose(grad.coalesce())

    def test_empty_intersection(self):
        grad = sparse([1, 2])
        prior, delayed = vertical_split(grad, np.array([1, 2]), np.array([15]))
        assert prior.nnz_rows == 0
        assert delayed.nnz_rows == 2

    def test_full_intersection(self):
        grad = sparse([1, 2])
        prior, delayed = vertical_split(grad, np.array([1, 2]), np.array([1, 2, 3]))
        assert prior.nnz_rows == 2
        assert delayed.nnz_rows == 0

    def test_rows_outside_current_ids_are_dropped(self):
        grad = sparse([1, 2, 8])
        prior, delayed = vertical_split(grad, np.array([1, 2]), np.array([2, 8]))
        assert prior.indices.tolist() == [2]
        assert delayed.indices.tolist() == [1]

    def test_out_of_range_current_ids_rejected(self):
        grad = sparse([1, 2])
        with pytest.raises(ValueError, match="out of range"):
            vertical_split(grad, np.array([1, 20]), np.array([1]))
        with pytest.raises(ValueError, match="out of range"):
            vertical_split(grad, np.array([-1, 2]), np.array([1]))

    def test_duplicate_inputs_allowed(self):
        grad = sparse([4, 4, 6])
        prior, delayed = vertical_split(
            grad, np.array([4, 4, 6, 6]), np.array([6, 6])
        )
        assert prior.indices.tolist() == [6]
        assert delayed.indices.tolist() == [4]

    @given(
        grad_rows=st.lists(st.integers(0, 19), min_size=1, max_size=30),
        cur_extra=st.lists(st.integers(0, 19), max_size=10),
        nxt=st.lists(st.integers(0, 19), max_size=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_properties(self, grad_rows, cur_extra, nxt):
        grad = sparse(grad_rows, seed=7)
        current = np.array(grad_rows + cur_extra)
        prior, delayed = vertical_split(grad, current, np.array(nxt, dtype=np.int64))
        # Disjoint, covering, dense-sum preserving.
        assert not set(prior.indices) & set(delayed.indices)
        np.testing.assert_allclose(
            prior.to_dense() + delayed.to_dense(), grad.to_dense()
        )
        # Every prior row is in the next batch.
        assert set(prior.indices) <= set(nxt)


class TestGradStats:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EmbeddingGradStats("t", 100, 8, original_rows=5, coalesced_rows=6, prior_rows=1)

    def test_byte_sizes(self):
        st_ = EmbeddingGradStats("t", 100, 8, 10, 6, 2)
        assert st_.row_nbytes == 8 * 4 + 4
        assert st_.original_bytes == 10 * 36
        assert st_.delayed_rows == 4
        assert st_.density == pytest.approx(0.06)

    def test_measure_from_batches(self):
        vocab = Vocab(500)
        it = BatchIterator(SyntheticCorpus(vocab, min_len=5, max_len=15, seed=0), 8)
        batches = [next(it) for _ in range(10)]
        stats = measure_grad_stats(batches, "embedding", 500, 16)
        assert stats.original_rows > stats.coalesced_rows > stats.prior_rows > 0

    def test_world_size_grows_prior(self):
        """More workers -> larger global next batch -> more prior rows."""
        vocab = Vocab(2000)
        it = BatchIterator(SyntheticCorpus(vocab, min_len=10, max_len=20, seed=0), 16)
        batches = [next(it) for _ in range(40)]
        s1 = measure_grad_stats(batches, "embedding", 2000, 16, world_size=1)
        s4 = measure_grad_stats(batches, "embedding", 2000, 16, world_size=4)
        assert s4.prior_rows > s1.prior_rows

    def test_requires_enough_batches(self):
        vocab = Vocab(100)
        it = BatchIterator(SyntheticCorpus(vocab, seed=0), 2)
        with pytest.raises(ValueError):
            measure_grad_stats([next(it)], "embedding", 100, 4)

    def test_unknown_table(self):
        vocab = Vocab(100)
        it = BatchIterator(SyntheticCorpus(vocab, seed=0), 2)
        batches = [next(it) for _ in range(3)]
        with pytest.raises(KeyError):
            measure_grad_stats(batches, "mystery", 100, 4)


class TestHorizontalPriorities:
    def test_fp_order(self):
        prios = horizontal_priorities(block_specs(GNMT8))
        # Encoder block 0's FP runs before encoder block 7's.
        assert prios["encoder.0"] < prios["encoder.7"]
        assert prios["encoder.7"] < prios["decoder.0"]
        assert prios["decoder.7"] < prios["output_projection"]

    def test_embeddings_excluded(self):
        prios = horizontal_priorities(block_specs(LM))
        assert "embedding" not in prios
        assert "softmax_embedding" not in prios

    def test_prior_beats_everything(self):
        prios = horizontal_priorities(block_specs(GNMT8))
        assert PRIORITY_PRIOR < min(prios.values())
        assert PRIORITY_DELAYED > max(prios.values())

    def test_fifo_priorities_follow_order(self):
        p = fifo_priorities(["c", "a", "b"])
        assert p["c"] < p["a"] < p["b"]


class TestByteSchedulerPartitioning:
    def test_exact_multiple(self):
        assert partition_tensor(8e6, 4e6) == [4e6, 4e6]

    def test_remainder_chunk(self):
        chunks = partition_tensor(9e6, 4e6)
        assert chunks == [4e6, 4e6, 1e6]

    def test_small_tensor_single_chunk(self):
        assert partition_tensor(100, 4e6) == [100]

    def test_zero_and_negative(self):
        assert partition_tensor(0) == []
        with pytest.raises(ValueError):
            partition_tensor(-1)
        with pytest.raises(ValueError):
            partition_tensor(10, 0)

    @given(st.floats(1, 1e9), st.floats(1e3, 1e8))
    @settings(max_examples=40, deadline=None)
    def test_chunks_sum_to_total(self, nbytes, part):
        chunks = partition_tensor(nbytes, part)
        assert sum(chunks) == pytest.approx(nbytes)
        assert all(0 < c <= part for c in chunks)
