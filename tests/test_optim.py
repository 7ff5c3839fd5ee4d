"""Optimizer tests, including the §5.7 split-update equivalence properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.parameter import Parameter
from repro.optim import SGD, Adagrad, Adam, EmbraceAdam
from repro.tensors import SparseRows


def dense_param(shape=(4, 3), seed=0):
    rng = np.random.default_rng(seed)
    return Parameter(rng.normal(size=shape), name="w")


def sparse_param(shape=(8, 3), seed=0):
    rng = np.random.default_rng(seed)
    return Parameter(rng.normal(size=shape), name="emb", sparse_grad=True)


def sparse_grad(indices, shape=(8, 3), seed=1):
    rng = np.random.default_rng(seed)
    idx = np.array(indices, dtype=np.int64)
    return SparseRows(idx, rng.normal(size=(len(idx), shape[1])), shape[0])


# --------------------------------------------------------------------- #
# Base mechanics
# --------------------------------------------------------------------- #
class TestBase:
    def test_requires_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([dense_param()], lr=0)

    def test_step_skips_gradless(self):
        p = dense_param()
        before = p.data.copy()
        SGD([p], lr=0.1).step()
        assert np.array_equal(p.data, before)

    def test_sparse_param_rejects_dense_grad(self):
        p = sparse_param()
        p.grad = np.zeros(p.data.shape)
        with pytest.raises(TypeError):
            SGD([p], lr=0.1).step()

    def test_zero_grad(self):
        p = dense_param()
        p.grad = np.ones_like(p.data)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


# --------------------------------------------------------------------- #
# SGD
# --------------------------------------------------------------------- #
class TestSGD:
    def test_dense_update(self):
        p = dense_param()
        before = p.data.copy()
        p.grad = np.ones_like(p.data)
        SGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.data, before - 0.5)

    def test_momentum(self):
        p = dense_param()
        opt = SGD([p], lr=1.0, momentum=0.9)
        before = p.data.copy()
        p.grad = np.ones_like(p.data)
        opt.step()
        opt.step()
        # velocity: 1, then 1.9 -> total 2.9
        np.testing.assert_allclose(p.data, before - 2.9)

    def test_sparse_touches_only_rows(self):
        p = sparse_param()
        before = p.data.copy()
        p.grad = sparse_grad([2, 5])
        SGD([p], lr=0.1).step()
        changed = np.any(p.data != before, axis=1)
        assert set(np.nonzero(changed)[0]) == {2, 5}

    def test_sparse_coalesces_duplicates(self):
        p = sparse_param()
        before = p.data.copy()
        g = SparseRows(np.array([1, 1]), np.ones((2, 3)), 8)
        p.grad = g
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data[1], before[1] - 0.2)


# --------------------------------------------------------------------- #
# Adagrad
# --------------------------------------------------------------------- #
class TestAdagrad:
    def test_dense_matches_reference(self):
        p = dense_param()
        before = p.data.copy()
        g = np.full_like(p.data, 2.0)
        p.grad = g
        Adagrad([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, before - 0.1 * 2.0 / (2.0 + 1e-10))

    def test_sparse_split_equivalence(self):
        """Element-wise optimizer: two disjoint parts == one fused update."""
        full = sparse_grad([1, 2, 5, 6])
        prior, delayed = full.split(np.array([2, 6]))

        p1, p2 = sparse_param(seed=3), sparse_param(seed=3)
        opt1, opt2 = Adagrad([p1], lr=0.1), Adagrad([p2], lr=0.1)

        p1.grad = full
        opt1.step()

        p2.grad = prior
        opt2.step()
        p2.grad = delayed
        opt2.step()

        np.testing.assert_allclose(p1.data, p2.data)


# --------------------------------------------------------------------- #
# Adam
# --------------------------------------------------------------------- #
class TestAdam:
    def test_dense_first_step_is_lr_sized(self):
        p = dense_param()
        before = p.data.copy()
        p.grad = np.full_like(p.data, 3.0)
        Adam([p], lr=0.01).step()
        # After bias correction the first Adam step is ~lr * sign(grad).
        np.testing.assert_allclose(p.data, before - 0.01, atol=1e-4)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            Adam([dense_param()], betas=(1.5, 0.9))

    def test_sparse_only_touches_rows(self):
        p = sparse_param()
        before = p.data.copy()
        p.grad = sparse_grad([0, 7])
        Adam([p]).step()
        changed = np.any(p.data != before, axis=1)
        assert set(np.nonzero(changed)[0]) == {0, 7}

    def test_naive_split_is_NOT_equivalent(self):
        """Vanilla Adam applied in two parts diverges from fused — the
        problem §5.7 describes (step state advances twice)."""
        full = sparse_grad([1, 2, 5, 6], seed=9)
        prior, delayed = full.split(np.array([2, 6]))

        p1, p2 = sparse_param(seed=4), sparse_param(seed=4)
        opt1, opt2 = Adam([p1], lr=0.1), Adam([p2], lr=0.1)

        # Warm both with an identical first iteration so step counters are
        # past the bias-correction-neutral first step.
        warm = sparse_grad(list(range(8)), seed=11)
        for p, opt in ((p1, opt1), (p2, opt2)):
            p.grad = warm
            opt.step()
            p.zero_grad()

        p1.grad = full
        opt1.step()

        p2.grad = prior
        opt2.step()
        p2.grad = delayed
        opt2.step()

        assert not np.allclose(p1.data, p2.data)


# --------------------------------------------------------------------- #
# EmbraceAdam: the paper's fix
# --------------------------------------------------------------------- #
class TestEmbraceAdam:
    def _run_fused(self, grads, seed=5):
        p = sparse_param(seed=seed)
        opt = EmbraceAdam([p], lr=0.1)
        for g in grads:
            p.grad = g
            opt.step()
            p.zero_grad()
        return p.data

    def _run_split(self, grads, split_rows, seed=5):
        p = sparse_param(seed=seed)
        opt = EmbraceAdam([p], lr=0.1)
        for g, rows in zip(grads, split_rows):
            prior, delayed = g.coalesce().split(rows)
            opt.apply_sparse_part(p, prior, final=False)
            opt.apply_sparse_part(p, delayed, final=True)
        return p.data

    def test_split_equivalence_single_step(self):
        g = sparse_grad([0, 1, 4, 5], seed=21)
        fused = self._run_fused([g])
        split = self._run_split([g], [np.array([1, 5])])
        np.testing.assert_array_equal(fused, split)

    def test_split_equivalence_multi_step(self):
        grads = [sparse_grad([0, 1, 4], seed=31), sparse_grad([1, 2, 6], seed=32)]
        rows = [np.array([1]), np.array([2, 6])]
        np.testing.assert_array_equal(
            self._run_fused(grads), self._run_split(grads, rows)
        )

    def test_empty_prior_part(self):
        g = sparse_grad([3, 4], seed=41)
        fused = self._run_fused([g])
        split = self._run_split([g], [np.array([], dtype=np.int64)])
        np.testing.assert_array_equal(fused, split)

    def test_requires_sparse_param(self):
        p = dense_param()
        opt = EmbraceAdam([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.apply_sparse_part(p, sparse_grad([1]), final=True)

    def test_step_counter_advances_once(self):
        p = sparse_param()
        opt = EmbraceAdam([p], lr=0.1)
        g = sparse_grad([1, 2])
        prior, delayed = g.split(np.array([1]))
        opt.apply_sparse_part(p, prior, final=False)
        assert opt.state_for(p)["step"] == 0
        opt.apply_sparse_part(p, delayed, final=True)
        assert opt.state_for(p)["step"] == 1

    @given(
        rows=st.lists(st.integers(0, 7), min_size=1, max_size=12),
        split=st.lists(st.integers(0, 7), max_size=8),
        seed=st.integers(0, 1000),
        nsteps=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_equivalence_property(self, rows, split, seed, nsteps):
        """For any gradient and any split set, EmbraceAdam's two-part
        application equals the fused update bit-for-bit over multiple steps."""
        rng = np.random.default_rng(seed)
        grads = [
            SparseRows(
                np.array(rows, dtype=np.int64),
                rng.normal(size=(len(rows), 3)),
                8,
            )
            for _ in range(nsteps)
        ]
        split_rows = [np.array(split, dtype=np.int64)] * nsteps
        fused = self._run_fused(grads, seed=7)
        split_result = self._run_split(grads, split_rows, seed=7)
        np.testing.assert_array_equal(fused, split_result)


class TestClipGradNorm:
    from repro.optim import clip_grad_norm, global_grad_norm  # noqa: F401

    def test_norm_computation_mixed(self):
        from repro.optim import global_grad_norm

        d = dense_param()
        d.grad = np.full(d.data.shape, 2.0)
        s = sparse_param()
        s.grad = SparseRows(np.array([1, 1]), np.ones((2, 3)), 8)
        # Sparse norm uses the coalesced values (duplicates summed).
        expected = np.sqrt(4.0 * d.data.size + 4.0 * 3)
        assert global_grad_norm([d, s]) == pytest.approx(expected)

    def test_clip_scales_everything(self):
        from repro.optim import clip_grad_norm, global_grad_norm

        d = dense_param()
        d.grad = np.full(d.data.shape, 3.0)
        s = sparse_param()
        s.grad = sparse_grad([0, 4])
        before = global_grad_norm([d, s])
        returned = clip_grad_norm([d, s], max_norm=1.0)
        assert returned == pytest.approx(before)
        assert global_grad_norm([d, s]) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        from repro.optim import clip_grad_norm

        d = dense_param()
        d.grad = np.full(d.data.shape, 1e-3)
        grad_before = d.grad.copy()
        clip_grad_norm([d], max_norm=100.0)
        np.testing.assert_array_equal(d.grad, grad_before)

    def test_gradless_params_skipped(self):
        from repro.optim import clip_grad_norm

        assert clip_grad_norm([dense_param()], max_norm=1.0) == 0.0

    def test_validation(self):
        from repro.optim import clip_grad_norm

        with pytest.raises(ValueError):
            clip_grad_norm([dense_param()], max_norm=0.0)


class TestAdamWeightDecay:
    def test_decay_shrinks_dense_params(self):
        p = dense_param()
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        Adam([p], lr=0.1, weight_decay=0.5).step()
        # Pure decay (zero gradient): data *= (1 - lr*wd).
        np.testing.assert_allclose(p.data, before * 0.95)

    def test_sparse_params_not_decayed(self):
        p = sparse_param()
        before = p.data.copy()
        p.grad = SparseRows.empty(8, 3, dtype=p.data.dtype)
        Adam([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_array_equal(p.data, before)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            Adam([dense_param()], weight_decay=-0.1)
