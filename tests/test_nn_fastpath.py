"""The ``nn`` hot path against the plain formulations it replaced.

Each lean kernel (fused cross-entropy, in-place softmax, single-``exp``
sigmoid, preallocated LSTM gate gradients, in-place bias and gradient
adds, the attention backward's in-place tanh') must give the same bits
as the plain version kept here as a reference: the same IEEE
operations in the same order, only fewer temporaries.  The padding-free
output head is checked against its unfused, unblocked formulation, and
against the plain ``Linear`` / ``F.cross_entropy`` pair within rtol
where the GEMM shapes differ.  The model-level cases run every
reference at once and compare the loss and every gradient of a full
``forward_backward``.

CI runs this module under ``python -X dev -W error::RuntimeWarning``,
so an overflow or invalid-value warning on an ``exp`` path fails it.
"""

import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.engine.workload import batch_stream
from repro.models.config import DLRM, GNMT8, LM, TRANSFORMER
from repro.models.registry import build_model
from repro.nn import functional as F
from repro.nn.parameter import Parameter
from repro.tensors import SparseRows


# --------------------------------------------------------------------- #
# References: the formulations the fast path replaced
# --------------------------------------------------------------------- #
def ref_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def ref_log_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_cross_entropy(logits, targets, ignore_index=None):
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    n_valid = int(valid.sum())
    log_probs = ref_log_softmax(flat_logits, axis=-1)
    grad = ref_softmax(flat_logits, axis=-1)
    if n_valid == 0:
        return 0.0, np.zeros_like(logits), 0
    rows = np.nonzero(valid)[0]
    picked = log_probs[rows, flat_targets[rows]]
    loss = float(-picked.sum() / n_valid)
    grad[rows, flat_targets[rows]] -= 1.0
    grad[~valid] = 0.0
    grad /= n_valid
    return loss, grad.reshape(logits.shape), n_valid


def ref_step_backward(self, grad_h, grad_c, cache, accumulate=True):
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    tanh_c = cache["tanh_c"]
    do = grad_h * tanh_c
    dc = grad_c + grad_h * o * (1.0 - tanh_c**2)
    di = dc * g
    df = dc * cache["c"]
    dg = dc * i
    d_gates = np.concatenate(
        [di * i * (1 - i), df * f * (1 - f), dg * (1 - g**2), do * o * (1 - o)],
        axis=1,
    )
    if accumulate:
        self.w_x.accumulate(cache["x"].T @ d_gates)
        self.w_h.accumulate(cache["h"].T @ d_gates)
        self.bias.accumulate(d_gates.sum(axis=0))
    return d_gates @ self.w_x.data.T, d_gates @ self.w_h.data.T, dc * f


def ref_linear_forward(self, x):
    x = np.asarray(x, dtype=self.weight.data.dtype)
    flat_x = x.reshape(-1, self.in_features)
    out = flat_x @ self.weight.data
    if self.bias is not None:
        out = out + self.bias.data

    def back(grad):
        flat_g = np.asarray(grad).reshape(-1, self.out_features)
        self.weight.accumulate(flat_x.T @ flat_g)
        if self.bias is not None:
            self.bias.accumulate(flat_g.sum(axis=0))
        return (flat_g @ self.weight.data.T).reshape(x.shape)

    self._back = back
    return out.reshape(*x.shape[:-1], self.out_features)


def ref_linear_cross_entropy(x, weight, bias, targets, ignore_index=None):
    """The unfused, unblocked head: one GEMM projects the counted rows,
    ``F.cross_entropy`` runs over their logits, the gradient is scattered
    into an every-position buffer (zero on padding) for one weight GEMM
    and one bias sum, and one GEMM gives the counted rows' input gradient.

    These are the fused head's GEMM calls when one block holds every
    counted row, as at the tiny models' vocabularies.
    """
    flat_x = np.asarray(x, dtype=weight.dtype).reshape(-1, weight.shape[0])
    flat_t = np.asarray(targets).reshape(-1)
    rows = np.nonzero(flat_t != ignore_index)[0]
    logits = flat_x[rows] @ weight + bias
    loss, grad_rows, n_valid = F.cross_entropy(logits, flat_t[rows])
    grad = np.zeros((flat_x.shape[0], weight.shape[1]), dtype=weight.dtype)
    grad[rows] = grad_rows
    grad_x = np.zeros_like(flat_x)
    grad_x[rows] = grad_rows @ weight.T
    return loss, grad_x.reshape(np.shape(x)), flat_x.T @ grad, grad.sum(axis=0), n_valid


def ref_accumulate(self, grad):
    if self.sparse_grad:
        self.grad = grad if self.grad is None else SparseRows.concat([self.grad, grad])
    else:
        grad = np.asarray(grad)
        self.grad = grad.copy() if self.grad is None else self.grad + grad


def ref_loss_forward(self, logits, targets):
    loss, grad, n_valid = F.cross_entropy(logits, targets, ignore_index=self.ignore_index)
    self.last_token_count = n_valid
    self._back = lambda upstream=1.0: grad * upstream
    return loss


def ref_attention_forward(self, queries, memory):
    queries = np.asarray(queries, dtype=self.w_query.data.dtype)
    memory = np.asarray(memory, dtype=self.w_query.data.dtype)
    q_proj = queries @ self.w_query.data
    k_proj = memory @ self.w_key.data
    pre = np.tanh(q_proj[:, :, None, :] + k_proj[:, None, :, :])
    scores = pre @ self.v.data
    probs = F.softmax(scores, axis=-1)
    context = probs @ memory

    def back(grad):
        grad = np.asarray(grad)
        grad_probs = grad @ memory.transpose(0, 2, 1)
        grad_memory = probs.transpose(0, 2, 1) @ grad
        grad_scores = F.softmax_backward(grad_probs, probs, axis=-1)
        self.v.accumulate(np.einsum("bqs,bqsa->a", grad_scores, pre))
        grad_pre = grad_scores[..., None] * self.v.data
        grad_pre = grad_pre * (1.0 - pre**2)
        grad_qproj = grad_pre.sum(axis=2)
        grad_kproj = grad_pre.sum(axis=1)
        bq = queries.reshape(-1, queries.shape[-1])
        bk = memory.reshape(-1, memory.shape[-1])
        self.w_query.accumulate(bq.T @ grad_qproj.reshape(-1, grad_qproj.shape[-1]))
        self.w_key.accumulate(bk.T @ grad_kproj.reshape(-1, grad_kproj.shape[-1]))
        return grad_qproj @ self.w_query.data.T, grad_memory + grad_kproj @ self.w_key.data.T

    self._back = back
    return context


#: ``(owner, attribute, reference)`` — patching all of them in restores
#: the plain hot path.
REFERENCES = [
    (F, "softmax", ref_softmax),
    (F, "sigmoid", ref_sigmoid),
    (F, "cross_entropy", ref_cross_entropy),
    (nn.LSTMCell, "step_backward", ref_step_backward),
    (nn.Linear, "forward", ref_linear_forward),
    (Parameter, "accumulate", ref_accumulate),
    (nn.CrossEntropyLoss, "forward", ref_loss_forward),
    (nn.BahdanauAttention, "forward", ref_attention_forward),
    (F, "linear_cross_entropy", ref_linear_cross_entropy),
]


def assert_same_bits(a, b, what=""):
    """Equal shape, dtype and bits (``-0.0`` counts; NaN matches NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, what
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b)), what
    assert a[~nan].tobytes() == b[~nan].tobytes(), what


def assert_same_grad(a, b, what):
    if isinstance(a, SparseRows):
        assert isinstance(b, SparseRows), what
        assert_same_bits(a.indices, b.indices, what)
        assert_same_bits(a.values, b.values, what)
    else:
        assert_same_bits(a, b, what)


# --------------------------------------------------------------------- #
# Generated inputs
# --------------------------------------------------------------------- #
def scores(dtype=np.float64):
    """Finite scores up to the edge of ``exp``'s range, signed zeros, NaN."""
    return st.one_of(
        st.floats(-700.0, 700.0, width=np.dtype(dtype).itemsize * 8),
        st.sampled_from([-700.0, 700.0, -0.0, 0.0, np.nan]),
    )


def float_arrays(elements):
    """float32 and float64 arrays of up to three axes."""
    return st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dt: hnp.arrays(
            dt, hnp.array_shapes(max_dims=3, max_side=9), elements=elements(dt)
        )
    )


@st.composite
def ce_inputs(draw):
    batch, seq, classes = (draw(st.integers(1, n)) for n in (4, 5, 9))
    logits = draw(hnp.arrays(np.float64, (batch, seq, classes), elements=scores()))
    ignore = draw(st.one_of(st.none(), st.integers(0, classes - 1)))
    if ignore is not None and draw(st.booleans()):
        targets = np.full((batch, seq), ignore, dtype=np.int64)  # all padding
    else:
        targets = draw(
            hnp.arrays(np.int64, (batch, seq), elements=st.integers(0, classes - 1))
        )
    return logits, targets, ignore


@st.composite
def head_inputs(draw):
    """Head cases; at vocab 4096 in float64 a block is 32 rows, so up to
    120 positions cross the block boundary."""
    batch, seq, hidden = (draw(st.integers(1, n)) for n in (4, 30, 6))
    vocab = draw(st.sampled_from([7, 4096]))
    padding = draw(st.sampled_from(["none", "some", "all"]))
    large = draw(st.booleans())  # logits of +-1e4
    return batch, seq, hidden, vocab, padding, large, draw(st.integers(0, 2**32 - 1))


def unfused_head(x, projection, targets, ignore_index):
    """``Linear`` forward, ``F.cross_entropy``, ``Linear`` backward: the
    formulation the head fuses."""
    loss, grad, n_valid = F.cross_entropy(projection(x), targets, ignore_index=ignore_index)
    return loss, projection.backward(grad), n_valid


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(ce_inputs())
    @example((np.full((2, 3, 4), np.nan), np.zeros((2, 3), dtype=np.int64), 0))
    def test_cross_entropy(self, case):
        logits, targets, ignore = case
        before = logits.copy()
        loss, grad, n = F.cross_entropy(logits, targets, ignore_index=ignore)
        ref_loss, ref_grad, ref_n = ref_cross_entropy(logits, targets, ignore_index=ignore)
        assert n == ref_n
        assert_same_bits(loss, ref_loss, "loss")
        assert_same_bits(grad, ref_grad, "grad")
        assert_same_bits(logits, before, "logits were modified")

    @settings(max_examples=80, deadline=None)
    @given(head_inputs())
    @example((4, 30, 3, 4096, "some", False, 0))  # four blocks, padding in each
    @example((4, 30, 3, 4096, "none", True, 1))
    @example((2, 16, 3, 4096, "none", False, 2))  # one block, no padding: exact
    def test_linear_cross_entropy(self, case):
        """The fused head against the unfused one-GEMM formulation: equal
        bits where the GEMM shapes coincide (no padding, one block), rtol
        1e-6 otherwise."""
        batch, seq, hidden, vocab, padding, large, seed = case
        rng = np.random.default_rng(seed)
        layer = nn.Linear(hidden, vocab, rng=rng)
        if large:
            layer.bias.data[:] = rng.choice([-1e4, 0.0, 1e4], size=vocab)
        x = rng.normal(size=(batch, seq, hidden))
        targets = rng.integers(1, vocab, size=(batch, seq))
        if padding == "all":
            targets[:] = 0
        elif padding == "some":
            targets[rng.random((batch, seq)) < 0.3] = 0

        loss, grad_x, grad_w, grad_b, n_valid = F.linear_cross_entropy(
            x, layer.weight.data, layer.bias.data, targets, ignore_index=0
        )
        ref_loss, ref_grad_x, ref_n = unfused_head(x, layer, targets, 0)

        assert n_valid == ref_n
        rows = batch * seq
        exact = n_valid == rows and rows <= F.BLOCK_BYTES // (vocab * x.itemsize)
        for what, a, b in [
            ("loss", loss, ref_loss),
            ("dX", grad_x, ref_grad_x),
            ("dW", grad_w, layer.weight.grad),
            ("db", grad_b, layer.bias.grad),
        ]:
            if exact:
                assert_same_bits(a, b, what)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-6, err_msg=what)
        if n_valid == 0:
            assert loss == 0.0
            for g in (grad_x, grad_w, grad_b):
                assert not g.any()
        # Padding rows get exact zeros.
        assert_same_bits(grad_x[targets == 0], np.zeros_like(grad_x[targets == 0]))

    @settings(max_examples=150, deadline=None)
    @given(float_arrays(lambda dt: st.floats(width=np.dtype(dt).itemsize * 8)))
    def test_sigmoid(self, x):
        """Every float, infinities and NaN included."""
        assert_same_bits(F.sigmoid(x), ref_sigmoid(x))

    @settings(max_examples=150, deadline=None)
    @given(float_arrays(scores), st.integers(0, 2))
    def test_softmax(self, x, axis):
        axis = -1 if axis >= x.ndim else axis
        assert_same_bits(F.softmax(x, axis=axis), ref_softmax(x, axis=axis))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)
    )
    def test_lstm_step_backward(self, batch, input_dim, hidden, seed):
        rng = np.random.default_rng(seed)
        fast = nn.LSTMCell(input_dim, hidden, rng=np.random.default_rng(seed))
        ref = nn.LSTMCell(input_dim, hidden, rng=np.random.default_rng(seed))
        x = rng.normal(size=(batch, input_dim))
        h = rng.normal(size=(batch, hidden))
        c = rng.normal(size=(batch, hidden))
        grad_h, grad_c = rng.normal(size=(2, batch, hidden))
        _, _, cache = fast.step(x, h, c)
        for _ in range(2):  # the second pass adds into existing gradients
            out = fast.step_backward(grad_h, grad_c, cache)
            ref_out = ref_step_backward(ref, grad_h, grad_c, cache)
            for a, b in zip(out, ref_out):
                assert_same_bits(a, b)
        for name in ("w_x", "w_h", "bias"):
            assert_same_bits(getattr(fast, name).grad, getattr(ref, name).grad, name)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1)
    )
    def test_attention(self, batch, tq, ts, seed):
        rng = np.random.default_rng(seed)
        fast = nn.BahdanauAttention(3, 4, 5, rng=np.random.default_rng(seed))
        ref = nn.BahdanauAttention(3, 4, 5, rng=np.random.default_rng(seed))
        queries = rng.normal(size=(batch, tq, 3))
        memory = rng.normal(size=(batch, ts, 4))
        grad = rng.normal(size=(batch, tq, 4))
        assert_same_bits(fast(queries, memory), ref_attention_forward(ref, queries, memory))
        for a, b in zip(fast.backward(grad), ref.backward(grad)):
            assert_same_bits(a, b)
        for (name, p), (_, q) in zip(fast.named_parameters(), ref.named_parameters()):
            assert_same_bits(p.grad, q.grad, name)


class TestBuffers:
    def test_cross_entropy_peak_allocation(self):
        """One logits-sized buffer per call: the gradient itself."""
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(352, 4096))
        targets = rng.integers(1, 4096, size=352)
        targets[::3] = 0

        def peak(fn):
            tracemalloc.start()
            try:
                fn(logits, targets, ignore_index=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The plain formulation's temporaries are visible to tracemalloc.
        assert peak(ref_cross_entropy) > 3 * logits.nbytes
        assert peak(F.cross_entropy) <= 1.25 * logits.nbytes

    def test_head_peak_allocation(self):
        """A gnmt_compute-shaped head holds one logits-sized buffer, the
        gradient, plus a block; the unfused formulation holds two."""
        rng = np.random.default_rng(0)
        batch, tgt, hidden, vocab = 32, 14, 53, 4096
        projection = nn.Linear(hidden, vocab, rng=rng).astype(np.float32)
        x = rng.normal(size=(batch, tgt, hidden)).astype(np.float32)
        targets = rng.integers(1, vocab, size=(batch, tgt))
        targets[rng.random((batch, tgt)) < 0.26] = 0
        logits_nbytes = batch * tgt * vocab * 4

        def fused():
            w, b = projection.weight.data, projection.bias.data
            return F.linear_cross_entropy(x, w, b, targets, ignore_index=0)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                projection.zero_grad()

        assert peak(lambda: unfused_head(x, projection, targets, 0)) >= 2 * logits_nbytes
        assert peak(fused) <= 1.25 * logits_nbytes

    def test_loss_backward_scales_only_when_asked(self):
        logits = np.random.default_rng(1).normal(size=(4, 5))
        loss_fn = nn.CrossEntropyLoss()
        loss_fn(logits, np.arange(4))
        grad = loss_fn.backward()
        loss_fn(logits, np.arange(4))
        assert_same_bits(loss_fn.backward(2.0), grad * 2.0)

    def test_accumulate_owns_its_gradient(self):
        p = Parameter(np.zeros(3))
        g = np.ones(3)
        p.accumulate(g)
        p.accumulate(g)
        assert_same_bits(g, np.ones(3))
        assert_same_bits(p.grad, np.full(3, 2.0))
        # A sum that would change the stored dtype is not done in place.
        p.grad = np.zeros(3, dtype=np.float32)
        p.accumulate(g)
        assert p.grad.dtype == np.float64


# --------------------------------------------------------------------- #
# Whole models
# --------------------------------------------------------------------- #
MODELS = {
    "gnmt": (GNMT8.tiny(), {}),
    "lm_sampled": (LM.tiny(), {"num_sampled": 16}),
    "transformer": (TRANSFORMER.tiny(), {}),
    "dlrm": (DLRM.tiny(), {}),
}


def run_model(config, kwargs):
    """Two ``forward_backward`` calls (gradients add up across them)."""
    model = build_model(config, rng=np.random.default_rng(7), **kwargs)
    model.train()
    stream = batch_stream(config, "rtx3090", seed=11)
    losses = [model.forward_backward(next(stream)) for _ in range(2)]
    return losses, {name: p.grad for name, p in model.named_parameters()}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_forward_backward_matches_reference(name, monkeypatch):
    config, kwargs = MODELS[name]
    losses, grads = run_model(config, kwargs)
    for owner, attr, ref in REFERENCES:
        monkeypatch.setattr(owner, attr, ref)
    ref_losses, ref_grads = run_model(config, kwargs)
    for a, b in zip(losses, ref_losses):
        assert_same_bits(a, b, "loss")
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        assert grads[key] is not None, key
        assert_same_grad(grads[key], ref_grads[key], key)
