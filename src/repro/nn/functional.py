"""Stateless numerical primitives with paired backward functions.

Each ``*_backward`` takes the upstream gradient plus whatever the forward
returned/cached, and produces downstream gradients.  All functions are
vectorized over leading batch dimensions.
"""

from __future__ import annotations

import numpy as np


# --------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------- #
def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad * (x > 0.0)


#: GELU's ``sqrt(2 / pi)`` as a Python float: a numpy scalar would
#: promote float32 activations to float64.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU (the variant used by BERT)."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    c = _GELU_C
    inner = c * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    dinner = c * (1.0 + 3 * 0.044715 * x**2)
    return grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: ``1 / (1 + e^-x)`` for ``x >= 0`` and
    ``e^x / (1 + e^x)`` below, both from one ``e = exp(-|x|)``."""
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def sigmoid_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad * out * (1.0 - out)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad * (1.0 - out**2)


# --------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------- #
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_backward(grad: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return out * (grad - dot)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


# --------------------------------------------------------------------- #
# Cross entropy over class logits
# --------------------------------------------------------------------- #
#: Bytes of logits one cross-entropy block holds: 64 float32 rows at a
#: 4096-word vocabulary, so a block's max/exp/sum/divide passes run in L2.
BLOCK_BYTES = 1 << 20


def cross_entropy(
    logits: np.ndarray, targets: np.ndarray, ignore_index: int | None = None
) -> tuple[float, np.ndarray, int]:
    """Mean token cross-entropy with an optional padding class to skip.

    Parameters
    ----------
    logits:
        ``(..., num_classes)`` scores.
    targets:
        integer class ids broadcastable to ``logits.shape[:-1]``.
    ignore_index:
        class id excluded from both the loss and the gradient
        (the padding token, as in ``torch.nn.CrossEntropyLoss``).

    Returns
    -------
    (loss, grad_logits, n_valid):
        mean loss over non-ignored positions, gradient of that mean loss
        w.r.t. ``logits``, and the number of positions counted.

    Runs the row-block kernel that ``linear_cross_entropy`` runs, on
    blocks gathered from ``logits``.
    """
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    loss, grad, n_valid = _cross_entropy_rows(
        lambda rows: flat_logits[rows], flat_logits.shape, flat_logits.dtype,
        targets, ignore_index,
    )
    return loss, grad.reshape(logits.shape), n_valid


def linear_cross_entropy(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int]:
    """``cross_entropy(x @ weight + bias, targets)`` and its gradients,
    without the padding logits or a logits-sized input buffer.

    Only counted rows are projected, a block at a time, and each block's
    gradient feeds ``grad_x`` while it is still in cache.  ``grad_weight``
    and ``grad_bias`` are one GEMM and one sum over every position, the
    ignored rows' gradients being zero: the calls an unfused ``Linear``
    backward makes.

    Returns ``(loss, grad_x, grad_weight, grad_bias, n_valid)``;
    ``grad_x`` has ``x``'s shape, with exact zeros on ignored rows.
    """
    flat_x = np.asarray(x, dtype=weight.dtype).reshape(-1, weight.shape[0])
    grad_x = np.zeros_like(flat_x)

    def logits_of(rows):
        block = flat_x[rows] @ weight
        block += bias
        return block

    def backward_block(rows, block):
        grad_x[rows] = block @ weight.T

    loss, grad, n_valid = _cross_entropy_rows(
        logits_of, (flat_x.shape[0], weight.shape[1]), flat_x.dtype,
        targets, ignore_index, backward_block,
    )
    grad_weight = flat_x.T @ grad
    grad_bias = grad.sum(axis=0)
    return loss, grad_x.reshape(np.shape(x)), grad_weight, grad_bias, n_valid


def _cross_entropy_rows(logits_of, shape, dtype, targets, ignore_index, each_block=None):
    """The one cross-entropy kernel, over blocks of counted rows.

    ``logits_of(rows)`` returns a fresh ``(len(rows), num_classes)``
    array of those rows' logits.  Each block is shifted, exponentiated
    and normalised in place and written once into the ``shape``-sized
    gradient, whose ignored rows stay zero; ``each_block(rows, grad)``
    then sees the block's gradient.  Every row takes the same IEEE
    operations, in the same order, as ``log_softmax`` followed by
    ``softmax``, and the target log-probabilities are summed once, in
    row order: the bits do not depend on the blocking.
    """
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if flat_targets.shape[0] != shape[0]:
        raise ValueError(f"{flat_targets.shape[0]} targets vs {shape[0]} logit rows")
    grad = np.zeros(shape, dtype=dtype)
    if ignore_index is None:
        rows = np.arange(shape[0])
    else:
        rows = np.nonzero(flat_targets != ignore_index)[0]
    n_valid = rows.size
    if n_valid == 0:
        return 0.0, grad, 0
    cols = flat_targets[rows]
    picked = np.empty(n_valid, dtype=dtype)  # target log-probabilities
    step = max(1, BLOCK_BYTES // (shape[1] * grad.itemsize))
    for start in range(0, n_valid, step):
        blk = slice(start, start + step)
        block_rows, block_cols = rows[blk], cols[blk]
        block = logits_of(block_rows)
        in_block = np.arange(block.shape[0])
        block -= block.max(axis=-1, keepdims=True)
        picked[blk] = block[in_block, block_cols]  # shifted target scores
        np.exp(block, out=block)
        total = block.sum(axis=-1, keepdims=True)
        picked[blk] -= np.log(total)[:, 0]
        block /= total  # softmax
        block[in_block, block_cols] -= 1.0
        block /= n_valid
        grad[block_rows] = block
        if each_block is not None:
            each_block(block_rows, block)
        del block  # the next block is allocated after this one is freed
    return float(-picked.sum() / n_valid), grad, n_valid
