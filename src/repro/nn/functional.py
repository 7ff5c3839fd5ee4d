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

    One logits-sized buffer is shifted, exponentiated and normalised in
    place and ends as the gradient.  It takes the same IEEE operations,
    in the same order, as ``log_softmax`` followed by ``softmax``: each
    max/exp/sum pass runs once instead of twice, with the same bits.
    """
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ValueError(
            f"{flat_targets.shape[0]} targets vs {flat_logits.shape[0]} logit rows"
        )
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(logits), 0
    rows = np.nonzero(valid)[0]
    cols = flat_targets[rows]
    grad = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    picked = grad[rows, cols]  # shifted target scores
    np.exp(grad, out=grad)
    total = grad.sum(axis=-1, keepdims=True)
    picked -= np.log(total)[rows, 0]  # target log-probabilities
    loss = float(-picked.sum() / n_valid)
    grad /= total  # softmax
    grad[rows, cols] -= 1.0
    grad[~valid] = 0.0
    grad /= n_valid
    return loss, grad.reshape(logits.shape), n_valid
