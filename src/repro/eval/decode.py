"""Prediction extraction for convergence tracking.

Full autoregressive decoding is unnecessary for *tracking convergence*
(Fig. 11b traces relative BLEU progress of two training strategies on
identical data); teacher-forced argmax predictions give a BLEU proxy
that moves with model quality and is cheap and deterministic.
"""

from __future__ import annotations

import numpy as np


def teacher_forced_argmax(model, batch) -> np.ndarray:
    """Argmax token predictions from the model's last forward pass, at
    every target position (padding included).

    Requires the model to expose ``_last_logits`` after
    ``forward_backward`` (all translation models do: GNMT and the
    Transformer project their stored decoder states on demand, so call
    this before an optimizer step moves the projection).
    """
    logits = getattr(model, "_last_logits", None)
    if logits is None:
        raise ValueError(
            f"{type(model).__name__} does not record logits; "
            "teacher-forced decoding unavailable"
        )
    return np.argmax(logits, axis=-1)
