"""Weight initializers (explicit RNG, reproducible across ranks).

Every initializer draws in double precision from ``rng`` and returns an
array of ``dtype`` (``None``: numpy's default float, float64), rounded
once.  Layers and models take the same ``dtype`` and pass it down, so
:func:`repro.models.build_model` draws every parameter straight into
float32.  A narrower ``dtype`` is filled row chunk by row chunk, so no
double-precision copy of the whole array is ever alive; the chunks
consume the generator stream in the same order as one whole draw, so
the result equals ``draw(shape).astype(dtype)`` bit for bit, and so
does the generator's state afterwards.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: Float64 bytes drawn per chunk when rounding into a narrower dtype.
_CHUNK_BYTES = 1 << 20


def drawn(
    draw: Callable[[tuple[int, ...]], np.ndarray],
    shape: tuple[int, ...],
    dtype=None,
) -> np.ndarray:
    """``draw(size)`` (float64 samples) rounded into a new ``dtype`` array.

    Float64 returns the draw itself; any other dtype is filled in row
    chunks of about 1 MB of doubles.
    """
    if np.dtype(dtype) == np.float64:
        return draw(shape)
    out = np.empty(shape, dtype=dtype)
    step = max(1, _CHUNK_BYTES // (8 * math.prod(shape[1:])))
    for lo in range(0, shape[0], step):
        hi = min(lo + step, shape[0])
        out[lo:hi] = draw((hi - lo, *shape[1:]))
    return out


def uniform(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    scale: float = 0.1,
    dtype=None,
) -> np.ndarray:
    """U(-scale, scale)."""
    return drawn(lambda size: rng.uniform(-scale, scale, size=size), shape, dtype)


def normal(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    std: float = 0.02,
    dtype=None,
) -> np.ndarray:
    """N(0, std^2) — BERT-style init."""
    return drawn(lambda size: rng.normal(0.0, std, size=size), shape, dtype)


def xavier_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], dtype=None
) -> np.ndarray:
    """Glorot uniform for 2-D weights ``(fan_in, fan_out)``."""
    if len(shape) != 2:
        raise ValueError(f"xavier_uniform requires 2-D shape, got {shape}")
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return drawn(lambda size: rng.uniform(-bound, bound, size=size), shape, dtype)
