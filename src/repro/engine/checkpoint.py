"""Checkpointing: save/restore model + optimizer state deterministically.

Synchronous training must be resumable bit-for-bit (a crashed worker
restarts from the last checkpoint and the cluster continues as if
nothing happened).  Checkpoints are ``.npz`` archives holding every
parameter plus flattened optimizer state (step counters and moment
buffers), written atomically.  Arrays are stored in the model's dtype
and loaded into the dtype of the parameters they restore, so a
checkpoint written by a float64 model resumes a float32 one.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.optim.base import Optimizer

_STATE_PREFIX = "optstate"
_EXTRA_PREFIX = "extra"


def save_checkpoint(
    path: str,
    model: Module,
    optimizer: Optimizer | None = None,
    step: int = 0,
    extras: dict[str, np.ndarray] | None = None,
    values: dict[Parameter, np.ndarray] | None = None,
) -> None:
    """Write model (and optionally optimizer) state to ``path`` atomically.

    ``extras`` holds arbitrary named arrays riding along with the model
    state (loss history, sharded-optimizer moments, …); read them back
    with :func:`load_extras`.  ``values`` supplies the full array of a
    parameter the model holds only part of (a column-sharded table's
    gathered rows), written in place of its ``data``.  Optimizer state
    is written for the parameters that have some.
    """
    values = values or {}
    arrays: dict[str, np.ndarray] = {"__step__": np.array(step, dtype=np.int64)}
    for name, p in model.named_parameters():
        arrays[f"param/{name}"] = values.get(p, p.data)
    for name, value in (extras or {}).items():
        arrays[f"{_EXTRA_PREFIX}/{name}"] = np.asarray(value)
    if optimizer is not None:
        for pi, p in enumerate(optimizer.params):
            st = optimizer.state.get(id(p), {})
            for key, value in st.items():
                arrays[f"{_STATE_PREFIX}/{pi}/{key}"] = np.asarray(value)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(
    path: str, model: Module, optimizer: Optimizer | None = None
) -> int:
    """Restore state saved by :func:`save_checkpoint`; returns the step."""
    with np.load(path) as archive:
        params = {
            name[len("param/") :]: archive[name]
            for name in archive.files
            if name.startswith("param/")
        }
        model.load_state_dict(params)
        if optimizer is not None:
            for pi, p in enumerate(optimizer.params):
                prefix = f"{_STATE_PREFIX}/{pi}/"
                keys = [n for n in archive.files if n.startswith(prefix)]
                if not keys:
                    continue
                st = optimizer.state_for(p)
                for name in keys:
                    key = name[len(prefix) :]
                    value = archive[name]
                    # Moments take their parameter's dtype, so a float64
                    # checkpoint resumes a float32 model in float32.
                    st[key] = (
                        int(value)
                        if value.ndim == 0
                        else value.astype(p.data.dtype, copy=True)
                    )
        return int(archive["__step__"])


def load_extras(path: str) -> dict[str, np.ndarray]:
    """The ``extras`` arrays stored by :func:`save_checkpoint` (possibly empty)."""
    prefix = f"{_EXTRA_PREFIX}/"
    with np.load(path) as archive:
        return {
            name[len(prefix):]: archive[name].copy()
            for name in archive.files
            if name.startswith(prefix)
        }


def peek_step(path: str) -> int:
    """The step counter of a checkpoint, without loading anything else."""
    with np.load(path) as archive:
        return int(archive["__step__"])
