"""Model registry: config lookup and runnable-model construction."""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseNLPModel
from repro.models.bert import BertModel
from repro.models.config import ALL_MODELS, ModelConfig
from repro.models.dlrm import DLRMModel
from repro.models.gnmt import GNMTModel
from repro.models.lm import LMModel
from repro.models.transformer_mt import TransformerMTModel

_FAMILIES = {
    "lm": LMModel,
    "gnmt": GNMTModel,
    "transformer": TransformerMTModel,
    "bert": BertModel,
    "dlrm": DLRMModel,
}


def get_config(name: str) -> ModelConfig:
    """Full-scale config by name: Table 1 (``'LM'``, ``'GNMT-8'``, ...)
    plus the ``'DLRM'`` extension."""
    try:
        return ALL_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(ALL_MODELS)}"
        ) from None


def build_model(
    config: ModelConfig, rng: np.random.Generator | None = None, **kwargs
) -> BaseNLPModel:
    """Instantiate the runnable model for ``config`` (use ``config.tiny()``
    for real-execution scales).

    The model trains in float32, the paper's precision: weights are
    drawn in double precision from ``rng`` and rounded once, chunk by
    chunk straight into float32 arrays (:mod:`repro.nn.init`), so no
    double-precision copy of a table is ever alive; every layer computes
    in its weights' dtype.  A test that needs double precision (finite
    differences, say) converts the result with
    :meth:`~repro.nn.Module.astype`.
    """
    cls = _FAMILIES[config.family]
    return cls(config, rng=rng, dtype=np.float32, **kwargs)
