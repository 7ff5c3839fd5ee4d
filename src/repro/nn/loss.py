"""Loss modules."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Mean token-level cross entropy with padding exclusion.

    ``forward(logits, targets)`` returns a scalar loss; ``backward()``
    (no argument needed — the upstream gradient of a scalar loss is 1)
    returns the gradient with respect to the logits.  The number of
    non-padding tokens of the last call is exposed as ``last_token_count``
    for throughput accounting (tokens/sec as defined in §5.2.2).
    """

    def __init__(self, ignore_index: int | None = None):
        super().__init__()
        self.ignore_index = ignore_index
        self.last_token_count = 0

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        loss, grad, n_valid = F.cross_entropy(
            logits, targets, ignore_index=self.ignore_index
        )
        self.last_token_count = n_valid
        # The usual upstream of 1 hands the buffer over uncopied
        # (``grad * 1.0`` has the same bits).
        self._back = lambda upstream=1.0: grad if upstream == 1.0 else grad * upstream
        return loss

    def backward(self, upstream: float = 1.0) -> np.ndarray:  # type: ignore[override]
        if self._back is None:
            raise RuntimeError("CrossEntropyLoss.backward called before forward")
        back, self._back = self._back, None
        return back(upstream)
