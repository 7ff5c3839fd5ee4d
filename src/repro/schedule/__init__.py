"""EmbRace's 2D Communication Scheduling and baseline schedulers.

* :mod:`vertical` — Algorithm 1 (coalesce + prior/delayed split) on real
  sparse gradients, plus the empirical batch statistics behind Table 3;
* :mod:`horizontal` — Block-level Horizontal Scheduling priorities;
* :mod:`bytescheduler` — the tensor-partitioning priority scheduler the
  BytePS baseline integrates (Peng et al., SOSP'19).
"""

from repro.schedule.vertical import (
    EmbeddingGradStats,
    measure_grad_stats,
    vertical_split,
)
from repro.schedule.horizontal import (
    PRIORITY_DELAYED,
    PRIORITY_PRIOR,
    horizontal_priorities,
)
from repro.schedule.bytescheduler import partition_tensor

__all__ = [
    "vertical_split",
    "EmbeddingGradStats",
    "measure_grad_stats",
    "horizontal_priorities",
    "PRIORITY_PRIOR",
    "PRIORITY_DELAYED",
    "partition_tensor",
]
