"""Scenario matrix: models x strategies in one run.

:func:`run_matrix` prices every combination of benchmark model and
communication strategy on the simulator, through the strategies' own
data-parallel step graphs, and optionally validates a subset on the real
multi-worker backend (overlapped vs. unoverlapped runs of exact
strategies must produce bit-identical losses).
"""

from repro.scenarios.matrix import (
    RealCheck,
    ScenarioCell,
    ScenarioReport,
    ScenarioSpec,
    run_matrix,
)

__all__ = [
    "ScenarioSpec",
    "ScenarioCell",
    "ScenarioReport",
    "RealCheck",
    "run_matrix",
]
