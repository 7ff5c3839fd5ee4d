"""What the benchmark promises: the contract file, and the rules applied to it.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units, directions and bounds; ``run.py`` prints exactly those
names and ``compare.py`` applies exactly those bounds.  This module is
pure standard library so ``compare.py`` runs without numpy or ``repro``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Where each end-to-end metric is measured directly.  Every run prints
#: every end-to-end metric (the driver's contract); on the other
#: workloads the metric reports that workload's own closed-loop operation
#: under the family's name (see README, "Alias cells").
NATIVE = {
    "setup_s": ("gnmt_compute", "dlrm_sparse", "comm_step", "serve_mixed"),
    "peak_rss_mb": ("gnmt_compute", "dlrm_sparse", "comm_step", "serve_mixed"),
    "steps_per_s": ("gnmt_compute", "dlrm_sparse", "serve_mixed"),
    "tokens_per_s": ("gnmt_compute", "dlrm_sparse"),
    "wire_bytes_per_step": ("gnmt_compute", "dlrm_sparse", "comm_step"),
    "rounds_per_s": ("comm_step",),
    "round_ms_p50": ("comm_step",),
    "round_ms_p99": ("comm_step",),
    "lookups_per_s": ("serve_mixed",),
    "lookup_ms_p50": ("serve_mixed",),
    "lookup_ms_p99": ("serve_mixed",),
}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def add_repo_to_path() -> Path:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a checkout without ``src/repro`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


# --------------------------------------------------------------------- #
# order statistics
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """``q``-th percentile with linear interpolation (numpy's default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def fast_quartile(values, better: str = "lower") -> float:
    """The quartile on the good side of ``values``, one per timed trial:
    the first for a time, the third for a rate.

    Whatever else runs on the shared host can only slow a trial down, and
    does so for seconds at a time, so the slow side of a run's trials says
    more about the host than about the program.  With two CPU burners
    switching on and off beside ``serve_mixed``, the median over trials of
    the trial's p99 spread 18 % between runs and read 25 % above its quiet
    value; the first quartile spread 4 % and read 9 % above.  On a quiet
    host the two spread alike."""
    return percentile(values, 25 if better == "lower" else 75)


def trial_percentile(trials, q: float) -> float:
    """``fast_quartile`` over trials of each trial's ``q``-th percentile,
    where one pool of all samples would let a burst of slow ones set the
    tail."""
    return fast_quartile(percentile(trial, q) for trial in trials)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    data = [float(v) for v in values]
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, _, q3 = statistics.quantiles(data, n=4)
    return q1, statistics.median(data), q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


# --------------------------------------------------------------------- #
# the bound rule
# --------------------------------------------------------------------- #
def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    delta = (base - new) if better == "higher" else (new - base)
    return delta / abs(base) if base else 0.0


def verdict(a, b, better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for runs ``a``
    (parent) against runs ``b`` (change) of one metric on one workload.

    A difference is only read when both sides' run-to-run spread is
    within the bound; otherwise the pairing is unresolved, never "same".
    """
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    w = worsening(statistics.median(a), statistics.median(b), better)
    if w > bound:
        return "worse"
    if w < -bound:
        return "better"
    return "same"
