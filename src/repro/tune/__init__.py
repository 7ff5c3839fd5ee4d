"""Trace-calibrated cost-model fitting and schedule auto-tuning.

EmbRace's gains depend on per-cluster configuration the paper hand-picks
— partition strategy, bucket/chunk sizes, the prior/delayed split.  This
package *chooses* them from measurement instead, closing the loop
between the repo's two worlds:

1. **fit** (:mod:`repro.tune.fit`) — multi-size AllReduce probes through
   :func:`repro.comm.open_group`, alpha-beta least squares over the
   measured spans, per-link :class:`LinkFit` s bundled into a
   JSON-round-trippable :class:`TunedProfile` that loads into
   :mod:`repro.cluster` / :mod:`repro.collectives`;
2. **search** (:mod:`repro.tune.search`) — a declarative
   :class:`SearchSpace` over :class:`~repro.comm.SchedKnobs`, each
   candidate priced by the *calibrated* simulator (grid + successive
   halving);
3. **validate** (:mod:`repro.tune.validate`) — top-k candidates replayed
   on the real backend via :class:`~repro.engine.run.RunConfig`,
   predicted-vs-measured error reported, winner emitted as a profile
   whose ``knobs`` ``RealTrainer(knobs=...)`` / ``RunConfig(knobs=...)``
   accept.

``repro tune`` is the CLI front end; ``benchmarks/bench_tune.py``
produces the committed ``BENCH_tune.json`` regression baseline.
"""

from repro.tune.fit import (
    DEFAULT_PROBE_ITERS,
    PROBE_SIZES_BYTES,
    SMOKE_SIZES_BYTES,
    LinkFit,
    ProbeSample,
    TunedProfile,
    fit_alpha_beta,
    fit_profile,
    link_fit_from_samples,
    probe_link,
    probe_two_level,
)
from repro.tune.search import (
    Candidate,
    MeasuredWorkload,
    PredictedRun,
    SearchSpace,
    TableLoad,
    calibrate_overhead,
    default_candidate,
    measure_workload_from_run,
    measured_step_time,
    predict_candidate,
    rank_candidates,
)
from repro.tune.validate import (
    TuneReport,
    ValidatedCandidate,
    autotune,
    run_real_candidate,
    validate_candidates,
)

__all__ = [
    "PROBE_SIZES_BYTES",
    "SMOKE_SIZES_BYTES",
    "DEFAULT_PROBE_ITERS",
    "ProbeSample",
    "LinkFit",
    "TunedProfile",
    "fit_alpha_beta",
    "link_fit_from_samples",
    "probe_link",
    "probe_two_level",
    "fit_profile",
    "Candidate",
    "SearchSpace",
    "TableLoad",
    "MeasuredWorkload",
    "PredictedRun",
    "calibrate_overhead",
    "default_candidate",
    "measure_workload_from_run",
    "measured_step_time",
    "predict_candidate",
    "rank_candidates",
    "ValidatedCandidate",
    "TuneReport",
    "run_real_candidate",
    "validate_candidates",
    "autotune",
]
