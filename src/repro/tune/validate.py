"""Replay top candidates on the real backend and pick the winner.

The search layer ranks knob settings on the *calibrated simulator*; this
module closes the loop by replaying the top-k candidates (plus the
default configuration) through :class:`~repro.engine.run.RunConfig` on
the real backend, reporting predicted-vs-measured step-time error, and
emitting the winning :class:`~repro.tune.TunedProfile`, whose
``knobs`` ``RealTrainer`` / ``RunConfig`` take as ``knobs=``.  Pipeline
candidates are simulator-only, so they keep their predictions in the
ranking and are never replayed.

The winner is the *measured*-stall argmin over the validated set, which
always contains the default: tuning can therefore never regress the
stall fraction it reports (the gate
``benchmarks/check_comm_regression.py`` enforces exactly this on
``BENCH_tune.json``).  Loss curves are bit-identical across candidates
at a fixed seed — knobs only move *when* bytes travel — and that too is
asserted here.

:func:`autotune` is the one-call pipeline (probe → fit → search →
validate) behind ``repro tune``, ``benchmarks/bench_tune.py`` and
``examples/autotune_study.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tune.fit import (
    DEFAULT_PROBE_ITERS,
    PROBE_SIZES_BYTES,
    TunedProfile,
    fit_profile,
)
from repro.tune.search import (
    Candidate,
    MeasuredWorkload,
    PredictedRun,
    SearchSpace,
    calibrate_overhead,
    default_candidate,
    measure_workload_from_run,
    measured_step_time,
    predict_candidate,
    rank_candidates,
)


@dataclass(frozen=True)
class ValidatedCandidate:
    """Predicted vs measured verdict for one real replay."""

    candidate: Candidate
    predicted_step_s: float
    predicted_stall_frac: float
    measured_step_s: float
    measured_stall_frac: float
    losses: tuple[float, ...]

    @property
    def step_time_error(self) -> float:
        """Relative |predicted - measured| step-time error."""
        return abs(self.predicted_step_s - self.measured_step_s) / self.measured_step_s


@dataclass(frozen=True)
class TuneReport:
    """Everything one :func:`autotune` run learned."""

    profile: TunedProfile  # probe fits only
    workload: MeasuredWorkload
    ranked: tuple[PredictedRun, ...]
    validated: tuple[ValidatedCandidate, ...]  # default first
    winner: ValidatedCandidate
    tuned_profile: TunedProfile  # fits + winning knobs/strategy
    losses_identical: bool

    @property
    def default(self) -> ValidatedCandidate:
        return self.validated[0]

    def render(self) -> str:
        """Human-readable fit + ranking + validation tables."""
        from repro.utils.tables import Table

        out = []
        fits = Table(
            ["link", "latency (us)", "bandwidth (MB/s)", "fit residual"],
            title="fitted alpha-beta links",
        )
        for label, link in sorted(self.profile.links.items()):
            fits.add_row([
                label,
                link.latency_s * 1e6,
                link.bandwidth_Bps / 1e6,
                link.residual,
            ])
        out.append(fits.render())
        rank = Table(
            ["rank", "candidate", "pred step (ms)", "pred stall"],
            title="simulator ranking",
        )
        for i, p in enumerate(self.ranked):
            rank.add_row([i, p.candidate.label(), p.step_time_s * 1e3, p.stall_frac])
        out.append(rank.render())
        val = Table(
            ["candidate", "pred step (ms)", "meas step (ms)", "err",
             "meas stall", "winner"],
            title="real-backend validation",
        )
        for v in self.validated:
            val.add_row([
                v.candidate.label() + (" [default]" if v is self.default else ""),
                v.predicted_step_s * 1e3,
                v.measured_step_s * 1e3,
                f"{v.step_time_error:.1%}",
                v.measured_stall_frac,
                "*" if v is self.winner else "",
            ])
        out.append(val.render())
        out.append(f"loss curves bit-identical across candidates: "
                   f"{self.losses_identical}")
        return "\n\n".join(out)


def run_real_candidate(
    config,
    candidate: Candidate,
    *,
    world_size: int,
    steps: int,
    seed: int,
    backend: str,
) -> tuple[float, float, tuple[float, ...]]:
    """One traced real run under the candidate's knobs.

    Returns ``(measured_step_s, measured_stall_frac, losses)``.
    """
    from repro.engine.run import RunConfig, run

    result = run(RunConfig(
        model=config,
        mode="real",
        strategy=candidate.strategy,
        world_size=world_size,
        steps=steps,
        seed=seed,
        backend=backend,
        trace=True,
        knobs=candidate.knobs,
    ))
    bundle = result.raw.trace
    step_s = measured_step_time(bundle.trace, steps)
    stall_frac = bundle.computation_stall(0) / bundle.trace.makespan
    return step_s, stall_frac, tuple(float(x) for x in result.raw.losses)


def validate_candidates(
    profile: TunedProfile,
    workload: MeasuredWorkload,
    config,
    ranked: list[PredictedRun],
    *,
    steps: int,
    seed: int,
    backend: str,
    top_k: int = 2,
) -> TuneReport:
    """Replay default + the top-k ranked candidates; build the report."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    world = profile.world_size
    to_run: list[Candidate] = [default_candidate()]
    for p in ranked:
        if len(to_run) > top_k:
            break
        if p.candidate not in to_run:
            to_run.append(p.candidate)
    validated = []
    for cand in to_run:
        pred = predict_candidate(profile, workload, cand, n_steps=steps)
        step_s, stall_frac, losses = run_real_candidate(
            config, cand, world_size=world, steps=steps, seed=seed,
            backend=backend,
        )
        validated.append(ValidatedCandidate(
            candidate=cand,
            predicted_step_s=pred.step_time_s,
            predicted_stall_frac=pred.stall_frac,
            measured_step_s=step_s,
            measured_stall_frac=stall_frac,
            losses=losses,
        ))
    winner = min(
        validated,
        key=lambda v: (v.measured_stall_frac, v.measured_step_s),
    )
    losses_identical = all(v.losses == validated[0].losses for v in validated)
    tuned = profile.with_choice(
        winner.candidate.knobs, strategy=winner.candidate.strategy
    )
    return TuneReport(
        profile=profile,
        workload=workload,
        ranked=tuple(ranked),
        validated=tuple(validated),
        winner=winner,
        tuned_profile=tuned,
        losses_identical=losses_identical,
    )


def autotune(
    config,
    *,
    world_size: int = 4,
    backend: str = "process",
    steps: int = 5,
    seed: int = 11,
    space: SearchSpace | None = None,
    probe_sizes: tuple[int, ...] = PROBE_SIZES_BYTES,
    probe_iters: int = DEFAULT_PROBE_ITERS,
    rungs: tuple[int, ...] = (2, 4),
    top_k: int = 2,
    map_fn=map,
) -> TuneReport:
    """The full probe → fit → search → validate pipeline for one model.

    1. **Probe**: multi-size AllReduces on the requested backend,
       alpha-beta fitted into a :class:`TunedProfile`;
    2. **Measure**: one traced default-knob real run supplies compute
       span durations + the default's measured stall;
    3. **Search**: the (calibrated) simulator ranks the ``space`` grid
       by predicted stall via successive halving;
    4. **Validate**: default + top-k replayed for real; winner emitted
       as ``report.tuned_profile``.
    """
    from repro.engine.run import RunConfig, run

    profile = fit_profile(
        world_size,
        backend=backend,
        sizes_bytes=probe_sizes,
        iters=probe_iters,
    )
    default_run = run(RunConfig(
        model=config,
        mode="real",
        strategy="embrace",
        world_size=world_size,
        steps=steps,
        seed=seed,
        backend=backend,
        trace=True,
    ))
    workload = measure_workload_from_run(config, world_size, default_run)
    workload = calibrate_overhead(profile, workload, n_steps=steps)
    ranked = rank_candidates(
        profile, workload, space if space is not None else SearchSpace(),
        rungs=rungs, seed=seed, map_fn=map_fn,
    )
    return validate_candidates(
        profile, workload, config, list(ranked),
        steps=steps, seed=seed, backend=backend, top_k=top_k,
    )
