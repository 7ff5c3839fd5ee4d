"""CI gate: fresh transport/scheduling/tuning benchmarks vs committed baselines.

Re-runs each benchmark with the parameters recorded in its committed
baseline's ``meta`` block and compares the fresh ``guarded`` ratios
against the baseline — ratios (persistent-over-one-shot dispatch,
sync-over-overlap stall, tuning's step-time accuracy and
default-over-tuned stall) instead of absolute numbers, because they
cancel most host-speed variance.  A ratio falling more than
``--tolerance`` (default 30%) below baseline fails the build, as do the
benches' own absolute criteria: loss-curve divergence anywhere, a tuned
configuration stalling more than the default, or the calibrated
simulator missing the measured step time by more than the bar recorded
in ``BENCH_tune.json``.

Gated baselines (each skipped with a note when not committed, except the
required transport baseline):

* ``BENCH_comm.json``  — :mod:`benchmarks.bench_comm_transport`
* ``BENCH_sched.json`` — :mod:`benchmarks.bench_sched`
* ``BENCH_tune.json``  — :mod:`benchmarks.bench_tune`
* ``BENCH_serve.json`` — :mod:`benchmarks.bench_serve`
* ``BENCH_placement.json`` — :mod:`benchmarks.bench_placement`
* ``BENCH_scale.json`` — :mod:`benchmarks.bench_scale`
* ``BENCH_scenarios.json`` — :mod:`benchmarks.bench_scenarios`

Run:  python benchmarks/check_comm_regression.py [--baseline BENCH_comm.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(HERE, os.pardir, "BENCH_comm.json")
DEFAULT_SCHED_BASELINE = os.path.join(HERE, os.pardir, "BENCH_sched.json")
DEFAULT_TUNE_BASELINE = os.path.join(HERE, os.pardir, "BENCH_tune.json")
DEFAULT_SERVE_BASELINE = os.path.join(HERE, os.pardir, "BENCH_serve.json")
DEFAULT_PLACEMENT_BASELINE = os.path.join(
    HERE, os.pardir, "BENCH_placement.json"
)
DEFAULT_SCALE_BASELINE = os.path.join(HERE, os.pardir, "BENCH_scale.json")
DEFAULT_SCENARIOS_BASELINE = os.path.join(
    HERE, os.pardir, "BENCH_scenarios.json"
)


def load_baseline(path: str) -> dict | None:
    """The committed baseline dict, or None (with a note) if absent."""
    if not os.path.exists(path):
        print(f"(no baseline at {path}; skipping)")
        return None
    with open(path) as fh:
        return json.load(fh)


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Floor every guarded ratio at baseline * (1 - tolerance)."""
    failures = []
    rows = [f"{'metric':>32} {'baseline':>10} {'fresh':>10} {'floor':>10}  verdict"]
    for key, base_value in sorted(baseline["guarded"].items()):
        fresh_value = fresh["guarded"][key]
        floor = base_value * (1.0 - tolerance)
        ok = fresh_value >= floor
        rows.append(
            f"{key:>32} {base_value:>9.2f}x {fresh_value:>9.2f}x "
            f"{floor:>9.2f}x  {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{key}: {fresh_value:.2f}x is below {floor:.2f}x "
                f"(baseline {base_value:.2f}x - {tolerance:.0%})"
            )
    print("\n".join(rows))
    return failures


def gate(
    baseline: dict,
    tolerance: float,
    measure_fn,
    render_fn,
    absolute_fn=None,
) -> list[str]:
    """Shared gate body: re-measure from the baseline's meta, render the
    fresh run, floor the guarded ratios, then apply the bench's own
    absolute criteria (``absolute_fn(fresh) -> list[str]``)."""
    fresh = measure_fn(baseline["meta"])
    print(render_fn(fresh))
    print()
    failures = compare(baseline, fresh, tolerance)
    if absolute_fn is not None:
        failures += absolute_fn(fresh)
    return failures


def check_comm(baseline: dict, tolerance: float, args) -> list[str]:
    """Gate the transport baseline (meta overridable from the CLI).

    On top of the floored ratio, the zero-allocation audit must report
    a clean wire path (no numpy allocations in ``repro.comm``, no arena
    misses or fallbacks, no new shm segments across the steady-state
    steps).
    """
    from bench_comm_transport import measure, render

    def measure_fn(meta):
        return measure(
            args.world or meta["world"],
            args.payload_mb or meta["payload_mb"],
            args.iters or meta["iters"],
        )

    def absolute_fn(fresh):
        failures = []
        z = fresh["zero_alloc"]
        dirty = {
            key: z[key]
            for key in (
                "numpy_alloc_count",
                "arena_miss_delta",
                "arena_fallback_delta",
                "segpool_miss_delta",
            )
            if z[key] != 0
        }
        if dirty:
            failures.append(
                f"zero_alloc: wire path allocated in steady state over "
                f"{z['steps']} steps: {dirty}"
            )
        return failures

    return gate(baseline, tolerance, measure_fn, render, absolute_fn)


def check_sched(baseline_path: str, tolerance: float) -> list[str]:
    """Gate the scheduler baseline: stall ratio floor + bit-identity."""
    baseline = load_baseline(baseline_path)
    if baseline is None:
        return []

    from bench_sched import measure, render

    def measure_fn(meta):
        return measure(
            world=meta["world"],
            steps=meta["steps"],
            trials=meta["trials"],
            vocab=meta["config"]["vocab"],
            dim_divisor=meta["config"]["dim_divisor"],
        )

    def absolute_fn(fresh):
        if not fresh["losses_identical"]:
            return [
                "losses_identical: overlapped training diverged from the "
                "synchronous loss curve (must be bit-identical)"
            ]
        return []

    return gate(baseline, tolerance, measure_fn, render, absolute_fn)


def check_tune(baseline_path: str, tolerance: float) -> list[str]:
    """Gate the auto-tuning baseline: accuracy/stall ratio floors plus
    bench_tune's absolute criteria (prediction error within the bar,
    tuned stall <= default's, bit-identical losses)."""
    baseline = load_baseline(baseline_path)
    if baseline is None:
        return []

    from bench_tune import absolute_checks, measure, render

    def measure_fn(meta):
        return measure(
            world=meta["world"],
            steps=meta["steps"],
            vocab=meta["config"]["vocab"],
            dim_divisor=meta["config"]["dim_divisor"],
            seed=meta["seed"],
            backend=meta["backend"],
            top_k=meta["top_k"],
        )

    return gate(baseline, tolerance, measure_fn, render, absolute_checks)


def check_serve(baseline_path: str, tolerance: float) -> list[str]:
    """Gate the serving baseline: QPS-scaling and tail-latency ratio
    floors, plus bench_serve's absolute criteria (online training
    bit-identical to the offline replay, zero torn batches)."""
    baseline = load_baseline(baseline_path)
    if baseline is None:
        return []

    from bench_serve import absolute_checks, measure, render

    def measure_fn(meta):
        return measure(
            world=meta["world"],
            client_levels=tuple(meta["client_levels"]),
            requests_per_client=meta["requests_per_client"],
            train_steps=meta["train_steps"],
            trials=meta["trials"],
            vocab=meta["config"]["vocab"],
            dim=meta["config"]["dim"],
            backend=meta["backend"],
        )

    return gate(baseline, tolerance, measure_fn, render, absolute_checks)


def check_placement(baseline_path: str, tolerance: float) -> list[str]:
    """Gate the hybrid-placement baseline: sparse-AlltoAll and lookup
    wire-byte reduction floors, plus bench_placement's absolute criteria
    (>= 30% sparse-wire reduction at the learned 1% hot set,
    bit-identical losses, zero torn batches, at least one live
    re-partition, and every served batch equal to the offline snapshot
    at its version)."""
    baseline = load_baseline(baseline_path)
    if baseline is None:
        return []

    from bench_placement import absolute_checks, measure, render

    def measure_fn(meta):
        return measure(
            world=meta["world"],
            vocab=meta["config"]["vocab"],
            dim=meta["config"]["dim"],
            train_steps=meta["train_steps"],
            clients=meta["clients"],
            requests_per_client=meta["requests_per_client"],
            hot_fraction=meta["hot_fraction"],
            repartition_interval=meta["repartition_interval"],
            backend=meta["backend"],
        )

    return gate(baseline, tolerance, measure_fn, render, absolute_checks)


def check_scale(baseline_path: str, tolerance: float) -> list[str]:
    """Gate the hybrid-scaling baseline: inter-node exchange-reduction
    and ladder-speedup ratio floors, plus bench_scale's absolute
    criteria (bit-identical losses across the flat/hierarchical twins,
    >= 30% fewer cross-node exchange bytes on the 2-node profile, no
    ladder rung where the hierarchical wire is predicted slower)."""
    baseline = load_baseline(baseline_path)
    if baseline is None:
        return []

    from bench_scale import absolute_checks, measure, render

    def measure_fn(meta):
        return measure(
            world=meta["world"],
            steps=meta["steps"],
            seed=meta["seed"],
            backend=meta["backend"],
            sim_world=meta["sim_world"],
            probe=meta["probe"],
        )

    return gate(baseline, tolerance, measure_fn, render, absolute_checks)


def check_scenarios(baseline_path: str, tolerance: float) -> list[str]:
    """Gate the scenario-matrix baseline: per-model allreduce-over-EmbRace
    step-time ratio floors, plus bench_scenarios's absolute criterion
    (every real-backend check bit-identical)."""
    baseline = load_baseline(baseline_path)
    if baseline is None:
        return []

    from bench_scenarios import absolute_checks, measure, render

    def measure_fn(meta):
        return measure(
            models=tuple(meta["models"]),
            strategies=tuple(meta["strategies"]),
            world=meta["world"],
            gpu=meta["gpu"],
            real=meta["real"],
            real_world=meta["real_world"],
            real_steps=meta["real_steps"],
        )

    return gate(baseline, tolerance, measure_fn, render, absolute_checks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--sched-baseline", default=DEFAULT_SCHED_BASELINE)
    parser.add_argument("--tune-baseline", default=DEFAULT_TUNE_BASELINE)
    parser.add_argument("--serve-baseline", default=DEFAULT_SERVE_BASELINE)
    parser.add_argument(
        "--placement-baseline", default=DEFAULT_PLACEMENT_BASELINE
    )
    parser.add_argument(
        "--skip-sched", action="store_true",
        help="skip the scheduler-stall gate",
    )
    parser.add_argument(
        "--skip-tune", action="store_true",
        help="skip the auto-tuning gate",
    )
    parser.add_argument(
        "--skip-serve", action="store_true",
        help="skip the serving latency/QPS gate",
    )
    parser.add_argument(
        "--skip-placement", action="store_true",
        help="skip the hybrid-placement wire-bytes gate",
    )
    parser.add_argument(
        "--scale-baseline", default=DEFAULT_SCALE_BASELINE
    )
    parser.add_argument(
        "--skip-scale", action="store_true",
        help="skip the hybrid two-level scaling gate",
    )
    parser.add_argument(
        "--scenarios-baseline", default=DEFAULT_SCENARIOS_BASELINE
    )
    parser.add_argument(
        "--skip-scenarios", action="store_true",
        help="skip the scenario-matrix gate",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional drop below the baseline ratio",
    )
    parser.add_argument(
        "--world", type=int, default=None,
        help="default: same as the baseline run",
    )
    parser.add_argument(
        "--payload-mb", type=float, default=None,
        help="default: same as the baseline run",
    )
    parser.add_argument("--iters", type=int, default=None)
    args = parser.parse_args()

    with open(args.baseline) as fh:
        baseline = json.load(fh)

    failures = check_comm(baseline, args.tolerance, args)
    if not args.skip_sched:
        print()
        failures += check_sched(args.sched_baseline, args.tolerance)
    if not args.skip_tune:
        print()
        failures += check_tune(args.tune_baseline, args.tolerance)
    if not args.skip_serve:
        print()
        failures += check_serve(args.serve_baseline, args.tolerance)
    if not args.skip_placement:
        print()
        failures += check_placement(args.placement_baseline, args.tolerance)
    if not args.skip_scale:
        print()
        failures += check_scale(args.scale_baseline, args.tolerance)
    if not args.skip_scenarios:
        print()
        failures += check_scenarios(args.scenarios_baseline, args.tolerance)
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        return 1
    print("\nno regression")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
