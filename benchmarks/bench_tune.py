"""Bench: auto-tuning pipeline accuracy + win on the 4-rank shm workload.

Runs the full :func:`repro.tune.autotune` pipeline — multi-size
AllReduce probes, alpha-beta fit, calibrated-simulator knob search,
real-backend validation — on the same 4-rank GNMT workload as
``bench_sched``, over real worker processes and the shm transport.  Two
claims are measured and gated:

* **accuracy** — the calibrated simulator's predicted step time is
  within ``MAX_STEP_TIME_ERROR`` (25%) of the measured step time for
  the winning configuration (and for the default, whose residual
  calibrates the per-step host overhead);
* **no-regression-by-construction** — the tuned configuration's
  measured overlapped stall fraction is <= the default's (the winner is
  the measured argmin over a validation set that always contains the
  default), with bit-identical loss curves across every candidate.

Results land in ``BENCH_tune.json`` (see ``--out``); the committed copy
at the repository root is the regression baseline
``benchmarks/check_comm_regression.py`` diffs against in CI.

Run:  python benchmarks/bench_tune.py [--quick] [--out BENCH_tune.json]
"""

from __future__ import annotations

import argparse
import json
import os

from repro.models.config import GNMT8
from repro.tune import SearchSpace, autotune

WORLD = 4
STEPS = 5
VOCAB = 4096
DIM_DIVISOR = 16
SEED = 11
TOP_K = 2

#: Hard accuracy bar for predicted-vs-measured step time (fraction).
MAX_STEP_TIME_ERROR = 0.25

#: The bench's search grid: the two default dense bucket sizes, top-k
#: replayed.
BENCH_SPACE = SearchSpace(bucket_elems=(65_536, 262_144))


def measure(
    world: int = WORLD,
    steps: int = STEPS,
    vocab: int = VOCAB,
    dim_divisor: int = DIM_DIVISOR,
    seed: int = SEED,
    backend: str = "process",
    top_k: int = TOP_K,
) -> dict:
    config = GNMT8.scaled(vocab=vocab, dim_divisor=dim_divisor)
    report = autotune(
        config,
        world_size=world,
        backend=backend,
        steps=steps,
        seed=seed,
        space=BENCH_SPACE,
        rungs=(2, steps),
        top_k=top_k,
    )
    default, winner = report.default, report.winner
    results: dict = {
        "meta": {
            "world": world,
            "steps": steps,
            "seed": seed,
            "backend": backend,
            "top_k": top_k,
            "config": {"vocab": vocab, "dim_divisor": dim_divisor},
            "cpus": os.cpu_count(),
            "max_step_time_error": MAX_STEP_TIME_ERROR,
        },
        "fit": {
            label: {
                "latency_us": link.latency_s * 1e6,
                "bandwidth_MBps": link.bandwidth_Bps / 1e6,
                "residual": link.residual,
            }
            for label, link in sorted(report.profile.links.items())
        },
        "validated": [
            {
                "candidate": v.candidate.label(),
                "is_default": v is default,
                "is_winner": v is winner,
                "predicted_step_ms": v.predicted_step_s * 1e3,
                "measured_step_ms": v.measured_step_s * 1e3,
                "step_time_error": v.step_time_error,
                "measured_stall_frac": v.measured_stall_frac,
            }
            for v in report.validated
        ],
        "winner": winner.candidate.label(),
        "step_time_error": winner.step_time_error,
        "default_step_time_error": default.step_time_error,
        "default_stall_frac": default.measured_stall_frac,
        "tuned_stall_frac": winner.measured_stall_frac,
        "losses_identical": report.losses_identical,
        "tuned_profile": json.loads(report.tuned_profile.to_json()),
    }
    # Machine-portable ratios for the CI regression gate (floors at
    # baseline * (1 - tolerance); both shrink if tuning gets worse).
    results["guarded"] = {
        "step_time_accuracy": 1.0 - winner.step_time_error,
        "stall_ratio_default_over_tuned": (
            default.measured_stall_frac / winner.measured_stall_frac
            if winner.measured_stall_frac > 0
            else 1.0
        ),
    }
    return results


def render(results: dict) -> str:
    meta = results["meta"]
    lines = [
        f"{meta['world']}-rank auto-tuning benchmark "
        f"(GNMT8 vocab={meta['config']['vocab']}"
        f"/{meta['config']['dim_divisor']}, {meta['steps']} steps, "
        f"{meta['backend']}, {meta['cpus']} cpus)",
        "",
        f"{'fitted links':>24}:",
    ]
    for label, f in results["fit"].items():
        lines.append(
            f"{label:>24}  beta={f['latency_us']:.1f}us  "
            f"B={f['bandwidth_MBps']:.0f}MB/s  resid={f['residual']:.3f}"
        )
    lines.append("")
    lines.append(
        f"{'candidate':>44} {'pred ms':>8} {'meas ms':>8} {'err':>6} {'stall':>7}"
    )
    for v in results["validated"]:
        tag = " *" if v["is_winner"] else ("  (default)" if v["is_default"] else "")
        lines.append(
            f"{v['candidate']:>44} {v['predicted_step_ms']:>8.2f} "
            f"{v['measured_step_ms']:>8.2f} {v['step_time_error']:>6.1%} "
            f"{v['measured_stall_frac']:>7.4f}{tag}"
        )
    lines += [
        "",
        f"winner: {results['winner']}",
        f"step-time prediction error: {results['step_time_error']:.1%} "
        f"(bar: {meta['max_step_time_error']:.0%})",
        f"stall frac: default {results['default_stall_frac']:.4f} -> "
        f"tuned {results['tuned_stall_frac']:.4f} "
        f"(ratio {results['guarded']['stall_ratio_default_over_tuned']:.3f})",
        f"loss curves bit-identical: {results['losses_identical']}",
    ]
    return "\n".join(lines)


def absolute_checks(results: dict) -> list[str]:
    """The bench's hard criteria (used on both baseline and fresh runs)."""
    failures = []
    bar = results["meta"]["max_step_time_error"]
    if results["step_time_error"] > bar:
        failures.append(
            f"step_time_error: {results['step_time_error']:.1%} exceeds "
            f"the {bar:.0%} accuracy bar"
        )
    if results["tuned_stall_frac"] > results["default_stall_frac"] + 1e-12:
        failures.append(
            f"tuned stall {results['tuned_stall_frac']:.4f} worse than "
            f"default {results['default_stall_frac']:.4f}"
        )
    if not results["losses_identical"]:
        failures.append(
            "losses_identical: knob candidates diverged from the default "
            "loss curve (must be bit-identical)"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=WORLD)
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument(
        "--quick", action="store_true", help="small model, thread backend"
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw = dict(world=args.world, steps=args.steps)
    if args.quick:
        kw.update(world=2, steps=3, vocab=1024, backend="thread", top_k=1)

    results = measure(**kw)
    print(render(results))
    failures = absolute_checks(results)
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        raise SystemExit(1)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")


def test_tune_pipeline_quick(benchmark=None):
    """CI smoke: the pipeline holds its absolute criteria at tiny scale
    (the full-size claims are asserted by the committed baseline via
    check_comm_regression)."""
    results = measure(world=2, steps=3, vocab=1024, backend="thread", top_k=1)
    print()
    print(render(results))
    assert not absolute_checks(results), absolute_checks(results)


if __name__ == "__main__":
    main()
