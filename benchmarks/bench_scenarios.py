"""Bench: the scenario matrix — models x strategies.

Runs :func:`repro.scenarios.run_matrix` over the benchmark models
(Table 1 plus DLRM) and the five communication strategies, then gates
the claims the matrix exists to check:

* **real fidelity** — every strategy with an exact real twin trains
  bit-identically with the communication scheduler on and off, on every
  model in the matrix (the tiny-scale 4-rank backend);
* **strategy ordering** — per model, the step-time advantage of EmbRace
  over the densified AllReduce is recorded as a guarded ratio for the CI
  regression gate.

Results land in ``BENCH_scenarios.json`` (see ``--out``); the committed
copy at the repository root is the baseline
``benchmarks/check_comm_regression.py`` diffs against in CI.

Run:  python benchmarks/bench_scenarios.py [--quick] [--out BENCH_scenarios.json]
"""

from __future__ import annotations

import argparse
import json
import os

from repro.scenarios import ScenarioSpec, run_matrix

MODELS = ("LM", "GNMT-8", "Transformer", "BERT-base", "DLRM")
STRATEGIES = (
    "EmbRace", "Horovod-AllReduce", "Horovod-AllGather", "BytePS", "Parallax",
)


def measure(
    models=MODELS,
    strategies=STRATEGIES,
    world: int = 8,
    gpu: str = "rtx3090",
    real: bool = True,
    real_world: int = 4,
    real_steps: int = 3,
) -> dict:
    spec = ScenarioSpec(
        models=tuple(models),
        strategies=tuple(strategies),
        world_size=world,
        gpu_kind=gpu,
        validate_real=real,
        real_world_size=real_world,
        real_steps=real_steps,
    )
    report = run_matrix(spec)
    results: dict = {
        "meta": {
            "models": list(models),
            "strategies": list(strategies),
            "world": world,
            "gpu": gpu,
            "real": real,
            "real_world": real_world,
            "real_steps": real_steps,
            "cpus": os.cpu_count(),
        },
        "report": report.to_dict(),
        "all_real_identical": all(r.identical for r in report.real_checks),
        "real_checks": len(report.real_checks),
    }
    # Machine-portable ratios for the CI regression gate (floors at
    # baseline * (1 - tolerance); >= 1.0 means the claim holds).
    guarded: dict[str, float] = {}
    if {"EmbRace", "Horovod-AllReduce"} <= set(strategies):
        for model in models:
            ar = report.cell(model, "Horovod-AllReduce").step_time_s
            em = report.cell(model, "EmbRace").step_time_s
            guarded[f"allreduce_over_embrace_dp:{model}"] = (
                ar / em if em > 0 else 1.0
            )
    results["guarded"] = guarded
    return results


def render(results: dict) -> str:
    from repro.scenarios import ScenarioReport

    meta = results["meta"]
    report = ScenarioReport.from_dict(results["report"])
    lines = [
        f"scenario matrix benchmark ({len(meta['models'])} models x "
        f"{len(meta['strategies'])} strategies, {meta['cpus']} cpus)",
        "",
        report.render(),
        "",
        f"real-backend checks: {results['real_checks']} run, "
        f"all bit-identical = {results['all_real_identical']}",
    ]
    return "\n".join(lines)


def absolute_checks(results: dict) -> list[str]:
    """The bench's hard criteria (used on both baseline and fresh runs)."""
    failures = []
    if results["meta"]["real"] and not results["all_real_identical"]:
        failures.append(
            "all_real_identical: a real-backend run diverged between "
            "overlapped and unoverlapped execution (must be bit-identical)"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=8)
    parser.add_argument(
        "--quick", action="store_true",
        help="3 models, 3 strategies, 2 real ranks",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw = dict(world=args.world)
    if args.quick:
        kw.update(
            models=("LM", "GNMT-8", "DLRM"),
            strategies=("EmbRace", "Horovod-AllReduce", "Horovod-AllGather"),
            world=4, real_world=2,
        )

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


def test_scenarios_quick(benchmark=None):
    """CI smoke: the small matrix holds the absolute criteria (the
    paper-scale claims are asserted by the committed baseline via
    check_comm_regression)."""
    results = measure(
        models=("LM", "GNMT-8", "DLRM"),
        strategies=("EmbRace", "Horovod-AllReduce", "Horovod-AllGather"),
        world=4, real_world=2,
    )
    print()
    print(render(results))
    assert not absolute_checks(results), absolute_checks(results)


if __name__ == "__main__":
    main()
