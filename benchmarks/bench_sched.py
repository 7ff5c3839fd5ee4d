"""Bench: priority-scheduled comm engine vs synchronous execution.

Trains the same 4-rank GNMT workload twice per trial on real worker
processes over the shm transport — once with ``overlap=False`` (every
collective inline, in submission order: the EmbRace paper's
"synchronous" baseline) and once with ``overlap=True`` (the
:class:`repro.comm.CommScheduler` 2D-priority queue, run by the
training thread whenever it waits on a handle) — and compares the
per-rank *computation-stall fraction* (§5.4: fraction of the makespan a
rank's compute lane sits idle) measured from the run's own
``repro.obs`` trace.  No communication runs beside compute in either
mode, so the ratio stays near 1: the gate guards that priority order
never makes the stall meaningfully worse.

The two modes are bit-identical by construction (same arithmetic, same
global collective order on every rank), so the bench also asserts the
loss curves match exactly: any stall difference is pure scheduling, not
numerics.

Results land in ``BENCH_sched.json`` (see ``--out``); the committed copy
at the repository root is the regression baseline that
``benchmarks/check_comm_regression.py`` diffs against in CI.

Run:  python benchmarks/bench_sched.py [--quick] [--out BENCH_sched.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

from repro.comm import open_group
from repro.engine.trainer_real import RealTrainer
from repro.models.config import GNMT8

WORLD = 4
STEPS = 5
TRIALS = 3
VOCAB = 4096
DIM_DIVISOR = 16


def _train_once(config, world: int, steps: int, overlap: bool) -> dict:
    """One traced training run; returns stall fractions + loss curve."""
    with open_group(world, backend="process", trace=True) as g:
        result = RealTrainer(
            config,
            strategy="embrace",
            world_size=world,
            steps=steps,
            seed=11,
            overlap=overlap,
            group=g,
        ).train()
    bundle = result.trace
    makespan = bundle.trace.makespan
    fracs = [bundle.computation_stall(r) / makespan for r in range(world)]
    return {
        "stall_fracs": fracs,
        "mean_stall_frac": sum(fracs) / world,
        "makespan_s": makespan,
        "losses": list(result.losses),
    }


def measure(
    world: int = WORLD,
    steps: int = STEPS,
    trials: int = TRIALS,
    vocab: int = VOCAB,
    dim_divisor: int = DIM_DIVISOR,
) -> dict:
    config = GNMT8.scaled(vocab=vocab, dim_divisor=dim_divisor)
    results: dict = {
        "meta": {
            "world": world,
            "steps": steps,
            "trials": trials,
            "config": {"vocab": vocab, "dim_divisor": dim_divisor},
            "cpus": os.cpu_count(),
        },
        "sync": {"trials": []},
        "overlap": {"trials": []},
    }
    # Steady-state first: fork pools, segment pools, numpy warm caches.
    _train_once(config, world, steps, overlap=False)
    losses: dict[str, list[float]] = {}
    # Alternate modes so machine-load drift hits both equally.
    for _ in range(trials):
        for mode, overlap in (("sync", False), ("overlap", True)):
            run = _train_once(config, world, steps, overlap=overlap)
            losses[mode] = run.pop("losses")
            results[mode]["trials"].append(run)
    for mode in ("sync", "overlap"):
        fracs = [t["mean_stall_frac"] for t in results[mode]["trials"]]
        results[mode]["median_stall_frac"] = float(statistics.median(fracs))
        results[mode]["median_makespan_s"] = float(
            statistics.median(t["makespan_s"] for t in results[mode]["trials"])
        )
    results["losses_identical"] = losses["sync"] == losses["overlap"]
    # The machine-portable number the CI regression gate guards: how much
    # of the synchronous stall the overlapped engine removes (> 1 means
    # overlapping wins; ratios survive machine-speed changes).
    results["guarded"] = {
        "stall_ratio": results["sync"]["median_stall_frac"]
        / results["overlap"]["median_stall_frac"],
    }
    return results


def render(results: dict) -> str:
    meta = results["meta"]
    s, o = results["sync"], results["overlap"]
    lines = [
        f"{meta['world']}-rank scheduling benchmark "
        f"(GNMT8 vocab={meta['config']['vocab']} "
        f"/{meta['config']['dim_divisor']}, {meta['steps']} steps x "
        f"{meta['trials']} trials, {meta['cpus']} cpus)",
        "",
        f"{'':>22} {'sync':>10} {'overlap':>10}",
        f"{'median stall frac':>22} {s['median_stall_frac']:>10.4f} "
        f"{o['median_stall_frac']:>10.4f}",
        f"{'median makespan s':>22} {s['median_makespan_s']:>10.3f} "
        f"{o['median_makespan_s']:>10.3f}",
        "",
        f"stall ratio (sync/overlap): {results['guarded']['stall_ratio']:.3f}"
        f"  (>1 means the async engine removes stall)",
        f"loss curves bit-identical: {results['losses_identical']}",
    ]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=WORLD)
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument(
        "--quick", action="store_true", help="small model, fewer trials"
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw = dict(world=args.world, steps=args.steps, trials=args.trials)
    if args.quick:
        kw.update(steps=3, trials=1, vocab=1024)

    results = measure(**kw)
    print(render(results))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")


def test_overlap_matches_sync_and_does_not_stall_more(benchmark=None):
    """CI smoke: bit-identical losses, and overlapping must not make the
    stall fraction meaningfully *worse* (the win itself is asserted by
    the committed full-size baseline via check_comm_regression)."""
    results = measure(world=4, steps=3, trials=1, vocab=1024)
    print()
    print(render(results))
    assert results["losses_identical"]
    assert results["guarded"]["stall_ratio"] >= 0.85, results["guarded"]


if __name__ == "__main__":
    main()
