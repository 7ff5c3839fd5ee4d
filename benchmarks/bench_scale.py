"""Bench: hybrid-mode scaling — real two-level twins + 64..1024 replay.

Runs one :func:`repro.engine.hybrid.run_hybrid` cell on the
sparse-dominated GNMT derivative (:func:`repro.engine.hybrid.
scale_bench_model`): four real ranks arranged as two simulated
2-GPU nodes train twice — hierarchical wires vs flat — then the
per-level alpha-beta fit replays the EmbRace step at 64..1024 ranks.
Three claims are measured and gated:

* **bit-identity** — the hierarchical collectives produce exactly the
  flat loss curve on the real ranks (they reorder *transfers*, never
  arithmetic);
* **inter-node reduction** — on the 2-node calibrated profile the
  hierarchical gradient-exchange lanes (dense + sparse + hot) move at
  least ``MIN_EXCHANGE_REDUCTION`` (30%) fewer cross-node bytes than
  flat (``exchange_ratio <= 0.70``);
* **scaling** — the hierarchical wire is never slower than flat at any
  ladder rung, and the predicted 1024-rank speedup is recorded as a
  guarded ratio.

Results land in ``BENCH_scale.json`` (see ``--out``); the committed
copy at the repository root is the regression baseline
``benchmarks/check_comm_regression.py`` diffs against in CI.

Run:  python benchmarks/bench_scale.py [--quick] [--out BENCH_scale.json]
"""

from __future__ import annotations

import argparse
import json
import os

from repro.engine.hybrid import run_hybrid, scale_bench_model
from repro.engine.run import RunConfig
from repro.tune import DEFAULT_PROBE_ITERS, PROBE_SIZES_BYTES, SMOKE_SIZES_BYTES

WORLD = 4
STEPS = 3
SEED = 11

#: The >= 30% inter-node wire-byte gate on the 2-node profile.
MIN_EXCHANGE_REDUCTION = 0.30


def measure(
    world: int = WORLD,
    steps: int = STEPS,
    seed: int = SEED,
    backend: str = "process",
    sim_world=None,
    probe: str = "full",
) -> dict:
    config = RunConfig(
        model=scale_bench_model(),
        mode="hybrid",
        world_size=world,
        steps=steps,
        seed=seed,
        backend=backend,
        sim_world=tuple(sim_world) if sim_world else None,
    )
    sizes, iters = (
        (SMOKE_SIZES_BYTES, 3) if probe == "smoke"
        else (PROBE_SIZES_BYTES, DEFAULT_PROBE_ITERS)
    )
    res = run_hybrid(config, probe_sizes_bytes=sizes, probe_iters=iters)
    report = res.raw
    pp = report.profile_point
    last = report.curve[-1]
    results: dict = {
        "meta": {
            "world": world,
            "steps": steps,
            "seed": seed,
            "backend": backend,
            "sim_world": list(sim_world) if sim_world else None,
            "probe": probe,
            "model": config.model.name,
            "topology": report.profile.meta.get("topology"),
            "cpus": os.cpu_count(),
            "min_exchange_reduction": MIN_EXCHANGE_REDUCTION,
        },
        "report": report.to_dict(),
        "losses_identical": report.losses_identical,
        "node_dedup": report.node_dedup,
        "real_inter_ratio": report.real_inter_ratio,
        "exchange_ratio": pp.exchange_ratio,
        "max_world": last.world_size,
        "max_world_speedup": last.speedup,
    }
    # Machine-portable ratios for the CI regression gate (floors at
    # baseline * (1 - tolerance); both shrink if two-level gets worse).
    results["guarded"] = {
        "exchange_reduction_flat_over_hier": (
            pp.inter_exchange_flat / pp.inter_exchange_hier
            if pp.inter_exchange_hier > 0
            else 1.0
        ),
        "ladder_speedup_at_max": last.speedup,
    }
    return results


def render(results: dict) -> str:
    meta = results["meta"]
    report = results["report"]
    lines = [
        f"{meta['world']}-rank hybrid scaling benchmark "
        f"({meta['backend']}, {meta['steps']} steps, "
        f"{meta['cpus']} cpus)",
        "",
        f"real twins: losses bit-identical = {results['losses_identical']}, "
        f"measured inter-node ratio {results['real_inter_ratio']:.3f}, "
        f"node dedup {results['node_dedup']:.3f}",
        "",
        f"{'fitted links':>16}:",
    ]
    for label, f in sorted(report["profile"].items()):
        lines.append(
            f"{label:>16}  beta={f['latency_s'] * 1e6:.1f}us  "
            f"B={f['bandwidth_Bps'] / 1e6:.0f}MB/s  (ring of "
            f"{f['world_size']})"
        )
    lines += [
        "",
        f"profile point (world {report['profile_point']['world_size']}): "
        f"exchange ratio {results['exchange_ratio']:.3f} "
        f"(gate <= {1.0 - meta['min_exchange_reduction']:.2f})",
        "",
        f"{'world':>7} {'nodes':>6} {'flat ms':>9} {'hier ms':>9} "
        f"{'speedup':>8} {'xratio':>7}",
    ]
    for p in report["curve"]:
        lines.append(
            f"{p['world_size']:>7} {p['num_nodes']:>6} "
            f"{p['step_time_flat_s'] * 1e3:>9.2f} "
            f"{p['step_time_hier_s'] * 1e3:>9.2f} "
            f"{p['speedup']:>8.3f} {p['exchange_ratio']:>7.3f}"
        )
    lines += [
        "",
        f"predicted {results['max_world']}-rank speedup: "
        f"{results['max_world_speedup']:.3f}x",
    ]
    return "\n".join(lines)


def absolute_checks(results: dict) -> list[str]:
    """The bench's hard criteria (used on both baseline and fresh runs)."""
    failures = []
    if not results["losses_identical"]:
        failures.append(
            "losses_identical: hierarchical collectives diverged from the "
            "flat loss curve (must be bit-identical)"
        )
    bar = 1.0 - results["meta"]["min_exchange_reduction"]
    if results["exchange_ratio"] > bar:
        failures.append(
            f"exchange_ratio: hierarchical exchange moved "
            f"{results['exchange_ratio']:.3f}x the flat cross-node bytes "
            f"on the 2-node profile (gate <= {bar:.2f})"
        )
    slow = [
        p["world_size"]
        for p in results["report"]["curve"]
        if p["speedup"] < 1.0 - 0.05
    ]
    if slow:
        failures.append(
            f"ladder: hierarchical wire predicted >5% slower than flat at "
            f"worlds {slow}"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=WORLD)
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument(
        "--quick", action="store_true",
        help="thread backend, tiny probes, short ladder",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw = dict(world=args.world, steps=args.steps)
    if args.quick:
        kw.update(
            world=4, steps=2, backend="thread", sim_world=(16, 64),
            probe="smoke",
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


def test_scale_pipeline_quick(benchmark=None):
    """CI smoke: the hybrid pipeline holds its absolute criteria at tiny
    scale (the full-ladder claims are asserted by the committed baseline
    via check_comm_regression)."""
    results = measure(
        world=4, steps=2, backend="thread", sim_world=(16, 64), probe="smoke"
    )
    print()
    print(render(results))
    assert not absolute_checks(results), absolute_checks(results)


if __name__ == "__main__":
    main()
