#!/usr/bin/env python
"""Scaling study from ONE hybrid run (the paper's Fig. 9 scale-out story).

Instead of sweeping hand-priced simulator cells, this drives
``RunConfig(mode="hybrid")``: four *real* ranks train twice over a
two-node topology — once on the two-level hierarchical wires, once flat
— proving the losses bit-identical, then per-level alpha-beta constants
fitted from real AllReduce probes replay the EmbRace step at growing
world sizes.  Every printed number traces back to either a real
measurement or a calibrated extrapolation of one.

Run:  python examples/scaling_study.py [--max-world 1024] [--full-probe]
"""

import argparse

from repro.engine.hybrid import run_hybrid, scale_bench_model
from repro.engine.run import RunConfig
from repro.tune import DEFAULT_PROBE_ITERS, PROBE_SIZES_BYTES, SMOKE_SIZES_BYTES
from repro.utils.tables import Table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--world", type=int, default=4,
        help="real ranks, split into two simulated nodes",
    )
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument(
        "--max-world", type=int, default=1024,
        help="top rung of the calibrated replay ladder",
    )
    parser.add_argument("--backend", default="thread", choices=("thread", "process"))
    parser.add_argument(
        "--full-probe", action="store_true",
        help="probe the full size ladder (slower, tighter link fit)",
    )
    args = parser.parse_args()

    sizes, iters = (
        (PROBE_SIZES_BYTES, DEFAULT_PROBE_ITERS)
        if args.full_probe
        else (SMOKE_SIZES_BYTES, 3)
    )
    res = run_hybrid(
        RunConfig(
            model=scale_bench_model(),
            mode="hybrid",
            world_size=args.world,
            steps=args.steps,
            backend=args.backend,
            sim_world=args.max_world,
        ),
        probe_sizes_bytes=sizes,
        probe_iters=iters,
    )
    report = res.raw

    nodes = [list(n) for n in report.topology.nodes]
    print(f"Phase 1 — real twins ({report.real_world} ranks as nodes {nodes}):")
    print(
        f"  losses bit-identical (hierarchical vs flat): "
        f"{report.losses_identical}"
    )
    print(
        f"  measured cross-node bytes: {report.real_inter_bytes_hier:,} hier "
        f"vs {report.real_inter_bytes_flat:,} flat "
        f"(ratio {report.real_inter_ratio:.3f})"
    )
    print(
        f"  batch-stream node dedup: {report.node_dedup:.3f} "
        f"(co-located ranks request overlapping rows)"
    )

    print("\nPhase 2 — per-level alpha-beta fit from real probes:")
    for label, link in sorted(report.profile.links.items()):
        print(
            f"  {label:>5}: latency {link.latency_s * 1e6:8.1f} us, "
            f"bandwidth {link.bandwidth_Bps / 1e6:8.0f} MB/s"
        )
    pp = report.profile_point
    print(
        f"  calibrated 2-node profile: hierarchical exchange moves "
        f"{pp.exchange_ratio:.3f}x the flat cross-node gradient bytes"
    )

    table = Table(
        ["world", "nodes", "flat ms", "hier ms", "speedup", "inter ratio"],
        title="Phase 3 — calibrated replay ladder (EmbRace step, flat vs two-level)",
    )
    for p in report.curve:
        table.add_row([
            str(p.world_size),
            str(p.num_nodes),
            f"{p.step_time_flat_s * 1e3:.2f}",
            f"{p.step_time_hier_s * 1e3:.2f}",
            f"{p.speedup:.3f}x",
            f"{p.exchange_ratio:.3f}",
        ])
    print()
    print(table.render())

    last = report.curve[-1]
    print(
        f"\nAt {last.world_size} ranks the two-level wires are predicted "
        f"{last.speedup:.2f}x faster per step, moving "
        f"{(1 - last.exchange_ratio) * 100:.0f}% fewer gradient-exchange "
        f"bytes across node boundaries."
    )


if __name__ == "__main__":
    main()
