#!/usr/bin/env python
"""Learn a hot/cold placement from a trace and watch the wire bytes drop.

Walks `repro.placement` end to end on the online serving stack:

1. run the Zipfian serve+train workload under uniform column sharding
   with row-access tracing on, and print the access CDF — how few rows
   absorb most of the touches;
2. learn a `PlacementPlan` from that trace (`from_trace`): the hottest
   ``hot_fraction`` of the vocab is replicated on every rank, the cold
   remainder stays column-sharded;
3. re-run the identical workload under the plan — hot-row gradients
   ride the dense AllReduce lane and hot-row lookups are answered from
   the local replica — and compare wire bytes;
4. run once more with live drift (``repartition_interval``): the hot
   set is re-learned from live counters and migrated mid-training,
   with every served batch checked against the offline snapshot at the
   version it observed.

Placement moves bytes, never arithmetic: all three runs' loss curves
are bit-identical to the single-process offline replay.

Run:  python examples/placement_study.py [--world 2] [--steps 16]
      [--hot-fraction 0.01] [--backend thread|process]
"""

import argparse

import numpy as np

from repro.comm import open_group
from repro.obs import TraceConfig
from repro.placement import PlacementPlan
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=2)
    parser.add_argument("--steps", type=int, default=16)
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread")
    parser.add_argument("--hot-fraction", type=float, default=0.01)
    parser.add_argument("--repartition-interval", type=int, default=5)
    parser.add_argument("--vocab", type=int, default=4096)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--zipf", type=float, default=1.2)
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--requests", type=int, default=20)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()

    base = dict(
        vocab=args.vocab, dim=args.dim, world_size=args.world,
        backend=args.backend,
        clients=args.clients, requests_per_client=args.requests,
        zipf_exponent=args.zipf, train_steps=args.steps, seed=args.seed,
    )
    traced = dict(base, trace=TraceConfig(row_topk=256))

    with open_group(
        args.world,
        backend=args.backend,
        trace=TraceConfig(row_topk=256),
    ) as group:
        # 1. Uniform run, traced: the learning data AND the baseline.
        print(f"[1/4] uniform column sharding, traced "
              f"({args.world} ranks, vocab={args.vocab}, "
              f"zipf={args.zipf}, {args.steps} online steps)")
        uniform = ShardedEmbeddingService(
            ServeConfig(**traced), group=group).run()

        ids, _counts, coverage = uniform.trace.row_cdf("embedding")
        n_hot = max(1, round(args.hot_fraction * args.vocab))
        print(f"      access skew: hottest {n_hot} rows "
              f"({100 * args.hot_fraction:g}% of vocab) absorb "
              f"{100 * coverage[n_hot - 1]:.0f}% of row touches; "
              f"hottest id is row {ids[0]}")

        # 2. Learn the split from the merged row counters.
        plan = PlacementPlan.from_trace(
            uniform.trace, hot_fraction=args.hot_fraction, vocab=args.vocab)
        print(f"[2/4] learned plan [{plan.source}]: "
              + ", ".join(f"{t}: {n} hot rows"
                          for t, n in sorted(plan.hot_counts().items())))

        # 3. Same workload, same seed, under the learned plan.
        print("[3/4] re-running under the plan (static)")
        placed = ShardedEmbeddingService(
            ServeConfig(**traced, placement=plan), group=group).run()

        # 4. Live drift: re-learn from live counters mid-training.
        print(f"[4/4] re-running with live drift "
              f"(re-partition every {args.repartition_interval} steps)")
        dynamic_cfg = ServeConfig(
            **base, placement=plan, hot_fraction=args.hot_fraction,
            repartition_interval=args.repartition_interval,
            record_serve_results=True)
        dynamic = ShardedEmbeddingService(dynamic_cfg, group=group).run()

    def wire(report, counter):
        return report.trace.total_counters().get(counter, 0.0)

    u_a2a = wire(uniform, "wire_bytes.alltoall_sparse")
    p_a2a = wire(placed, "wire_bytes.alltoall_sparse")
    u_lkp = wire(uniform, "wire_bytes.serve_lookup")
    p_lkp = wire(placed, "wire_bytes.serve_lookup")
    print()
    print(f"{'':>22} {'uniform':>12} {'placed':>12} {'saved':>8}")
    print(f"{'alltoall sparse B':>22} {u_a2a:>12.0f} {p_a2a:>12.0f} "
          f"{1 - p_a2a / max(1, u_a2a):>7.0%}")
    print(f"{'serve lookup B':>22} {u_lkp:>12.0f} {p_lkp:>12.0f} "
          f"{1 - p_lkp / max(1, u_lkp):>7.0%}")
    print(f"{'hot lane B':>22} {'-':>12} "
          f"{wire(placed, 'wire_bytes.hot_lane'):>12.0f}")

    offline_losses, _, snaps = offline_reference(dynamic_cfg, snapshots=True)
    identical = (uniform.losses == offline_losses
                 and placed.losses == offline_losses
                 and dynamic.losses == offline_losses)
    stale = sum(
        not np.array_equal(values, snaps[version][table][ids])
        for table, ids, version, values in dynamic.serve_results)
    torn = uniform.torn_batches + placed.torn_batches + dynamic.torn_batches
    print()
    print(f"losses bit-identical to offline replay (all runs): {identical}")
    print(f"torn batches (version-mixed reads): {torn}")
    print(f"live repartitions: {dynamic.repartitions}; served batches "
          f"checked against offline snapshots: "
          f"{len(dynamic.serve_results)} ({stale} mismatched)")
    if not identical or torn or stale or dynamic.repartitions < 1:
        raise SystemExit("placement guarantee violated (bug!)")
    print("placement moved bytes, never arithmetic — the hot lane's "
          "per-row sum reproduces the AlltoAll's grouping bit for bit, "
          "and the live migration never tore a read.")


if __name__ == "__main__":
    main()
