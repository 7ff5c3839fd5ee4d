#!/usr/bin/env python
"""Serve embedding lookups while training keeps updating the tables.

Stands up `repro.serve`'s ShardedEmbeddingService: column-sharded
tables on a persistent worker pool, seeded Zipfian closed-loop clients
batched through a max-batch/max-delay admission queue, and an online
EmbraceAdam training loop committing steps the whole time.  Runs two
client-concurrency levels and prints p50/p99 lookup latency and QPS per
level, then verifies the serving guarantees: no served batch tore
across table versions, and the online loss curve is bit-identical to an
offline single-threaded replay — load never perturbs training.

Run:  python examples/serving_study.py [--world 2] [--steps 15]
      [--backend thread|process] [--clients 1 4] [--requests 40]
"""

import argparse

from repro.comm import open_group
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=2)
    parser.add_argument("--steps", type=int, default=15)
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="thread is fastest for a demo; process serves from real OS "
        "workers over the zero-copy shm transport",
    )
    parser.add_argument("--clients", type=int, nargs="+", default=[1, 4])
    parser.add_argument("--requests", type=int, default=40,
                        help="lookups per client")
    parser.add_argument("--vocab", type=int, default=2048)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    def config(clients: int) -> ServeConfig:
        return ServeConfig(
            vocab=args.vocab,
            dim=args.dim,
            world_size=args.world,
            backend=args.backend,
            clients=clients,
            requests_per_client=args.requests,
            train_steps=args.steps,
            seed=args.seed,
        )

    print(
        f"{args.world}-rank {args.backend} serving study: "
        f"{args.requests} Zipfian lookups/client, {args.steps} online "
        f"EmbraceAdam steps committing underneath"
    )
    print()
    print(f"{'clients':>10} {'p50 ms':>10} {'p99 ms':>10} {'qps':>10} "
          f"{'batches':>10} {'torn':>6}")
    identical = True
    torn = 0
    # One warm pool serves every concurrency level (forked once).
    with open_group(args.world, backend=args.backend) as group:
        for clients in args.clients:
            cfg = config(clients)
            report = ShardedEmbeddingService(cfg, group=group).run()
            offline_losses, _, _ = offline_reference(cfg)
            identical &= report.losses == offline_losses
            torn += report.torn_batches
            print(f"{clients:>10} {report.p50_ms:>10.3f} "
                  f"{report.p99_ms:>10.3f} {report.qps:>10.0f} "
                  f"{report.batches:>10} {report.torn_batches:>6}")

    print()
    print(f"torn batches (version-mixed reads): {torn}")
    print(f"online losses bit-identical to offline replay: {identical}")
    if torn or not identical:
        raise SystemExit("serving guarantee violated (bug!)")
    print("serving load never perturbs training — the rank-0 sequencer "
          "totally orders lookups against optimizer commits, and every "
          "read goes through the table's version fence.")


if __name__ == "__main__":
    main()
