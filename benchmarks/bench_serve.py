"""Bench: serving latency/QPS under concurrent online training.

Runs the :mod:`repro.serve` service on 4 real worker processes over the
shm transport and drives it with seeded Zipfian closed-loop clients at
two concurrency levels, while the online training loop commits
:class:`~repro.optim.EmbraceAdam` steps the whole time.  Reports p50/p99
lookup latency and QPS per level.

Two machine-portable ratios are guarded by CI
(``benchmarks/check_comm_regression.py``):

* ``qps_scaling`` — QPS at the high concurrency level over QPS at one
  client.  Closed-loop clients self-pace, so added concurrency must buy
  throughput; a drop means serve batches stopped coalescing or started
  queueing behind training transfers.
* ``p50_over_p99`` — median over tail latency at the high level
  (``<= 1`` by construction; higher is a tighter tail).  A fall means
  the tail blew up relative to the median — the signature of serve ops
  losing their priority over training traffic.

Absolute criteria (always enforced): the online loss curve must be
bit-identical to the offline replay at every level — serving load may
never perturb training — and no served batch may ever tear across a
version.

Results land in ``BENCH_serve.json``; the committed copy at the
repository root is the CI regression baseline.

Run:  python benchmarks/bench_serve.py [--quick] [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

from repro.comm import open_group
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference

WORLD = 4
CLIENT_LEVELS = (1, 4)
REQUESTS_PER_CLIENT = 100
TRAIN_STEPS = 30
TRIALS = 3
VOCAB = 4096
DIM = 64


def _serve_once(group, cfg: ServeConfig) -> dict:
    report = ShardedEmbeddingService(cfg, group=group).run()
    offline_losses, _, _ = offline_reference(cfg)
    return {
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "qps": report.qps,
        "batches": report.batches,
        "requests": report.requests_served,
        "torn_batches": report.torn_batches,
        "losses_identical": report.losses == offline_losses,
    }


def measure(
    world: int = WORLD,
    client_levels: tuple[int, ...] = CLIENT_LEVELS,
    requests_per_client: int = REQUESTS_PER_CLIENT,
    train_steps: int = TRAIN_STEPS,
    trials: int = TRIALS,
    vocab: int = VOCAB,
    dim: int = DIM,
    backend: str = "process",
) -> dict:
    def config(clients: int) -> ServeConfig:
        return ServeConfig(
            vocab=vocab,
            dim=dim,
            world_size=world,
            backend=backend,
            clients=clients,
            requests_per_client=requests_per_client,
            train_steps=train_steps,
            seed=11,
        )

    results: dict = {
        "meta": {
            "world": world,
            "client_levels": list(client_levels),
            "requests_per_client": requests_per_client,
            "train_steps": train_steps,
            "trials": trials,
            "config": {"vocab": vocab, "dim": dim},
            "backend": backend,
            "cpus": os.cpu_count(),
        },
        "levels": {},
    }
    losses_identical = True
    torn = 0
    with open_group(world, backend=backend) as group:
        # Steady state first: fork the pool, warm the segment pools.
        _serve_once(group, config(client_levels[0]))
        per_level: dict[int, list[dict]] = {c: [] for c in client_levels}
        # Alternate levels so machine-load drift hits both equally.
        for _ in range(trials):
            for clients in client_levels:
                trial = _serve_once(group, config(clients))
                losses_identical &= trial.pop("losses_identical")
                torn += trial["torn_batches"]
                per_level[clients].append(trial)
    for clients, trial_list in per_level.items():
        results["levels"][str(clients)] = {
            "trials": trial_list,
            "median_p50_ms": float(
                statistics.median(t["p50_ms"] for t in trial_list)
            ),
            "median_p99_ms": float(
                statistics.median(t["p99_ms"] for t in trial_list)
            ),
            "median_qps": float(statistics.median(t["qps"] for t in trial_list)),
        }
    results["losses_identical"] = losses_identical
    results["torn_batches"] = torn
    lo = results["levels"][str(client_levels[0])]
    hi = results["levels"][str(client_levels[-1])]
    results["guarded"] = {
        "qps_scaling": hi["median_qps"] / lo["median_qps"],
        "p50_over_p99": hi["median_p50_ms"] / hi["median_p99_ms"],
    }
    return results


def render(results: dict) -> str:
    meta = results["meta"]
    lines = [
        f"{meta['world']}-rank serve benchmark "
        f"({meta['backend']} backend, vocab={meta['config']['vocab']} "
        f"dim={meta['config']['dim']}, {meta['train_steps']} online steps, "
        f"{meta['requests_per_client']} req/client x {meta['trials']} trials, "
        f"{meta['cpus']} cpus)",
        "",
        f"{'clients':>10} {'p50 ms':>10} {'p99 ms':>10} {'qps':>10}",
    ]
    for clients in meta["client_levels"]:
        level = results["levels"][str(clients)]
        lines.append(
            f"{clients:>10} {level['median_p50_ms']:>10.3f} "
            f"{level['median_p99_ms']:>10.3f} {level['median_qps']:>10.0f}"
        )
    g = results["guarded"]
    lines += [
        "",
        f"qps scaling ({meta['client_levels'][-1]} over "
        f"{meta['client_levels'][0]} clients): {g['qps_scaling']:.3f}",
        f"p50/p99 at high concurrency: {g['p50_over_p99']:.3f} "
        "(higher = tighter tail)",
        f"online == offline (bit-identical): {results['losses_identical']}",
        f"torn batches: {results['torn_batches']}",
    ]
    return "\n".join(lines)


def absolute_checks(fresh: dict) -> list[str]:
    """The bench's own pass/fail criteria, shared with the CI gate."""
    failures = []
    if not fresh["losses_identical"]:
        failures.append(
            "losses_identical: serving load perturbed online training "
            "(must be bit-identical to the offline replay)"
        )
    if fresh["torn_batches"]:
        failures.append(
            f"torn_batches: {fresh['torn_batches']} served batches mixed "
            "table versions (snapshot consistency violated)"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=WORLD)
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument(
        "--quick", action="store_true", help="thread backend, fewer requests"
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw = dict(world=args.world, trials=args.trials)
    if args.quick:
        kw.update(
            backend="thread", requests_per_client=30, train_steps=10, trials=1
        )

    results = measure(**kw)
    print(render(results))
    failures = absolute_checks(results)
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")


def test_serve_scales_and_stays_bit_identical(benchmark=None):
    """CI smoke: thread backend, tiny load — throughput must not collapse
    with concurrency, training must stay bit-identical, no torn reads
    (the real floors come from the committed process-backend baseline)."""
    results = measure(
        world=2,
        backend="thread",
        requests_per_client=20,
        train_steps=8,
        trials=1,
    )
    print()
    print(render(results))
    assert not absolute_checks(results)
    assert results["guarded"]["qps_scaling"] >= 0.5, results["guarded"]


if __name__ == "__main__":
    main()
