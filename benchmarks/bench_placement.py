"""Bench: hybrid hot/cold placement vs uniform column sharding.

Runs the :mod:`repro.serve` online-training service on 4 real worker
processes over the shm transport with a Zipfian (s=1.2) id stream —
the access skew EmbRace's sparse path is built for — in three phases:

* **Phase A (learn):** a traced uniform run; its
  :class:`~repro.obs.TraceBundle` row counters feed
  :meth:`repro.placement.PlacementPlan.from_trace` at
  ``hot_fraction=0.01``.
* **Phase B (static):** the same workload re-run under the learned
  plan.  Hot-row gradients ride the dense AllReduce lane and hot-row
  lookups are answered from the local replica, so the sparse AlltoAll
  and lookup wire bytes both drop; the loss curve must stay
  bit-identical to the offline replay (placement moves bytes, never
  arithmetic).
* **Phase C (drift):** a dynamic run re-learning the hot set from live
  counters every ``repartition_interval`` steps.  Every served batch is
  recorded and checked against the exact offline snapshot at the
  version it observed — a live migration may never tear a read.

Two machine-portable ratios are guarded by CI
(``benchmarks/check_comm_regression.py``):

* ``sparse_wire_reduction`` — fraction of sparse AlltoAll wire bytes
  the placement eliminated (also enforced absolutely: >= 30% at the
  1% hot fraction; Zipf-1.2 head coverage makes this a wide floor).
* ``lookup_wire_reduction`` — fraction of serve lookup bytes answered
  locally instead of AllGathered.

Absolute criteria (always enforced): bit-identical losses in every
phase, zero torn batches, the >= 30% sparse-wire floor, at least one
live re-partition in Phase C, and every Phase-C served row equal to
the offline snapshot at its version.

Results land in ``BENCH_placement.json``; the committed copy at the
repository root is the CI regression baseline.

Run:  python benchmarks/bench_placement.py [--quick] [--out BENCH_placement.json]
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.comm import open_group
from repro.obs import TraceConfig
from repro.placement import PlacementPlan
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference

WORLD = 4
VOCAB = 4096
DIM = 64
ZIPF_EXPONENT = 1.2
TRAIN_STEPS = 40
CLIENTS = 2
REQUESTS_PER_CLIENT = 60
HOT_FRACTION = 0.01
REPARTITION_INTERVAL = 8
ROW_TOPK = 256  # per-rank trace summary must cover the intended hot set
SEED = 17
REDUCTION_FLOOR = 0.30


def _wire(report, counter: str) -> float:
    return float(report.trace.total_counters().get(counter, 0.0))


def _snapshot_mismatches(serve_results, snaps) -> int:
    """Served batches whose rows differ from the offline state at their
    version — any non-zero count means a torn or stale read."""
    bad = 0
    for table, ids, version, values in serve_results:
        if not np.array_equal(values, snaps[version][table][ids]):
            bad += 1
    return bad


def measure(
    world: int = WORLD,
    vocab: int = VOCAB,
    dim: int = DIM,
    train_steps: int = TRAIN_STEPS,
    clients: int = CLIENTS,
    requests_per_client: int = REQUESTS_PER_CLIENT,
    hot_fraction: float = HOT_FRACTION,
    repartition_interval: int = REPARTITION_INTERVAL,
    backend: str = "process",
) -> dict:
    base = dict(
        vocab=vocab,
        dim=dim,
        world_size=world,
        backend=backend,
        clients=clients,
        requests_per_client=requests_per_client,
        zipf_exponent=ZIPF_EXPONENT,
        train_steps=train_steps,
        seed=SEED,
    )
    traced = dict(base, trace=TraceConfig(row_topk=ROW_TOPK))
    with open_group(
        world,
        backend=backend,
        trace=TraceConfig(row_topk=ROW_TOPK),
    ) as group:
        # Phase A: traced uniform run — the learning trace AND the
        # wire-bytes baseline in one pass (counters are deterministic).
        uniform_cfg = ServeConfig(**traced)
        uniform = ShardedEmbeddingService(uniform_cfg, group=group).run()
        plan = PlacementPlan.from_trace(
            uniform.trace, hot_fraction=hot_fraction, vocab=vocab
        )
        # Phase B: identical workload under the learned static plan.
        placed = ShardedEmbeddingService(
            ServeConfig(**traced, placement=plan), group=group
        ).run()
        # Phase C: drift — re-learn the split from live counters and
        # migrate mid-training, recording every served batch.
        dynamic_cfg = ServeConfig(
            **base,
            placement=plan,
            hot_fraction=hot_fraction,
            repartition_interval=repartition_interval,
            record_serve_results=True,
        )
        dynamic = ShardedEmbeddingService(dynamic_cfg, group=group).run()

    offline_losses, _, snaps = offline_reference(dynamic_cfg, snapshots=True)
    uniform_a2a = _wire(uniform, "wire_bytes.alltoall_sparse")
    placed_a2a = _wire(placed, "wire_bytes.alltoall_sparse")
    uniform_lookup = _wire(uniform, "wire_bytes.serve_lookup")
    placed_lookup = _wire(placed, "wire_bytes.serve_lookup")
    return {
        "meta": {
            "world": world,
            "config": {"vocab": vocab, "dim": dim},
            "zipf_exponent": ZIPF_EXPONENT,
            "train_steps": train_steps,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "hot_fraction": hot_fraction,
            "repartition_interval": repartition_interval,
            "row_topk": ROW_TOPK,
            "backend": backend,
            "cpus": os.cpu_count(),
        },
        "plan": {
            "source": plan.source,
            "hot_rows": plan.hot_counts(),
        },
        "wire_bytes": {
            "uniform_alltoall_sparse": uniform_a2a,
            "placed_alltoall_sparse": placed_a2a,
            "placed_hot_lane": _wire(placed, "wire_bytes.hot_lane"),
            "uniform_lookup": uniform_lookup,
            "placed_lookup": placed_lookup,
        },
        "losses_identical": (
            uniform.losses == offline_losses
            and placed.losses == offline_losses
            and dynamic.losses == offline_losses
        ),
        "torn_batches": (
            uniform.torn_batches + placed.torn_batches + dynamic.torn_batches
        ),
        "repartitions": dynamic.repartitions,
        "serve_snapshot_mismatches": _snapshot_mismatches(
            dynamic.serve_results, snaps
        ),
        "served_batches_checked": len(dynamic.serve_results),
        "guarded": {
            "sparse_wire_reduction": 1.0 - placed_a2a / max(1.0, uniform_a2a),
            "lookup_wire_reduction": 1.0 - placed_lookup / max(1.0, uniform_lookup),
        },
    }


def render(results: dict) -> str:
    meta = results["meta"]
    wire = results["wire_bytes"]
    g = results["guarded"]
    hot = ", ".join(
        f"{t}: {n}" for t, n in sorted(results["plan"]["hot_rows"].items())
    )
    return "\n".join(
        [
            f"{meta['world']}-rank placement benchmark "
            f"({meta['backend']} backend, vocab={meta['config']['vocab']} "
            f"dim={meta['config']['dim']}, zipf={meta['zipf_exponent']}, "
            f"{meta['train_steps']} online steps, {meta['cpus']} cpus)",
            "",
            f"learned plan [{results['plan']['source']}] at "
            f"hot_fraction={meta['hot_fraction']}: {hot} hot rows",
            "",
            f"{'':>24} {'uniform':>14} {'placed':>14}",
            f"{'alltoall sparse B':>24} "
            f"{wire['uniform_alltoall_sparse']:>14.0f} "
            f"{wire['placed_alltoall_sparse']:>14.0f}",
            f"{'hot lane B':>24} {'-':>14} {wire['placed_hot_lane']:>14.0f}",
            f"{'lookup B':>24} {wire['uniform_lookup']:>14.0f} "
            f"{wire['placed_lookup']:>14.0f}",
            "",
            f"sparse wire reduction: {g['sparse_wire_reduction']:.3f} "
            f"(floor {REDUCTION_FLOOR})",
            f"lookup wire reduction: {g['lookup_wire_reduction']:.3f}",
            f"online == offline (bit-identical): {results['losses_identical']}",
            f"torn batches: {results['torn_batches']}",
            f"live repartitions: {results['repartitions']}, served batches "
            f"checked against offline snapshots: "
            f"{results['served_batches_checked']} "
            f"({results['serve_snapshot_mismatches']} mismatched)",
        ]
    )


def absolute_checks(fresh: dict) -> list[str]:
    """The bench's own pass/fail criteria, shared with the CI gate."""
    failures = []
    if not fresh["losses_identical"]:
        failures.append(
            "losses_identical: placement perturbed online training "
            "(must be bit-identical to the offline replay)"
        )
    if fresh["torn_batches"]:
        failures.append(
            f"torn_batches: {fresh['torn_batches']} served batches mixed "
            "table versions (snapshot consistency violated)"
        )
    reduction = fresh["guarded"]["sparse_wire_reduction"]
    if reduction < REDUCTION_FLOOR:
        failures.append(
            f"sparse_wire_reduction: {reduction:.3f} < {REDUCTION_FLOOR} "
            "(hot-row replication stopped paying for itself)"
        )
    if fresh["repartitions"] < 1:
        failures.append(
            "repartitions: the drift run never migrated its hot set"
        )
    if fresh["serve_snapshot_mismatches"]:
        failures.append(
            f"serve_snapshot_mismatches: {fresh['serve_snapshot_mismatches']} "
            "served batches differ from the offline state at their version"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=WORLD)
    parser.add_argument(
        "--quick", action="store_true", help="thread backend, smaller load"
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw: dict = dict(world=args.world)
    if args.quick:
        kw.update(
            world=2,
            backend="thread",
            train_steps=16,
            requests_per_client=20,
            repartition_interval=5,
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


def test_placement_cuts_wire_bytes_bit_identically(benchmark=None):
    """CI smoke: thread backend, tiny Zipfian load — the learned 1% hot
    set must clear the sparse-wire floor with bit-identical losses and
    torn-free live migration (the committed process-backend baseline
    carries the real ratios)."""
    results = measure(
        world=2,
        backend="thread",
        train_steps=16,
        requests_per_client=20,
        repartition_interval=5,
    )
    print()
    print(render(results))
    assert not absolute_checks(results)


if __name__ == "__main__":
    main()
