"""The four workloads: what each runs, measures end to end, and checks.

Every workload drives the program through its public entry points only
(``open_group``, ``RealTrainer``, ``CommScheduler``,
``ShardedEmbeddingService``, ``dataclasses.replace`` on a
``ModelConfig``) from the harness's single process, in a closed loop:
the next trial, round or request starts when the previous one returns.

A workload object offers the same five calls to ``run.py``:

``open(trace=False)``   a fresh communicator group of the fixed world size
``cold_call(group)``    the first, cold call on it (forks the pool)
``trial(group)``        one timed trial -> dict with ``ops``, ``failed``,
                        ``wall_s`` and the workload's own samples
``verify(group, trials)``  output checks -> list of failure messages
``metrics(trials)``     the nine workload-side end-to-end metrics

World sizes are constants, not derived from ``nproc``, so two commits
measure the same thing on any box.

A timed trial is sized to last about a second (``TRIAL_OPS``), so that a
run holds fourteen or more of them and a metric can be the quartile on
the good side over trials (``spec.fast_quartile``): the shared host this
runs on slows down for seconds at a time, and many short trials can
leave those stretches out where a handful of long trials cannot.  The
traced pass keeps ISSUE 11's longer trials, whose start-up steps weigh
less in a per-step figure.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from repro.comm import (
    PRIORITY_URGENT,
    CommScheduler,
    allreduce_sparse_adaptive,
    alltoall_column_shards,
    alltoall_lookup_results,
    column_slices,
    open_group,
)
from repro.engine.trainer_real import RealTrainer
from repro.models.config import DLRM, GNMT8
from repro.schedule import PRIORITY_DELAYED, PRIORITY_PRIOR
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference
from repro.tensors import SparseRows

from spec import fast_quartile, trial_percentile


#: Operations per trial: ``(smoke, timed, traced)``.  Steps for the train
#: workloads, rounds for ``comm_step``, requests per client for
#: ``serve_mixed`` (which trains one step per ten requests of a client).
TRIAL_OPS = {
    "gnmt_compute": (6, 10, 40),
    "dlrm_sparse": (6, 20, 60),
    "comm_step": (10, 50, 100),
    "serve_mixed": (100, 500, 2000),
}


def trial_ops(name: str, smoke: bool, trace: bool) -> int:
    return TRIAL_OPS[name][0 if smoke else 2 if trace else 1]


def op_metrics(rate: float, ms_p50: float, ms_p99: float) -> dict:
    """All three operation families (``steps``, ``rounds``, ``lookups``)
    from the workload's own closed-loop operation.  A workload overwrites
    what it measures more directly; what is left are the README's alias
    cells, printed because every run must print every end-to-end metric."""
    out = {f"{family}_per_s": rate for family in ("steps", "rounds", "lookups")}
    for unit in ("round", "lookup"):
        out[f"{unit}_ms_p50"] = ms_p50
        out[f"{unit}_ms_p99"] = ms_p99
    return out


class Workload:
    """What ``run.py`` needs of every workload (see the module docstring)."""

    name: str
    seed: int
    backend: str
    world: int

    def open(self, trace: bool = False, world: int | None = None):
        return open_group(
            world or self.world,
            backend=self.backend,
            transport="shm",
            trace=trace or None,
        )


# --------------------------------------------------------------------- #
# gnmt_compute / dlrm_sparse
# --------------------------------------------------------------------- #
class TrainWorkload(Workload):
    """``RealTrainer(strategy="embrace")`` on a 2-rank group.

    One trial is one ``train()`` call of a fixed number of steps, so
    every trial of a run consumes the same batches and its loss curve
    and wire bytes are comparable bit for bit.
    """

    world = 2
    #: Steps of the cold call and of the baseline cross-check.
    cold_steps = 2
    check_steps = 5

    def __init__(self, name, config, steps: int, seed: int, backend: str, baseline: dict):
        self.name = name
        self.config = config
        self.steps = steps
        self.seed = seed
        self.backend = backend
        #: ``train()`` arguments of the run whose loss curve must match.
        self.baseline = baseline

    def train(self, group, steps=None, strategy="embrace", overlap=True):
        return RealTrainer(
            self.config,
            strategy=strategy,
            world_size=group.world_size,
            steps=steps or self.steps,
            seed=self.seed,
            overlap=overlap,
            group=group,
        ).train()

    def cold_call(self, group) -> None:
        self.train(group, steps=self.cold_steps)

    def trial(self, group) -> dict:
        result = self.train(group)
        ok = len(result.losses) == self.steps and all(
            math.isfinite(x) for x in result.losses
        )
        return {
            "ops": self.steps,
            "failed": 0 if ok else self.steps,
            "wall_s": result.wall_time,
            "tokens": sum(result.tokens_per_step) * group.world_size,
            "wire_bytes": result.comm_bytes,
            "losses": list(result.losses),
        }

    def verify(self, group, trials) -> list[str]:
        failures = []
        first = trials[0]["losses"]
        for i, t in enumerate(trials[1:], start=1):
            if t["losses"] != first:
                failures.append(f"trial {i} loss curve differs from trial 0")
            if t["wire_bytes"] != trials[0]["wire_bytes"]:
                failures.append(f"trial {i} wire bytes differ from trial 0")
        n = min(self.check_steps, self.steps)
        baseline = self.train(group, steps=n, **self.baseline).losses
        if list(baseline) != first[:n]:
            failures.append(f"{self.baseline} run diverges within {n} steps")
        return failures

    def metrics(self, trials) -> dict:
        rate = fast_quartile((t["ops"] / t["wall_s"] for t in trials), "higher")
        # Per-step latency cannot be seen from outside an untraced
        # trainer: both latency cells are the mean step time.
        out = op_metrics(rate, 1e3 / rate, 1e3 / rate)
        out["tokens_per_s"] = fast_quartile(
            (t["tokens"] / t["wall_s"] for t in trials), "higher"
        )
        out["wire_bytes_per_step"] = trials[0]["wire_bytes"] / trials[0]["ops"]
        return out


def gnmt_compute(seed: int, smoke: bool, trace: bool = False) -> TrainWorkload:
    # Fig. 11 contract: the Horovod-AllGather baseline trains the same
    # model bit for bit.
    baseline = {"strategy": "allgather"}
    steps = trial_ops("gnmt_compute", smoke, trace)
    if smoke:
        config = replace(GNMT8.scaled(vocab=512, dim_divisor=32), batch_size_rtx3090=8)
        return TrainWorkload("gnmt_compute", config, steps, seed, "thread", baseline)
    config = replace(GNMT8.scaled(vocab=4096, dim_divisor=16), batch_size_rtx3090=32)
    return TrainWorkload("gnmt_compute", config, steps, seed, "process", baseline)


def dlrm_sparse(seed: int, smoke: bool, trace: bool = False) -> TrainWorkload:
    # The allgather baseline cannot be the reference here: DLRMModel keeps
    # its tables in a plain dict that Module.parameters() does not walk,
    # so allgather/allreduce never update (or clear) DLRM's embedding
    # gradients and their losses drift from step 2 (README, "Defects
    # found").  The synchronous run is the bit-identity contract instead.
    baseline = {"overlap": False}
    steps = trial_ops("dlrm_sparse", smoke, trace)
    if smoke:
        config = replace(DLRM.scaled(vocab=2000, dim_divisor=4), batch_size_rtx3090=32)
        return TrainWorkload("dlrm_sparse", config, steps, seed, "thread", baseline)
    config = replace(DLRM.scaled(vocab=20000, dim_divisor=2), batch_size_rtx3090=256)
    return TrainWorkload("dlrm_sparse", config, steps, seed, "process", baseline)


# --------------------------------------------------------------------- #
# comm_step
# --------------------------------------------------------------------- #
#: One EmbRace step's collectives, sized like a mid-size table's step.
TABLE_ROWS = 32768
TABLE_DIM = 64
IDS_PER_RANK = 256
SHARD_ROWS = 512
LOW_DENSITY_ROWS = 64
DENSE_ELEMS = 262144  # 1 MiB of float32


def comm_inputs(seed: int, world: int) -> list[dict]:
    """Every rank's inputs of one round, from ``seed`` alone.

    Values are small integers stored as floats, so every summation
    order gives the same bits and the reference fold below stays valid
    whatever order a collective reduces in.
    """
    inputs = []
    for rank in range(world):
        rng = np.random.default_rng((seed, rank))

        def sparse(rows: int) -> SparseRows:
            return SparseRows(
                rng.integers(0, TABLE_ROWS, size=rows),
                rng.integers(-4, 5, size=(rows, TABLE_DIM)).astype(np.float32),
                TABLE_ROWS,
            )

        inputs.append(
            {
                "ids": np.unique(rng.integers(0, TABLE_ROWS, size=IDS_PER_RANK)),
                "prior": sparse(SHARD_ROWS),
                "delayed": sparse(SHARD_ROWS),
                "low": sparse(LOW_DENSITY_ROWS),
                "dense": rng.integers(-4, 5, size=DENSE_ELEMS).astype(np.float32),
                "loss": np.array([float(rng.integers(0, 100))]),
            }
        )
    return inputs


def comm_table(seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 99))
    return rng.integers(-4, 5, size=(TABLE_ROWS, TABLE_DIM)).astype(np.float32)


class RoundState:
    """One rank's buffers for the round, built once per dispatch."""

    def __init__(self, comm, seed: int):
        inputs = comm_inputs(seed, comm.world_size)
        self.me = inputs[comm.rank]
        self.all_ids = [i["ids"] for i in inputs]
        cols = column_slices(TABLE_DIM, comm.world_size)[comm.rank]
        table = comm_table(seed)
        self.shard_lookup = np.concatenate(
            [np.ascontiguousarray(table[ids][:, cols]) for ids in self.all_ids]
        )
        self.buf = np.empty(DENSE_ELEMS, dtype=np.float32)

    def submit(self, sched: CommScheduler) -> dict:
        """Submit one step's collectives at the trainer's priorities, in
        the trainer's order; returns the handles by name."""
        me = self.me
        self.buf[:] = me["dense"]  # the allreduce sums in place
        return {
            "loss": sched.submit(
                lambda c: c.allreduce_mean(me["loss"]), priority=0.0, label="loss"
            ),
            "dense": sched.allreduce_chunks(self.buf, priority=1.0, label="dense"),
            "ids": sched.submit(
                lambda c: c.allgather(me["ids"]),
                priority=PRIORITY_URGENT,
                label="ids",
            ),
            "prior": sched.submit(
                lambda c: alltoall_column_shards(c, me["prior"]),
                priority=PRIORITY_PRIOR,
                label="prior",
            ),
            "delayed": sched.submit(
                lambda c: alltoall_column_shards(c, me["delayed"]),
                priority=PRIORITY_DELAYED,
                label="delayed",
            ),
            "adaptive": sched.submit(
                lambda c: allreduce_sparse_adaptive(c, me["low"]),
                priority=PRIORITY_URGENT,
                label="adaptive",
            ),
            "lookup": sched.submit(
                lambda c: alltoall_lookup_results(
                    c, self.all_ids, self.shard_lookup, len(me["ids"])
                ),
                priority=PRIORITY_URGENT,
                label="lookup",
            ),
        }

    def wait(self, handles: dict) -> dict:
        out = {}
        for name, h in handles.items():
            if name == "dense":
                for chunk in h:
                    chunk.wait()
                out[name] = self.buf
            else:
                out[name] = h.wait()
        return out


def comm_rounds(comm, seed: int, rounds: int, overlap: bool, keep_first: bool):
    """Per-rank worker: ``rounds`` closed-loop rounds through a
    ``CommScheduler``; returns this rank's round times, loop wall time,
    bytes sent and (optionally) the first round's outputs."""
    state = RoundState(comm, seed)
    comm.barrier()  # all ranks built their inputs: start together
    sent0 = comm.bytes_sent
    sched = CommScheduler(comm, overlap=overlap)
    times = []
    first = None
    try:
        start = time.perf_counter()
        for i in range(rounds):
            t0 = time.perf_counter()
            outputs = state.wait(state.submit(sched))
            times.append(time.perf_counter() - t0)
            if keep_first and i == 0:
                first = {
                    k: v.copy() if isinstance(v, np.ndarray) else v
                    for k, v in outputs.items()
                }
        wall = time.perf_counter() - start
    finally:
        sched.close()
    return {
        "times": times,
        "wall_s": wall,
        "bytes_sent": comm.bytes_sent - sent0,
        "first": first,
    }


def comm_reference(seed: int, world: int) -> list[dict]:
    """What round one must produce on each rank: a single-process fold
    of the seeded inputs (``merge_coalesced`` in rank order, numpy sums)."""
    inputs = comm_inputs(seed, world)
    table = comm_table(seed)
    cols = column_slices(TABLE_DIM, world)

    def fold(key: str, columns: slice) -> SparseRows:
        parts = []
        for inp in inputs:
            g = inp[key].coalesce()
            parts.append((g.indices, g.values[:, columns]))
        width = parts[0][1].shape[1]
        return SparseRows.merge_coalesced(parts, TABLE_ROWS, width, dtype=np.float32)

    dense = np.sum([i["dense"] for i in inputs], axis=0, dtype=np.float32)
    loss = sum(i["loss"] for i in inputs) / world
    adaptive = fold("low", slice(None))
    return [
        {
            "ids": [i["ids"] for i in inputs],
            "lookup": table[inputs[rank]["ids"]],
            "dense": dense,
            "prior": fold("prior", cols[rank]),
            "delayed": fold("delayed", cols[rank]),
            "adaptive": adaptive,
            "loss": loss,
        }
        for rank in range(world)
    ]


def _same(got, want) -> bool:
    if isinstance(want, SparseRows):
        got = got.coalesce()
        return np.array_equal(got.indices, want.indices) and np.array_equal(
            got.values, want.values
        )
    if isinstance(want, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return np.array_equal(got, want)


class CommStepWorkload(Workload):
    """World 4, no compute: the transport, the collectives and the
    scheduler's leader-token protocol do all the work.  Multi-hop rings
    need more than two ranks; four blocking ranks on two cores measured
    repeatable."""

    world = 4
    cold_rounds = 3

    def __init__(self, name: str, rounds: int, seed: int, backend: str):
        self.name = name
        self.rounds = rounds
        self.seed = seed
        self.backend = backend

    def run_rounds(self, group, rounds=None, overlap=True, keep_first=False):
        return group.run(
            comm_rounds, self.seed, rounds or self.rounds, overlap, keep_first
        )

    def cold_call(self, group) -> None:
        self.run_rounds(group, rounds=self.cold_rounds)

    def trial(self, group) -> dict:
        outs = self.run_rounds(group)
        # A round is over when its slowest rank is.
        round_ms = [1e3 * max(ts) for ts in zip(*(o["times"] for o in outs))]
        return {
            "ops": self.rounds,
            "failed": self.rounds - len(round_ms),
            "wall_s": max(o["wall_s"] for o in outs),
            "round_ms": round_ms,
            "wire_bytes": outs[0]["bytes_sent"],
        }

    def verify(self, group, trials) -> list[str]:
        outs = self.run_rounds(group, rounds=1, keep_first=True)
        want = comm_reference(self.seed, group.world_size)
        failures = []
        for rank, out in enumerate(outs):
            for name, expected in want[rank].items():
                if not _same(out["first"][name], expected):
                    failures.append(f"rank {rank}: {name} differs from the fold")
        for i, t in enumerate(trials[1:], start=1):
            if t["wire_bytes"] != trials[0]["wire_bytes"]:
                failures.append(f"trial {i} wire bytes differ from trial 0")
        return failures

    def metrics(self, trials) -> dict:
        rounds = [t["round_ms"] for t in trials]
        rate = fast_quartile((t["ops"] / t["wall_s"] for t in trials), "higher")
        out = op_metrics(rate, trial_percentile(rounds, 50), trial_percentile(rounds, 99))
        # "Tokens" of a round: the embedding ids whose rows it moves.
        out["tokens_per_s"] = rate * IDS_PER_RANK * self.world
        out["wire_bytes_per_step"] = trials[0]["wire_bytes"] / trials[0]["ops"]
        return out


def comm_step(seed: int, smoke: bool, trace: bool = False) -> CommStepWorkload:
    rounds = trial_ops("comm_step", smoke, trace)
    return CommStepWorkload("comm_step", rounds, seed, "thread" if smoke else "process")


# --------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------- #
class ServeWorkload(Workload):
    """Lookups beside online EmbraceAdam writes on the same shards.

    ``max_batch = clients`` keeps the median service-bound instead of
    pinned at the admission delay; the request quota and the step quota
    share one wall clock, so both rates fall when the makespan grows,
    whichever side finishes first.
    """

    world = 2

    def __init__(self, name: str, config: ServeConfig):
        self.name = name
        self.config = config
        self.seed = config.seed
        self.backend = config.backend

    def serve(self, group, **overrides):
        cfg = replace(self.config, **overrides) if overrides else self.config
        return ShardedEmbeddingService(cfg, group=group).run()

    def cold_call(self, group) -> None:
        self.serve(group, requests_per_client=20, train_steps=4)

    def trial(self, group) -> dict:
        report = self.serve(group)
        cfg = self.config
        return {
            "ops": cfg.total_requests,
            # A cancelled request was never answered: it misses any limit.
            "failed": cfg.total_requests - len(report.latencies_s),
            "wall_s": report.wall_time_s,
            "lookup_ms": [1e3 * s for s in report.latencies_s],
            "served": report.requests_served,
            "steps_done": report.steps_done,
            "torn_batches": report.torn_batches,
            "cancelled": report.requests_cancelled,
            "losses": list(report.losses),
            "batches": report.batches,
            "batch_versions": list(report.batch_versions),
        }

    def verify(self, group, trials) -> list[str]:
        cfg = self.config
        reference = offline_reference(cfg)[0]
        failures = []
        for i, t in enumerate(trials):
            if t["torn_batches"]:
                failures.append(f"trial {i}: {t['torn_batches']} torn batches")
            if t["served"] != cfg.total_requests or t["cancelled"]:
                failures.append(
                    f"trial {i}: served {t['served']} of {cfg.total_requests}, "
                    f"{t['cancelled']} cancelled"
                )
            if t["steps_done"] != cfg.train_steps:
                failures.append(f"trial {i}: {t['steps_done']} steps committed")
            if t["losses"] != reference:
                failures.append(f"trial {i}: losses differ from the offline replay")
        return failures

    def metrics(self, trials) -> dict:
        cfg = self.config
        lookups = [t["lookup_ms"] for t in trials]
        rate = fast_quartile((t["served"] / t["wall_s"] for t in trials), "higher")
        out = op_metrics(rate, trial_percentile(lookups, 50), trial_percentile(lookups, 99))
        out["steps_per_s"] = fast_quartile(
            (t["steps_done"] / t["wall_s"] for t in trials), "higher"
        )
        out["tokens_per_s"] = rate * cfg.ids_per_request
        # ServeReport carries no byte counter, so wire bytes cannot be
        # seen untraced; the cell reports the float64 rows returned to
        # clients per committed step (moves only when requests are
        # cancelled or steps skipped).
        t = trials[0]
        out["wire_bytes_per_step"] = (
            t["served"] * cfg.ids_per_request * cfg.dim * 8 / max(1, t["steps_done"])
        )
        return out


def serve_mixed(seed: int, smoke: bool, trace: bool = False) -> ServeWorkload:
    requests = trial_ops("serve_mixed", smoke, trace)
    config = ServeConfig(
        vocab=16384,
        dim=64,
        world_size=2,
        backend="process",
        transport="shm",
        clients=2,
        requests_per_client=requests,
        ids_per_request=16,
        max_batch=2,
        max_delay_s=0.001,
        train_steps=requests // 10,
        seed=seed,
    )
    if smoke:
        config = replace(config, backend="thread", transport=None, vocab=2048)
    return ServeWorkload("serve_mixed", config)


WORKLOADS = {
    "gnmt_compute": gnmt_compute,
    "dlrm_sparse": dlrm_sparse,
    "comm_step": comm_step,
    "serve_mixed": serve_mixed,
}
