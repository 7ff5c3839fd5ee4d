"""The traced pass: per-layer metrics and the step waterfall.

Nothing under ``src/`` changes for this benchmark, so every layer is
timed from outside, three ways:

* **probes** call one layer's public function in the harness process
  (``model.forward_backward``, ``SparseRows.coalesce``,
  ``vertical_split``, ``EmbraceAdam.apply_sparse_part``,
  ``encode_frames`` ...) inside a benchmark-side span;
* a **traced trial** reruns the workload with the program's existing
  ``open_group(trace=True)`` recorder and reads rank 0's ``compute``,
  ``comm`` and ``comm.phase`` lanes and counters;
* short **context runs** (world 1, ``overlap=False``,
  ``strategy="allgather"``, read-only serving) give the denominators.

The end-to-end numbers never come from here: they are measured with
tracing off by ``run.py``; the ratio of the two is ``obs.trace_overhead``.
A per-layer metric that does no work on a workload is left out here and
printed as 0.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.comm import (
    CommScheduler,
    allreduce_sparse_adaptive,
    allreduce_sparse_via_allgather,
    alltoall_column_shards,
    alltoall_lookup_results,
    column_slices,
    decode_frames,
    encode_frames,
)
from repro.data.zipf import ZipfSampler
from repro.engine.workload import batch_stream
from repro.models.registry import build_model
from repro.nn.parameter import Parameter
from repro.optim import EmbraceAdam
from repro.schedule import vertical_split
from repro.serve import SparseEmbeddingTask, build_tables
from repro.serve.online import train_stream_rng
from repro.tensors import SparseRows

import spec
import workloads as wl

#: Step-equivalents each probe repeats (medians are reported).
PROBE_REPS = 12
BULK_ELEMS = 4 * 2**20  # 16 MiB of float32


class SpanLog:
    """Benchmark-side spans: name, start, end, parent, trial id.

    Kept in memory and written out once, when the pass ends.  A span's
    parent is the span open when it started, so a layer's self time is
    its duration minus its children's.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.trial = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "trial": self.trial,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def per_trial_ms(self, name: str, divide_by: int = 1) -> float:
        """Median over trials of the summed duration of ``name`` spans."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                totals[s["trial"]] = totals.get(s["trial"], 0.0) + s["end"] - s["start"]
        if not totals:
            return 0.0
        return 1e3 * statistics.median(totals.values()) / divide_by

    def calls_per_trial(self, name: str, divide_by: int = 1) -> float:
        trials = {s["trial"] for s in self.spans if s["name"] == name}
        n = sum(1 for s in self.spans if s["name"] == name)
        return n / max(1, len(trials)) / divide_by


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #
def frames_probe(log: SpanLog) -> dict:
    """``encode_frames`` / ``decode_frames`` on the two payload shapes
    the wire carries most: a sparse column shard and a 64 K f32 chunk."""
    rng = np.random.default_rng(0)
    shard = SparseRows(
        np.sort(rng.choice(wl.TABLE_ROWS, size=wl.SHARD_ROWS, replace=False)),
        rng.standard_normal((wl.SHARD_ROWS, wl.TABLE_DIM // 4)).astype(np.float32),
        wl.TABLE_ROWS,
        coalesced=True,
    )
    chunk = rng.standard_normal(65536).astype(np.float32)
    for rep in range(200):
        log.trial = rep
        for payload in (shard, chunk):
            with log.span("comm.frames.encode"):
                template, frames = encode_frames(payload)
            with log.span("comm.frames.decode"):
                decode_frames(template, frames)
    return {
        "comm.frames.encode_us": 1e3 * log.per_trial_ms("comm.frames.encode"),
        "comm.frames.decode_us": 1e3 * log.per_trial_ms("comm.frames.decode"),
    }


def sparse_step_probe(log, per_rank, world, tables, shards, optimizers):
    """One rank-step of the sparse path on ``per_rank`` inputs.

    ``per_rank[r][name]`` is ``(grad, current_ids, next_ids)``.  Follows
    the trainer's call sequence per table — Algorithm 1 split (which
    coalesces), a rank-ordered merge of every rank's prior and delayed
    column shards, EmbraceAdam on the shard — with every rank's calls
    timed, so a span total divided by ``world`` is one rank's share.
    """
    for name in tables:
        parts = {"prior": [], "delayed": []}
        for r in range(world):
            grad, current, nxt = per_rank[r][name]
            with log.span("tensors.coalesce"):
                grad.coalesce()
            with log.span("schedule.vsplit"):
                prior, delayed = vertical_split(grad, current, nxt)
            parts["prior"].append(prior)
            parts["delayed"].append(delayed)
        for r in range(world):
            # Every rank merges its own column range of all ranks' parts.
            cols = column_slices(tables[name].embedding_dim, world)[r]
            merged = {}
            for key, plist in parts.items():
                with log.span("tensors.merge"):
                    merged[key] = SparseRows.merge_coalesced(
                        [(p.indices, p.values[:, cols]) for p in plist],
                        plist[0].num_rows,
                        cols.stop - cols.start,
                        dtype=plist[0].values.dtype,
                    )
            if r == 0:  # the probe keeps shard and optimizer state for rank 0
                with log.span("optim.sparse_apply"):
                    optimizers[name].apply_sparse_part(
                        shards[name], merged["prior"], final=False
                    )
                    optimizers[name].apply_sparse_part(
                        shards[name], merged["delayed"], final=True
                    )


def train_probes(w, log: SpanLog, reps: int) -> dict:
    """Single-process probes of the layers a train step goes through."""
    world = w.world
    model = build_model(w.config, rng=np.random.default_rng(w.seed))
    model.train()
    stream = batch_stream(w.config, "rtx3090", seed=w.seed + 1)
    tables = model.embedding_tables()
    dense_optimizer = EmbraceAdam(model.parameters(), lr=1e-3)
    shards, optimizers = {}, {}
    for name, table in tables.items():
        cols = column_slices(table.embedding_dim, world)[0]
        shards[name] = Parameter(
            table.weight.data[:, cols], name=f"{name}.shard0", sparse_grad=True
        )
        optimizers[name] = EmbraceAdam([shards[name]], lr=1e-3)

    for rep in range(reps):
        log.trial = rep
        with log.span("probe.step"):
            batches = []
            for _ in range(2 * world):  # each rank's current and next batch
                with log.span("data.batch"):
                    batches.append(next(stream))
            nxt = {
                name: np.concatenate(
                    [b.token_ids[name] for b in batches[world:]]
                )
                for name in tables
            }
            per_rank = []
            for r in range(world):
                model.zero_grad()
                for table in tables.values():
                    table.weight.grad = None
                with log.span("nn.fwd_bwd"):
                    model.forward_backward(batches[r])
                grads = model.sparse_grads()
                per_rank.append(
                    {
                        name: (grads[name], batches[r].token_ids[name], nxt[name])
                        for name in tables
                    }
                )
            sparse_step_probe(log, per_rank, world, tables, shards, optimizers)
            for table in tables.values():
                table.weight.grad = None  # as the trainer does under embrace
            with log.span("optim.dense_step"):
                dense_optimizer.step()
    return {
        "data.batch_ms": log.per_trial_ms("data.batch", 2 * world),
        "nn.fwd_bwd_ms": log.per_trial_ms("nn.fwd_bwd", world),
        "tensors.coalesce_ms": log.per_trial_ms("tensors.coalesce", world),
        "tensors.merge_ms": log.per_trial_ms("tensors.merge", world),
        "schedule.vsplit_ms": log.per_trial_ms("schedule.vsplit", world),
        "optim.sparse_apply_ms": log.per_trial_ms("optim.sparse_apply"),
        "optim.dense_step_ms": log.per_trial_ms("optim.dense_step"),
    }


def serve_probes(w, log: SpanLog, reps: int) -> dict:
    """The online trainer's sparse path on the service's own tables,
    task and id streams (one table: nothing to split, one part)."""
    cfg = w.config
    world = cfg.world_size
    tables = build_tables(cfg)
    task = SparseEmbeddingTask(cfg.vocab, cfg.dim, cfg.seed)
    sampler = ZipfSampler(cfg.vocab, cfg.zipf_exponent)
    shards, optimizers = {}, {}
    for name, table in tables.items():
        cols = column_slices(cfg.dim, world)[0]
        shards[name] = Parameter(
            table.weight.data[:, cols], name=f"{name}.shard0", sparse_grad=True
        )
        optimizers[name] = EmbraceAdam([shards[name]], lr=cfg.lr)
    rngs = {
        (r, ti): train_stream_rng(cfg, r, ti)
        for r in range(world)
        for ti in range(len(cfg.tables))
    }
    for rep in range(reps):
        log.trial = rep
        per_rank = []
        for r in range(world):
            entry = {}
            for ti, name in enumerate(cfg.tables):
                ids = sampler.sample(rngs[(r, ti)], cfg.train_batch)
                _, grad = task.loss_and_grad(tables[name].weight.data, ids)
                entry[name] = (grad, ids, ids)  # next == current: all prior
            per_rank.append(entry)
        sparse_step_probe(log, per_rank, world, tables, shards, optimizers)
    return {
        "tensors.coalesce_ms": log.per_trial_ms("tensors.coalesce", world),
        "tensors.merge_ms": log.per_trial_ms("tensors.merge", world),
        "optim.sparse_apply_ms": log.per_trial_ms("optim.sparse_apply"),
    }


# --------------------------------------------------------------------- #
# reading the program's own trace
# --------------------------------------------------------------------- #
def _lane(bundle, resource: str, rank: int = 0):
    return bundle.trace.by_resource(f"{resource}:{rank}")


def shm_layer(bundle, ops: int) -> dict:
    """Transport phases and counters of rank 0, per operation."""
    phase_s = {"segment_wait": 0.0, "send": 0.0, "recv": 0.0}
    for e in _lane(bundle, "comm.phase"):
        if e.name in phase_s:
            phase_s[e.name] += e.duration
    counters = bundle.counters.get(0, {})
    hits = counters.get("segpool.hits", 0.0)
    misses = counters.get("segpool.misses", 0.0)
    return {
        "comm.shm.segment_wait_ms_step": 1e3 * phase_s["segment_wait"] / ops,
        "comm.shm.send_ms_step": 1e3 * phase_s["send"] / ops,
        "comm.shm.recv_ms_step": 1e3 * phase_s["recv"] / ops,
        "comm.shm.segpool_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "comm.arena_fallbacks": counters.get("arena.fallbacks", 0.0),
        "comm.collectives_per_step": len(_lane(bundle, "comm")) / ops,
    }


def engine_layer(bundle, wall_s: float, steps: int) -> dict:
    """The waterfall rows from rank 0's compute lane.

    ``residual`` is what neither a compute span nor the §5.4 stall
    covers (the run's wall clock outside the traced makespan), so the
    rows add up to ``engine.step_ms`` by construction.
    """
    compute = _lane(bundle, "compute")
    fwd = sum(e.duration for e in compute if e.name == "fwd_bwd")
    opt = sum(e.duration for e in compute if e.name == "optimizer")
    stall = bundle.computation_stall(0)
    step_ms = 1e3 * wall_s / steps
    rows = {
        "engine.step_ms": step_ms,
        "engine.fwd_bwd_ms_step": 1e3 * fwd / steps,
        "engine.optimizer_ms_step": 1e3 * opt / steps,
        "engine.comm_busy_ms_step": 1e3 * bundle.busy_time("comm", 0) / steps,
        "engine.stall_frac": stall / bundle.trace.makespan,
    }
    rows["engine.residual_ms_step"] = (
        step_ms
        - rows["engine.fwd_bwd_ms_step"]
        - rows["engine.optimizer_ms_step"]
        - 1e3 * stall / steps
    )
    return rows


def waterfall_rows(m: dict) -> list[tuple[str, float]]:
    """The measured rows; they add up to ``engine.step_ms``."""
    fwd, opt = m["engine.fwd_bwd_ms_step"], m["engine.optimizer_ms_step"]
    residual = m["engine.residual_ms_step"]
    return [
        ("nn       fwd_bwd", fwd),
        ("optim    optimizer", opt),
        ("comm     exposed (stall)", m["engine.step_ms"] - fwd - opt - residual),
        ("residual", residual),
    ]


def waterfall(name: str, m: dict, log: SpanLog, world: int) -> str:
    """Where a step's time goes.  ``est`` rows are calls-per-step times
    the probe median, not measured inside the trainer; they sit under
    the measured row they are part of."""
    step = m["engine.step_ms"]

    def row(label, ms, indent=0, mark=""):
        return (
            f"  {' ' * indent}{label:<{36 - indent}} {ms:>9.3f} ms "
            f"{100 * ms / step:>6.1f}%{mark}"
        )

    def est(label, span, metric, divide):
        calls = log.calls_per_trial(span, divide)
        return row(f"{label} x{calls:.0f}", m[metric], indent=4, mark=" est")

    nn, optim, exposed, residual = (row(label, ms) for label, ms in waterfall_rows(m))
    return "\n".join(
        [
            f"waterfall {name}: traced trial, rank 0, per step",
            nn,
            est("nn.fwd_bwd", "nn.fwd_bwd", "nn.fwd_bwd_ms", world),
            optim,
            est("optim.dense_step", "optim.dense_step", "optim.dense_step_ms", 1),
            exposed,
            est("schedule.vsplit", "schedule.vsplit", "schedule.vsplit_ms", world),
            est("  of which tensors.coalesce", "tensors.coalesce", "tensors.coalesce_ms", world),
            est("tensors.merge", "tensors.merge", "tensors.merge_ms", world),
            est("optim.sparse_apply", "optim.sparse_apply", "optim.sparse_apply_ms", 1),
            residual,
            row("= engine.step_ms", step),
            f"  comm busy {m['engine.comm_busy_ms_step']:.3f} ms/step, "
            f"stall_frac {m['engine.stall_frac']:.3f}, "
            f"{m['comm.collectives_per_step']:.1f} collectives/step",
        ]
    )


# --------------------------------------------------------------------- #
# per workload
# --------------------------------------------------------------------- #
def train_layers(w, log: SpanLog, smoke: bool) -> dict:
    m = train_probes(w, log, 2 if smoke else PROBE_REPS)
    short = max(2, w.steps // 2)
    log.trial = 0
    with w.open() as group:
        w.cold_call(group)
        w.train(group, steps=short)  # as warm as the traced group below
        with log.span("engine.train untraced"):
            untraced = w.trial(group)
        with log.span("engine.train overlap=False"):
            sync = w.train(group, steps=short, overlap=False)
        with log.span("engine.train strategy=allgather"):
            allgather = w.train(group, steps=short, strategy="allgather")
    with w.open(trace=True) as group:
        w.cold_call(group)
        w.train(group, steps=short)
        with log.span("engine.train traced"):
            traced = w.train(group)
    with w.open(world=1) as group:
        w.cold_call(group)
        with log.span("engine.train world=1"):
            alone = w.train(group, steps=short)

    bundle = traced.trace
    m.update(engine_layer(bundle, traced.wall_time, w.steps))
    m.update(shm_layer(bundle, w.steps))
    untraced_ms = 1e3 * untraced["wall_s"] / untraced["ops"]
    m["engine.world1_step_ms"] = 1e3 * alone.wall_time / short
    m["engine.exposed_comm_ms"] = untraced_ms - m["engine.world1_step_ms"]
    m["engine.sync_steps_per_s"] = short / sync.wall_time
    m["engine.allgather_steps_per_s"] = short / allgather.wall_time
    m["engine.allgather_wire_bytes_per_step"] = allgather.comm_bytes / short
    m["obs.trace_overhead"] = m["engine.step_ms"] / untraced_ms
    m["obs.spans_dropped"] = float(sum(bundle.dropped.values()))
    return {
        "metrics": m,
        "attempted": w.steps,
        "failed": 0 if len(traced.losses) == w.steps else w.steps,
        "failures": (
            []
            if list(traced.losses) == untraced["losses"]
            else ["traced loss curve differs from the untraced one"]
        ),
        "reports": [waterfall(w.name, m, log, w.world)],
    }


def comm_ops(comm, seed: int, iters: int, bulk_iters: int) -> dict:
    """Per-rank worker: each collective of the round, and the transport's
    fixed costs, inline on the raw communicator; seconds per call."""
    state = wl.RoundState(comm, seed)
    me = state.me
    right = (comm.rank + 1) % comm.world_size
    left = (comm.rank - 1) % comm.world_size
    tiny = np.zeros(8, dtype=np.float32)
    op = ("serve", "embedding", me["ids"])  # the shape of a serve control op
    bulk = np.ones(BULK_ELEMS, dtype=np.float32)
    bulk_out = np.empty_like(bulk)

    def dense():
        comm.allreduce(state.buf, out=state.buf)

    calls = {
        "ping": lambda: comm.sendrecv(right, tiny, left),
        "barrier": comm.barrier,
        "bcast": lambda: comm.broadcast(op if comm.rank == 0 else None, root=0),
        "scalar_allreduce": lambda: comm.allreduce_mean(me["loss"]),
        "ids_allgather": lambda: comm.allgather(me["ids"]),
        "dense_allreduce_1m": dense,
        "a2a_shards": lambda: alltoall_column_shards(comm, me["prior"]),
        "lookup_a2a": lambda: alltoall_lookup_results(
            comm, state.all_ids, state.shard_lookup, len(me["ids"])
        ),
        "adaptive": lambda: allreduce_sparse_adaptive(comm, me["low"]),
        "allgather_ref": lambda: allreduce_sparse_via_allgather(comm, me["low"]),
        "bulk": lambda: comm.allreduce(bulk, out=bulk_out),
    }
    times: dict[str, list[float]] = {}
    for name, call in calls.items():
        n = bulk_iters if name == "bulk" else iters
        for _ in range(2):
            call()
        samples = []
        for _ in range(n):
            state.buf[:] = me["dense"]
            comm.barrier()
            t0 = time.perf_counter()
            call()
            samples.append(time.perf_counter() - t0)
        times[name] = samples
    return times


def sched_noop(comm, iters: int) -> list[float]:
    """Per-rank worker: an empty item through submit -> token -> wait."""
    sched = CommScheduler(comm, overlap=True)
    samples = []
    try:
        for _ in range(iters + 2):
            t0 = time.perf_counter()
            sched.submit(lambda c: None, priority=0.0, label="noop").wait()
            samples.append(time.perf_counter() - t0)
    finally:
        sched.close()
    return samples[2:]


def _slowest_p50(per_rank) -> float:
    """Median over calls of the slowest rank's time, in seconds."""
    return spec.percentile([max(ts) for ts in zip(*per_rank)], 50)


def comm_layers(w, log: SpanLog, smoke: bool) -> dict:
    iters, bulk_iters = (5, 2) if smoke else (40, 6)
    with w.open() as group:
        w.cold_call(group)
        with log.span("comm inline ops"):
            ops = group.run(comm_ops, w.seed, iters, bulk_iters)
        with log.span("comm.sched noop"):
            noop = group.run(sched_noop, iters)
        with log.span("comm rounds untraced"):
            untraced = w.trial(group)
        with log.span("comm rounds overlap=False"):
            sync = w.run_rounds(group, overlap=False)
    with w.open(trace=True) as group:
        w.cold_call(group)
        with log.span("comm rounds traced"):
            traced = w.trial(group)
        bundle = group.last_trace

    us = {name: 1e6 * _slowest_p50([o[name] for o in ops]) for name in ops[0]}
    m = {
        "comm.ping_us": us["ping"],
        "comm.barrier_us": us["barrier"],
        "comm.bcast_us": us["bcast"],
        "comm.scalar_allreduce_us": us["scalar_allreduce"],
        "comm.ids_allgather_us": us["ids_allgather"],
        "comm.dense_allreduce_1m_us": us["dense_allreduce_1m"],
        "comm.bulk_allreduce_MBps": BULK_ELEMS * 4 / us["bulk"],  # bytes/us == MB/s
        "comm.sparse.a2a_shards_us": us["a2a_shards"],
        "comm.sparse.lookup_a2a_us": us["lookup_a2a"],
        "comm.sparse.adaptive_us": us["adaptive"],
        "comm.sparse.allgather_ref_us": us["allgather_ref"],
        "comm.sched.noop_us": 1e6 * _slowest_p50(noop),
    }
    # The same collectives the round submits, run back to back inline.
    inline_ms = 1e-3 * (
        us["scalar_allreduce"]
        + us["dense_allreduce_1m"]
        + us["ids_allgather"]
        + 2 * us["a2a_shards"]
        + us["adaptive"]
        + us["lookup_a2a"]
    )
    round_ms = spec.percentile(untraced["round_ms"], 50)
    m["comm.sched.overhead_ms_round"] = round_ms - inline_ms
    m["comm.sched.sync_round_ms"] = 1e3 * _slowest_p50([o["times"] for o in sync])
    m.update(shm_layer(bundle, traced["ops"]))
    m["obs.trace_overhead"] = (traced["wall_s"] / traced["ops"]) / (
        untraced["wall_s"] / untraced["ops"]
    )
    m["obs.spans_dropped"] = float(sum(bundle.dropped.values()))
    report = (
        f"comm_step: scheduled round p50 {round_ms:.3f} ms = inline ops "
        f"{inline_ms:.3f} ms + scheduler {m['comm.sched.overhead_ms_round']:.3f} ms; "
        f"overlap=False round {m['comm.sched.sync_round_ms']:.3f} ms"
    )
    return {
        "metrics": m,
        "attempted": traced["ops"],
        "failed": traced["failed"],
        "failures": [],
        "reports": [report],
    }


def serve_layers(w, log: SpanLog, smoke: bool) -> dict:
    m = serve_probes(w, log, 2 if smoke else PROBE_REPS)
    cfg = w.config
    log.trial = 0
    with w.open() as group:
        w.cold_call(group)
        with log.span("serve mixed untraced"):
            mixed = w.trial(group)
        with log.span("serve read-only"):
            readonly = w.serve(
                group, train_steps=0, requests_per_client=cfg.requests_per_client // 4
            )
    with w.open(trace=True) as group:
        w.cold_call(group)
        with log.span("serve mixed traced"):
            traced = w.trial(group)
        bundle = group.last_trace

    versions = mixed["batch_versions"]
    m["serve.batch_size_mean"] = mixed["served"] / max(1, mixed["batches"])
    m["serve.lookup_ms_p90"] = spec.percentile(mixed["lookup_ms"], 90)
    m["serve.train_overlap_share"] = sum(
        1 for v in versions if v < cfg.train_steps
    ) / max(1, len(versions))
    m["serve.readonly_lookup_ms_p50"] = readonly.p50_ms
    m["serve.torn_batches"] = float(mixed["torn_batches"] + traced["torn_batches"])
    m["serve.requests_cancelled"] = float(mixed["cancelled"] + traced["cancelled"])
    counters = shm_layer(bundle, 1)
    for name in ("comm.shm.segpool_hit_rate", "comm.arena_fallbacks"):
        m[name] = counters[name]
    m["obs.trace_overhead"] = traced["wall_s"] / mixed["wall_s"]
    m["obs.spans_dropped"] = float(sum(bundle.dropped.values()))
    mixed_p50 = spec.percentile(mixed["lookup_ms"], 50)
    report = (
        f"serve_mixed: lookup p50 {mixed_p50:.3f} ms beside training, "
        f"{readonly.p50_ms:.3f} ms read-only -> write interference "
        f"{mixed_p50 - readonly.p50_ms:.3f} ms"
    )
    return {
        "metrics": m,
        "attempted": traced["ops"],
        "failed": traced["failed"],
        "failures": w.verify(None, [mixed, traced]),
        "reports": [report],
    }


def trace_pass(workload, smoke: bool) -> dict:
    log = SpanLog()
    if isinstance(workload, wl.TrainWorkload):
        result = train_layers(workload, log, smoke)
    elif isinstance(workload, wl.CommStepWorkload):
        result = comm_layers(workload, log, smoke)
    else:
        result = serve_layers(workload, log, smoke)
    log.trial = 0
    result["metrics"].update(frames_probe(log))
    out_dir = spec.HERE / "out"
    os.makedirs(out_dir, exist_ok=True)
    path = out_dir / f"trace_{workload.name}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "metrics": result["metrics"],
                "spans": log.spans,
            },
            fh,
        )
    result["detail"] = {"spans": len(log.spans), "trace_file": str(path)}
    return result
