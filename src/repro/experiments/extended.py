"""Extended experiments beyond the paper's figures.

Design-choice ablations the paper argues but does not plot, plus the
scale-out projection §5.6 anticipates and the §6 compression
orthogonality claim:

* ``run_partitioning``  — column-wise vs row-wise embedding shards;
* ``run_bytescheduler`` — tensor-partition-size sensitivity;
* ``run_straggler``     — synchronous-training straggler inflation;
* ``run_scaleout``      — EmbRace advantage at 32/64 GPUs;
* ``run_dgc``           — EmbRace stacked with gradient compression;
* ``run_realbytes``     — wire bytes measured on the real backend.
"""

from __future__ import annotations

from repro.cluster import rtx3090_cluster
from repro.engine.step_simulator import simulate_step
from repro.engine.trainer_sim import make_context, simulate_training
from repro.engine.workload import measure_workload
from repro.experiments.base import ExperimentResult
from repro.models import GNMT8, LM, PAPER_MODELS
from repro.sim import execute
from repro.sim.multirank import expand_to_ranks
from repro.strategies import ALL_STRATEGIES, BytePS, EmbRace, EmbRaceRowPartitioned
from repro.strategies.base import build_context
from repro.strategies.variants import row_partition_skew
from repro.utils.tables import Table


def run_partitioning() -> ExperimentResult:
    """Column-wise vs row-wise embedding partitioning (§4.1.1)."""
    table = Table(
        ["Model", "column-wise tok/s", "row-wise tok/s", "penalty", "skew factor"],
        title="Ablation — embedding partitioning axis, 16 RTX3090 GPUs",
    )
    data = {}
    for name, cfg in PAPER_MODELS.items():
        col = simulate_training(cfg, "rtx3090", 16, EmbRace())
        row = simulate_training(cfg, "rtx3090", 16, EmbRaceRowPartitioned())
        skew = row_partition_skew(
            max(t.vocab_size for t in cfg.tables), cfg.zipf_exponent, 16
        )
        table.add_row(
            [name, f"{col.tokens_per_sec:,.0f}", f"{row.tokens_per_sec:,.0f}",
             f"{col.tokens_per_sec / row.tokens_per_sec:.2f}x", f"{skew:.2f}x"]
        )
        data[name] = {"column": col.tokens_per_sec, "row": row.tokens_per_sec,
                      "skew": skew}
    return ExperimentResult(
        exp_id="Ablation A",
        title="Column-wise vs row-wise embedding partitioning (§4.1.1)",
        tables=[table.render()],
        findings=[
            "Row-wise partitioning is slower for every model — the paper's "
            "rationale for column-wise shards quantified.",
        ],
        data=data,
    )


BYTESCHEDULER_CHUNKS = [256 * 1024, 1 * 2**20, 4 * 2**20, 16 * 2**20, 64 * 2**20]


def run_bytescheduler() -> ExperimentResult:
    """ByteScheduler partition-size sensitivity (§4.2.1)."""
    table = Table(
        ["partition size", "tokens/s", "step (ms)", "comm ops"],
        title="Ablation — BytePS/ByteScheduler partition size (GNMT-8, 16 RTX3090)",
    )
    data: dict = {}
    for chunk in BYTESCHEDULER_CHUNKS:
        r = simulate_training(GNMT8, "rtx3090", 16, BytePS(partition_bytes=chunk))
        n_ops = sum(1 for e in r.report.trace.entries if e.resource == "comm")
        table.add_row(
            [f"{chunk // 1024} KiB", f"{r.tokens_per_sec:,.0f}",
             f"{r.step_time * 1e3:.1f}", n_ops]
        )
        data[chunk] = r.tokens_per_sec
    embrace = simulate_training(GNMT8, "rtx3090", 16, EmbRace())
    table.add_row(
        ["(EmbRace, block-level)", f"{embrace.tokens_per_sec:,.0f}",
         f"{embrace.step_time * 1e3:.1f}", "-"]
    )
    data["embrace"] = embrace.tokens_per_sec
    return ExperimentResult(
        exp_id="Ablation B",
        title="Tensor-partitioning granularity (§4.2.1's two inefficiencies)",
        tables=[table.render()],
        findings=[
            "Small partitions pay per-message start latency and poor link "
            "utilization; EmbRace's block-level scheduling beats every "
            "partition size.",
        ],
        data=data,
    )


STRAGGLER_SKEWS = (1.0, 1.1, 1.25, 1.5)
STRAGGLER_STRATEGIES = ("Horovod-AllGather", "EmbRace")
STRAGGLER_WORLD = 4


def run_straggler() -> ExperimentResult:
    """One slow worker under synchronous collectives (multi-rank sim)."""
    ctx = make_context(GNMT8, "rtx3090", 16)
    table = Table(
        ["strategy"] + [f"straggler x{s}" for s in STRAGGLER_SKEWS],
        title="Straggler study — GNMT-8 step time (ms), one slow rank of 4",
    )
    data: dict = {}
    for name in STRAGGLER_STRATEGIES:
        graph = ALL_STRATEGIES[name]().build_step(ctx)
        row = [name]
        for s in STRAGGLER_SKEWS:
            skew = [1.0] * (STRAGGLER_WORLD - 1) + [s]
            makespan = execute(expand_to_ranks(graph, STRAGGLER_WORLD, skew)).makespan
            data.setdefault(name, {})[s] = makespan
            row.append(f"{makespan * 1e3:.1f}")
        table.add_row(row)
    findings = [
        f"{name}: a 1.5x straggler inflates the step by "
        f"{data[name][STRAGGLER_SKEWS[-1]] / data[name][1.0]:.2f}x."
        for name in STRAGGLER_STRATEGIES
    ]
    return ExperimentResult(
        exp_id="Ablation C",
        title="Straggler sensitivity under synchronous collectives",
        tables=[table.render()],
        findings=findings,
        data=data,
    )


SCALEOUT_WORLDS = (16, 32, 64)
SCALEOUT_STRATEGIES = ("Horovod-AllReduce", "Horovod-AllGather", "Parallax", "EmbRace")


def run_scaleout() -> ExperimentResult:
    """EmbRace advantage past the paper's 16-GPU limit (§5.6)."""
    tables, data = [], {}
    for cfg in (LM, GNMT8):
        table = Table(
            ["Method"] + [f"{w} GPUs" for w in SCALEOUT_WORLDS],
            title=f"Projection — {cfg.name} tokens/s on RTX3090-class nodes",
        )
        cell: dict = {}
        for w in SCALEOUT_WORLDS:
            stats = measure_workload(cfg, "rtx3090", world_size=w, n_steps=4)
            cluster = rtx3090_cluster(num_nodes=w // 4, gpus_per_node=4)
            ctx = build_context(cfg, cluster, stats.tables)
            tokens = stats.avg_tokens_per_batch * w
            for strat in SCALEOUT_STRATEGIES:
                rep = simulate_step(ALL_STRATEGIES[strat](), ctx)
                cell.setdefault(strat, {})[w] = tokens / rep.step_time
        for strat in SCALEOUT_STRATEGIES:
            table.add_row([strat] + [f"{cell[strat][w]:,.0f}" for w in SCALEOUT_WORLDS])
        tables.append(table.render())
        data[cfg.name] = cell
    findings = []
    for name, cell in data.items():
        sp = {
            w: cell["EmbRace"][w]
            / max(cell[s][w] for s in SCALEOUT_STRATEGIES if s != "EmbRace")
            for w in SCALEOUT_WORLDS
        }
        findings.append(
            f"{name}: EmbRace speedup over best baseline "
            + " -> ".join(f"{sp[w]:.2f}x@{w}" for w in SCALEOUT_WORLDS)
            + " — the advantage persists (LM: grows) past the paper's "
            "16-GPU limit (§5.6's expectation)."
        )
    return ExperimentResult(
        exp_id="Projection",
        title="EmbRace advantage beyond 16 GPUs",
        tables=tables,
        findings=findings,
        data=data,
    )


REALBYTES_STRATEGIES = ("allreduce", "allgather", "embrace")
REALBYTES_WORLDS = (2, 4)


def run_realbytes() -> ExperimentResult:
    """Measured wire bytes of the real strategies (Fig. 1/Table 2, live)."""
    from repro.engine.trainer_real import RealTrainer
    from repro.utils.units import fmt_bytes

    config = GNMT8.scaled(vocab=512, dim_divisor=32)
    table = Table(
        ["strategy"] + [f"{w} workers" for w in REALBYTES_WORLDS],
        title="Measured rank-0 wire bytes, float32, 3 training steps (GNMT-8, vocab 512)",
    )
    data: dict = {}
    for strategy in REALBYTES_STRATEGIES:
        row = [strategy]
        for world in REALBYTES_WORLDS:
            result = RealTrainer(
                config, strategy=strategy, world_size=world, steps=3, seed=0
            ).train()
            data.setdefault(strategy, {})[world] = result.comm_bytes
            row.append(fmt_bytes(result.comm_bytes))
        table.add_row(row)
    findings = []
    for world in REALBYTES_WORLDS:
        ranking = sorted(REALBYTES_STRATEGIES, key=lambda s: data[s][world])
        em, ag = data["embrace"][world], data["allgather"][world]
        findings.append(
            f"{world} workers: bytes ranking {' < '.join(ranking)} "
            f"(dense format pays for every zero, §2.2); embrace sends "
            f"{em / ag:.4f}x allgather's bytes ({em - ag:+,} B)."
        )
    return ExperimentResult(
        exp_id="Real bytes",
        title="Wire bytes measured on the real backend",
        tables=[table.render()],
        findings=findings,
        data=data,
    )


def run_dgc() -> ExperimentResult:
    """EmbRace stacked with Deep Gradient Compression (§6)."""
    table = Table(
        ["Model", "EmbRace tok/s", "EmbRace+DGC tok/s", "extra gain"],
        title="Extension — EmbRace + Deep Gradient Compression, 16 RTX3090 GPUs",
    )
    data = {}
    for name, cfg in PAPER_MODELS.items():
        base = simulate_training(cfg, "rtx3090", 16, ALL_STRATEGIES["EmbRace"]())
        dgc = simulate_training(cfg, "rtx3090", 16, ALL_STRATEGIES["EmbRace+DGC"]())
        gain = dgc.tokens_per_sec / base.tokens_per_sec
        table.add_row(
            [name, f"{base.tokens_per_sec:,.0f}", f"{dgc.tokens_per_sec:,.0f}",
             f"{(gain - 1) * 100:+.1f}%"]
        )
        data[name] = {"embrace": base.tokens_per_sec, "dgc": dgc.tokens_per_sec}
    gains = {n: d["dgc"] / d["embrace"] for n, d in data.items()}
    best = max(gains, key=gains.get)
    return ExperimentResult(
        exp_id="Extension A",
        title="Gradient compression stacked on EmbRace (§6 orthogonality)",
        tables=[table.render()],
        findings=[
            "Compression composes with EmbRace and helps most where the "
            "remaining bottleneck is dense AllReduce traffic "
            f"({best}: {(gains[best] - 1) * 100:+.1f}%), confirming the "
            "paper's orthogonality claim.",
        ],
        data=data,
    )
