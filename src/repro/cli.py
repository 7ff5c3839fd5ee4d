"""Command-line interface: ``repro <subcommand>`` or ``python -m repro``.

Subcommands
-----------
``experiment``  run one (or all) paper tables/figures and print findings
``simulate``    one-cell throughput/stall simulation
``train``       real multi-worker training at tiny scale
``faults``      fault-injection degradation curves / crash-recovery demo
``trace``       export a simulated step timeline as a Chrome trace
``tune``        probe this host, fit alpha-beta, auto-tune the schedule
``scale``       hybrid mode: real two-level twins + 64..1024 replay ladder
``serve``       serve sharded-embedding lookups during online training
``scenarios``   models x strategies in one matrix
``sizes``       print Table 1 (model/embedding sizes)
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.blas import pin_blas_threads


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.harness import (
        ALL_EXPERIMENTS,
        EXTENDED_EXPERIMENTS,
        render_markdown,
    )

    available = {**ALL_EXPERIMENTS, **EXTENDED_EXPERIMENTS}
    if args.name == "all":
        runners = available
    elif args.name in available:
        runners = {args.name: available[args.name]}
    else:
        print(f"unknown experiment {args.name!r}; choose from "
              f"{', '.join(available)} or 'all'", file=sys.stderr)
        return 2
    results = []
    for name, runner in runners.items():
        print(f"running {name}...", file=sys.stderr)
        results.append(runner())
    text = render_markdown(results)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.engine.trainer_sim import simulate_training
    from repro.models import get_config
    from repro.strategies import ALL_STRATEGIES

    result = simulate_training(
        get_config(args.model), args.gpu, args.world, ALL_STRATEGIES[args.strategy]()
    )
    print(f"model      : {result.model}")
    print(f"cluster    : {args.world} x {args.gpu}")
    print(f"strategy   : {result.strategy}")
    print(f"step time  : {result.step_time * 1e3:.2f} ms")
    print(f"stall      : {result.computation_stall * 1e3:.2f} ms")
    print(f"throughput : {result.tokens_per_sec:,.0f} tokens/s")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.engine.trainer_real import RealTrainer
    from repro.eval import perplexity_curve
    from repro.models import get_config

    config = get_config(args.model).tiny()
    result = RealTrainer(
        config, strategy=args.strategy, world_size=args.world,
        steps=args.steps, lr=args.lr, seed=args.seed,
    ).train()
    ppl = perplexity_curve(result.losses, smooth=3)
    for i, (loss, p) in enumerate(zip(result.losses, ppl)):
        print(f"step {i:3d}  loss {loss:.4f}  ppl {p:.2f}")
    print(f"comm bytes (rank 0): {result.comm_bytes:,}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.mode == "curves":
        from repro.experiments.faults import run_faults

        print(run_faults().render())
        return 0

    # mode == "crash": inject a rank crash and recover from checkpoint.
    import tempfile

    from repro.engine.trainer_real import RealTrainer
    from repro.faults import FaultPlan
    from repro.models import get_config

    if not 0 <= args.crash_step < args.steps:
        print(f"--crash-step must be in [0, {args.steps}), got {args.crash_step}",
              file=sys.stderr)
        return 2
    if not 0 <= args.crash_rank < args.world:
        print(f"--crash-rank must be in [0, {args.world}), got {args.crash_rank}",
              file=sys.stderr)
        return 2
    config = get_config(args.model).tiny()
    kwargs = dict(strategy=args.strategy, world_size=args.world,
                  steps=args.steps, seed=args.seed)
    plan = FaultPlan(seed=args.seed, recv_deadline=5.0,
                     crashes={args.crash_rank: args.crash_step})
    resilient = RealTrainer(
        config, fault_plan=plan, checkpoint_every=args.checkpoint_every,
        checkpoint_dir=tempfile.mkdtemp(prefix="repro-faults-"), **kwargs,
    ).train_resilient()
    clean = RealTrainer(config, **kwargs).train()
    rep = resilient.report
    print(f"attempts       : {rep.attempts}")
    print(f"crash events   : {rep.crash_events}")
    print(f"restore steps  : {rep.restore_steps}")
    print(f"steps replayed : {rep.steps_replayed}")
    print(f"recovery wall  : {rep.recovery_wall_s:.2f}s")
    print(f"final loss     : {resilient.result.losses[-1]:.6f}")
    print(f"uninterrupted  : {clean.losses[-1]:.6f}  "
          f"(bit-equal curve: {resilient.result.losses == clean.losses})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.models import get_config
    from repro.sim.trace_export import write_chrome_trace

    if args.real:
        from repro.engine.run import RunConfig, run, real_strategy

        try:
            real_strategy(args.strategy)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        result = run(RunConfig(
            model=get_config(args.model).tiny(),
            mode="real",
            strategy=args.strategy,
            world_size=args.world,
            steps=args.steps,
            backend=args.backend,
            trace=True,
        ))
        counters = result.raw.trace.total_counters()
        write_chrome_trace(
            result.trace, args.output,
            process_name=f"{args.model}-{result.strategy}-real",
            counters=counters,
        )
        print(f"wrote {args.output} ({len(result.trace.entries)} events, "
              f"{result.world_size} ranks, wall {result.wall_time * 1e3:.2f} ms, "
              f"stall {result.computation_stall() * 1e3:.2f} ms); "
              "open in chrome://tracing or https://ui.perfetto.dev")
        return 0

    from repro.engine.step_simulator import simulate_step
    from repro.engine.trainer_sim import make_context
    from repro.strategies import ALL_STRATEGIES

    if args.world not in (4, 8, 16):
        print("simulated traces use the paper's cluster sizes: "
              "--world must be 4, 8, or 16", file=sys.stderr)
        return 2
    ctx = make_context(get_config(args.model), args.gpu, args.world)
    report = simulate_step(ALL_STRATEGIES[args.strategy](), ctx)
    write_chrome_trace(report.trace, args.output,
                       process_name=f"{args.model}-{args.strategy}")
    print(f"wrote {args.output} ({len(report.trace.entries)} events, "
          f"makespan {report.step_time * 1e3:.2f} ms); open in chrome://tracing")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.models import get_config
    from repro.tune import (
        DEFAULT_PROBE_ITERS,
        PROBE_SIZES_BYTES,
        SMOKE_SIZES_BYTES,
        SearchSpace,
        autotune,
    )

    if args.smoke:
        # CI pipeline exercise: thread backend, tiny probes, <= 4-candidate
        # grid, short runs — every stage of probe -> fit -> search ->
        # validate runs, in seconds.
        backend = "thread"
        world = min(args.world, 2)
        steps = min(args.steps, 3)
        sizes, iters = SMOKE_SIZES_BYTES, 3
        space, rungs, top_k = SearchSpace.smoke(), (2,), 1
    else:
        backend = args.backend
        world, steps = args.world, args.steps
        sizes, iters = PROBE_SIZES_BYTES, DEFAULT_PROBE_ITERS
        space, rungs, top_k = SearchSpace(), (2, 4), args.top_k
    report = autotune(
        get_config(args.model).tiny(),
        world_size=world,
        backend=backend,
        steps=steps,
        seed=args.seed,
        space=space,
        probe_sizes=sizes,
        probe_iters=iters,
        rungs=rungs,
        top_k=top_k,
    )
    print(report.render())
    w = report.winner
    print(f"\nwinner: {w.candidate.label()}  "
          f"(measured stall {w.measured_stall_frac:.4f} vs default "
          f"{report.default.measured_stall_frac:.4f}; "
          f"step-time prediction error {w.step_time_error:.1%})")
    if args.output:
        report.tuned_profile.save(args.output)
        print(f"wrote {args.output}")
    if not report.losses_identical:
        print("ERROR: loss curves diverged across knob settings",
              file=sys.stderr)
        return 1
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.engine.hybrid import run_hybrid, scale_bench_model
    from repro.engine.run import RunConfig
    from repro.models import get_config
    from repro.tune import (
        DEFAULT_PROBE_ITERS,
        PROBE_SIZES_BYTES,
        SMOKE_SIZES_BYTES,
    )

    if args.smoke:
        # CI pipeline exercise: thread backend, 2 simulated nodes x 2
        # ranks, tiny probes, a short ladder — real twins, per-level
        # fit and replay all run in a couple of seconds.
        model = scale_bench_model()
        world, steps, backend = 4, 2, "thread"
        sim_world: tuple[int, ...] | int | None = (16, 64)
        sizes, iters = SMOKE_SIZES_BYTES, 3
    else:
        model = (
            scale_bench_model()
            if args.model == "scalebench"
            else get_config(args.model).tiny()
        )
        world, steps = args.world, args.steps
        backend = args.backend
        sim_world = args.max_world
        sizes, iters = PROBE_SIZES_BYTES, DEFAULT_PROBE_ITERS
    res = run_hybrid(
        RunConfig(
            model=model,
            mode="hybrid",
            world_size=world,
            steps=steps,
            seed=args.seed,
            backend=backend,
            sim_world=sim_world,
        ),
        probe_sizes_bytes=sizes,
        probe_iters=iters,
    )
    report = res.raw
    m = res.metrics
    print(
        f"real twins ({world} ranks, nodes="
        f"{[list(n) for n in report.topology.nodes]}): losses bit-identical"
        f" = {report.losses_identical}, inter-node bytes "
        f"{m['real_inter_bytes_hier']:.0f} hier / "
        f"{m['real_inter_bytes_flat']:.0f} flat "
        f"(ratio {m['real_inter_ratio']:.3f}), node dedup "
        f"{m['node_dedup']:.3f}"
    )
    pp = report.profile_point
    print(
        f"profile point (world {pp.world_size}): hierarchical exchange "
        f"moves {pp.exchange_ratio:.3f}x the flat cross-node bytes"
    )
    print(f"\n{'world':>7} {'nodes':>6} {'flat ms':>9} {'hier ms':>9} "
          f"{'speedup':>8} {'xratio':>7}")
    for p in report.curve:
        print(
            f"{p.world_size:>7} {p.num_nodes:>6} "
            f"{p.step_time_flat_s * 1e3:>9.2f} "
            f"{p.step_time_hier_s * 1e3:>9.2f} "
            f"{p.speedup:>8.3f} {p.exchange_ratio:>7.3f}"
        )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    if not report.losses_identical:
        print("ERROR: hierarchical collectives diverged from the flat "
              "loss curve", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference

    if args.smoke:
        # CI pipeline exercise: thread backend, two ranks, a short Zipfian
        # burst over one online-training window — admission, versioned
        # reads, commit overlap and the offline bit-identity check all
        # run in a couple of seconds.
        cfg = ServeConfig(
            world_size=2,
            backend="thread",
            clients=2,
            requests_per_client=20,
            train_steps=8,
            seed=args.seed,
        )
    else:
        cfg = ServeConfig(
            world_size=args.world,
            backend=args.backend,
            clients=args.clients,
            requests_per_client=args.requests,
            ids_per_request=args.ids_per_request,
            zipf_exponent=args.zipf_exponent,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay_ms / 1e3,
            train_steps=args.steps,
            train_batch=args.train_batch,
            seed=args.seed,
            trace=args.trace,
        )
    with ShardedEmbeddingService(cfg) as service:
        report = service.run()
    print(report.summary())
    offline_losses, offline_final, _ = offline_reference(cfg)
    identical = offline_losses == report.losses and all(
        np.array_equal(offline_final[name], report.final_tables[name])
        for name in cfg.tables
    )
    print(f"online == offline (bit-identical): {identical}")
    if report.trace is not None:
        serve_busy = report.trace.busy_time("serve", 0)
        print(f"serve lane busy (rank 0): {serve_busy * 1e3:.2f} ms")
    if not identical or report.torn_batches:
        print("ERROR: serving perturbed training or tore a read",
              file=sys.stderr)
        return 1
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioSpec, run_matrix

    if args.smoke:
        spec = ScenarioSpec.smoke()
    else:
        spec = ScenarioSpec(
            models=tuple(args.models),
            strategies=tuple(args.strategies),
            world_size=args.world,
            gpu_kind=args.gpu,
            validate_real=not args.no_real,
            real_world_size=args.real_world,
        )
    report = run_matrix(spec, log=lambda m: print(m, file=sys.stderr))
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"\nwrote {args.json}")
    if any(not r.identical for r in report.real_checks):
        print("ERROR: a real-backend run was not bit-identical with the "
              "scheduler off", file=sys.stderr)
        return 1
    return 0


def _cmd_sizes(args: argparse.Namespace) -> int:
    from repro.models.sizing import sizing_table

    print(sizing_table().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.strategies import ALL_STRATEGIES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run paper experiments")
    p.add_argument("name", help="experiment id (table1..fig11) or 'all'")
    p.add_argument("-o", "--output", help="write markdown to this file")
    p.set_defaults(func=_cmd_experiment)

    models = ["LM", "GNMT-8", "Transformer", "BERT-base"]
    p = sub.add_parser("simulate", help="simulate one throughput cell")
    p.add_argument("--model", default="GNMT-8", choices=models)
    p.add_argument("--gpu", default="rtx3090", choices=("rtx3090", "rtx2080"))
    p.add_argument("--world", type=int, default=16, choices=(4, 8, 16))
    p.add_argument("--strategy", default="EmbRace", choices=sorted(ALL_STRATEGIES))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="real multi-worker training (tiny scale)")
    p.add_argument("--model", default="GNMT-8", choices=models)
    p.add_argument("--strategy", default="embrace", choices=("embrace", "allgather"))
    p.add_argument("--world", type=int, default=2)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "faults", help="fault-injection study (degradation curves / crash demo)"
    )
    p.add_argument("--mode", default="curves", choices=("curves", "crash"))
    p.add_argument("--model", default="GNMT-8", choices=models)
    p.add_argument("--strategy", default="allgather",
                   choices=("embrace", "allgather"))
    p.add_argument("--world", type=int, default=2)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--crash-rank", type=int, default=1)
    p.add_argument("--crash-step", type=int, default=4)
    p.add_argument("--checkpoint-every", type=int, default=2)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("trace", help="export a step timeline (Chrome trace)")
    p.add_argument("--model", default="GNMT-8", choices=models)
    p.add_argument("--gpu", default="rtx3090", choices=("rtx3090", "rtx2080"))
    p.add_argument("--world", type=int, default=16)
    p.add_argument("--strategy", default="EmbRace", choices=sorted(ALL_STRATEGIES))
    p.add_argument("-o", "--output", default="step_trace.json")
    p.add_argument("--real", action="store_true",
                   help="trace a real tiny-scale training run instead of "
                        "the simulator (per-rank span recording)")
    p.add_argument("--backend", default="thread", choices=("thread", "process"),
                   help="worker backend for --real")
    p.add_argument("--steps", type=int, default=3,
                   help="training steps for --real")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "tune",
        help="probe this host, fit alpha-beta links, auto-tune SchedKnobs",
    )
    p.add_argument("--model", default="GNMT-8", choices=models)
    p.add_argument("--world", type=int, default=4)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--backend", default="process", choices=("thread", "process"))
    p.add_argument("--top-k", type=int, default=2,
                   help="candidates replayed on the real backend")
    p.add_argument("-o", "--output", default=None,
                   help="write the winning TunedProfile JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="CI pipeline check: thread backend, tiny probes, "
                        "<= 4 candidates")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "scale",
        help="hybrid mode: real two-level twins, per-level alpha-beta "
             "fit, 64..1024-rank replay ladder",
    )
    p.add_argument("--model", default="scalebench",
                   choices=["scalebench"] + models,
                   help="'scalebench' = the sparse-dominated GNMT "
                        "derivative BENCH_scale uses; paper models run "
                        "their tiny() config")
    p.add_argument("--world", type=int, default=4,
                   help="real ranks for the twin runs (split into 2 "
                        "simulated nodes)")
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--backend", default="process", choices=("thread", "process"))
    p.add_argument("--max-world", type=int, default=None,
                   help="top rung of the replay ladder (doubling from "
                        "64); default: the 64..1024 ladder")
    p.add_argument("--json", default=None,
                   help="write the full HybridReport JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="CI pipeline check: thread backend, tiny probes, "
                        "short ladder")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser(
        "serve",
        help="serve sharded-embedding lookups concurrently with online "
             "training (repro.serve)",
    )
    p.add_argument("--world", type=int, default=2)
    p.add_argument("--backend", default="thread", choices=("thread", "process"))
    p.add_argument("--clients", type=int, default=4,
                   help="closed-loop lookup clients")
    p.add_argument("--requests", type=int, default=100,
                   help="requests per client")
    p.add_argument("--ids-per-request", type=int, default=16)
    p.add_argument("--zipf-exponent", type=float, default=1.1)
    p.add_argument("--max-batch", type=int, default=8,
                   help="admission: release a batch at this size")
    p.add_argument("--max-delay-ms", type=float, default=2.0,
                   help="admission: or when its oldest request is this old")
    p.add_argument("--steps", type=int, default=20,
                   help="online training steps")
    p.add_argument("--train-batch", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="record spans (serve lane vs train lanes)")
    p.add_argument("--smoke", action="store_true",
                   help="CI pipeline check: thread backend, tiny run")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "scenarios",
        help="sweep models x strategies in one matrix",
    )
    p.add_argument("--smoke", action="store_true",
                   help="small CI matrix (3 models x 3 strategies)")
    p.add_argument("--models", nargs="+",
                   default=["LM", "GNMT-8", "Transformer", "BERT-base", "DLRM"],
                   choices=[*models, "DLRM"])
    p.add_argument("--strategies", nargs="+",
                   default=["EmbRace", "Horovod-AllReduce", "Horovod-AllGather",
                            "BytePS", "Parallax"])
    p.add_argument("--gpu", default="rtx3090", choices=("rtx3090", "rtx2080"))
    p.add_argument("--world", type=int, default=8)
    p.add_argument("--no-real", action="store_true",
                   help="skip the real-backend bit-identity validation")
    p.add_argument("--real-world", type=int, default=4)
    p.add_argument("--json", help="also write the report as JSON here")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("sizes", help="print Table 1")
    p.set_defaults(func=_cmd_sizes)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Every entry point (``repro``, ``python -m repro``, ``python -m
    # repro.cli``) lands here: one BLAS thread per process unless the
    # user set a thread count (repro.utils.blas).
    pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
