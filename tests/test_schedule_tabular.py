"""Tests for repro.schedule.tabular: the declarative schedule IR, its
builders, the cost-model pricing and the TaskGraph compiler."""

import pytest

from repro.engine.trainer_sim import make_context
from repro.models import GNMT8, LM
from repro.schedule import (
    PIPELINE_SCHEDULES,
    SCHEDULE_NAMES,
    Cell,
    TabularSchedule,
    build_schedule,
    bubble_fraction,
    compile_strategy_schedule,
    data_parallel_schedule,
    gpipe_schedule,
    nested_embrace_schedule,
    one_f_one_b_schedule,
)
from repro.sim import execute
from repro.sim.pipeline import chain_steps, steady_state_step_time
from repro.strategies import ALL_STRATEGIES


@pytest.fixture(scope="module")
def ctx():
    return make_context(LM, "rtx3090", 8)


def cells_2x1():
    """A minimal valid 2-stage x 1-microbatch compute grid."""
    return [
        Cell(0, 0, "fwd", 0), Cell(0, 3, "bwd", 0),
        Cell(1, 1, "fwd", 0), Cell(1, 2, "bwd", 0),
    ]


def make(cells, p=2, m=1, comm="flush", name="t"):
    return TabularSchedule(
        name=name, n_stages=p, n_microbatches=m, comm=comm,
        cells=tuple(cells),
    )


class TestValidation:
    def test_minimal_valid(self):
        make(cells_2x1())  # does not raise

    def test_unknown_op(self):
        cells = cells_2x1()
        cells.append(Cell(0, 9, "warp"))
        with pytest.raises(ValueError, match="unknown op"):
            make(cells)

    def test_overlapping_cells(self):
        cells = cells_2x1()
        cells.append(Cell(0, 0, "sync"))
        with pytest.raises(ValueError, match="overlapping"):
            make(cells)

    def test_missing_bwd(self):
        with pytest.raises(ValueError, match="missing bwd"):
            make([
                Cell(0, 0, "fwd", 0), Cell(0, 1, "bwd", 0),
                Cell(1, 1, "fwd", 0),
            ])

    def test_bwd_before_fwd(self):
        with pytest.raises(ValueError, match="does not follow"):
            make([
                Cell(0, 1, "fwd", 0), Cell(0, 0, "bwd", 0),
                Cell(1, 2, "fwd", 0), Cell(1, 3, "bwd", 0),
            ])

    def test_comm_cell_with_microbatch(self):
        cells = cells_2x1()
        cells.append(Cell(0, 9, "sync", 0))
        with pytest.raises(ValueError, match="must not carry"):
            make(cells)

    def test_stage_out_of_range(self):
        cells = cells_2x1()
        cells.append(Cell(5, 9, "sync"))
        with pytest.raises(ValueError, match="outside"):
            make(cells)

    def test_bad_microbatch_id(self):
        with pytest.raises(ValueError, match="microbatch id"):
            make([
                Cell(0, 0, "fwd", 7), Cell(0, 3, "bwd", 0),
                Cell(1, 1, "fwd", 0), Cell(1, 2, "bwd", 0),
            ])


class TestBuilders:
    @pytest.mark.parametrize("name", PIPELINE_SCHEDULES)
    @pytest.mark.parametrize("p,m", [(1, 1), (2, 2), (4, 4), (3, 5)])
    def test_builders_validate(self, name, p, m):
        s = build_schedule(name, p, m)
        assert s.n_stages == p and s.n_microbatches == m
        # 2 compute cells per (stage, microbatch), plus comm cells.
        assert sum(c.op in ("fwd", "bwd") for c in s.cells) == 2 * p * m

    def test_data_parallel_is_degenerate(self):
        s = data_parallel_schedule()
        assert (s.n_stages, s.n_microbatches) == (1, 1)

    def test_build_schedule_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_schedule("zigzag", 2, 2)

    def test_gpipe_flushes_and_1f1b_interleaves(self):
        """GPipe runs every fwd before any bwd on every stage; 1F1B
        alternates, visible on the last stage where B0 precedes F1."""
        p, m = 4, 4
        gp, ob = gpipe_schedule(p, m), one_f_one_b_schedule(p, m)
        for s in range(p):
            assert max(c.slot for c in gp.compute_cells(s, "fwd")) < min(
                c.slot for c in gp.compute_cells(s, "bwd")
            )
        last = p - 1
        assert min(c.slot for c in ob.compute_cells(last, "bwd")) < max(
            c.slot for c in ob.compute_cells(last, "fwd")
        )

    def test_nested_carries_prior_and_delayed(self):
        s = nested_embrace_schedule(4, 4)
        ops = {c.op for c in s.cells}
        assert {"prior", "delayed", "opt"} <= ops
        assert s.comm == "nested"


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    def test_round_trip_equality(self, name):
        s = build_schedule(name, 3, 3)
        assert TabularSchedule.from_json(s.to_json()) == s
        assert TabularSchedule.from_dict(s.to_dict()) == s

    def test_round_trip_revalidates(self):
        s = build_schedule("gpipe", 2, 2)
        d = s.to_dict()
        d["cells"][0]["op"] = "warp"
        with pytest.raises(ValueError, match="unknown op"):
            TabularSchedule.from_dict(d)

    def test_grid_renders(self):
        text = build_schedule("nested", 2, 2).grid()
        assert "stage 0" in text and "stage 1" in text


class TestCompile:
    PRICED = (
        "EmbRace", "Horovod-AllReduce", "Horovod-AllGather",
        "BytePS", "Parallax",
    )

    @pytest.mark.parametrize("strategy", PRICED)
    @pytest.mark.parametrize("schedule", PIPELINE_SCHEDULES)
    def test_all_strategies_compile_and_run(self, ctx, strategy, schedule):
        s = build_schedule(schedule, 2, 2)
        graph = compile_strategy_schedule(ctx, strategy, s, gpu_kind="rtx3090")
        step_s, trace = steady_state_step_time(graph, 3)
        assert step_s > 0
        assert 0.0 <= bubble_fraction(trace, 2) < 1.0

    def test_chains_cleanly(self, ctx):
        """Every bp has its fp twin, so chain_steps accepts the graph."""
        s = build_schedule("nested", 4, 4)
        graph = compile_strategy_schedule(ctx, "EmbRace", s)
        chained = chain_steps(graph, 3)
        assert len(chained) == 3 * len(graph)

    def test_nested_emits_prior_and_delayed_exchanges(self, ctx):
        graph = compile_strategy_schedule(
            ctx, "EmbRace", build_schedule("nested", 2, 2)
        )
        names = set(graph.tasks)
        assert any(n.startswith("a2a_prior:") for n in names)
        assert any(n.startswith("a2a_delayed:") for n in names)

    def test_gpipe_bubble_exceeds_1f1b(self, ctx):
        """At paper scale the synchronous flush idles the stages more
        than 1F1B's interleaving (the classic bubble ordering)."""
        fractions = {}
        for name in ("gpipe", "1f1b"):
            graph = compile_strategy_schedule(
                ctx, "EmbRace", build_schedule(name, 4, 4)
            )
            _, trace = steady_state_step_time(graph, 4)
            fractions[name] = bubble_fraction(trace, 4)
        assert fractions["1f1b"] < fractions["gpipe"]

    def test_nested_beats_gpipe_for_embrace(self):
        """EmbRace's prior/delayed split rides the stage bubbles, so the
        nested schedule's steady-state step beats GPipe's flush."""
        for config in (LM, GNMT8):
            ctx = make_context(config, "rtx3090", 8)
            times = {}
            for name in ("gpipe", "nested"):
                graph = compile_strategy_schedule(
                    ctx, "EmbRace", build_schedule(name, 4, 4)
                )
                times[name], _ = steady_state_step_time(graph, 4)
            assert times["nested"] < times["gpipe"]

    def test_degenerate_single_stage_matches_strategy_sim(self, ctx):
        """Parity: a 1-stage 1-microbatch table prices the same workload
        as the strategy's own step graph, so the two simulators must
        agree within a coarse-graining factor (the table lumps all
        blocks into one fwd/bwd, losing per-block overlap)."""
        from repro.engine.step_simulator import simulate_step

        report = simulate_step(ALL_STRATEGIES["EmbRace"](), ctx)
        graph = compile_strategy_schedule(
            ctx, "EmbRace", build_schedule("nested", 1, 1)
        )
        step_s, _ = steady_state_step_time(graph, 4)
        assert 0.5 < step_s / report.step_time < 2.5


class TestRealParity:
    def test_sim_and_real_agree_on_overlap_direction(self):
        """Parity with the real backend on the one schedule both layers
        execute (data_parallel): overlapping communication must not
        increase the measured stall, exactly as the simulator predicts
        EmbRace stalls no more than the synchronous AllReduce."""
        from repro.comm import open_group
        from repro.engine.step_simulator import simulate_step
        from repro.engine.trainer_real import RealTrainer
        from repro.models.config import ALL_MODELS

        ctx = make_context(LM, "rtx3090", 8)
        sim = {
            name: simulate_step(ALL_STRATEGIES[name](), ctx)
            for name in ("EmbRace", "Horovod-AllReduce")
        }
        assert (
            sim["EmbRace"].computation_stall
            <= sim["Horovod-AllReduce"].computation_stall + 1e-9
        )

        config = ALL_MODELS["LM"].tiny()
        stall = {}
        for overlap in (True, False):
            with open_group(2, backend="process", trace=True) as g:
                result = RealTrainer(
                    config,
                    strategy="embrace",
                    world_size=2,
                    steps=4,
                    seed=0,
                    overlap=overlap,
                    group=g,
                ).train()
            bundle = result.trace
            stall[overlap] = (
                sum(bundle.computation_stall(r) for r in range(2))
                / (2 * bundle.trace.makespan)
            )
        for frac in stall.values():
            assert 0.0 <= frac <= 1.0
        # Generous tolerance: tiny CPU runs are noisy, but overlap must
        # not make the stall dramatically worse.
        assert stall[True] <= stall[False] + 0.15
