"""open_group / RunConfig: the one front door."""

import numpy as np
import pytest

from repro.comm import open_group
from repro.engine.run import RunConfig, RunResult, real_strategy, run, sim_strategy
from repro.engine.trainer_real import RealTrainer
from repro.faults import FaultPlan
from repro.models import GNMT8, LM


def _sum_ranks(comm):
    return comm.allreduce(np.array([float(comm.rank)]))


class TestOpenGroup:
    def test_thread_group_runs(self):
        with open_group(3) as group:
            outs = group.run(_sum_ranks)
        assert [float(o[0]) for o in outs] == [3.0, 3.0, 3.0]

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            open_group(0)
        with pytest.raises(ValueError):
            open_group(2, backend="mpi")
        with pytest.raises(ValueError):
            open_group(2, transport="rdma")
        with pytest.raises(ValueError):  # the second wire is gone
            open_group(2, backend="process", transport="queue")
        open_group(2, backend="process", transport="shm").close()
        with pytest.raises(ValueError):
            open_group(2, timeout=-1.0)

    def test_timeout_defaults_track_fault_plan(self):
        plan = FaultPlan(seed=0, recv_deadline=3.5)
        assert open_group(2, faults=plan).timeout == 3.5
        assert open_group(2, faults=plan, timeout=9.0).timeout == 9.0

    def test_faults_wrap_and_still_compute_correctly(self):
        plan = FaultPlan(seed=1, drop_prob=0.3, recv_deadline=10.0)

        def fn(comm):
            out = None
            for _ in range(10):
                out = comm.allreduce(np.arange(4.0) * (comm.rank + 1))
            return out, comm.stats.retransmits

        with open_group(2, faults=plan) as group:
            results = group.run(fn)
        expected = np.arange(4.0) * 3
        assert all(np.allclose(data, expected) for data, _ in results)
        assert sum(r for _, r in results) > 0  # the injector actually fired

    @pytest.mark.slow
    def test_process_backend_parity(self):
        with open_group(2, backend="process") as group:
            outs = group.run(_sum_ranks)
        assert [float(o[0]) for o in outs] == [1.0, 1.0]


class TestTrainerGroup:
    def test_trainer_dispatches_through_group(self):
        with open_group(2, trace=True) as group:
            result = RealTrainer(
                LM.tiny(), world_size=2, steps=2, group=group
            ).train()
        assert len(result.losses) == 2
        assert result.trace is not None
        assert result.trace.computation_stall() >= 0.0

    def test_trainer_rejects_mismatched_group(self):
        with open_group(2) as group:
            with pytest.raises(ValueError, match="world_size"):
                RealTrainer(LM.tiny(), world_size=4, group=group)


class TestRunAPI:
    def test_strategy_aliases(self):
        assert real_strategy("embrace") == "embrace"
        assert real_strategy("Horovod-AllGather") == "allgather"
        with pytest.raises(ValueError, match="real-execution"):
            real_strategy("BytePS")
        assert sim_strategy("allreduce").name == "Horovod-AllReduce"
        with pytest.raises(ValueError, match="unknown strategy"):
            sim_strategy("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(model=GNMT8, mode="dream")
        with pytest.raises(ValueError):
            RunConfig(model=GNMT8, steps=0)

    def test_sim_and_real_share_the_result_protocol(self):
        cfg = RunConfig(model=GNMT8, mode="sim", strategy="embrace", world_size=4)
        sim = run(cfg)
        real = run(RunConfig(
            model=LM.tiny(), mode="real", strategy="EmbRace",
            world_size=2, steps=2, trace=True,
        ))
        for res in (sim, real):
            assert isinstance(res, RunResult)
            assert res.wall_time > 0.0
            assert res.strategy  # normalized, mode-appropriate spelling
            assert res.computation_stall() >= 0.0  # one code path, both modes
        assert sim.trace.resources() == ["comm", "compute"]
        assert "compute:0" in real.trace.resources()
        wire = [v for k, v in real.metrics.items()
                if k.startswith("counter.wire_bytes.")]
        assert wire and sum(wire) > 0.0

    def test_untraced_real_run_refuses_stall(self):
        res = run(RunConfig(model=LM.tiny(), mode="real", steps=1))
        assert res.trace is None
        with pytest.raises(ValueError, match="not traced"):
            res.computation_stall()

    def test_real_run_under_faults(self):
        plan = FaultPlan(seed=3, delay_prob=0.2, delay_s=0.001, recv_deadline=10.0)
        res = run(RunConfig(
            model=LM.tiny(), mode="real", steps=2, trace=True, faults=plan,
        ))
        assert len(res.raw.losses) == 2
        assert res.metrics.get("counter.faults.sent", 0.0) > 0.0
