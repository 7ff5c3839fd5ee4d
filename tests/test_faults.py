"""Tests for the fault-injection & resilience subsystem (``repro.faults``)."""

import os
import time

import numpy as np
import pytest

from repro.faults import (
    CommFailure,
    FaultPlan,
    FaultyCommunicator,
    MessageLost,
    PeerTimeout,
    RankCrashed,
    RetryPolicy,
    apply_duration_hook,
    degraded_step_time,
    expand_with_faults,
    retry_with_backoff,
    run_threaded_with_faults,
)
from repro.sim import Task, TaskGraph, execute
from repro.sim.multirank import expand_to_ranks


class TestFaultPlan:
    def test_defaults_are_benign(self):
        plan = FaultPlan()
        assert plan.is_benign and not plan.perturbs_messages

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_prob": 1.5},
            {"delay_prob": -0.1},
            {"delay_s": -1.0},
            {"reorder_s": -0.5},
            {"recv_deadline": 0.0},
            {"stragglers": {-1: 2.0}},
            {"stragglers": {0: 0.0}},
            {"crashes": {0: -3}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=11,
            stragglers={2: 1.5},
            delay_prob=0.1,
            delay_s=0.01,
            drop_prob=0.05,
            reorder_prob=0.2,
            reorder_s=0.005,
            crashes={1: 7},
            recv_deadline=3.0,
            retry=RetryPolicy(max_retries=2, base_backoff=0.001),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = FaultPlan(seed=3, stragglers={0: 2.0}, crashes={1: 4})
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_compute_skew(self):
        plan = FaultPlan(stragglers={1: 1.5, 3: 2.0})
        assert plan.compute_skew(4) == [1.0, 1.5, 1.0, 2.0]

    def test_crash_disarming(self):
        plan = FaultPlan(crashes={0: 2, 1: 5})
        assert plan.should_crash(0, 2) and not plan.should_crash(0, 3)
        disarmed = plan.without_crashes_at_or_before(2)
        assert disarmed.crashes == {1: 5}
        assert plan.crashes == {0: 2, 1: 5}  # original untouched

    def test_rng_streams_deterministic_and_distinct(self):
        plan = FaultPlan(seed=9)
        a = plan.rng_for(0).random(4)
        np.testing.assert_array_equal(a, plan.rng_for(0).random(4))
        assert not np.array_equal(a, plan.rng_for(1).random(4))
        assert not np.array_equal(a, plan.rng_for(None).random(4))


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff=0.1, factor=2.0, max_backoff=0.3)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped

    def test_retry_succeeds_after_transients(self):
        sleeps, fails = [], [2]

        def flaky():
            if fails[0] > 0:
                fails[0] -= 1
                raise OSError("transient")
            return "ok"

        out = retry_with_backoff(
            flaky, RetryPolicy(max_retries=4, base_backoff=0.01), sleep=sleeps.append
        )
        assert out == "ok" and len(sleeps) == 2

    def test_retry_exhaustion_reraises(self):
        def always():
            raise OSError("permanent")

        with pytest.raises(OSError):
            retry_with_backoff(
                always,
                RetryPolicy(max_retries=2, base_backoff=0.0),
                sleep=lambda s: None,
            )


class TestFaultyCommunicator:
    def test_benign_plan_is_transparent(self):
        def fn(comm):
            return comm.allreduce(np.full(3, float(comm.rank))), comm.stats.as_dict()

        results = run_threaded_with_faults(3, fn, FaultPlan(recv_deadline=5.0))
        for data, stats in results:
            np.testing.assert_allclose(data, np.full(3, 3.0))
            assert stats["retransmits"] == stats["delayed"] == stats["lost"] == 0

    def test_collectives_survive_delay_and_drop(self):
        plan = FaultPlan(
            seed=2,
            delay_prob=0.5,
            delay_s=0.002,
            drop_prob=0.3,
            reorder_prob=0.3,
            reorder_s=0.002,
            recv_deadline=10.0,
            retry=RetryPolicy(max_retries=10, base_backoff=0.001, max_backoff=0.01),
        )

        def fn(comm):
            out = comm.allreduce(np.arange(4.0) * (comm.rank + 1))
            return out, comm.stats.retransmits

        results = run_threaded_with_faults(3, fn, plan)
        expected = np.arange(4.0) * 6
        for data, _ in results:
            np.testing.assert_allclose(data, expected)
        assert sum(r for _, r in results) > 0  # drops actually happened

    def test_reordered_messages_arrive_in_order(self):
        plan = FaultPlan(seed=4, reorder_prob=0.6, reorder_s=0.02, recv_deadline=5.0)

        def fn(comm):
            if comm.rank == 0:
                for i in range(8):
                    comm.send(1, i)
                return comm.stats.reordered
            return [comm.recv(0) for _ in range(8)]

        results = run_threaded_with_faults(2, fn, plan)
        assert results[1] == list(range(8))
        assert results[0] > 0  # some messages really were held back

    def test_permanent_drop_raises_message_lost(self):
        plan = FaultPlan(
            drop_prob=1.0,
            recv_deadline=1.0,
            retry=RetryPolicy(max_retries=2, base_backoff=0.001),
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send(1, "payload")
            else:
                comm.recv(0)
            return True

        with pytest.raises(RuntimeError) as excinfo:
            run_threaded_with_faults(2, fn, plan)
        assert isinstance(excinfo.value.__cause__, MessageLost)

    def test_dead_peer_raises_typed_timeout(self):
        plan = FaultPlan(recv_deadline=0.2)

        def fn(comm):
            if comm.rank == 0:
                return None  # never sends
            with pytest.raises(PeerTimeout, match="no message from rank 0"):
                comm.recv(0)
            return True

        assert run_threaded_with_faults(2, fn, plan)[1] is True

    def test_check_crash_fires_at_planned_step(self):
        plan = FaultPlan(crashes={1: 3}, recv_deadline=0.5)

        def fn(comm):
            for step in range(5):
                comm.check_crash(step)
            return True

        with pytest.raises(RuntimeError) as excinfo:
            run_threaded_with_faults(2, fn, plan)
        cause = excinfo.value.__cause__
        assert isinstance(cause, RankCrashed)
        assert cause.rank == 1 and cause.step == 3
        assert isinstance(cause, CommFailure)

    def test_straggler_stretches_block(self):
        from repro.comm.local import ThreadGroup

        plan = FaultPlan(stragglers={0: 3.0})
        comm = FaultyCommunicator(ThreadGroup(1).communicator(0), plan)
        start = time.perf_counter()
        with comm.straggler():
            time.sleep(0.05)
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.13  # ~3x the block, minus timer slack
        assert comm.stats.straggle_s > 0


def _step_graph() -> TaskGraph:
    """fwd -> collective -> upd, the minimal symmetric step shape."""
    g = TaskGraph()
    g.add(Task(name="fwd", duration=1.0, resource="compute"))
    g.add(Task(name="sync", duration=2.0, resource="comm", deps=("fwd",)))
    g.add(Task(name="upd", duration=0.5, resource="compute", deps=("sync",)))
    return g


class TestSimFaults:
    def test_benign_plan_matches_plain_expansion(self):
        graph = _step_graph()
        plain = execute(expand_to_ranks(graph, 4)).makespan
        faulty = execute(expand_with_faults(graph, 4, FaultPlan())).makespan
        assert faulty == pytest.approx(plain)

    def test_straggler_plan_matches_compute_skew(self):
        graph = _step_graph()
        plan = FaultPlan(stragglers={3: 2.0})
        via_plan = execute(expand_with_faults(graph, 4, plan)).makespan
        via_skew = execute(
            expand_to_ranks(graph, 4, compute_skew=[1.0, 1.0, 1.0, 2.0])
        ).makespan
        assert via_plan == pytest.approx(via_skew)

    def test_degradation_monotone_in_fault_level(self):
        graph = _step_graph()
        stragglers = [
            degraded_step_time(graph, 4, FaultPlan(stragglers={0: f}))
            for f in (1.0, 1.5, 2.0, 3.0)
        ]
        assert all(b >= a for a, b in zip(stragglers, stragglers[1:]))
        drops = [
            degraded_step_time(graph, 4, FaultPlan(seed=5, drop_prob=p))
            for p in (0.0, 0.2, 0.5)
        ]
        assert all(b >= a for a, b in zip(drops, drops[1:]))

    def test_same_plan_same_makespan(self):
        graph = _step_graph()
        plan = FaultPlan(seed=6, delay_prob=0.5, delay_s=0.3, drop_prob=0.2)
        assert degraded_step_time(graph, 4, plan) == degraded_step_time(
            graph, 4, plan
        )

    def test_apply_duration_hook_preserves_structure(self):
        graph = expand_to_ranks(_step_graph(), 3)
        doubled = apply_duration_hook(graph, lambda t: t.duration * 2.0)
        assert set(doubled.tasks) == set(graph.tasks)
        for name, task in graph.tasks.items():
            clone = doubled[name]
            assert clone.duration == pytest.approx(task.duration * 2.0)
            assert clone.deps == task.deps and clone.resource == task.resource
        assert execute(doubled).makespan == pytest.approx(
            2.0 * execute(graph).makespan
        )


class TestResilientTraining:
    """The acceptance criterion: crash -> restore -> bit-equal results."""

    @staticmethod
    def _trainers(strategy, tmp_path, crashes, steps=6):
        from repro.engine.trainer_real import RealTrainer
        from repro.models import GNMT8

        config = GNMT8.tiny()
        kwargs = dict(strategy=strategy, world_size=2, steps=steps, seed=5)
        clean = RealTrainer(config, **kwargs)
        plan = FaultPlan(seed=5, crashes=crashes, recv_deadline=2.0)
        resilient = RealTrainer(
            config,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            **kwargs,
        )
        return clean, resilient

    @pytest.mark.parametrize("strategy", ["allgather", "embrace"])
    def test_crash_recovery_is_bit_exact(self, strategy, tmp_path):
        clean, resilient = self._trainers(strategy, tmp_path, crashes={1: 5})
        expected = clean.train()
        out = resilient.train_resilient()
        assert out.report.attempts == 2
        assert out.report.crash_events == [(1, 5)]
        assert out.report.restore_steps == [4]  # checkpoint_every=2, crash at 5
        assert out.report.steps_replayed == 1
        assert out.result.losses == expected.losses
        for key in expected.state:
            np.testing.assert_array_equal(out.result.state[key], expected.state[key])

    def test_two_crashes_two_recoveries(self, tmp_path):
        clean, resilient = self._trainers(
            "allgather", tmp_path, crashes={0: 2, 1: 5}
        )
        expected = clean.train()
        out = resilient.train_resilient()
        assert out.report.attempts == 3
        assert out.report.crash_events == [(0, 2), (1, 5)]
        assert out.result.losses == expected.losses

    @pytest.mark.slow
    def test_crash_recovery_on_process_backend(self, tmp_path):
        """The acceptance path: restart attempts ride the trainer's own
        process-backed group — here one whose first pool lost a worker,
        so ``CommGroup.run`` replaced it — and recovery stays bit-exact."""
        from repro.comm import open_group
        from repro.engine.trainer_real import RealTrainer
        from repro.models import GNMT8

        config = GNMT8.tiny()
        kwargs = dict(strategy="allgather", world_size=2, steps=6, seed=5)
        expected = RealTrainer(config, **kwargs).train()
        plan = FaultPlan(seed=5, crashes={1: 5}, recv_deadline=5.0)
        with open_group(
            2, backend="process", timeout=plan.recv_deadline
        ) as group:
            with pytest.raises(RuntimeError, match="died"):
                group.run(_kill_rank_one)
            out = RealTrainer(
                config,
                fault_plan=plan,
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                group=group,
                **kwargs,
            ).train_resilient()
        assert out.report.attempts == 2
        assert out.report.crash_events == [(1, 5)]
        assert out.result.losses == expected.losses
        for key in expected.state:
            np.testing.assert_array_equal(
                out.result.state[key], expected.state[key]
            )

    def test_requires_checkpointing(self, tmp_path):
        _, resilient = self._trainers("allgather", tmp_path, crashes={})
        resilient.checkpoint_every = 0
        with pytest.raises(ValueError, match="checkpoint_every"):
            resilient.train_resilient()

    def test_permanent_failure_raises_comm_failure(self, tmp_path):
        from repro.engine.trainer_real import RealTrainer
        from repro.models import GNMT8

        plan = FaultPlan(
            drop_prob=1.0,
            recv_deadline=0.5,
            retry=RetryPolicy(max_retries=1, base_backoff=0.001),
        )
        trainer = RealTrainer(
            GNMT8.tiny(),
            strategy="allgather",
            world_size=2,
            steps=2,
            fault_plan=plan,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
            max_restarts=1,
        )
        with pytest.raises(CommFailure, match="giving up"):
            trainer.train_resilient()


def _kill_rank_one(comm):
    """A worker death no service loop can report (OOM kill, segfault)."""
    if comm.rank == 1:
        os._exit(3)


class TestCheckpointExtras:
    def test_extras_roundtrip(self, tmp_path):
        from repro.engine.checkpoint import (
            load_extras,
            peek_step,
            save_checkpoint,
        )
        from repro.models import GNMT8
        from repro.models.registry import build_model

        model = build_model(GNMT8.tiny(), rng=np.random.default_rng(0))
        path = str(tmp_path / "ckpt.npz")
        extras = {"loss_log": np.array([1.0, 0.5]), "flag": np.array(3)}
        save_checkpoint(path, model, step=7, extras=extras)
        assert peek_step(path) == 7
        loaded = load_extras(path)
        assert set(loaded) == {"loss_log", "flag"}
        np.testing.assert_array_equal(loaded["loss_log"], extras["loss_log"])
        assert int(loaded["flag"]) == 3
