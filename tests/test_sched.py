"""The priority-scheduled communication engine (repro.comm.sched).

Covers the scheduler's contract: priority order with FIFO ties,
caller-driven progress keeping every rank on one global execution
order, bit-identical inline (synchronous) mode, error propagation
through handles, failing fast on close and on nested waits, the
facade's symmetric-only surface, composition with the fault injector,
and the real trainer's overlap moving stall in the simulator's
direction.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.comm import (
    CommScheduler,
    SchedComm,
    SchedulerClosed,
    run_threaded,
)
from repro.engine.trainer_sim import make_context
from repro.faults import FaultPlan, run_threaded_with_faults
from repro.models import LM
from repro.strategies import ALL_STRATEGIES


class TestPriorityOrder:
    def test_priority_order_with_fifo_ties(self):
        """Waits pop (priority, submit-seq): lowest first, ties FIFO."""

        def worker(comm):
            sched = CommScheduler(comm)
            try:
                handles = [
                    sched.submit(
                        lambda c, i=i: c.rank * 100 + i,
                        priority=prio,
                        label=f"item{i}",
                    )
                    for i, prio in enumerate([5.0, 1.0, 3.0, 1.0, -1.0])
                ]
                results = [h.wait(30) for h in handles]
                sched.flush()
                return results, sched.executed_labels
            finally:
                sched.close()

        results, order = run_threaded(1, worker)[0]
        assert results == [0 + i for i in range(5)]
        assert order == ["item4", "item1", "item3", "item2", "item0"]


class TestGlobalOrder:
    def test_all_ranks_share_one_execution_order(self):
        """Same submits and waits on every rank: same pop order, even for
        collectives."""

        def worker(comm):
            sched = CommScheduler(comm)
            try:
                handles = [
                    sched.submit(
                        lambda c, i=i: c.allgather(c.rank * 10 + i),
                        priority=prio,
                        label=f"item{i}",
                    )
                    for i, prio in enumerate([5.0, 1.0, 3.0, -1.0])
                ]
                results = [h.wait(30) for h in handles]
                sched.flush()
                return results, sched.executed_labels
            finally:
                sched.close()

        outs = run_threaded(3, worker)
        want_order = ["item3", "item1", "item2", "item0"]
        for results, order in outs:
            assert order == want_order
            for i, res in enumerate(results):
                assert res == [0 + i, 10 + i, 20 + i]

    def test_allreduce_chunks_sums_across_ranks(self):
        def worker(comm):
            sched = CommScheduler(comm)
            try:
                flat = np.full(200_000, float(comm.rank + 1))
                handles = sched.allreduce_chunks(flat)
                assert len(handles) == 1
                for h in handles:
                    h.wait(30)
                return flat
            finally:
                sched.close()

        out = run_threaded(2, worker)
        for flat in out:
            assert np.array_equal(flat, np.full(200_000, 3.0))


class TestInlineMode:
    def test_inline_is_bit_identical_to_overlapped(self):
        def worker(comm, overlap):
            sched = CommScheduler(comm, overlap=overlap)
            try:
                rng = np.random.default_rng(comm.rank)
                flat = rng.normal(size=200_000)
                handles = sched.allreduce_chunks(flat)
                gathered = sched.submit(
                    lambda c: c.allgather(float(c.rank)), priority=-1.0
                ).wait(30)
                for h in handles:
                    h.wait(30)
                return flat, gathered
            finally:
                sched.close()

        overlapped = run_threaded(3, worker, True)
        inline = run_threaded(3, worker, False)
        for (f_o, g_o), (f_i, g_i) in zip(overlapped, inline):
            assert np.array_equal(f_o, f_i)
            assert g_o == g_i

    def test_inline_executes_in_submission_order(self):
        def worker(comm):
            sched = CommScheduler(comm, overlap=False)
            h = sched.submit(lambda c: "a", priority=100.0, label="late")
            assert h.done() and h.wait() == "a"  # ran inside submit
            sched.submit(lambda c: "b", priority=-100.0, label="early")
            sched.close()
            return sched.executed_labels

        assert run_threaded(1, worker)[0] == ["late", "early"]


class TestErrorHandling:
    def test_item_error_propagates_and_aborts(self):
        """Handles re-raise the *original* exception; the control surface
        (submit/flush) raises SchedulerClosed chained from it."""

        def worker(comm):
            sched = CommScheduler(comm)
            try:
                h = sched.submit(lambda c: 1 // 0, label="boom")
                with pytest.raises(ZeroDivisionError):
                    h.wait(30)
                with pytest.raises(SchedulerClosed) as exc:
                    sched.flush()
                assert isinstance(exc.value.__cause__, ZeroDivisionError)
                with pytest.raises(SchedulerClosed):
                    sched.submit(lambda c: None)
            finally:
                sched.close()
            return True

        assert run_threaded(1, worker)[0] is True

    def test_close_is_idempotent(self):
        def worker(comm):
            sched = CommScheduler(comm)
            sched.submit(lambda c: c.allgather(comm.rank)).wait(30)
            sched.close()
            sched.close()
            return True

        assert all(run_threaded(2, worker))

    def test_close_fails_queued_items_without_running_them(self):
        def worker(comm):
            sched = CommScheduler(comm)
            handles = [
                sched.submit(lambda c: c.allgather(c.rank), label=f"g{i}")
                for i in range(3)
            ]
            sched.close()
            for h in handles:
                assert h.done()
                with pytest.raises(SchedulerClosed):
                    h.wait(30)
            with pytest.raises(SchedulerClosed):
                sched.submit(lambda c: None)
            return sched.executed_labels

        assert run_threaded(2, worker) == [[], []]

    def test_wait_inside_a_running_item_raises(self):
        """A nested wait would run other items mid-collective: refused."""

        def worker(comm):
            sched = CommScheduler(comm)
            try:
                other = sched.submit(lambda c: "other", label="other")
                nested = sched.submit(
                    lambda c: other.wait(), priority=-1.0, label="nested"
                )
                with pytest.raises(RuntimeError, match="inside a running"):
                    nested.wait(30)
                with pytest.raises(RuntimeError, match="inside a running"):
                    other.wait(30)  # failed with the aborted engine
            finally:
                sched.close()
            return sched.executed_labels

        assert run_threaded(1, worker)[0] == []

    def test_a_rank_unwinding_before_its_wait_never_hangs_its_peer(self):
        """Rank 0 raises between submit and wait: its close starts no
        collective, and rank 1's wait ends in a typed error at the
        transport's receive deadline, with no thread left behind."""
        timeout = 0.5
        outcome = {}

        def worker(comm):
            sched = CommScheduler(comm)
            try:
                h = sched.submit(lambda c: c.allgather(c.rank), label="gather")
                if comm.rank == 0:
                    raise ValueError("rank 0 unwinds before its wait")
                t0 = time.monotonic()
                try:
                    h.wait(30)
                except Exception as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc
                outcome["elapsed"] = time.monotonic() - t0
            finally:
                sched.close()

        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="rank 0 failed") as exc:
            run_threaded(2, worker, timeout=timeout)
        assert isinstance(exc.value.__cause__, ValueError)
        assert isinstance(outcome["error"], TimeoutError)
        assert outcome["elapsed"] < 4 * timeout
        assert threading.active_count() == threads_before


class TestThreadedCallers:
    def test_one_executor_per_rank_under_contention(self):
        """Threads submitting and waiting on one scheduler: every item
        runs exactly once and never beside another (the executor lock),
        so an unguarded read-modify-write inside items loses nothing."""
        n_threads, per_thread = 6, 200
        state = {"n": 0, "running": 0, "overlapped": 0}

        def bump(comm):
            state["running"] += 1
            if state["running"] > 1:
                state["overlapped"] += 1
            n = state["n"]
            time.sleep(0)
            state["n"] = n + 1
            state["running"] -= 1
            return n

        def worker(comm):
            sched = CommScheduler(comm)
            errors = []

            def caller(i):
                try:
                    for j in range(per_thread):
                        sched.submit(bump, priority=float(j % 3), label=f"t{i}").wait(30)
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=caller, args=(i,)) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(old)
                sched.close()
            assert errors == []
            return len(sched.executed_labels)

        assert run_threaded(1, worker)[0] == n_threads * per_thread
        assert state["n"] == n_threads * per_thread
        assert state["overlapped"] == 0


class TestSchedCommFacade:
    def test_collectives_route_through_engine(self):
        def worker(comm):
            sched = CommScheduler(comm)
            try:
                coll = SchedComm(sched)
                gathered = coll.allgather(comm.rank)
                summed = coll.allreduce(np.full(10, float(comm.rank + 1)))
                root = coll.broadcast(comm.rank if comm.rank == 0 else None)
                coll.barrier()
                return gathered, summed, root
            finally:
                sched.close()

        for gathered, summed, root in run_threaded(2, worker):
            assert gathered == [0, 1]
            assert np.array_equal(summed, np.full(10, 3.0))
            assert root == 0

    def test_point_to_point_raises(self):
        def worker(comm):
            sched = CommScheduler(comm)
            try:
                coll = SchedComm(sched)
                with pytest.raises(RuntimeError):
                    coll.send(1 - comm.rank, "x")
                with pytest.raises(RuntimeError):
                    coll.recv(1 - comm.rank)
            finally:
                sched.close()
            return True

        assert all(run_threaded(2, worker))

    def test_byte_accounting_folds_into_base(self):
        def worker(comm):
            sched = CommScheduler(comm)
            try:
                coll = SchedComm(sched)
                coll.allgather(np.zeros(100))
                sched.flush()
            finally:
                sched.close()
            return comm.bytes_sent

        assert all(b > 0 for b in run_threaded(2, worker))


class TestFaultComposition:
    def test_scheduler_over_fault_injector(self):
        """Channels ride above the injector's sequence envelopes: drops
        are retransmitted and delays reordered before the demultiplexer
        sees anything."""
        plan = FaultPlan(
            seed=7, drop_prob=0.2, delay_prob=0.5, delay_s=0.002,
            reorder_prob=0.3, reorder_s=0.005, recv_deadline=20.0,
        )

        def worker(comm):
            sched = CommScheduler(comm)
            try:
                handles = [
                    sched.submit(
                        lambda c, i=i: c.allgather((c.rank, i)),
                        priority=float(-i),
                        label=f"g{i}",
                    )
                    for i in range(5)
                ]
                return [h.wait(30) for h in handles]
            finally:
                sched.close()

        outs = run_threaded_with_faults(3, worker, plan)
        for results in outs:
            for i, res in enumerate(results):
                assert res == [(0, i), (1, i), (2, i)]


# Module-level: dispatched to real worker processes by pickled reference.
def _scheduled_zero_copy_worker(comm):
    from repro.comm import alltoall_column_shards
    from repro.tensors import SparseRows

    def has_array(obj):
        if isinstance(obj, (np.ndarray, SparseRows)):
            return True
        if isinstance(obj, (tuple, list)):
            return any(has_array(x) for x in obj)
        return False

    # Count the transport's *copying* receives that carried an array, and
    # the ring's zero-copy reduce-and-send calls.
    copied = []
    owned_recv = comm._recv

    def counting_recv(src):
        obj = owned_recv(src)
        if has_array(obj):
            copied.append(src)
        return obj

    send_sums = []
    zero_copy_send_sum = comm.send_sum

    def counting_send_sum(dst, x, y):
        send_sums.append(dst)
        zero_copy_send_sum(dst, x, y)

    comm._recv = counting_recv
    comm.send_sum = counting_send_sum
    rng = np.random.default_rng(comm.rank)
    dense = rng.standard_normal(4096).astype(np.float32)
    grad = SparseRows(
        rng.integers(0, 64, size=40),
        rng.standard_normal((40, 8)).astype(np.float32),
        64,
    )
    peer = (comm.rank + 1) % comm.world_size

    def view_is_live(c):
        c.send(peer, dense)
        view = c.recv_view((c.rank - 1) % c.world_size)
        return not view.flags.owndata, float(view.sum())

    sched = CommScheduler(comm)
    try:
        reduced = sched.submit(lambda c: c.allreduce(dense), label="dense").wait(30)
        shard = sched.submit(
            lambda c: alltoall_column_shards(c, grad), label="sparse"
        ).wait(30)
        live, total = sched.submit(view_is_live, label="view").wait(30)
    finally:
        sched.close()
    return reduced, shard, live, total, copied, send_sums


class TestZeroCopyUnderScheduler:
    def test_scheduled_collectives_keep_the_zero_copy_hooks(self):
        """Under ``overlap=True`` items run on the shm transport itself:
        a scheduled allreduce or sparse AlltoAll reduces out of the
        sender's segment, never out of a receive-side copy, and the ring
        reduces straight into the outgoing segment (``send_sum``) — with
        results bit-identical to the inline collectives."""
        from repro.comm import alltoall_column_shards, open_group
        from repro.tensors import SparseRows

        def inline(comm):
            rng = np.random.default_rng(comm.rank)
            dense = rng.standard_normal(4096).astype(np.float32)
            grad = SparseRows(
                rng.integers(0, 64, size=40),
                rng.standard_normal((40, 8)).astype(np.float32),
                64,
            )
            return comm.allreduce(dense), alltoall_column_shards(comm, grad)

        world = 3
        reference = run_threaded(world, inline)
        with open_group(world, backend="process", timeout=30.0) as group:
            outs = group.run(_scheduled_zero_copy_worker)
        for rank, (reduced, shard, live, total, copied, send_sums) in enumerate(
            outs
        ):
            assert copied == []  # no payload went through the copying _recv
            assert send_sums  # the ring's zero-copy reduce ran
            assert live  # recv_view inside an item is a view of the segment
            left = np.random.default_rng((rank - 1) % world)
            assert total == float(left.standard_normal(4096).astype(np.float32).sum())
            assert np.array_equal(reduced, reference[rank][0])
            assert np.array_equal(shard.indices, reference[rank][1].indices)
            assert np.array_equal(shard.values, reference[rank][1].values)


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
