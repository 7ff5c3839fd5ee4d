"""Robustness of the shm transport's control channel (real processes).

The channel is a pipe per destination rank written by the sending
thread itself, so the properties a ``multiprocessing.Queue`` gave for
free — unbounded buffering, a lock around every put, a feeder thread
that never blocks the caller — are now this module's to assert: a dead
or stuck peer is an error within ``timeout`` and leaves ``/dev/shm``
clean, a full channel slows an exchange down but cannot deadlock it,
stale records of a failed run are dropped and their segments recycled —
also when a late send of that run is what reads the inbox — concurrent
writers never interleave records or keep a receiver from the inbox, and
anything larger than one atomic write spills into the message's segment.

Every group here carries a short ``timeout=`` so a regression fails in
seconds, not at the 120 s default.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.comm import open_group
from repro.comm.process import RECORD_MAX, run_multiprocess
from repro.comm.shm import SEGMENT_PREFIX

TIMEOUT = 1.5


def _segments() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)}


@pytest.fixture
def clean_exit():
    """No shm segment and no child process may outlive the test."""
    before = _segments()
    yield
    assert _segments() - before == set()
    assert mp.active_children() == []


# --------------------------------------------------------------------- #
# dead / stuck peers
# --------------------------------------------------------------------- #
def die_after_one_message(comm):
    if comm.rank == 1:
        comm.send(0, np.arange(4.0))
        os._exit(3)  # no teardown: the segment above is left behind
    first = comm.recv(1)
    comm.recv(1)  # never arrives
    return first


def flood_a_peer_that_never_reads(comm):
    if comm.rank == 1:
        time.sleep(TIMEOUT + 1.0)  # outlive the sender's deadline
        return 0
    sent = 0
    while True:  # ends in TimeoutError once rank 1's inbox is full
        comm.send(1, np.full(4, float(sent)))
        sent += 1


def test_dead_peer_on_receive(clean_exit):
    t0 = time.monotonic()
    with open_group(2, backend="process", timeout=TIMEOUT) as group:
        with pytest.raises(RuntimeError, match="died|TimeoutError"):
            group.run(die_after_one_message)
    assert time.monotonic() - t0 < 4 * TIMEOUT


def test_stuck_peer_on_send_times_out(clean_exit):
    t0 = time.monotonic()
    with open_group(2, backend="process", timeout=TIMEOUT) as group:
        with pytest.raises(RuntimeError, match="control channel stayed full"):
            group.run(flood_a_peer_that_never_reads)
    assert time.monotonic() - t0 < 4 * TIMEOUT


def exit_early_or_flood(comm):
    if comm.rank == 0:
        flood_a_peer_that_never_reads(comm)


def test_dead_peer_on_send_one_shot(clean_exit):
    """One-shot workers exit when their function returns: rank 1 is gone
    while rank 0 still writes to its inbox."""
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 0 failed: TimeoutError"):
        run_multiprocess(2, exit_early_or_flood, timeout=TIMEOUT)
    assert time.monotonic() - t0 < 4 * TIMEOUT


# --------------------------------------------------------------------- #
# back-pressure
# --------------------------------------------------------------------- #
BURST = 4000  # x ~25 B a record x 2 senders: several times a 64 KiB pipe


def all_send_then_all_receive(comm):
    peers = [r for r in range(comm.world_size) if r != comm.rank]
    # Bare records only: a send that needs a fresh segment drains the
    # inbox first (for acks), which would keep the pipes from filling.
    for i in range(BURST):
        for dst in peers:
            comm.send(dst, i)
    for dst in peers:
        comm.send(dst, np.full(3, float(comm.rank)))
    for src in peers:
        for i in range(BURST):
            assert comm.recv(src) == i
        assert np.array_equal(comm.recv(src), np.full(3, float(src)))
    return comm.transport_counters()


def test_backpressure_cannot_deadlock(clean_exit):
    with open_group(3, backend="process", timeout=20.0) as group:
        counters = group.run(all_send_then_all_receive)
    # The burst really did overrun the channel somewhere.
    assert sum(c["ctrl.backpressure_waits"] for c in counters) > 0
    assert all(c["ctrl.records"] > 2 * BURST for c in counters)


# --------------------------------------------------------------------- #
# stale epochs
# --------------------------------------------------------------------- #
def leave_a_message_behind(comm):
    if comm.rank == 0:
        comm.send(1, np.full(8, -1.0))  # rank 1 never receives this
        return None
    raise ValueError("run aborted before the receive")


def next_run_sees_only_its_own(comm):
    if comm.rank == 0:
        comm.send(1, np.full(8, 7.0))
        comm.recv(1)  # reading the inbox also collects both acks
        comm.send(1, np.zeros(8))
        comm.send(1, np.zeros(8))
        return comm.transport_counters()
    got = comm.recv(0)  # the stale record sits in front of this one
    comm.send(0, 0)
    comm.recv(0)
    comm.recv(0)
    return got


def test_stale_epoch_dropped_and_segment_recycled(clean_exit):
    with open_group(2, backend="process", timeout=TIMEOUT) as group:
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            group.run(leave_a_message_behind)
        counters, got = group.run(next_run_sees_only_its_own)
    assert np.array_equal(got, np.full(8, 7.0))
    # Two segments ever: the stale one came back, so the last two sends
    # both recycled instead of allocating a third.
    assert counters["segpool.segments"] == 2
    assert counters["segpool.misses"] == 2
    assert counters["segpool.hits"] == 2


_KEPT: dict = {}  # per-worker state surviving across run() dispatches


def keep_the_communicator(comm):
    _KEPT["comm"] = comm
    return None


def late_send_of_the_previous_run(comm):
    """What a FaultPlan delay timer of run N does when it fires in run
    N+1: ``_send`` on run N's communicator.  With no free segment that
    send reads this rank's inbox — and must file what it finds by the
    worker's current epoch, not by its own."""
    old = _KEPT.pop("comm")
    if comm.rank == 1:
        comm.send(0, np.arange(4))
        comm.barrier()  # the record above now sits in rank 0's inbox
        return comm.recv(0)  # the late send (stale) arrives first
    comm.barrier()
    old._send(1, np.zeros(1 << 19))  # 4 MiB: nothing pooled fits
    got = comm.recv(1)
    comm.send(1, "current")
    with pytest.raises(RuntimeError, match="run 2 has started"):
        old._recv(1)  # an old communicator must not consume run 2's stash
    return got


def test_late_send_of_previous_run_keeps_current_messages(clean_exit):
    with open_group(2, backend="process", timeout=TIMEOUT) as group:
        group.run(keep_the_communicator)
        got, reply = group.run(late_send_of_the_previous_run)
    assert np.array_equal(got, np.arange(4))
    assert reply == "current"


# --------------------------------------------------------------------- #
# concurrent writers
# --------------------------------------------------------------------- #
def receive_beside_a_blocked_sender(comm):
    """Rank 0's second thread is stuck writing to rank 1 (who never
    reads); rank 0's caller must still receive from rank 2 at once, not
    after the stuck thread gives up."""
    if comm.rank == 1:
        time.sleep(SLOW_TIMEOUT + 1.0)
        return None
    if comm.rank == 2:
        comm.recv(0)
        comm.send(0, np.arange(3.0))
        return None
    outcome = []

    def flood():
        try:
            flood_a_peer_that_never_reads(comm)
        except TimeoutError as exc:
            outcome.append(exc)

    sender = threading.Thread(target=flood)
    sender.start()
    while not comm.transport_counters()["ctrl.backpressure_waits"]:
        time.sleep(0.01)
    comm.send(2, "go")
    t0 = time.monotonic()
    got = comm.recv(2)
    waited = time.monotonic() - t0
    sender.join(2 * SLOW_TIMEOUT)
    return got, waited, len(outcome)


SLOW_TIMEOUT = 3.0


def test_blocked_sender_thread_does_not_stall_receives(clean_exit):
    with open_group(3, backend="process", timeout=SLOW_TIMEOUT) as group:
        got, waited, timed_out = group.run(receive_beside_a_blocked_sender)[0]
    assert np.array_equal(got, np.arange(3.0))
    assert waited < SLOW_TIMEOUT / 2
    assert timed_out == 1


STREAM = 1500


def two_threads_one_destination(comm):
    """A second thread of rank 0 — what a FaultPlan delay timer is —
    sends to rank 1 while the caller does; ``_send`` is the surface the
    injector's timers call."""
    if comm.rank == 0:
        def stream(tag):
            for i in range(STREAM):
                comm._send(1, (tag, i, {"a": np.full(5, float(i)), "b": np.arange(i % 7)}))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            timer = threading.Thread(target=stream, args=("timer",))
            timer.start()
            stream("caller")
            timer.join(60)
            assert not timer.is_alive()
        finally:
            sys.setswitchinterval(old)
        return None
    seen = {"timer": 0, "caller": 0}
    for _ in range(2 * STREAM):
        tag, i, payload = comm.recv(0)
        assert i == seen[tag]  # per-thread order
        assert np.array_equal(payload["a"], np.full(5, float(i)))
        assert np.array_equal(payload["b"], np.arange(i % 7))
        seen[tag] += 1
    return seen


def test_two_threads_write_intact_records_in_order(clean_exit):
    with open_group(2, backend="process", timeout=20.0) as group:
        seen = group.run(two_threads_one_destination)[1]
    assert seen == {"timer": STREAM, "caller": STREAM}


# --------------------------------------------------------------------- #
# spills
# --------------------------------------------------------------------- #
def oversized_records(comm):
    many = [np.full(2, float(i), dtype=np.float32) for i in range(400)]
    blob = {"text": "x" * (3 * RECORD_MAX), "raw": bytes(range(256)) * 64}
    mixed = (np.arange(6).reshape(2, 3), blob)
    peer = 1 - comm.rank
    out = []
    for payload in (many, blob, mixed):
        if comm.rank == 0:
            comm.send(peer, payload)
            out.append(comm.recv(peer))
        else:
            out.append(comm.recv(peer))
            comm.send(peer, out[-1])
    ok = (
        all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(out[0], many))
        and len(out[0]) == len(many)
        and out[1] == blob
        and np.array_equal(out[2][0], mixed[0])
        and out[2][1] == blob
    )
    return ok, comm.transport_counters()


def test_oversized_template_and_object_spill(clean_exit):
    with open_group(2, backend="process", timeout=TIMEOUT) as group:
        results = group.run(oversized_records)
    for ok, counters in results:
        assert ok
        assert counters["ctrl.spills"] == 3
        assert counters["ctrl.backpressure_waits"] == 0
