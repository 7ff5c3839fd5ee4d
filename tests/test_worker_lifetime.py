"""A process-group worker keeps nothing a finished call allocated.

Each worker returns its result on its own pipe, pickled once and written
by the worker's own thread, and drops every reference the call made
before it blocks for the next command.  A dead worker is seen through
its process sentinel the moment it exits.
"""

import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest

from repro.comm.process import ProcessGroup, run_multiprocess

#: In each worker: a weak reference to the object the last
#: ``_make_result`` call returned.
_last_result = None


class _Result:
    def __init__(self, rank: int, n: int):
        self.rank = rank
        self.data = np.full(n, float(rank))


def _make_result(comm, n):
    global _last_result
    out = _Result(comm.rank, n)
    _last_result = weakref.ref(out)
    return out


def _previous_result_alive(comm):
    gc.collect()
    return _last_result is not None and _last_result() is not None


def _thread_names(comm):
    return [t.name for t in threading.enumerate()]


def _exit_mid_run(comm):
    if comm.rank == 1:
        os._exit(3)
    return comm.recv(1)  # never arrives


class TestNothingOutlivesACall:
    def test_previous_result_is_freed_before_the_next_run(self):
        with ProcessGroup(2, timeout=30.0) as group:
            outs = group.run(_make_result, 200_000)
            assert [o.rank for o in outs] == [0, 1]
            np.testing.assert_array_equal(outs[1].data, np.full(200_000, 1.0))
            assert group.run(_previous_result_alive) == [False, False]

    def test_worker_runs_no_thread_between_calls(self):
        with ProcessGroup(2, timeout=30.0) as group:
            group.run(_make_result, 200_000)
            names = group.run(_thread_names)
        assert names == [["MainThread"], ["MainThread"]]

    def test_worker_exit_is_reported_by_rank_at_once(self):
        group = ProcessGroup(2, timeout=30.0)
        with group:
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match=r"ranks \[1\] died"):
                group.run(_exit_mid_run)
            assert time.monotonic() - t0 < 5.0  # the timeout is 30 s
            assert group.broken

    def test_one_shot_run_still_takes_a_closure(self):
        scale = 3.0
        outs = run_multiprocess(2, lambda comm: comm.rank * scale, timeout=30.0)
        assert outs == [0.0, 3.0]
