"""Thread-based backend: N workers in one process.

Links are unbounded queues, so sends never block and arbitrary exchange
patterns (rings, alltoall cycles) cannot deadlock.  numpy releases the
GIL inside large kernels, so worker threads overlap genuinely for the
compute-heavy parts; more importantly this backend is deterministic and
cheap enough for the test suite.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from repro.comm.backend import Communicator
from repro.utils.validation import check_positive


class ThreadGroup:
    """Shared state of a thread-backed communicator group.

    ``timeout`` bounds every blocking receive/barrier so a dead or hung
    peer surfaces as an error instead of a deadlock (failure injection
    relies on this).
    """

    def __init__(self, world_size: int, timeout: float = 60.0):
        check_positive("world_size", world_size)
        check_positive("timeout", timeout)
        self.world_size = world_size
        self.timeout = timeout
        # links[src][dst]: messages in flight from src to dst.
        self.links = [
            [queue.Queue() for _ in range(world_size)] for _ in range(world_size)
        ]
        self._barrier = threading.Barrier(world_size)

    def communicator(self, rank: int) -> "ThreadCommunicator":
        return ThreadCommunicator(rank, self)


class ThreadCommunicator(Communicator):
    def __init__(self, rank: int, group: ThreadGroup):
        super().__init__(rank, group.world_size)
        self._group = group

    def _send(self, dst: int, obj: Any) -> None:
        self._group.links[self.rank][dst].put(obj)

    def _recv(self, src: int) -> Any:
        try:
            return self._group.links[src][self.rank].get(timeout=self._group.timeout)
        except queue.Empty:
            raise TimeoutError(
                f"rank {self.rank}: no message from rank {src} within "
                f"{self._group.timeout}s (peer dead or deadlocked?)"
            ) from None

    def barrier(self) -> None:
        obs = self.obs
        if not obs.enabled:
            self._group._barrier.wait(timeout=self._group.timeout)
            return
        t0 = obs.t()
        self._group._barrier.wait(timeout=self._group.timeout)
        obs.rec_phase("barrier", t0)


def run_threaded(
    world_size: int,
    fn: Callable[[Communicator], Any],
    *args,
    timeout: float = 60.0,
    **kwargs,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``world_size`` worker threads.

    Returns per-rank results in rank order.  A failure on any rank is
    re-raised in the caller (with all workers joined first).
    """
    group = ThreadGroup(world_size, timeout=timeout)
    results: list[Any] = [None] * world_size
    errors: list[tuple[int, BaseException]] = []

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(group.communicator(rank), *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append((rank, exc))
            group._barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"rank{r}", daemon=True)
        for r in range(world_size)
    ]
    for t in threads:
        t.start()
    # Every blocking primitive observes the group timeout, so a healthy
    # group finishes (or errors out) well inside a few multiples of it;
    # derive the join deadline from it instead of a hard-coded constant.
    join_budget = 5.0 * timeout
    deadline = time.monotonic() + join_budget
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    if errors:
        rank, exc = errors[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    alive = [t.name for t in threads if t.is_alive()]
    if alive:
        raise RuntimeError(
            f"worker threads still alive after {join_budget:.1f}s "
            f"(5x the {timeout}s group timeout): {', '.join(alive)} — "
            "refusing to return partial results"
        )
    return results
