"""Exclusive resources with priority dequeueing.

A :class:`Resource` executes one task at a time.  Ready tasks wait in a
priority heap ordered by ``(priority, arrival_seq)`` — with uniform
priorities this degenerates to FIFO, which is exactly the paper's
"default scheduling" baseline; scheduling policies differentiate
themselves purely through the priorities they assign.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.sim.engine import Simulator
from repro.sim.task import Task


class Resource:
    """An exclusive execution stream (compute stream / NCCL channel)."""

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self._heap: list[tuple[float, int, Task, Callable[[Task, float, float], None]]] = []
        self._seq = 0
        self._busy = False
        self._dispatch_pending = False
        self.busy_time = 0.0

    def submit(self, task: Task, on_done: Callable[[Task, float, float], None]) -> None:
        """Queue a ready task; ``on_done(task, start, end)`` fires at completion.

        Dispatch is deferred by a zero-delay event so that every task
        becoming ready at the same simulated instant enters the priority
        heap *before* the resource picks its next task — the behaviour of
        a scheduler thread draining a priority queue.
        """
        if task.resource != self.name:
            raise ValueError(f"task {task.name} targets {task.resource}, not {self.name}")
        self._seq += 1
        heapq.heappush(self._heap, (task.priority, self._seq, task, on_done))
        self._schedule_dispatch()

    def _schedule_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True

        def dispatch() -> None:
            self._dispatch_pending = False
            self._maybe_start()

        self.sim.schedule(0.0, dispatch)

    def _maybe_start(self) -> None:
        if self._busy or not self._heap:
            return
        _, _, task, on_done = heapq.heappop(self._heap)
        self._busy = True
        start = self.sim.now
        self.busy_time += task.duration

        def finish() -> None:
            self._busy = False
            on_done(task, start, self.sim.now)
            self._schedule_dispatch()

        self.sim.schedule(task.duration, finish)
