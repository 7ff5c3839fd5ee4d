"""Discrete-event simulation core.

A training step is a DAG of :class:`Task` s (compute ops, communication
ops, scheduling calculations) executed on exclusive :class:`Resource`
streams — one compute stream and one communication stream per worker,
mirroring how CUDA streams and the NCCL channel serialize work in the
paper's prototype.  The communication resource dequeues ready tasks by
*priority*, which is exactly the mechanism the paper's FIFO-queue
(default) vs priority-queue (scheduled) comparison manipulates.
"""

from repro.sim.engine import Simulator
from repro.sim.task import Task, TaskGraph
from repro.sim.resources import Resource
from repro.sim.executor import execute
from repro.sim.trace import Trace, TraceEntry

__all__ = [
    "Simulator",
    "Task",
    "TaskGraph",
    "Resource",
    "execute",
    "Trace",
    "TraceEntry",
]
