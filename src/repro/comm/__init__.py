"""Real multi-worker communication backend (CPU, numpy).

This package actually *executes* the collective algorithms the paper's
prototype delegates to NCCL — ring AllReduce, AllGather, AlltoAll(v),
broadcast — over real concurrent workers, so EmbRace's communication
semantics (column-partitioned AlltoAll exchanges, prior/delayed
application, modified Adam) run end-to-end and can be checked for
bit-exactness against single-process training.

Two interchangeable backends expose the same :class:`Communicator` API:

* :class:`ThreadGroup` — N worker threads with queue links (fast; used
  by tests and the convergence experiments);
* :class:`ProcessGroup` — N forked processes over shared-memory
  segments (true parallelism; used by the examples).

:func:`open_group` is the preferred entry point: one context-manager
factory covering both backends plus fault injection (``faults=``) and
span tracing (``trace=``).

Collective algorithms are implemented once, against the primitive
``send``/``recv``/``barrier`` surface, in :mod:`primitives`.
"""

from repro.comm.arena import BufferArena, arena_counters, default_arena
from repro.comm.backend import Communicator, payload_nbytes, ring_chunk_bounds
from repro.comm.frames import decode_frames, encode_frames
from repro.comm.group import BACKENDS, CommGroup, open_group
from repro.comm.hierarchy import (
    two_level_allreduce,
    two_level_allreduce_hot_rows,
    two_level_alltoall_shards,
)
from repro.comm.local import ThreadGroup, run_threaded
from repro.comm.process import ProcessGroup, run_multiprocess
from repro.comm.sched import (
    PRIORITY_SERVE,
    PRIORITY_URGENT,
    CommHandle,
    CommScheduler,
    SchedComm,
    SchedKnobs,
    SchedulerClosed,
)
from repro.comm.sparse import (
    RowSetMismatch,
    allgather_sparse,
    allreduce_hot_rows,
    allreduce_sparse_adaptive,
    allreduce_sparse_via_allgather,
    alltoall_column_shards,
    alltoall_lookup_results,
    column_slices,
    ids_dtype,
    merge_grouped,
    narrow_ids,
    wide_ids,
)
from repro.comm.topology import (
    InterNodeMeter,
    NodeComms,
    NodeTopology,
    SubCommunicator,
    as_topology,
    node_comms,
)

__all__ = [
    "BACKENDS",
    "BufferArena",
    "arena_counters",
    "default_arena",
    "CommGroup",
    "open_group",
    "Communicator",
    "payload_nbytes",
    "ring_chunk_bounds",
    "encode_frames",
    "decode_frames",
    "ThreadGroup",
    "run_threaded",
    "ProcessGroup",
    "run_multiprocess",
    "CommScheduler",
    "CommHandle",
    "SchedComm",
    "SchedKnobs",
    "SchedulerClosed",
    "PRIORITY_SERVE",
    "PRIORITY_URGENT",
    "allgather_sparse",
    "allreduce_hot_rows",
    "allreduce_sparse_adaptive",
    "allreduce_sparse_via_allgather",
    "RowSetMismatch",
    "alltoall_column_shards",
    "alltoall_lookup_results",
    "column_slices",
    "ids_dtype",
    "merge_grouped",
    "narrow_ids",
    "wide_ids",
    "InterNodeMeter",
    "NodeComms",
    "NodeTopology",
    "SubCommunicator",
    "as_topology",
    "node_comms",
    "two_level_allreduce",
    "two_level_allreduce_hot_rows",
    "two_level_alltoall_shards",
]
