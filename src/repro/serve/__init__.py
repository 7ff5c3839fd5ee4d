"""Online serving of column-sharded embedding tables (`repro.serve`).

EmbRace's evaluation is offline — train, then measure.  Production
embedding tables live a double life: the same sharded parameters that
training updates are simultaneously *read* by inference traffic.  This
package stands that workload up on the repo's real communication stack:

* a :class:`ShardedEmbeddingService` runs the column-sharded tables on
  the trainer's sparse runtime — one
  :class:`~repro.engine.embrace_runtime.TableGroupRuntime` for all of
  them — on a persistent :func:`~repro.comm.open_group` pool and serves
  batched row lookups *concurrently* with an online training loop
  driving :class:`~repro.optim.EmbraceAdam` updates;
* lookups ride the comm engine's priority queue at
  :data:`~repro.comm.PRIORITY_SERVE` — preempting queued training
  exchanges, never a facade collective compute is blocked on;
* an admission front end (:class:`AdmissionQueue`) coalesces requests
  per table under a max-batch / max-delay policy;
* one seqlock per group (:class:`VersionFence`) makes every read
  snapshot-consistent: a served batch reflects exactly one committed
  sharded-Adam step, never a half-applied one, and the batch's
  cross-rank shard blocks all carry the same version;
* the online loop is **bit-identical** to an offline replay of the same
  id streams (:func:`offline_reference`) — serving load changes
  latencies, not one bit of training arithmetic.

The rank-0 driver is a sequencer: it decides each operation (serve a
batch / start a step / commit / stop) and broadcasts it on the serve
lane; every rank executes the same op script, so the comm engine's SPMD
rule (the same submits and waits on every rank) holds with zero
cross-rank locks.
"""

from repro.serve.batching import AdmissionQueue
from repro.serve.config import ServeConfig
from repro.serve.online import SparseEmbeddingTask, build_tables, offline_reference
from repro.serve.requests import ClosedLoopClient, LookupRequest, ZipfRequestLoad
from repro.serve.service import ServeReport, ShardedEmbeddingService
from repro.serve.store import VersionedShardStore, VersionFence

__all__ = [
    "AdmissionQueue",
    "ClosedLoopClient",
    "LookupRequest",
    "ServeConfig",
    "ServeReport",
    "ShardedEmbeddingService",
    "SparseEmbeddingTask",
    "VersionFence",
    "VersionedShardStore",
    "ZipfRequestLoad",
    "build_tables",
    "offline_reference",
]
