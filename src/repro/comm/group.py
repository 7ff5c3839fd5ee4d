"""One front door for every way of opening a communicator group.

Historically each capability had its own entry point: ``ThreadGroup`` /
``ProcessGroup`` constructors for the backends, ``run_*_with_faults``
helpers for injection, and (with :mod:`repro.obs`) per-call-site
recorder wiring for tracing.  :func:`open_group` collapses them into a
single context-manager factory::

    with open_group(4, backend="process", trace=True) as group:
        results = group.run(train_step)
        stall = group.last_trace.computation_stall()

``faults=`` takes a :class:`~repro.faults.plan.FaultPlan` and wraps each
rank's communicator in a :class:`~repro.faults.inject.FaultyCommunicator`
(drained before the rank reports); ``trace=`` takes ``True`` or a
:class:`~repro.obs.TraceConfig` and installs a per-rank
:class:`~repro.obs.SpanRecorder`, rebased after an opening barrier so
all ranks share a time origin.  Traced runs ship their spans to rank 0
over the group's own wire and the merged
:class:`~repro.obs.TraceBundle` lands on :attr:`CommGroup.last_trace`.

The ``run_threaded`` / ``run_multiprocess`` helpers remain as thin
single-shot conveniences.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.comm.local import ThreadGroup, run_threaded
from repro.comm.process import DEFAULT_TIMEOUT, ProcessGroup
from repro.obs.merge import TraceBundle, gather_spans, install_recorder, scrape_counters
from repro.obs.recorder import SpanRecorder, TraceConfig, as_trace_config
from repro.utils.validation import check_in, check_positive

#: Supported ``backend=`` values.
BACKENDS = ("thread", "process")

#: Default blocking-primitive timeout for the thread backend (the process
#: backend uses :data:`repro.comm.process.DEFAULT_TIMEOUT`).
THREAD_TIMEOUT = 60.0


class _GroupEntry:
    """Picklable per-rank wrapper applying faults + tracing around ``fn``.

    Returns ``(result, bundle)`` where ``bundle`` is the merged
    :class:`~repro.obs.TraceBundle` on rank 0 of a traced run and
    ``None`` everywhere else.
    """

    def __init__(
        self, fn: Callable, plan, trace: TraceConfig | None, topology=None
    ):
        self.fn = fn
        self.plan = plan
        self.trace = trace
        self.topology = topology

    def __call__(self, comm, *args, **kwargs):
        faulty = None
        if self.plan is not None:
            from repro.faults.inject import FaultyCommunicator

            comm = faulty = FaultyCommunicator(comm, self.plan)
        if self.topology is not None:
            # Advertised on the communicator the rank function sees, so
            # topology-aware consumers (RealTrainer, two_level_* calls)
            # can discover node structure without extra plumbing.
            comm.topology = self.topology
        recorder = None
        if self.trace is not None:
            recorder = SpanRecorder.from_config(comm.rank, self.trace)
            install_recorder(comm, recorder)
            # Shared time origin: everyone rebases right after release.
            comm.barrier()
            recorder.rebase()
        try:
            result = self.fn(comm, *args, **kwargs)
        finally:
            if faulty is not None:
                # Deliver in-flight delayed sends before reporting/teardown.
                faulty.drain()
        bundle = None
        if recorder is not None:
            scrape_counters(comm, recorder)
            # Ship over the innermost transport: the injector must not
            # drop or delay the trace frames themselves.
            base = comm
            while getattr(base, "_inner", None) is not None:
                base = base._inner
            bundle = gather_spans(base, recorder, finalize=False)
        return result, bundle


def _picklable(*objs: Any) -> bool:
    try:
        pickle.dumps(objs)
        return True
    except Exception:
        return False


class CommGroup:
    """A communicator group opened by :func:`open_group`.

    ``run(fn, *args, **kwargs)`` executes ``fn(comm, ...)`` on every
    rank and returns per-rank results in rank order — the same contract
    as :meth:`repro.comm.ProcessGroup.run` — with the configured fault
    injection and tracing applied transparently.  After a traced run,
    :attr:`last_trace` holds the merged :class:`~repro.obs.TraceBundle`.

    Process-backed groups keep a persistent worker pool: it is forked on
    the first :meth:`run` whose callable is picklable (closures fall
    back to one-shot forking, preserving the historical semantics) and
    released by :meth:`close` / context-manager exit.  A pool that lost
    a worker is replaced on the next :meth:`run`, so a caller that
    retries (:meth:`~repro.engine.RealTrainer.train_resilient`) keeps
    the same group.
    """

    def __init__(
        self,
        world_size: int,
        *,
        backend: str = "thread",
        transport: str | None = None,
        faults=None,
        timeout: float | None = None,
        trace=None,
        topology=None,
    ):
        check_positive("world_size", world_size)
        check_in("backend", backend, set(BACKENDS))
        from repro.comm.topology import as_topology

        topology = as_topology(topology)
        if topology is not None and topology.world_size != world_size:
            raise ValueError(
                f"topology covers {topology.world_size} ranks but "
                f"world_size is {world_size}"
            )
        # Validated and forwarded nowhere: the process backend has one wire.
        check_in("transport", transport, {None, "shm"})
        if timeout is None:
            if faults is not None:
                timeout = faults.recv_deadline
            else:
                timeout = THREAD_TIMEOUT if backend == "thread" else DEFAULT_TIMEOUT
        check_positive("timeout", timeout)
        self.world_size = world_size
        self.backend = backend
        self.faults = faults
        self.timeout = timeout
        self.topology = topology
        self.trace = as_trace_config(trace)
        #: Merged trace of the most recent traced ``run`` (rank 0 merge);
        #: ``None`` when tracing is off.
        self.last_trace: TraceBundle | None = None
        self._pgroup: ProcessGroup | None = (
            ProcessGroup(world_size, timeout=timeout)
            if backend == "process"
            else None
        )

    def __enter__(self) -> "CommGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the persistent worker pool (no-op for threads)."""
        if self._pgroup is not None:
            self._pgroup.close()

    def run(self, fn: Callable, *args, **kwargs) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; results in
        rank order."""
        entry = _GroupEntry(fn, self.faults, self.trace, self.topology)
        if self.backend == "thread":
            outs = run_threaded(
                self.world_size, entry, *args, timeout=self.timeout, **kwargs
            )
        else:
            if self._pgroup.broken:
                # A worker died during an earlier run (injected crash
                # escaping the service loop, OOM kill...).
                self._pgroup.close()
                self._pgroup = ProcessGroup(self.world_size, timeout=self.timeout)
            if not self._pgroup.started and _picklable(entry, args, kwargs):
                self._pgroup.start()
            outs = self._pgroup.run(entry, *args, **kwargs)
        self.last_trace = outs[0][1] if self.trace is not None else None
        return [result for result, _bundle in outs]


def open_group(
    world_size: int,
    *,
    backend: str = "thread",
    transport: str | None = None,
    faults=None,
    timeout: float | None = None,
    trace=None,
    topology=None,
) -> CommGroup:
    """Open a communicator group: the one factory for backends, fault
    injection, and tracing.

    Parameters
    ----------
    world_size:
        Number of ranks.
    backend:
        ``"thread"`` (deterministic, cheap — the test default) or
        ``"process"`` (real OS processes with the zero-copy wire).
    transport:
        ``None`` or ``"shm"``, the one process-backend wire; anything
        else raises ``ValueError``.  Selects nothing.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; every rank's
        communicator is wrapped in a fault injector driven by it.
    timeout:
        Blocking-primitive timeout.  Defaults to the fault plan's
        ``recv_deadline`` when injecting, else the backend's default.
    trace:
        ``True`` / :class:`~repro.obs.TraceConfig` to record per-rank
        span timelines; merged results appear on
        :attr:`CommGroup.last_trace` after each :meth:`CommGroup.run`.
    topology:
        Optional node structure: a
        :class:`~repro.comm.NodeTopology`, a ``to_dict`` payload, or a
        :class:`~repro.cluster.ClusterSpec` (coerced via
        :func:`~repro.comm.as_topology`).  Installed as
        ``comm.topology`` on every rank's communicator so the two-level
        collectives and the trainer can pick it up.
    """
    return CommGroup(
        world_size,
        backend=backend,
        transport=transport,
        faults=faults,
        timeout=timeout,
        trace=trace,
        topology=topology,
    )


__all__ = ["BACKENDS", "CommGroup", "open_group", "ProcessGroup", "ThreadGroup"]
