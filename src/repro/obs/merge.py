"""Span shipping and rank-0 merge: per-rank payloads -> one Trace.

Each rank's :class:`~repro.obs.recorder.SpanRecorder` snapshots to a
frame-friendly payload (numpy timestamp columns + interned name table);
:func:`gather_spans` ships non-zero ranks' payloads to rank 0 **over the
group's own communicator** — i.e. the same framed zero-copy transport
the gradients used — and :func:`merge_payloads` rewrites each payload's
lanes to the simulator's per-rank schema (``compute:R``, ``comm:R``),
yielding a plain :class:`repro.sim.trace.Trace`.  From there every
existing metric (``computation_stall``, ``busy_time``, ``overlap_ratio``)
and the Chrome/Perfetto exporter apply unchanged: a real run and its
simulated twin are the same kind of object.

Clock alignment: recorders are rebased immediately after a group
barrier, so per-rank origins agree to within the barrier release skew
(microseconds for threads, sub-millisecond for processes) — far below
the millisecond-scale spans being compared.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

from repro.sim.trace import Trace, TraceEntry


def rank_resource(resource: str, rank: int) -> str:
    """The merged-lane name for ``resource`` on ``rank`` (multirank schema)."""
    return f"{resource}:{rank}"


def entries_from_payload(payload: dict) -> list[TraceEntry]:
    """Decode one rank's payload into rank-lane trace entries."""
    rank = int(payload["rank"])
    names = payload["names"]
    out = []
    for s, e, k in zip(payload["start"], payload["end"], payload["key"]):
        name, resource, kind = names[int(k)]
        out.append(
            TraceEntry(name, rank_resource(resource, rank), kind, float(s), float(e))
        )
    return out


@dataclass
class TraceBundle:
    """A merged real-run timeline plus its per-rank counters.

    ``trace`` is an ordinary simulator :class:`~repro.sim.trace.Trace`
    whose lanes follow the ``compute:R`` / ``comm:R`` convention;
    ``counters``/``dropped`` are keyed by rank.
    """

    trace: Trace
    counters: dict[int, dict[str, float]] = field(default_factory=dict)
    dropped: dict[int, int] = field(default_factory=dict)
    #: Per-rank hot-row summaries keyed ``rank -> table -> {ids, counts,
    #: total, rows_seen}`` (each rank ships only its top-k rows).
    row_counts: dict[int, dict[str, dict]] = field(default_factory=dict)

    @property
    def ranks(self) -> list[int]:
        return sorted(self.counters)

    def total_counters(self) -> dict[str, float]:
        """Counters summed across ranks."""
        out: dict[str, float] = {}
        for per_rank in self.counters.values():
            for name, value in per_rank.items():
                out[name] = out.get(name, 0.0) + value
        return out

    def row_tables(self) -> list[str]:
        """Tables with recorded row-access counts, sorted by name."""
        return sorted({t for per in self.row_counts.values() for t in per})

    def hot_rows(self, table: str, k: int = 10) -> list[tuple[int, int]]:
        """Top-``k`` hottest rows of ``table`` summed across ranks.

        Each rank ships only its own top-``row_topk`` rows, so counts
        for rows outside *every* rank's local top-k are missing — with
        Zipfian traffic the head rows are in every rank's summary, which
        is exactly the set hot/cold placement needs.  ``(row, count)``
        pairs, most accessed first.
        """
        merged: dict[int, int] = {}
        for per_rank in self.row_counts.values():
            summary = per_rank.get(table)
            if summary is None:
                continue
            for row, count in zip(summary["ids"], summary["counts"]):
                merged[int(row)] = merged.get(int(row), 0) + int(count)
        ranked = sorted(merged.items(), key=lambda rc: (-rc[1], rc[0]))
        return ranked[:k]

    def row_cdf(self, table: str) -> tuple["object", "object", "object"]:
        """Cumulative access-frequency curve of ``table``'s hottest rows.

        Returns ``(ids, counts, coverage)`` numpy arrays sorted by
        descending merged count (ties broken toward the lower row id):
        ``coverage[i]`` is the fraction of *all* recorded accesses
        (:meth:`row_access_total`, exact) that rows ``ids[:i+1]``
        account for.  This is the curve
        :meth:`repro.placement.PlacementPlan.from_trace` cuts at the
        requested hot fraction, and what
        ``examples/placement_study.py`` plots.  Rows outside every
        rank's ``row_topk`` summary are absent, so the curve covers only
        the head — exactly the region a hot set is drawn from.
        """
        import numpy as np  # local: keep module import-light

        ranked = self.hot_rows(table, k=10**9)  # every summarized row
        if not ranked:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        ids = np.array([r for r, _ in ranked], dtype=np.int64)
        counts = np.array([c for _, c in ranked], dtype=np.int64)
        total = self.row_access_total(table)
        coverage = np.cumsum(counts) / max(1, total)
        return ids, counts, coverage

    def wire_bytes_by_table(self) -> dict[str, float]:
        """Sparse wire bytes attributed to each table, summed over ranks.

        The collectives count every table's traffic under
        ``wire_bytes.table.<name>`` — the AlltoAll column shards *and*
        the replicated hot-row lane both attribute to the owning table,
        so a hybrid placement's dense hot traffic never vanishes from
        (or double-counts in) the per-table accounting.
        """
        prefix = "wire_bytes.table."
        out: dict[str, float] = {}
        for name, value in self.total_counters().items():
            if name.startswith(prefix):
                out[name[len(prefix):]] = value
        return out

    def row_access_total(self, table: str) -> int:
        """Total row accesses of ``table`` across ranks (exact: totals
        are accumulated rank-locally, not reconstructed from the top-k)."""
        return sum(
            int(per.get(table, {}).get("total", 0))
            for per in self.row_counts.values()
        )

    def computation_stall(self, rank: int = 0) -> float:
        """§5.4 stall for one rank — the simulator's exact code path."""
        return self.trace.computation_stall(rank_resource("compute", rank))

    def per_rank_stall(self) -> dict[int, float]:
        return {r: self.computation_stall(r) for r in self.ranks}

    def busy_time(self, resource: str, rank: int = 0) -> float:
        return self.trace.busy_time(rank_resource(resource, rank))


def merge_payloads(payloads: list[dict]) -> TraceBundle:
    """Merge per-rank recorder payloads into one multi-lane trace."""
    entries: list[TraceEntry] = []
    counters: dict[int, dict[str, float]] = {}
    dropped: dict[int, int] = {}
    row_counts: dict[int, dict[str, dict]] = {}
    for payload in payloads:
        rank = int(payload["rank"])
        entries.extend(entries_from_payload(payload))
        counters[rank] = dict(payload.get("counters", {}))
        dropped[rank] = int(payload.get("dropped", 0))
        row_counts[rank] = dict(payload.get("row_counts", {}))
    return TraceBundle(
        Trace(entries), counters=counters, dropped=dropped, row_counts=row_counts
    )


def install_recorder(comm, recorder) -> None:
    """Attach ``recorder`` to ``comm`` and every wrapped inner layer.

    Fault injection wraps communicators (``comm._inner``); instrumented
    code on *any* layer — the wrapper's collectives, the inner
    transport's segment waits — must reach the same ring buffer.
    """
    layer = comm
    while layer is not None:
        layer.obs = recorder
        layer = getattr(layer, "_inner", None)


def scrape_counters(comm, recorder) -> None:
    """Fold end-of-run transport/fault statistics into the counters.

    Walks the wrapper chain collecting each layer's
    ``transport_counters()`` (segment-pool hit rate, attachment counts)
    and any fault injector's :class:`~repro.faults.inject.InjectionStats`
    as ``faults.*`` counters, then folds in the sparse collectives'
    buffer-arena hit/miss/fallback counts (``arena.*``) and the rank
    process's peak resident set (``mem.peak_rss_bytes``, its
    ``ru_maxrss``).  Thread ranks share one process, so each of them
    reports that one process's peak.  Zero hot-path cost: everything
    here is already tracked by the transport, the arena and the kernel
    for their own purposes.
    """
    layer = comm
    while layer is not None:
        getter = getattr(layer, "transport_counters", None)
        if getter is not None:
            for name, value in getter().items():
                recorder.count(name, float(value))
        stats = getattr(layer, "stats", None)
        if stats is not None and hasattr(stats, "as_dict"):
            for name, value in stats.as_dict().items():
                recorder.count(f"faults.{name}", float(value))
        layer = getattr(layer, "_inner", None)
    from repro.comm.arena import arena_counters  # local: avoid cycle

    for name, value in arena_counters().items():
        recorder.count(name, float(value))
    # A peak, not a sum: a second scrape replaces the first.  Linux
    # reports ru_maxrss in KiB.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    recorder.take("mem.peak_rss_bytes")
    recorder.count("mem.peak_rss_bytes", float(maxrss * 1024))


def gather_spans(comm, recorder, finalize: bool = True) -> TraceBundle | None:
    """Ship every rank's spans to rank 0; merge there.

    Non-zero ranks ``send`` their payload to rank 0 through ``comm``
    itself — the existing frame transport moves the timestamp columns as
    raw buffers — and return ``None``; rank 0 receives in rank order and
    returns the merged :class:`TraceBundle`.  With ``finalize`` (the
    default), transport/fault counters are scraped into the payload
    first.
    """
    if finalize:
        scrape_counters(comm, recorder)
    payload = recorder.payload()
    if comm.rank != 0:
        comm.send(0, payload)
        return None
    payloads = [payload]
    for src in range(1, comm.world_size):
        payloads.append(comm.recv(src))
    return merge_payloads(payloads)
