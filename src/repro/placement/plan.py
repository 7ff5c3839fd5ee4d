"""Skew-aware hybrid placement: hot-row replication over cold column shards.

Zipfian embedding traffic concentrates most wire bytes on a handful of
rows (``TraceBundle.hot_rows``).  A :class:`TablePlacement` names that
*hot set* explicitly: hot rows are replicated on every rank and their
gradients travel on the dense AllReduce lane
(:func:`~repro.comm.sparse.allreduce_hot_rows` — a presence-masked
exchange that reproduces the rank-ordered AlltoAll sum bit for bit),
while the cold remainder stays column-sharded exactly as before.  A
:class:`PlacementPlan` collects one placement per table and is the value
the ``placement=`` kwarg of :class:`~repro.engine.run.RunConfig`,
:class:`~repro.engine.trainer_real.RealTrainer` and
:class:`~repro.serve.ShardedEmbeddingService` accepts.

Placement never changes arithmetic: every hot/cold routing decision
moves *where* bytes travel, and training losses are bit-identical at
any hot fraction (asserted in ``tests/test_placement.py``).  The split
is therefore a pure performance knob, learnable from a trace
(:meth:`PlacementPlan.from_trace`) or re-learned live by a
:class:`DriftMonitor` from the row counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

import numpy as np


def learn_hot_ids(counts: np.ndarray, n_hot: int) -> np.ndarray:
    """Top ``n_hot`` rows of an access-count array, as a sorted id set.

    Only rows actually accessed (count > 0) qualify; ties break toward
    the lower row id, so the result is a deterministic function of the
    counts — every rank learning from identical counters derives an
    identical hot set.
    """
    counts = np.asarray(counts)
    if n_hot <= 0:
        return np.empty(0, dtype=np.int64)
    nonzero = np.flatnonzero(counts)
    top = nonzero[np.lexsort((nonzero, -counts[nonzero]))][:n_hot]
    return np.sort(top).astype(np.int64)


@dataclass(frozen=True)
class TablePlacement:
    """Hot/cold split of one embedding table.

    ``hot_ids`` (sorted, unique, non-negative) are replicated on every
    rank; everything else is column-sharded.  The empty set is the
    uniform column sharding the repo has always used.
    """

    table: str
    hot_ids: tuple[int, ...] = ()

    def __post_init__(self):
        ids = np.asarray(self.hot_ids, dtype=np.int64)
        if ids.size:
            if ids.min() < 0:
                raise ValueError(f"{self.table}: negative hot row id")
            if not np.all(np.diff(ids) > 0):
                raise ValueError(
                    f"{self.table}: hot_ids must be sorted and unique"
                )

    @cached_property
    def hot_array(self) -> np.ndarray:
        """The hot set as a sorted int64 array (cached)."""
        return np.asarray(self.hot_ids, dtype=np.int64)

    @property
    def n_hot(self) -> int:
        return len(self.hot_ids)

    @property
    def is_uniform(self) -> bool:
        """True when this is plain uniform column sharding (no hot rows)."""
        return not self.hot_ids

    def hot_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``ids``: True where the id is hot."""
        ids = np.asarray(ids, dtype=np.int64)
        if not self.hot_ids:
            return np.zeros(len(ids), dtype=bool)
        return np.isin(ids, self.hot_array)

    def to_dict(self) -> dict:
        return {"table": self.table, "hot_ids": [int(i) for i in self.hot_ids]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "TablePlacement":
        return cls(table=d["table"], hot_ids=tuple(int(i) for i in d["hot_ids"]))


@runtime_checkable
class Placement(Protocol):
    """What every consumer of a ``placement=`` kwarg relies on.

    The protocol is intentionally tiny — resolve one table's hot/cold
    split, and say whether the whole plan is the uniform default — so
    alternative plan sources (static JSON, a live drift monitor, a
    hand-built dict) interoperate with the trainer, the serve stack and
    the tuner without subclassing.
    """

    def for_table(self, name: str) -> TablePlacement: ...

    @property
    def is_uniform(self) -> bool: ...


@dataclass(frozen=True)
class PlacementPlan:
    """One :class:`TablePlacement` per table; uniform for absent tables."""

    tables: tuple[TablePlacement, ...] = ()
    #: How the plan was derived (trace run / live counters), for reports.
    source: str = "manual"

    def __post_init__(self):
        names = [t.table for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table placements: {sorted(names)}")

    @cached_property
    def _by_name(self) -> dict[str, TablePlacement]:
        return {t.table: t for t in self.tables}

    def for_table(self, name: str) -> TablePlacement:
        """The table's placement; uniform column sharding if unnamed."""
        return self._by_name.get(name) or TablePlacement(table=name)

    @property
    def is_uniform(self) -> bool:
        return all(t.is_uniform for t in self.tables)

    def hot_counts(self) -> dict[str, int]:
        return {t.table: t.n_hot for t in self.tables}

    # -- construction --------------------------------------------------- #
    @classmethod
    def from_hot_ids(
        cls, hot_ids: Mapping[str, Iterable[int]], source: str = "manual"
    ) -> "PlacementPlan":
        """Build a plan from ``{table: hot row ids}`` (any iterable order)."""
        tables = tuple(
            TablePlacement(
                table=name,
                hot_ids=tuple(int(i) for i in np.unique(np.asarray(list(ids), dtype=np.int64))),
            )
            for name, ids in sorted(hot_ids.items())
        )
        return cls(tables=tables, source=source)

    @classmethod
    def from_trace(
        cls,
        bundle,
        hot_fraction: float = 0.01,
        vocab: int | Mapping[str, int] | None = None,
        tables: Iterable[str] | None = None,
    ) -> "PlacementPlan":
        """Learn the hot sets from a traced run's row counters.

        For each table with recorded row accesses, the hottest
        ``round(hot_fraction * vocab)`` rows become the hot set (via
        :meth:`~repro.obs.TraceBundle.row_cdf`).  ``vocab`` — an int or
        ``{table: int}`` — is the table size the fraction is taken of;
        when omitted, the largest row id the trace observed + 1 stands
        in (an underestimate for sparsely-touched tables, which only
        makes the learned hot set smaller, never wrong).

        Traces ship only each rank's top ``row_topk`` rows
        (:class:`~repro.obs.TraceConfig`), so a learning run should
        raise ``row_topk`` above the intended hot-set size; the hot set
        is silently clamped to the rows the trace actually carried.
        """
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction!r}")
        names = list(tables) if tables is not None else bundle.row_tables()
        placements = []
        for name in sorted(names):
            ids, counts, _cov = bundle.row_cdf(name)
            if isinstance(vocab, Mapping):
                basis = int(vocab.get(name, 0)) or (int(ids.max()) + 1 if ids.size else 0)
            elif vocab is not None:
                basis = int(vocab)
            else:
                basis = int(ids.max()) + 1 if ids.size else 0
            n_hot = int(round(hot_fraction * basis))
            hot = np.sort(ids[:n_hot])
            placements.append(
                TablePlacement(table=name, hot_ids=tuple(int(i) for i in hot))
            )
        return cls(tables=tuple(placements), source="trace")

    # -- (de)serialization ---------------------------------------------- #
    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "tables": [t.to_dict() for t in self.tables],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PlacementPlan":
        return cls(
            tables=tuple(TablePlacement.from_dict(t) for t in d.get("tables", [])),
            source=str(d.get("source", "manual")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlacementPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "PlacementPlan":
        with open(path) as f:
            return cls.from_json(f.read())

    def summary(self) -> str:
        if self.is_uniform:
            return "uniform column sharding (no hot rows)"
        parts = [f"{t.table}: {t.n_hot} hot rows" for t in self.tables]
        return f"hybrid placement [{self.source}] — " + ", ".join(parts)


def uniform_column_sharding() -> PlacementPlan:
    """Today's default: every table fully column-sharded, no hot rows."""
    return PlacementPlan(tables=(), source="uniform")


def as_placement(placement: Any) -> PlacementPlan:
    """Normalize a ``placement=`` argument to a :class:`PlacementPlan`.

    Accepts ``None`` (uniform), a plan, a ``{table: hot ids}`` mapping,
    or anything satisfying the :class:`Placement` protocol.
    """
    if placement is None:
        return uniform_column_sharding()
    if isinstance(placement, PlacementPlan):
        return placement
    if isinstance(placement, TablePlacement):
        return PlacementPlan(tables=(placement,))
    if isinstance(placement, Mapping):
        return PlacementPlan.from_hot_ids(placement)
    if isinstance(placement, Placement):
        return placement  # duck-typed plan source (protocol instance)
    raise TypeError(
        f"placement must be a PlacementPlan, TablePlacement, mapping or None; "
        f"got {type(placement).__name__}"
    )


@dataclass
class DriftMonitor:
    """Paces re-partitioning and re-learns hot sets from live counters.

    The trainer (and the serve driver) accumulate per-table row-access
    counters as the id streams flow; every ``repartition_interval``
    committed steps the monitor derives the new hot sets —
    ``round(hot_fraction * vocab)`` hottest rows per table, identical on
    every rank because the counters are identical — and the runtimes
    migrate (:meth:`~repro.engine.embrace_runtime.TableGroupRuntime.
    repartition`), bit-exact mid-training.
    """

    hot_fraction: float = 0.0
    repartition_interval: int = 0
    repartitions: int = field(default=0, init=False)

    def due(self, steps_done: int) -> bool:
        return (
            self.repartition_interval > 0
            and steps_done > 0
            and steps_done % self.repartition_interval == 0
        )

    def target_n_hot(self, vocab: int, current_n_hot: int = 0) -> int:
        """Hot-set size to aim for: the fraction knob, else keep size."""
        if self.hot_fraction > 0.0:
            return int(round(self.hot_fraction * vocab))
        return current_n_hot

    def learn(
        self, counts: Mapping[str, np.ndarray], vocab: Mapping[str, int],
        current: Mapping[str, int] | None = None,
    ) -> dict[str, np.ndarray]:
        """New hot sets from summed global counters (deterministic)."""
        current = current or {}
        out = {}
        for name, arr in counts.items():
            n_hot = self.target_n_hot(int(vocab[name]), int(current.get(name, 0)))
            out[name] = learn_hot_ids(arr, n_hot)
        self.repartitions += 1
        return out


__all__ = [
    "DriftMonitor",
    "Placement",
    "PlacementPlan",
    "TablePlacement",
    "as_placement",
    "learn_hot_ids",
    "uniform_column_sharding",
]
