"""Configuration for the online embedding service (picklable)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.utils.validation import check_in, check_positive


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.ShardedEmbeddingService` run needs.

    Instances cross the process boundary into persistent pool workers,
    so every field is a plain picklable value.  The same config drives
    :func:`~repro.serve.offline_reference`, which replays the training
    side single-process for bit-identity checks.

    ``interrupt_after`` is a test hook: after that many sequenced
    operations the rank-0 driver raises ``KeyboardInterrupt`` at its
    decision point, exercising the graceful-drain path
    deterministically (in-flight batches served, pending step
    committed, queue cancelled, clean stop on every rank).
    """

    # -- model ----------------------------------------------------------- #
    vocab: int = 2048
    dim: int = 32
    tables: tuple[str, ...] = ("embedding",)

    # -- cluster --------------------------------------------------------- #
    world_size: int = 2
    backend: str = "thread"
    #: ``None`` or ``"shm"``; validated, forwarded nowhere (the process
    #: backend has one wire).
    transport: str | None = None
    #: False, True, or a :class:`~repro.obs.TraceConfig` (e.g. to raise
    #: ``row_topk`` so a placement can be learned from the trace).
    trace: Any = False
    overlap: bool = True

    # -- hybrid placement ------------------------------------------------ #
    #: Anything :func:`repro.placement.as_placement` accepts; ``None``
    #: keeps uniform column sharding.  Hot rows are served from the
    #: local replica (no cross-rank lookup bytes) at the same seqlock
    #: version fence as cold rows.
    placement: Any = None
    #: Target hot fraction when the drift monitor re-learns the split
    #: (0.0 = keep each table's current hot-set size).
    hot_fraction: float = 0.0
    #: Re-learn + migrate the hot set every N committed steps (0 = off).
    repartition_interval: int = 0

    # -- serve load ------------------------------------------------------ #
    clients: int = 2
    requests_per_client: int = 50
    ids_per_request: int = 16
    zipf_exponent: float = 1.1

    # -- admission ------------------------------------------------------- #
    max_batch: int = 8
    max_delay_s: float = 0.002

    # -- online training ------------------------------------------------- #
    train_steps: int = 20
    train_batch: int = 64
    lr: float = 1e-2
    seed: int = 0

    # -- test hooks ------------------------------------------------------ #
    record_serve_results: bool = False
    interrupt_after: int | None = field(default=None)

    def __post_init__(self):
        check_positive("vocab", self.vocab)
        check_positive("dim", self.dim)
        check_positive("world_size", self.world_size)
        check_in("backend", self.backend, {"thread", "process"})
        check_in("transport", self.transport, {None, "shm"})
        check_positive("clients", self.clients)
        check_positive("requests_per_client", self.requests_per_client)
        check_positive("ids_per_request", self.ids_per_request)
        check_positive("zipf_exponent", self.zipf_exponent)
        check_positive("max_batch", self.max_batch)
        check_positive("max_delay_s", self.max_delay_s)
        check_positive("train_batch", self.train_batch)
        check_positive("lr", self.lr)
        if not self.tables:
            raise ValueError("tables must name at least one embedding table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError(f"duplicate table names: {self.tables}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be >= 0, got {self.train_steps}")
        if self.interrupt_after is not None and self.interrupt_after < 0:
            raise ValueError(
                f"interrupt_after must be >= 0, got {self.interrupt_after}"
            )
        if isinstance(self.hot_fraction, bool) or not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction!r}"
            )
        if isinstance(self.repartition_interval, bool) or (
            not isinstance(self.repartition_interval, int)
            or self.repartition_interval < 0
        ):
            raise ValueError(
                f"repartition_interval must be an int >= 0, got "
                f"{self.repartition_interval!r}"
            )

    @property
    def total_requests(self) -> int:
        return self.clients * self.requests_per_client
