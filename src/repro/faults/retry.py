"""Retry with exponential backoff.

The transport layer of :class:`~repro.faults.inject.FaultyCommunicator`
retransmits dropped messages under a :class:`RetryPolicy`; the same
policy shapes the retransmission penalty the simulator charges to
collectives (:mod:`repro.faults.simfaults`), so the two execution paths
degrade under one model.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.utils.validation import check_non_negative, check_positive

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: attempt ``k`` (0-based) sleeps
    ``min(base_backoff * factor**k, max_backoff)`` before retrying; after
    ``max_retries`` failed retries the operation fails permanently."""

    max_retries: int = 4
    base_backoff: float = 0.01
    factor: float = 2.0
    max_backoff: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("max_retries", self.max_retries)
        check_non_negative("base_backoff", self.base_backoff)
        check_positive("factor", self.factor)
        check_positive("max_backoff", self.max_backoff)

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        check_non_negative("attempt", attempt)
        return min(self.base_backoff * self.factor**attempt, self.max_backoff)


def retry_with_backoff(
    fn: Callable[[], T],
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (OSError, TimeoutError),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Call ``fn`` until it succeeds or the policy is exhausted.

    Only exceptions listed in ``retryable`` are retried; the last one is
    re-raised once ``policy.max_retries`` retries have been consumed.
    ``on_retry(attempt, exc)`` is invoked before each backoff sleep.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except retryable as exc:
            if attempt >= policy.max_retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(policy.backoff(attempt))
            attempt += 1
