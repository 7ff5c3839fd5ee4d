"""Fault injection over the real communication backend.

:class:`FaultyCommunicator` wraps any :class:`~repro.comm.Communicator`
(thread- or process-backed) and perturbs its primitive surface according
to a :class:`~repro.faults.plan.FaultPlan`:

* **drop** — a transmission attempt is discarded; the sender
  retransmits with exponential backoff (transient faults are survived
  invisibly) and raises a typed
  :class:`~repro.faults.errors.MessageLost` once the policy is
  exhausted (permanent faults never hang);
* **delay / reorder** — messages are handed to the link by a timer
  thread after an injected latency, so later traffic can overtake them;
  per-link sequence numbers and a receiver-side reorder buffer restore
  delivery order at a waiting cost, exactly like a reliable transport
  over an unreliable network;
* **straggler** — :meth:`FaultyCommunicator.straggler` stretches the
  wrapped compute block by the rank's slowdown factor;
* **crash** — :meth:`FaultyCommunicator.check_crash` raises
  :class:`~repro.faults.errors.RankCrashed` at the planned step.

All ranks of a group must wrap (or none): the envelope format is a
transport-level protocol.  Collectives need no changes — they are
implemented against ``send``/``recv``/``barrier`` and inherit the
injected behaviour, which is the point: EmbRace's AlltoAll schedule and
the baselines degrade under identical wire conditions.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.comm.backend import Communicator
from repro.comm.local import run_threaded
from repro.faults.errors import BarrierBroken, MessageLost, PeerTimeout, RankCrashed
from repro.faults.plan import FaultPlan
from repro.faults.retry import retry_with_backoff


class _TransientSendFault(Exception):
    """Internal: one transmission attempt was dropped (retryable)."""


@dataclass
class InjectionStats:
    """What the injector actually did on one rank (for reports/tests)."""

    sent: int = 0
    delayed: int = 0
    reordered: int = 0
    retransmits: int = 0
    lost: int = 0
    crash_fired: bool = False
    straggle_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(
            sent=self.sent,
            delayed=self.delayed,
            reordered=self.reordered,
            retransmits=self.retransmits,
            lost=self.lost,
            crash_fired=self.crash_fired,
            straggle_s=self.straggle_s,
        )


@dataclass
class _ReorderBuffer:
    """Receiver side of the sequenced link from one peer."""

    expected: int = 0
    stash: dict[int, Any] = field(default_factory=dict)


class FaultyCommunicator(Communicator):
    """A :class:`Communicator` with plan-driven faults injected."""

    #: Drops hold the payload for retransmission and delays hand it to a
    #: timer thread, so the injector can never promise synchronous byte
    #: capture — collectives must snapshot views before sending even when
    #: the wrapped transport could take them zero-copy.
    SEND_SNAPSHOTS = False

    def __init__(
        self,
        inner: Communicator,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(inner.rank, inner.world_size)
        self._inner = inner
        self.plan = plan
        self._sleep = sleep
        self._rng = plan.rng_for(inner.rank)
        self._send_seq = [0] * inner.world_size
        self._reorder = [_ReorderBuffer() for _ in range(inner.world_size)]
        self._timers: list[threading.Timer] = []
        self.stats = InjectionStats()

    # -- sender side ----------------------------------------------------- #
    def _sample_extra_latency(self) -> float:
        plan, extra = self.plan, 0.0
        if plan.delay_prob and self._rng.random() < plan.delay_prob:
            extra += self._rng.exponential(plan.delay_s) if plan.delay_s else 0.0
            self.stats.delayed += 1
        if plan.reorder_prob and self._rng.random() < plan.reorder_prob:
            extra += plan.reorder_s
            self.stats.reordered += 1
        return extra

    def _transmit(self, dst: int, envelope: tuple[int, Any]) -> None:
        """One transmission attempt: may be dropped, may be delayed."""
        if self.plan.drop_prob and self._rng.random() < self.plan.drop_prob:
            raise _TransientSendFault(dst)
        extra = self._sample_extra_latency()
        if extra > 0.0:
            timer = threading.Timer(extra, self._inner._send, args=(dst, envelope))
            timer.daemon = True
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)
            timer.start()
        else:
            self._inner._send(dst, envelope)

    def drain(self) -> None:
        """Block until every delayed (timer-thread) send has been handed
        to the wrapped transport.

        Call when this rank's work is done but peers may still be
        waiting: a worker that exits with a send still pending tears
        down its transport under the message (on the shared-memory
        backend the segment pool closes and the late send is dropped),
        turning an injected delay into an injected loss.
        """
        for timer in self._timers:
            timer.join()
        self._timers.clear()

    def _send(self, dst: int, obj: Any) -> None:
        envelope = (self._send_seq[dst], obj)
        self._send_seq[dst] += 1
        self.stats.sent += 1

        def _count_retry(attempt: int, exc: BaseException) -> None:
            self.stats.retransmits += 1
            self.obs.count("faults.retransmits_live")

        try:
            retry_with_backoff(
                lambda: self._transmit(dst, envelope),
                self.plan.retry,
                retryable=(_TransientSendFault,),
                sleep=self._sleep,
                on_retry=_count_retry,
            )
        except _TransientSendFault:
            self.stats.lost += 1
            raise MessageLost(
                f"rank {self.rank}: message #{envelope[0]} to rank {dst} lost "
                f"after {self.plan.retry.max_retries} retransmissions",
                rank=self.rank,
                op=f"send(dst={dst})",
            ) from None

    # -- receiver side --------------------------------------------------- #
    def _recv(self, src: int) -> Any:
        buf = self._reorder[src]
        while buf.expected not in buf.stash:
            try:
                seq, payload = self._inner._recv(src)
            except TimeoutError as exc:
                raise PeerTimeout(
                    str(exc), rank=self.rank, op=f"recv(src={src})"
                ) from exc
            buf.stash[seq] = payload
        value = buf.stash.pop(buf.expected)
        buf.expected += 1
        return value

    def barrier(self) -> None:
        try:
            self._inner.barrier()
        except threading.BrokenBarrierError as exc:
            raise BarrierBroken(
                f"rank {self.rank}: barrier broken (a peer crashed or timed out)",
                rank=self.rank,
                op="barrier",
            ) from exc

    # -- compute-side faults --------------------------------------------- #
    def check_crash(self, step: int) -> None:
        """Raise :class:`RankCrashed` if the plan schedules one here."""
        if self.plan.should_crash(self.rank, step):
            self.stats.crash_fired = True
            raise RankCrashed(
                f"rank {self.rank}: injected crash at step {step}",
                rank=self.rank,
                step=step,
            )

    @contextmanager
    def straggler(self):
        """Stretch the wrapped block by this rank's straggler factor.

        Measures the block's own wall time and sleeps the difference, so
        a factor of 2.0 makes the block take (approximately) twice as
        long regardless of what it computes.
        """
        factor = self.plan.straggler_factor(self.rank)
        start = time.perf_counter()
        yield
        if factor > 1.0:
            penalty = (factor - 1.0) * (time.perf_counter() - start)
            self.stats.straggle_s += penalty
            obs = self.obs
            if not obs.enabled:
                self._sleep(penalty)
                return
            # The stretch occupies the compute lane without doing model
            # work — kind "overhead" so computation_stall() counts it.
            t0 = obs.t()
            self._sleep(penalty)
            obs.rec("straggle", "compute", "overhead", t0)


def run_threaded_with_faults(
    world_size: int,
    fn: Callable[[FaultyCommunicator], Any],
    plan: FaultPlan,
    *args,
    timeout: float | None = None,
    **kwargs,
) -> list[Any]:
    """:func:`repro.comm.run_threaded` with every rank's communicator
    wrapped in a :class:`FaultyCommunicator` driven by ``plan``.

    The group timeout defaults to ``plan.recv_deadline`` so dead peers
    surface as typed :class:`PeerTimeout` errors within the deadline.
    """

    def wrapped(comm: Communicator, *a, **k):
        faulty = FaultyCommunicator(comm, plan)
        try:
            return fn(faulty, *a, **k)
        finally:
            faulty.drain()

    return run_threaded(
        world_size,
        wrapped,
        *args,
        timeout=plan.recv_deadline if timeout is None else timeout,
        **kwargs,
    )


def run_multiprocess_with_faults(
    world_size: int,
    fn: Callable[[FaultyCommunicator], Any],
    plan: FaultPlan,
    *args,
    **kwargs,
) -> list[Any]:
    """Process-backend twin of :func:`run_threaded_with_faults`: the
    injector wraps the same ``_send``/``_recv`` surface, so drops,
    retransmissions, and reordering behave identically on both."""
    from repro.comm.process import run_multiprocess

    return run_multiprocess(
        world_size,
        _FaultyEntrypoint(fn, plan),
        *args,
        timeout=plan.recv_deadline,
        **kwargs,
    )


class _FaultyEntrypoint:
    """Picklable wrapper installing the injector in each worker process."""

    def __init__(self, fn: Callable, plan: FaultPlan):
        self.fn = fn
        self.plan = plan

    def __call__(self, comm: Communicator, *args, **kwargs):
        faulty = FaultyCommunicator(comm, self.plan)
        try:
            return self.fn(faulty, *args, **kwargs)
        finally:
            # Deliver in-flight delayed sends before the worker reports
            # and tears down its transport — peers may still be reading.
            faulty.drain()
