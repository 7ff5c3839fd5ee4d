"""Fit alpha-beta cost-model parameters from measured probe traces.

The simulator prices every collective with the paper's uniform
``(B, beta)`` link model (Table 2 via :class:`repro.collectives.CostModel`),
whose constants were hand-calibrated to the paper's testbed.  This
module replaces those constants with *measured* ones: it runs multi-size
AllReduce probes through :func:`repro.comm.open_group` with tracing on,
reads the collective spans back out of the merged
:class:`~repro.obs.TraceBundle`, and least-squares fits the ring
AllReduce time model

.. math::

    T(s) = 2(N-1)\\,\\big(\\tfrac{s}{N B} + \\beta\\big)
         = \\underbrace{2(N-1)\\beta}_{a}
           + \\underbrace{\\tfrac{2(N-1)}{N B}}_{b}\\; s

so the intercept/slope of the linear fit recover the per-hop latency
``beta = a / (2(N-1))`` and bandwidth ``B = 2(N-1) / (N b)``.  One
:class:`LinkFit` is produced per probed link; a :class:`TunedProfile`
bundles them with the tuned scheduler knobs and round-trips to JSON so a
probe run on one day configures training runs on another.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.sched import SchedKnobs
from repro.utils.validation import check_in

if TYPE_CHECKING:  # pragma: no cover
    from repro.collectives.cost import CostModel
    from repro.cluster.topology import ClusterSpec

#: Payload sizes (bytes) probed by default: spans the latency-dominated
#: and bandwidth-dominated regimes so the linear fit is well-conditioned.
PROBE_SIZES_BYTES = (16_384, 65_536, 262_144, 1_048_576, 4_194_304)

#: Short probe ladder for CI smoke runs (``repro tune --smoke``).  The top
#: size must be bandwidth-bound: under 1 MiB a few threads' wake-up jitter
#: outweighs the copy and the fitted slope comes out negative on a busy box.
SMOKE_SIZES_BYTES = (4_096, 262_144, 4_194_304)

#: Probe AllReduce repetitions per size (first is discarded as warmup).
DEFAULT_PROBE_ITERS = 5

_SCHEMA_VERSION = 1

#: What a :class:`LinkFit` may be labelled: the process wire, the thread
#: backend, and the two levels of :func:`probe_two_level`.
LINK_LABELS = ("shm", "thread", "intra", "inter")


@dataclass(frozen=True)
class ProbeSample:
    """Median measured seconds for one AllReduce payload size."""

    nbytes: int
    seconds: float


@dataclass(frozen=True)
class LinkFit:
    """Fitted alpha-beta parameters for one link.

    ``latency_s`` is the per-hop start latency (the paper's beta) and
    ``bandwidth_Bps`` the per-hop sustained bandwidth (the paper's B),
    both *as seen through the ring AllReduce* on ``world_size`` ranks.
    ``residual`` is the mean relative error of the fit over its samples
    — a diagnostic for how linear the measured link actually is.
    ``transport`` is the link's label, one of :data:`LINK_LABELS`.
    """

    transport: str
    world_size: int
    latency_s: float
    bandwidth_Bps: float
    residual: float
    samples: tuple[ProbeSample, ...] = ()

    def predict_allreduce_s(self, nbytes: float) -> float:
        """Model time for a ring AllReduce of ``nbytes`` on this link."""
        n = self.world_size
        steps = 2 * (n - 1)
        return steps * (nbytes / (n * self.bandwidth_Bps) + self.latency_s)


def fit_alpha_beta(samples: list[ProbeSample] | list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares line ``T = a + b*s`` through ``(nbytes, seconds)``.

    Returns ``(a, b)`` with the intercept clamped at 0 (a negative
    measured intercept means latency is below the noise floor, not
    negative).  Raises :class:`ValueError` on degenerate input: fewer
    than two distinct sizes, non-finite times, or a non-positive slope
    (which would imply infinite or negative bandwidth).
    """
    pts = [
        (s.nbytes, s.seconds) if isinstance(s, ProbeSample) else (s[0], s[1])
        for s in samples
    ]
    if len({p[0] for p in pts}) < 2:
        raise ValueError(f"need >= 2 distinct probe sizes, got {pts!r}")
    sizes = np.array([p[0] for p in pts], dtype=np.float64)
    times = np.array([p[1] for p in pts], dtype=np.float64)
    if not (np.isfinite(sizes).all() and np.isfinite(times).all()):
        raise ValueError("probe samples contain non-finite values")
    if (times <= 0).any():
        raise ValueError("probe times must be positive")
    b, a = np.polyfit(sizes, times, 1)
    if not (math.isfinite(a) and math.isfinite(b)) or b <= 0:
        raise ValueError(
            f"degenerate alpha-beta fit (intercept={a!r}, slope={b!r}); "
            "probe sizes too close together or timings too noisy"
        )
    return max(0.0, float(a)), float(b)


def link_fit_from_samples(
    label: str, world_size: int, samples: list[ProbeSample]
) -> LinkFit:
    """Turn raw probe samples into a :class:`LinkFit` via the ring model."""
    if world_size < 2:
        raise ValueError("alpha-beta fitting needs world_size >= 2")
    a, b = fit_alpha_beta(samples)
    steps = 2 * (world_size - 1)
    latency = a / steps
    bandwidth = steps / (world_size * b)
    preds = [a + b * s.nbytes for s in samples]
    residual = float(
        np.mean([abs(p - s.seconds) / s.seconds for p, s in zip(preds, samples)])
    )
    return LinkFit(
        transport=label,
        world_size=world_size,
        latency_s=latency,
        bandwidth_Bps=bandwidth,
        residual=residual,
        samples=tuple(samples),
    )


# --------------------------------------------------------------------- #
# Probing
# --------------------------------------------------------------------- #
def _probe_rank(comm, n_elems: int, iters: int) -> int:
    """Per-rank probe body: ``iters`` AllReduces of ``n_elems`` float32.

    Module-level (not a closure) so the process backend can pickle it.
    """
    buf = np.full(n_elems, float(comm.rank + 1), dtype=np.float32)
    out = np.empty_like(buf)
    comm.barrier()
    for _ in range(iters):
        comm.allreduce(buf, out=out)
    return n_elems


def _probe_level_rank(comm, level: str, n_elems: int, iters: int) -> int:
    """Per-rank two-level probe body: AllReduces on one sub-communicator.

    ``level="intra"`` probes this rank's node subgroup; ``level="inter"``
    probes the leader ring (non-leaders return after the opening
    barrier).  The topology arrives on ``comm.topology`` — installed by
    ``open_group(..., topology=...)`` — so the function stays picklable
    for the process backend.
    """
    from repro.comm.topology import node_comms

    topology = comm.topology
    nc = node_comms(comm, topology)
    comm.barrier()
    sub = nc.intra if level == "intra" else nc.inter
    if sub is None or sub.world_size < 2:
        return 0
    buf = np.full(n_elems, float(comm.rank + 1), dtype=np.float32)
    out = np.empty_like(buf)
    sub.barrier()
    for _ in range(iters):
        sub.allreduce(buf, out=out)
    return n_elems


def probe_two_level(
    topology,
    *,
    backend: str = "thread",
    sizes_bytes: tuple[int, ...] = PROBE_SIZES_BYTES,
    iters: int = DEFAULT_PROBE_ITERS,
) -> "TunedProfile":
    """Fit per-level alpha-beta parameters on a two-level topology.

    Opens one real group over ``topology`` and probes each level with
    the same multi-size AllReduce ladder as :func:`probe_link`: the
    *intra* samples run on every node's intra sub-communicator
    concurrently (so they see realistic same-host contention) and the
    *inter* samples run on the leader ring only.  Rank 0 — a member of
    node 0 and its leader — provides the measured spans for both fits.

    Returns a two-level :class:`TunedProfile` whose ``links`` are keyed
    ``"intra"`` / ``"inter"`` and whose ``meta`` records the probed
    topology; :meth:`TunedProfile.to_cluster` turns it into a
    :func:`~repro.cluster.tuned_cluster_two_level` spec, and
    :meth:`TunedProfile.cost_model` accepts a ``world_size=`` override
    so a 2-node calibration can price 64..1024-rank runs (the hybrid
    mode's extrapolation).
    """
    from repro.comm import open_group
    from repro.comm.topology import as_topology

    topology = as_topology(topology)
    if topology is None or not topology.multi_node:
        raise ValueError("probe_two_level needs a multi-node NodeTopology")
    if len(topology.nodes[0]) < 2:
        raise ValueError(
            "probe_two_level needs >= 2 ranks in node 0 to fit the intra level"
        )
    if iters < 2:
        raise ValueError("iters must be >= 2 (first iteration is warmup)")
    world = topology.world_size
    attempts = 3
    with open_group(
        world, backend=backend, trace=True, topology=topology
    ) as group:
        for attempt in range(attempts):
            samples: dict[str, list[ProbeSample]] = {"intra": [], "inter": []}
            for nbytes in sizes_bytes:
                n_elems = max(1, nbytes // 4)
                for level in ("intra", "inter"):
                    group.run(_probe_level_rank, level, n_elems, iters)
                    durations = _allreduce_spans(group.last_trace)
                    if len(durations) < iters:
                        raise RuntimeError(
                            f"expected {iters} {level} allreduce spans, "
                            f"got {len(durations)}"
                        )
                    timed = durations[-(iters - 1):]
                    samples[level].append(
                        ProbeSample(
                            nbytes=4 * n_elems, seconds=statistics.median(timed)
                        )
                    )
            try:
                links = {
                    "intra": link_fit_from_samples(
                        "intra", len(topology.nodes[0]), samples["intra"]
                    ),
                    "inter": link_fit_from_samples(
                        "inter", topology.num_nodes, samples["inter"]
                    ),
                }
                break
            except ValueError:
                # Scheduler jitter can hand a latency-dominated level a
                # negative slope; re-sample rather than fail the run.
                if attempt == attempts - 1:
                    raise
    return TunedProfile(
        world_size=world,
        backend=backend,
        links=links,
        meta={
            "two_level": True,
            "topology": topology.to_dict(),
            "num_nodes": topology.num_nodes,
            "gpus_per_node": len(topology.nodes[0]),
            "probe_sizes_bytes": list(sizes_bytes),
            "probe_iters": iters,
        },
    )


def _allreduce_spans(bundle, rank: int = 0) -> list[float]:
    """Durations of the rank's ``allreduce`` spans, in execution order."""
    lane = f"comm:{rank}"
    spans = [
        e for e in bundle.trace.entries
        if e.resource == lane and e.name == "allreduce"
    ]
    return [e.duration for e in sorted(spans, key=lambda e: e.start)]


def probe_link(
    world_size: int,
    *,
    backend: str = "process",
    sizes_bytes: tuple[int, ...] = PROBE_SIZES_BYTES,
    iters: int = DEFAULT_PROBE_ITERS,
) -> LinkFit:
    """Measure one backend with multi-size AllReduce probes and fit it.

    One traced :meth:`~repro.comm.CommGroup.run` per payload size; the
    median over ``iters - 1`` timed repetitions (the first is warmup)
    becomes that size's :class:`ProbeSample`.  The fit is labelled
    ``"shm"`` on the process backend and ``"thread"`` on threads.
    """
    if world_size < 2:
        raise ValueError("probing needs world_size >= 2")
    if iters < 2:
        raise ValueError("iters must be >= 2 (first iteration is warmup)")
    from repro.comm import open_group

    label = "thread" if backend == "thread" else "shm"
    samples = []
    with open_group(world_size, backend=backend, trace=True) as group:
        for nbytes in sizes_bytes:
            n_elems = max(1, nbytes // 4)
            group.run(_probe_rank, n_elems, iters)
            durations = _allreduce_spans(group.last_trace)
            if len(durations) < iters:
                raise RuntimeError(
                    f"expected {iters} allreduce spans, got {len(durations)}"
                )
            timed = durations[-(iters - 1):]
            samples.append(
                ProbeSample(nbytes=4 * n_elems, seconds=statistics.median(timed))
            )
    return link_fit_from_samples(label, world_size, samples)


# --------------------------------------------------------------------- #
# TunedProfile
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TunedProfile:
    """Everything the tuner learned about one host, JSON-round-trippable.

    ``links`` maps link label (one of :data:`LINK_LABELS`) to its
    fitted :class:`LinkFit`.  ``knobs`` / ``strategy`` are filled in by
    :mod:`repro.tune.validate` once a winning configuration is known; a
    freshly probed profile carries only the link fits.  Consumers:

    * ``RealTrainer(..., profile=p)`` / ``RunConfig(..., profile=p)``
      adopt ``p.knobs`` (an explicit ``knobs=`` argument wins);
    * :meth:`cost_model` / :meth:`to_cluster` feed the simulator.
    """

    world_size: int
    backend: str
    links: dict[str, LinkFit]
    knobs: SchedKnobs | None = None
    strategy: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.world_size < 2:
            raise ValueError(f"world_size must be >= 2, got {self.world_size!r}")
        if not self.links:
            raise ValueError("a TunedProfile needs at least one fitted link")
        for label, link in self.links.items():
            if not isinstance(link, LinkFit):
                raise ValueError(f"links[{label!r}] is not a LinkFit: {link!r}")
            _validate_link(label, link)

    def link(self) -> LinkFit:
        """The one fit of a single-level profile."""
        if len(self.links) != 1:
            raise ValueError(
                f"profile has {sorted(self.links)} links; pick one from .links"
            )
        return next(iter(self.links.values()))

    @property
    def two_level(self) -> bool:
        """True for profiles fitted by :func:`probe_two_level` (separate
        ``"intra"`` / ``"inter"`` link fits plus topology metadata)."""
        return (
            bool(self.meta.get("two_level"))
            and "intra" in self.links
            and "inter" in self.links
        )

    def to_cluster(self, world_size: int | None = None) -> "ClusterSpec":
        """A :class:`~repro.cluster.ClusterSpec` from the link fit(s).

        Single-level profiles map to a one-node
        :func:`~repro.cluster.tuned_cluster`; two-level profiles map to
        a multi-node :func:`~repro.cluster.tuned_cluster_two_level` with
        the fitted per-level constants.  ``world_size`` scales the
        cluster past (or below) the probed size — two-level specs grow
        by adding whole nodes of the probed shape, which is how a
        handful of real ranks calibrates a 1000-rank replay.
        """
        world = self.world_size if world_size is None else world_size
        if self.two_level:
            from repro.cluster.topology import tuned_cluster_two_level

            intra, inter = self.links["intra"], self.links["inter"]
            gpn = int(self.meta.get("gpus_per_node", intra.world_size))
            nodes = int(self.meta.get("num_nodes", inter.world_size))
            base = tuned_cluster_two_level(
                nodes,
                gpn,
                intra_bandwidth=intra.bandwidth_Bps,
                intra_latency=intra.latency_s,
                inter_bandwidth=inter.bandwidth_Bps,
                inter_latency=inter.latency_s,
            )
            if world == base.world_size:
                return base
            if world <= gpn or world % gpn == 0:
                return base.with_workers(world)
            # Asymmetric probe topology (e.g. 3+2 nodes): price on the
            # symmetric envelope — the closest spec the cost model takes.
            return base
        from repro.cluster.topology import tuned_cluster

        link = self.link()
        return tuned_cluster(
            world,
            bandwidth=link.bandwidth_Bps,
            latency=link.latency_s,
            name=f"tuned-{link.transport}",
        )

    def cost_model(self, world_size: int | None = None) -> "CostModel":
        """Calibrated :class:`~repro.collectives.CostModel` for this host.

        ``world_size`` overrides the priced scale (see
        :meth:`to_cluster`) — the hybrid mode's replay ladder.
        """
        from repro.collectives.cost import CostModel

        return CostModel(self.to_cluster(world_size), half_utilization_bytes=0.0)

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Serialize (schema version 1); inverse of :meth:`from_json`."""
        d = {
            "version": _SCHEMA_VERSION,
            "world_size": self.world_size,
            "backend": self.backend,
            "links": {
                label: {
                    "transport": link.transport,
                    "world_size": link.world_size,
                    "latency_s": link.latency_s,
                    "bandwidth_Bps": link.bandwidth_Bps,
                    "residual": link.residual,
                    "samples": [
                        {"nbytes": s.nbytes, "seconds": s.seconds}
                        for s in link.samples
                    ],
                }
                for label, link in sorted(self.links.items())
            },
            "knobs": self.knobs.to_dict() if self.knobs is not None else None,
            "strategy": self.strategy,
            "meta": self.meta,
        }
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TunedProfile":
        """Parse + validate a profile; malformed/NaN input raises ValueError."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ValueError(f"profile JSON must be an object, got {type(d)}")
        version = d.get("version")
        if version != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported profile schema version {version!r} "
                f"(expected {_SCHEMA_VERSION})"
            )
        required = {"world_size", "backend", "links"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"profile JSON missing keys: {sorted(missing)}")
        # Written by earlier releases, when a second wire could be chosen.
        check_in("transport", d.get("transport"), {None, "shm"})
        links = {}
        for label, ld in d["links"].items():
            try:
                link = LinkFit(
                    transport=ld["transport"],
                    world_size=int(ld["world_size"]),
                    latency_s=float(ld["latency_s"]),
                    bandwidth_Bps=float(ld["bandwidth_Bps"]),
                    residual=float(ld["residual"]),
                    samples=tuple(
                        ProbeSample(int(s["nbytes"]), float(s["seconds"]))
                        for s in ld.get("samples", ())
                    ),
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed link {label!r}: {exc}") from exc
            links[label] = link
        knobs = d.get("knobs")
        return cls(
            world_size=int(d["world_size"]),
            backend=d["backend"],
            links=links,
            knobs=SchedKnobs.from_dict(knobs) if knobs is not None else None,
            strategy=d.get("strategy"),
            meta=d.get("meta") or {},
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TunedProfile":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def with_choice(
        self, knobs: SchedKnobs, strategy: str | None = None
    ) -> "TunedProfile":
        """Copy with the winning configuration filled in."""
        return dataclasses.replace(self, knobs=knobs, strategy=strategy)


def _validate_link(label: str, link: LinkFit) -> None:
    check_in(f"links[{label!r}].transport", link.transport, set(LINK_LABELS))
    vals = {
        "latency_s": link.latency_s,
        "bandwidth_Bps": link.bandwidth_Bps,
        "residual": link.residual,
    }
    for name, v in vals.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"links[{label!r}].{name} is not finite: {v!r}")
    if link.latency_s < 0:
        raise ValueError(f"links[{label!r}].latency_s must be >= 0")
    if link.bandwidth_Bps <= 0:
        raise ValueError(f"links[{label!r}].bandwidth_Bps must be > 0")
    if link.world_size < 2:
        raise ValueError(f"links[{label!r}].world_size must be >= 2")


def fit_profile(
    world_size: int,
    *,
    backend: str = "process",
    sizes_bytes: tuple[int, ...] = PROBE_SIZES_BYTES,
    iters: int = DEFAULT_PROBE_ITERS,
) -> TunedProfile:
    """Probe + fit ``backend``'s link into a :class:`TunedProfile`."""
    fit = probe_link(
        world_size, backend=backend, sizes_bytes=sizes_bytes, iters=iters
    )
    return TunedProfile(
        world_size=world_size,
        backend=backend,
        links={fit.transport: fit},
        meta={"probe_sizes_bytes": list(sizes_bytes), "probe_iters": iters},
    )
