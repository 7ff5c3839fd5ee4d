"""Cluster topology: nodes x GPUs with intra-/inter-node links.

The collective cost models (:mod:`repro.collectives`) reduce a topology
to the *bottleneck* per-worker bandwidth, following the paper's uniform
(B, beta) model (§4.1.2) while still capturing the one effect that model
abstracts away: when several GPUs in a node talk across nodes at once,
they share the node's single NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.hardware import GPUSpec, RTX2080, RTX3090
from repro.utils.units import Gbps
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClusterSpec:
    """``num_nodes`` servers with ``gpus_per_node`` GPUs each.

    ``intra_bw`` is the per-GPU PCIe bandwidth inside a node; ``inter_bw``
    is the per-node NIC bandwidth (100 Gbps IB in the paper).
    """

    name: str
    num_nodes: int
    gpus_per_node: int
    gpu: GPUSpec
    intra_bw: float
    inter_bw: float
    intra_latency: float = 8e-6
    inter_latency: float = 25e-6

    def __post_init__(self) -> None:
        check_positive("num_nodes", self.num_nodes)
        check_positive("gpus_per_node", self.gpus_per_node)
        check_positive("intra_bw", self.intra_bw)
        check_positive("inter_bw", self.inter_bw)

    @property
    def world_size(self) -> int:
        """Total number of GPU workers (the paper's N)."""
        return self.num_nodes * self.gpus_per_node

    @property
    def multi_node(self) -> bool:
        return self.num_nodes > 1

    def ring_bandwidth(self) -> float:
        """Per-hop bandwidth of ring-structured collectives.

        NCCL lays rings so that only one link per node crosses the NIC in
        each direction; the other hops ride PCIe.  The slowest hop is
        therefore ``min(intra, inter)`` — ring AllReduce does *not* pay
        the NIC-sharing penalty.
        """
        if not self.multi_node:
            return self.intra_bw
        return min(self.intra_bw, self.inter_bw)

    def pairwise_bandwidth(self) -> float:
        """Per-worker bandwidth of pairwise exchanges (AlltoAll, PS).

        Every GPU talks to remote peers simultaneously, so each node's
        NIC is shared by its ``gpus_per_node`` workers: per-worker
        cross-node rate is ``inter_bw / gpus_per_node``, bounded by PCIe.
        This asymmetry versus :meth:`ring_bandwidth` is what produces
        Fig. 4a's practical AlltoAll-vs-AllReduce crossover (~40%
        sparsity on 2 nodes x 4 GPUs) despite Table 2's symbolic model
        favouring AlltoAll at every alpha.
        """
        if not self.multi_node:
            return self.intra_bw
        return min(self.intra_bw, self.inter_bw / self.gpus_per_node)

    def latency(self) -> float:
        """Per-message start latency (the paper's beta) for the worst link."""
        return self.inter_latency if self.multi_node else self.intra_latency

    def nodes(self, world_size: int | None = None) -> tuple[tuple[int, ...], ...]:
        """Ranks grouped by node, node-major: node ``i`` holds ranks
        ``[i * gpus_per_node, (i + 1) * gpus_per_node)``.

        With ``world_size`` the grouping is truncated (or extended, node
        by node) to cover exactly that many ranks, filling nodes in
        order — the grouping :meth:`with_workers` realises and the one
        :class:`~repro.comm.NodeTopology` consumes.
        """
        world = self.world_size if world_size is None else world_size
        check_positive("world_size", world)
        out: list[tuple[int, ...]] = []
        rank = 0
        while rank < world:
            hi = min(rank + self.gpus_per_node, world)
            out.append(tuple(range(rank, hi)))
            rank = hi
        return tuple(out)

    def with_workers(self, world_size: int) -> "ClusterSpec":
        """Cluster using ``world_size`` GPUs, filling nodes in order
        and preserving the ranks-per-node ratio.

        Matches the paper's scaling experiments: 4 GPUs = one full node,
        8 = two nodes, 16 = four nodes.  Scaling *past* the spec's own
        ``world_size`` adds whole nodes of the same shape — how the
        hybrid mode extrapolates a 2-node calibration to 64..1024 ranks.
        """
        check_positive("world_size", world_size)
        if world_size <= self.gpus_per_node:
            return replace(self, name=f"{self.name}-{world_size}gpu",
                           num_nodes=1, gpus_per_node=world_size)
        if world_size % self.gpus_per_node != 0:
            raise ValueError(
                f"{world_size} not a multiple of gpus_per_node={self.gpus_per_node}"
            )
        return replace(
            self,
            name=f"{self.name}-{world_size}gpu",
            num_nodes=world_size // self.gpus_per_node,
        )


def tuned_cluster(
    world_size: int,
    bandwidth: float,
    latency: float,
    name: str = "tuned",
    gpu: GPUSpec | None = None,
) -> ClusterSpec:
    """A single-node cluster whose link constants come from measurement.

    Built by :mod:`repro.tune` from a fitted :class:`~repro.tune.TunedProfile`:
    ``bandwidth`` / ``latency`` are the per-hop alpha-beta parameters
    recovered from probe AllReduces on *this* host, so a
    :class:`~repro.collectives.CostModel` over the returned spec prices
    collectives for the machine that was probed rather than for the
    paper's testbed.  All workers sit in one node: the measured numbers
    already include whatever sharing the real transport imposes.
    """
    check_positive("world_size", world_size)
    check_positive("bandwidth", bandwidth)
    if latency < 0:
        raise ValueError(f"latency must be >= 0, got {latency!r}")
    from repro.cluster.hardware import CPU_HOST

    return ClusterSpec(
        name=name,
        num_nodes=1,
        gpus_per_node=world_size,
        gpu=gpu if gpu is not None else CPU_HOST,
        intra_bw=bandwidth,
        inter_bw=bandwidth,
        intra_latency=latency,
        inter_latency=latency,
    )


def tuned_cluster_two_level(
    num_nodes: int,
    gpus_per_node: int,
    intra_bandwidth: float,
    intra_latency: float,
    inter_bandwidth: float,
    inter_latency: float,
    name: str = "tuned-2level",
    gpu: GPUSpec | None = None,
) -> ClusterSpec:
    """A multi-node cluster whose per-level link constants come from a
    two-level measurement (see ``repro.tune.probe_two_level``).

    The intra constants are fitted on an intra-node sub-communicator and
    the inter constants on the leader-to-leader level, so a
    :class:`~repro.collectives.CostModel` over the returned spec prices
    both flat and hierarchical collectives for the probed machine.
    """
    check_positive("num_nodes", num_nodes)
    check_positive("gpus_per_node", gpus_per_node)
    check_positive("intra_bandwidth", intra_bandwidth)
    check_positive("inter_bandwidth", inter_bandwidth)
    if intra_latency < 0 or inter_latency < 0:
        raise ValueError("latencies must be >= 0")
    from repro.cluster.hardware import CPU_HOST

    return ClusterSpec(
        name=name,
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        gpu=gpu if gpu is not None else CPU_HOST,
        intra_bw=intra_bandwidth,
        inter_bw=inter_bandwidth,
        intra_latency=intra_latency,
        inter_latency=inter_latency,
    )


def rtx3090_cluster(num_nodes: int = 4, gpus_per_node: int = 4) -> ClusterSpec:
    """The paper's RTX3090 cluster: PCIe 4.0 x16 intra, 100 Gbps IB inter."""
    # PCIe 4.0 x16 is 32 GB/s raw, but a 4-GPU ring through one root
    # complex sustains far less per worker under concurrent traffic.
    return ClusterSpec(
        name="rtx3090",
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        gpu=RTX3090,
        intra_bw=5.5e9,
        inter_bw=Gbps(100),
    )


def rtx2080_cluster(num_nodes: int = 4, gpus_per_node: int = 4) -> ClusterSpec:
    """The paper's RTX2080 cluster: PCIe 3.0 x16 intra ("lower intra-node
    bandwidth", §5.3), 100 Gbps IB inter."""
    return ClusterSpec(
        name="rtx2080",
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        gpu=RTX2080,
        intra_bw=4e9,
        inter_bw=Gbps(100),
    )
