"""Table 2 cost formulas over a concrete topology.

=============  =====================================
approach       overhead (paper Table 2)
=============  =====================================
AlltoAll       ``2(N-1)(alpha*M/(N*B) + beta)``
AllReduce      ``2(N-1)(M/(N*B) + beta)``
PS             ``2N(alpha*M/(S*B) + beta)``, S <= n
AllGather      ``(N-1)(alpha*M/B + beta)``
=============  =====================================

Each method here computes *one* collective operation; callers compose
them per step (EmbRace's hybrid scheme runs AlltoAll twice — lookup
results forward, gradients backward — exactly as the Table 2 row does).

Practical extensions beyond the symbolic model (both calibrated against
the qualitative behaviour of Fig. 4 and §4.1.2):

* ``effective_bandwidth`` — a link sustains ``B * s/(s + s_half)`` for
  messages of size ``s`` (half-utilization message size ``s_half``);
  this is what penalizes ByteScheduler-style fine partitioning and
  OmniReduce's per-block sends.
* ring vs pairwise bandwidth — ring collectives cross each node's NIC
  once per direction (``B_ring = min(intra, inter)``) while pairwise
  exchanges share the NIC among all of a node's GPUs
  (``B_pairwise = min(intra, inter/w)``).  The asymmetry is why Fig. 4a
  shows a ~40% AlltoAll-vs-AllReduce crossover on the 2x4 topology while
  Fig. 4b (one GPU per node, no sharing) has AlltoAll winning everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterSpec
from repro.utils.validation import check_non_negative, check_positive

#: Message size at which a link reaches half its peak utilization.
HALF_UTILIZATION_BYTES = 128 * 1024

#: Host-side staging bandwidth for PS architectures (GPU<->CPU copies;
#: §5.3: Parallax suffers "frequent memory copy between GPU and CPU").
PS_HOST_BANDWIDTH = 8e9


def effective_bandwidth(
    link_bw: float, msg_bytes: float, half_bytes: float = HALF_UTILIZATION_BYTES
) -> float:
    """Sustained bandwidth for messages of ``msg_bytes`` on a ``link_bw`` link."""
    check_positive("link_bw", link_bw)
    check_non_negative("msg_bytes", msg_bytes)
    if msg_bytes == 0:
        return link_bw
    return link_bw * msg_bytes / (msg_bytes + half_bytes)


@dataclass(frozen=True)
class CollectiveCost:
    """Decomposed cost of one collective operation."""

    seconds: float
    wire_bytes: float  # total bytes this worker puts on the wire
    num_messages: int

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(
            self.seconds + other.seconds,
            self.wire_bytes + other.wire_bytes,
            self.num_messages + other.num_messages,
        )


class CostModel:
    """Collective cost evaluation on one cluster.

    Two effective link rates (see :class:`~repro.cluster.ClusterSpec`):
    ``B_ring`` for ring-structured collectives (one NIC crossing per node
    and direction) and ``B_pairwise`` for pairwise exchanges (NIC shared
    by all of a node's GPUs).  ``self.B`` keeps the pairwise value for
    the Table 2 symbolic formulas (the paper's uniform-B reading).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        half_utilization_bytes: float = HALF_UTILIZATION_BYTES,
    ):
        check_non_negative("half_utilization_bytes", half_utilization_bytes)
        self.cluster = cluster
        self.N = cluster.world_size
        self.B_ring = cluster.ring_bandwidth()
        self.B_pairwise = cluster.pairwise_bandwidth()
        self.B = self.B_pairwise
        self.beta = cluster.latency()
        self.half_utilization_bytes = half_utilization_bytes

    @classmethod
    def from_profile(cls, profile) -> "CostModel":
        """Cost model calibrated from a measured :class:`~repro.tune.TunedProfile`.

        The profile's fitted alpha-beta link parameters become its
        :meth:`~repro.tune.TunedProfile.to_cluster` spec.  The
        half-utilization penalty is disabled (set to 0): the linear fit
        already absorbs any size-dependent efficiency of the real
        transport into its latency/bandwidth pair, and re-applying the
        hand-calibrated curve on top would double-count it.
        """
        return cls(profile.to_cluster(), half_utilization_bytes=0.0)

    # ------------------------------------------------------------------ #
    def _transfer(self, msg_bytes: float, bandwidth: float | None = None) -> float:
        """Seconds to move one message of ``msg_bytes`` plus start latency."""
        link = bandwidth if bandwidth is not None else self.B_pairwise
        if msg_bytes <= 0:
            return self.beta
        bw = effective_bandwidth(link, msg_bytes, self.half_utilization_bytes)
        return msg_bytes / bw + self.beta

    # ------------------------------------------------------------------ #
    # Table 2 rows (one collective each)
    # ------------------------------------------------------------------ #
    def allreduce(self, nbytes: float) -> CollectiveCost:
        """Ring AllReduce of a dense ``nbytes`` tensor.

        Reduce-scatter + all-gather: ``2(N-1)`` chunk transfers of
        ``nbytes/N`` each.
        """
        check_non_negative("nbytes", nbytes)
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        chunk = nbytes / self.N
        steps = 2 * (self.N - 1)
        return CollectiveCost(
            steps * self._transfer(chunk, self.B_ring), steps * chunk, steps
        )

    def alltoall(self, payload_bytes: float) -> CollectiveCost:
        """One AlltoAll where each worker exchanges ``payload/N`` with every peer."""
        check_non_negative("payload_bytes", payload_bytes)
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        msg = payload_bytes / self.N
        steps = self.N - 1
        return CollectiveCost(
            steps * self._transfer(msg, self.B_pairwise), steps * msg, steps
        )

    def allgather(self, payload_bytes: float) -> CollectiveCost:
        """AllGather of each worker's ``payload_bytes`` sparse tensor.

        Each worker receives (N-1) full payloads — the linear-in-N wire
        cost that ruins AllGather's scalability (Table 2 last row).
        """
        check_non_negative("payload_bytes", payload_bytes)
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        steps = self.N - 1
        return CollectiveCost(
            steps * self._transfer(payload_bytes, self.B_ring),
            steps * payload_bytes,
            steps,
        )

    def point_to_point(self, nbytes: float) -> CollectiveCost:
        """One pairwise transfer of ``nbytes`` (inter-stage activation
        sends of the pipeline schedules)."""
        check_non_negative("nbytes", nbytes)
        return CollectiveCost(self._transfer(nbytes), nbytes, 1)

    def parameter_server(
        self,
        payload_bytes: float,
        num_servers: int | None = None,
        server_update_passes: float = 0.0,
        server_bandwidth: float = 4e9,
    ) -> CollectiveCost:
        """PS push+pull of ``payload_bytes``, sharded over ``S`` servers.

        Table 2: ``2N(alpha*M/(S*B) + beta)`` from the servers'
        perspective; each GPU worker additionally stages its shard
        through host memory.  With ``server_update_passes`` > 0 the
        servers also run the optimizer update over every worker's pushed
        gradient before pulls can return — serialized CPU work of
        ``passes * N * payload / S`` bytes at the host's effective
        sparse-op bandwidth (the Parallax bottleneck of §5.3).
        """
        check_non_negative("payload_bytes", payload_bytes)
        S = num_servers if num_servers is not None else self.cluster.num_nodes
        check_positive("num_servers", S)
        if S > self.cluster.num_nodes:
            raise ValueError(
                f"{S} servers exceed {self.cluster.num_nodes} nodes (paper: S <= n)"
            )
        msg = payload_bytes / S
        # Push and pull, each a message per worker hitting every server,
        # serialized at the server side: 2N transfers of alpha*M/S.
        steps = 2 * self.N
        network = steps * self._transfer(msg)
        host_copy = 2 * payload_bytes / PS_HOST_BANDWIDTH
        server_update = (
            server_update_passes * self.N * payload_bytes / (S * server_bandwidth)
        )
        return CollectiveCost(network + host_copy + server_update, steps * msg, steps)

    def broadcast(self, nbytes: float) -> CollectiveCost:
        """Binomial-tree broadcast (used by init-time weight sync)."""
        check_non_negative("nbytes", nbytes)
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        import math

        steps = int(math.ceil(math.log2(self.N)))
        return CollectiveCost(
            steps * self._transfer(nbytes, self.B_ring), steps * nbytes, steps
        )

    def reduce_scatter(self, nbytes: float) -> CollectiveCost:
        """Ring reduce-scatter — half of :meth:`allreduce`."""
        check_non_negative("nbytes", nbytes)
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        chunk = nbytes / self.N
        steps = self.N - 1
        return CollectiveCost(
            steps * self._transfer(chunk, self.B_ring), steps * chunk, steps
        )

    # ------------------------------------------------------------------ #
    # Two-level (node-aware) collectives — the repro.comm.hierarchy wires
    # ------------------------------------------------------------------ #
    def _transfer_on(self, msg_bytes: float, bandwidth: float, beta: float) -> float:
        """Seconds for one message on a specific link (own latency)."""
        if msg_bytes <= 0:
            return beta
        bw = effective_bandwidth(bandwidth, msg_bytes, self.half_utilization_bytes)
        return msg_bytes / bw + beta

    def hierarchical_allreduce(self, nbytes: float) -> CollectiveCost:
        """Leader-hosted two-level allreduce (``two_level_allreduce``).

        Intra level: the leader gathers ``w-1`` full arrays and later
        broadcasts the result back (``2(w-1)`` full-array transfers on
        the intra link).  Inter level: the leader walk moves this node's
        home block (``nbytes/m``) around the ``m``-leader ring plus the
        ``m-1`` assembly block exchanges — ``(2m-1)`` block messages on
        the NIC, *per node* instead of the flat ring's per rank.  Wire
        bytes count the leader's sends (the busiest worker).
        """
        check_non_negative("nbytes", nbytes)
        c = self.cluster
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        if not c.multi_node:
            return self.allreduce(nbytes)
        w, m = c.gpus_per_node, c.num_nodes
        block = nbytes / m
        intra_msgs = 2 * (w - 1)
        inter_msgs = 2 * m - 1
        seconds = intra_msgs * self._transfer_on(
            nbytes, c.intra_bw, c.intra_latency
        ) + inter_msgs * self._transfer_on(block, c.inter_bw, c.inter_latency)
        wire = (w - 1) * nbytes + inter_msgs * block
        return CollectiveCost(seconds, wire, intra_msgs + inter_msgs)

    def hierarchical_alltoall(
        self, payload_bytes: float, node_dedup: float = 1.0
    ) -> CollectiveCost:
        """Node-coalesced sparse exchange (``two_level_alltoall_shards``).

        Each member hands its full ``payload_bytes`` to the leader
        (``w-1`` intra gathers), the leader merges the node's parts —
        shrinking them to ``node_dedup`` of their sum by intra-node
        duplicate-row overlap — and sends each other leader that node's
        column range of the merged gradient (``m-1`` NIC messages of
        ``node_dedup * w * payload * w/N``), then scatters per-member
        shards back (``w-1`` intra messages).  Wire bytes count the
        leader's sends.
        """
        check_non_negative("payload_bytes", payload_bytes)
        if not 0.0 < node_dedup <= 1.0:
            raise ValueError(
                f"node_dedup must be in (0, 1], got {node_dedup!r}"
            )
        c = self.cluster
        if self.N == 1:
            return CollectiveCost(0.0, 0.0, 0)
        if not c.multi_node:
            return self.alltoall(payload_bytes)
        w, m = c.gpus_per_node, c.num_nodes
        node_payload = node_dedup * w * payload_bytes
        inter_msg = node_payload * w / self.N
        shard = node_payload / self.N * m  # merged global rows, 1/N columns
        seconds = (
            (w - 1) * self._transfer_on(payload_bytes, c.intra_bw, c.intra_latency)
            + (m - 1) * self._transfer_on(inter_msg, c.inter_bw, c.inter_latency)
            + (w - 1) * self._transfer_on(shard, c.intra_bw, c.intra_latency)
        )
        wire = (m - 1) * inter_msg + (w - 1) * shard
        return CollectiveCost(wire_bytes=wire, seconds=seconds,
                              num_messages=(m - 1) + 2 * (w - 1))

    # ------------------------------------------------------------------ #
    # Inter-node wire accounting (the BENCH_scale ``>=30%`` gate)
    # ------------------------------------------------------------------ #
    def inter_bytes_allreduce(self, nbytes: float, hierarchical: bool) -> float:
        """Bytes crossing node boundaries, summed over *all* workers, for
        one dense allreduce — the quantity ``InterNodeMeter`` measures.

        Flat ring: each of the ``m`` node-boundary edges carries
        ``2(N-1)`` chunks of ``nbytes/N``.  Hierarchical: the leader
        walk's ``m`` home blocks plus ``m-1`` assembly blocks per
        leader, ``(2m-1) * nbytes`` total.
        """
        check_non_negative("nbytes", nbytes)
        c = self.cluster
        if not c.multi_node:
            return 0.0
        m, N = c.num_nodes, self.N
        if hierarchical:
            return (2 * m - 1) * nbytes
        return m * 2 * (N - 1) / N * nbytes

    def inter_bytes_alltoall(
        self, payload_bytes: float, hierarchical: bool, node_dedup: float = 1.0
    ) -> float:
        """Cross-node bytes of one sparse AlltoAll, summed over workers.

        Flat: every rank sends ``(N-w)/N`` of its payload to other-node
        peers.  Hierarchical: the same column ranges cross, but in the
        node-merged gradient — ``node_dedup`` of the flat volume.  This
        ratio is exactly the intra-node duplicate-row overlap, the
        quantity the EmbRace tables' Zipf skew makes large.
        """
        check_non_negative("payload_bytes", payload_bytes)
        c = self.cluster
        if not c.multi_node:
            return 0.0
        N, w = self.N, c.gpus_per_node
        flat = payload_bytes * (N - w)
        return node_dedup * flat if hierarchical else flat

    def inter_bytes_allgather(
        self, payload_bytes: float, hierarchical: bool, node_dedup: float = 1.0
    ) -> float:
        """Cross-node bytes of one sparse allgather, summed over workers.

        Flat ring: every one of the ``N`` per-rank payloads crosses each
        of the ``m`` boundary edges once.  Hierarchical: only the ``m``
        node-merged payloads travel leader-to-leader.
        """
        check_non_negative("payload_bytes", payload_bytes)
        c = self.cluster
        if not c.multi_node:
            return 0.0
        N, w, m = self.N, c.gpus_per_node, c.num_nodes
        if hierarchical:
            return m * (m - 1) * node_dedup * w * payload_bytes
        return m * (N - 1) * payload_bytes

    # ------------------------------------------------------------------ #
    # Symbolic Table 2 (pure alpha-beta, for the bench that reprints it)
    # ------------------------------------------------------------------ #
    def table2_symbolic(
        self, M: float, alpha: float, num_servers: int | None = None
    ) -> dict[str, float]:
        """The four Table 2 expressions evaluated verbatim (no utilization
        or contention corrections) — used by ``bench_table2``."""
        check_non_negative("M", M)
        N, B, beta = self.N, self.B, self.beta
        S = num_servers if num_servers is not None else self.cluster.num_nodes
        return {
            "AlltoAll": 2 * (N - 1) * (alpha * M / (N * B) + beta),
            "AllReduce": 2 * (N - 1) * (M / (N * B) + beta),
            "PS": 2 * N * (alpha * M / (S * B) + beta),
            "AllGather": (N - 1) * (alpha * M / B + beta),
        }
