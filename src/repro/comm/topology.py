"""Node topology: rank grouping plus sub-communicators over a group.

Multi-node clusters have two link classes — PCIe/shm inside a node,
the NIC across nodes — and EmbRace's scaling story lives in the gap
between them.  :class:`NodeTopology` names the grouping (ranks per
node, per-level alpha/beta); :class:`SubCommunicator` carves an
intra-node or leader-level communicator out of any existing
:class:`~repro.comm.Communicator` by rank translation, so the two-level
algorithms (:mod:`repro.comm.hierarchy`) run over whatever transport,
fault wrapper, or scheduler channel the flat collectives use.
:class:`InterNodeMeter` measures the one number the flat stack cannot
see — wire bytes that actually cross a node boundary — which is what
the ``BENCH_scale.json`` >=30% reduction gate is stated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.comm.backend import Communicator, payload_nbytes

#: Token used by the sub-communicator fan-in/fan-out barrier.
_BARRIER_TOKEN = ("subbarrier",)

#: Observability counter for bytes crossing a node boundary.
INTER_NODE_COUNTER = "wire_bytes.inter_node"


@dataclass(frozen=True)
class NodeTopology:
    """Ranks grouped into nodes, with per-level alpha/beta constants.

    ``nodes`` must partition ``range(world_size)`` node-major (node 0
    holds the lowest ranks) — the layout :meth:`~repro.cluster.
    ClusterSpec.nodes` produces and the one the two-level collectives'
    fold-order argument relies on (each node's ranks are consecutive,
    so a flat ring walk crosses whole nodes at a time).  Nodes may be
    asymmetric (e.g. 3+2 ranks).

    The latency/bandwidth fields are the per-level alpha (seconds) and
    beta (bytes/second) of the cost model; defaults match the paper's
    RTX3090 testbed (PCIe 4.0 intra, 100 Gbps IB inter).
    """

    nodes: tuple[tuple[int, ...], ...]
    intra_latency: float = 8e-6
    intra_bandwidth: float = 5.5e9
    inter_latency: float = 25e-6
    inter_bandwidth: float = 12.5e9

    def __post_init__(self) -> None:
        nodes = tuple(tuple(int(r) for r in node) for node in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes or any(not node for node in nodes):
            raise ValueError("topology needs at least one non-empty node")
        flat = [r for node in nodes for r in node]
        if flat != list(range(len(flat))):
            raise ValueError(
                "nodes must partition range(world_size) node-major; got "
                f"{nodes!r}"
            )
        if self.intra_bandwidth <= 0 or self.inter_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.intra_latency < 0 or self.inter_latency < 0:
            raise ValueError("latencies must be >= 0")
        node_of = [0] * len(flat)
        for i, node in enumerate(nodes):
            for r in node:
                node_of[r] = i
        object.__setattr__(self, "_node_of", tuple(node_of))

    # -- shape ------------------------------------------------------------ #
    @property
    def world_size(self) -> int:
        return sum(len(node) for node in self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def multi_node(self) -> bool:
        return len(self.nodes) > 1

    @property
    def node_sizes(self) -> tuple[int, ...]:
        return tuple(len(node) for node in self.nodes)

    @property
    def leaders(self) -> tuple[int, ...]:
        """One leader per node: its first (lowest) rank."""
        return tuple(node[0] for node in self.nodes)

    @property
    def fold_groups(self) -> tuple[int, ...] | None:
        """Node-grouped reduction fold for the sparse merges (``None``
        when single-node, i.e. keep the historical flat fold)."""
        return self.node_sizes if self.multi_node else None

    def node_of(self, rank: int) -> int:
        return self._node_of[rank]  # type: ignore[attr-defined]

    def members(self, rank: int) -> tuple[int, ...]:
        """All ranks in ``rank``'s node (including ``rank``)."""
        return self.nodes[self.node_of(rank)]

    def leader_of(self, rank: int) -> int:
        return self.nodes[self.node_of(rank)][0]

    # -- construction ------------------------------------------------------ #
    @classmethod
    def symmetric(cls, num_nodes: int, gpus_per_node: int, **links: float) -> "NodeTopology":
        """``num_nodes`` nodes of ``gpus_per_node`` consecutive ranks."""
        if num_nodes < 1 or gpus_per_node < 1:
            raise ValueError("num_nodes and gpus_per_node must be >= 1")
        sizes = (gpus_per_node,) * num_nodes
        return cls.of_sizes(sizes, **links)

    @classmethod
    def of_sizes(cls, sizes: tuple[int, ...], **links: float) -> "NodeTopology":
        """Possibly-asymmetric nodes of the given sizes (e.g. ``(3, 2)``)."""
        nodes: list[tuple[int, ...]] = []
        lo = 0
        for s in sizes:
            nodes.append(tuple(range(lo, lo + s)))
            lo += s
        return cls(nodes=tuple(nodes), **links)

    @classmethod
    def from_cluster(cls, spec: Any, world_size: int | None = None) -> "NodeTopology":
        """Derive the topology of a :class:`~repro.cluster.ClusterSpec`."""
        return cls(
            nodes=spec.nodes(world_size),
            intra_latency=spec.intra_latency,
            intra_bandwidth=spec.intra_bw,
            inter_latency=spec.inter_latency,
            inter_bandwidth=spec.inter_bw,
        )

    # -- (de)serialization, for TunedProfile JSON -------------------------- #
    def to_dict(self) -> dict[str, Any]:
        return {
            "nodes": [list(node) for node in self.nodes],
            "intra_latency": self.intra_latency,
            "intra_bandwidth": self.intra_bandwidth,
            "inter_latency": self.inter_latency,
            "inter_bandwidth": self.inter_bandwidth,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NodeTopology":
        return cls(
            nodes=tuple(tuple(node) for node in data["nodes"]),
            intra_latency=float(data.get("intra_latency", 8e-6)),
            intra_bandwidth=float(data.get("intra_bandwidth", 5.5e9)),
            inter_latency=float(data.get("inter_latency", 25e-6)),
            inter_bandwidth=float(data.get("inter_bandwidth", 12.5e9)),
        )


def as_topology(obj: Any) -> NodeTopology | None:
    """Coerce ``obj`` to a :class:`NodeTopology` (None passes through).

    Accepts a topology, a ``ClusterSpec`` (anything with ``nodes()`` and
    the link fields), or a dict from :meth:`NodeTopology.to_dict`.
    """
    if obj is None or isinstance(obj, NodeTopology):
        return obj
    if isinstance(obj, dict):
        return NodeTopology.from_dict(obj)
    if hasattr(obj, "nodes") and callable(getattr(obj, "nodes")):
        return NodeTopology.from_cluster(obj)
    raise TypeError(f"cannot interpret {obj!r} as a NodeTopology")


class SubCommunicator(Communicator):
    """A communicator over a subset of a parent group's ranks.

    Pure rank translation: public data operations delegate to the
    *parent's* public methods (so byte accounting, span recording, and
    the shared-memory zero-copy overrides all live in one place), while
    the ``_send``/``_recv`` primitives delegate to the parent's
    primitives (so a :class:`~repro.faults.FaultyCommunicator` can wrap
    a sub-communicator exactly like a flat one).  ``bytes_sent`` is
    accounted on the parent, not here.
    """

    def __init__(self, parent: Communicator, ranks: tuple[int, ...]):
        ranks = tuple(int(r) for r in ranks)
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in subgroup {ranks!r}")
        if parent.rank not in ranks:
            raise ValueError(
                f"parent rank {parent.rank} not in subgroup {ranks!r}"
            )
        for r in ranks:
            if not 0 <= r < parent.world_size:
                raise ValueError(f"rank {r} out of parent's range")
        super().__init__(ranks.index(parent.rank), len(ranks))
        self.parent = parent
        self.ranks = ranks
        # Mirror the parent's transport properties (same pattern as the
        # scheduler's channel communicators).
        self.obs = parent.obs
        self.SEND_SNAPSHOTS = parent.SEND_SNAPSHOTS

    def _check(self, peer: int) -> None:
        if not 0 <= peer < self.world_size:
            raise ValueError(f"peer {peer} out of subgroup range")

    # -- primitives (for fault wrappers) ---------------------------------- #
    def _send(self, dst: int, obj: Any) -> None:
        self.parent._send(self.ranks[dst], obj)

    def _recv(self, src: int) -> Any:
        return self.parent._recv(self.ranks[src])

    # -- public surface, delegated to the parent --------------------------- #
    def send(self, dst: int, obj: Any) -> None:
        self._check(dst)
        self.parent.send(self.ranks[dst], obj)

    def recv(self, src: int) -> Any:
        self._check(src)
        return self.parent.recv(self.ranks[src])

    def snapshot(self, view: np.ndarray) -> np.ndarray:
        return self.parent.snapshot(view)

    def recv_view(self, src: int) -> Any:
        self._check(src)
        return self.parent.recv_view(self.ranks[src])

    def recv_view_pinned(self, src: int) -> Any:
        self._check(src)
        return self.parent.recv_view_pinned(self.ranks[src])

    def release_views(self) -> None:
        self.parent.release_views()

    def recv_into(self, src: int, out: np.ndarray, accumulate: bool = False) -> None:
        self._check(src)
        self.parent.recv_into(self.ranks[src], out, accumulate)

    def send_sum(self, dst: int, x: np.ndarray, y: np.ndarray) -> None:
        self._check(dst)
        self.parent.send_sum(self.ranks[dst], x, y)

    def barrier(self) -> None:
        """Subgroup barrier: fan-in to the subgroup root, fan-out back.

        Uses the translated point-to-point path, so it synchronizes only
        this subgroup (the parent's global barrier would deadlock when
        different subgroups barrier concurrently).
        """
        if self.world_size == 1:
            return
        if self.rank == 0:
            for r in range(1, self.world_size):
                self.recv(r)
            for r in range(1, self.world_size):
                self.send(r, _BARRIER_TOKEN)
        else:
            self.send(0, _BARRIER_TOKEN)
            self.recv(0)


@dataclass
class NodeComms:
    """A rank's view of the two-level communicator structure.

    ``intra`` spans this rank's node; ``inter`` spans the node leaders
    (``None`` on non-leader ranks).  Built per-collective by
    :func:`node_comms` — construction is O(node size) with no wire
    traffic, so ephemeral scheduler channels can afford one per item.
    """

    topology: NodeTopology
    intra: SubCommunicator
    inter: Communicator | None
    node: int
    is_leader: bool


def node_comms(
    comm: Communicator,
    topology: NodeTopology,
    *,
    inter_wrap: Callable[[Communicator], Communicator] | None = None,
) -> NodeComms:
    """Carve intra-node and leader-level sub-communicators out of ``comm``.

    ``inter_wrap`` optionally wraps the inter-node communicator (on
    leader ranks) — e.g. in a :class:`~repro.faults.FaultyCommunicator`
    to inject faults on the inter-node level only.
    """
    if topology.world_size != comm.world_size:
        raise ValueError(
            f"topology world {topology.world_size} != comm world {comm.world_size}"
        )
    node = topology.node_of(comm.rank)
    intra = SubCommunicator(comm, topology.nodes[node])
    inter: Communicator | None = None
    if comm.rank == topology.leader_of(comm.rank):
        inter = SubCommunicator(comm, topology.leaders)
        if inter_wrap is not None:
            inter = inter_wrap(inter)
    return NodeComms(
        topology=topology, intra=intra, inter=inter, node=node,
        is_leader=inter is not None,
    )


class InterNodeMeter(Communicator):
    """Transparent wrapper counting bytes that cross a node boundary.

    Every data operation delegates to the inner communicator (public to
    public, primitive to primitive), so accounting, observability, and
    zero-copy behavior are unchanged; on top, any payload addressed to a
    rank in another node is tallied into ``inter_bytes_sent`` and the
    ``wire_bytes.inter_node`` counter.  Works identically under flat and
    hierarchical collectives — which is exactly what makes the
    BENCH_scale comparison honest.
    """

    def __init__(self, inner: Communicator, topology: NodeTopology):
        if topology.world_size != inner.world_size:
            raise ValueError(
                f"topology world {topology.world_size} != comm world {inner.world_size}"
            )
        # No super().__init__: it would reset the inner accounting via
        # the delegating properties below.
        self.rank = inner.rank
        self.world_size = inner.world_size
        self._inner = inner
        self.topology = topology
        self._my_node = topology.node_of(inner.rank)
        self.inter_bytes_sent = 0
        self.inter_messages_sent = 0
        self.obs = inner.obs
        self.SEND_SNAPSHOTS = inner.SEND_SNAPSHOTS

    # Accounting lives on the inner communicator; delegate so callers
    # (and the scheduler's fold-back) see one consistent tally.
    @property
    def bytes_sent(self) -> int:
        return self._inner.bytes_sent

    @bytes_sent.setter
    def bytes_sent(self, value: int) -> None:
        self._inner.bytes_sent = value

    @property
    def messages_sent(self) -> int:
        return self._inner.messages_sent

    @messages_sent.setter
    def messages_sent(self, value: int) -> None:
        self._inner.messages_sent = value

    def _count(self, dst: int, nbytes: int) -> None:
        if self.topology.node_of(dst) != self._my_node:
            self.inter_bytes_sent += nbytes
            self.inter_messages_sent += 1
            obs = self.obs
            if obs.enabled:
                obs.count(INTER_NODE_COUNTER, float(nbytes))

    # -- primitives (for channel/fault wrappers stacked on top) ------------ #
    def _send(self, dst: int, obj: Any) -> None:
        self._count(dst, payload_nbytes(obj))
        self._inner._send(dst, obj)

    def _recv(self, src: int) -> Any:
        return self._inner._recv(src)

    def barrier(self) -> None:
        self._inner.barrier()

    def transport_counters(self) -> dict[str, float]:
        return self._inner.transport_counters()

    # -- public surface ---------------------------------------------------- #
    def send(self, dst: int, obj: Any) -> None:
        self._count(dst, payload_nbytes(obj))
        self._inner.send(dst, obj)

    def recv(self, src: int) -> Any:
        return self._inner.recv(src)

    def snapshot(self, view: np.ndarray) -> np.ndarray:
        return self._inner.snapshot(view)

    def recv_view(self, src: int) -> Any:
        return self._inner.recv_view(src)

    def recv_view_pinned(self, src: int) -> Any:
        return self._inner.recv_view_pinned(src)

    def release_views(self) -> None:
        self._inner.release_views()

    def recv_into(self, src: int, out: np.ndarray, accumulate: bool = False) -> None:
        self._inner.recv_into(src, out, accumulate)

    def send_sum(self, dst: int, x: np.ndarray, y: np.ndarray) -> None:
        self._count(dst, int(np.asarray(x).nbytes))
        self._inner.send_sum(dst, x, y)


__all__ = [
    "INTER_NODE_COUNTER",
    "InterNodeMeter",
    "NodeComms",
    "NodeTopology",
    "SubCommunicator",
    "as_topology",
    "node_comms",
]
