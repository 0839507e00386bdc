"""Case-study network shapes: trees of queues rooted at the sink.

The tree holds queues only: relays and the sink, FIFO infinite-buffer
servers.  Each node names its ``parent`` (None at the sink), and
``TopologySpec.nodes`` lists them in serving order: every queue before its
parent, the sink last.  Sources are grouped into clusters; a cluster hands
its packets straight into the queue named by its ``attach`` (a relay or
the sink).  Three builders cover the studied layouts:

* ``build_star``    -- N sources -> sink.
* ``build_case2``   -- two clusters -> two relays -> sink.
* ``build_case3``   -- case 2 plus a third cluster attached straight to
                       the sink.

For the relayed layouts every server is set to see the same utilization:
relays keep v = lambda/rho and the sink is scaled to its total inflow
(2*lambda/rho, or 3*lambda/rho with the direct cluster).  The sink rate
can be overridden for sensitivity runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dists import ParameterError


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    parent: Optional[str]  # node_id of the queue it feeds; None at the sink
    service_rate: float    # packets/s
    threshold: int         # overflow-counting threshold B


@dataclass(frozen=True)
class ClusterSpec:
    cluster_id: str
    n_sources: int
    attach: str            # node_id of the queue the sources feed
    arrival_rate: float    # aggregate mean rate of the cluster (packets/s)


@dataclass(frozen=True)
class TopologySpec:
    nodes: tuple[NodeSpec, ...]   # serving order: each queue before its parent, the sink last
    clusters: tuple[ClusterSpec, ...]

    @property
    def sink_id(self) -> str:
        return self.nodes[-1].node_id

    def children_of(self, node_id: str) -> list[str]:
        return [n.node_id for n in self.nodes if n.parent == node_id]

    def clusters_at(self, node_id: str) -> list[ClusterSpec]:
        return [c for c in self.clusters if c.attach == node_id]

    def offered_load(self, node_id: str) -> float:
        """Mean packet rate through a queue node (its whole subtree)."""
        own = sum(c.arrival_rate for c in self.clusters_at(node_id))
        return sum((self.offered_load(child) for child in self.children_of(node_id)), own)


def build_star(n_sources: int, lambda_total: float, v: float,
               threshold: int = 1000) -> TopologySpec:
    """N sources talking directly to one sink."""
    if n_sources < 1:
        raise ParameterError(f"n_sources must be >= 1, got {n_sources}")
    if not v > 0.0:
        raise ParameterError(f"service rate v must be > 0, got {v}")
    if not 0.0 < lambda_total / v < 1.0:   # also refuses lambda_total <= 0
        raise ParameterError(f"utilization lambda_total/v must be in (0,1), got {lambda_total / v}")
    if threshold < 1:
        raise ParameterError(f"threshold must be >= 1, got {threshold}")
    return TopologySpec(
        nodes=(NodeSpec("sink", None, service_rate=v, threshold=threshold),),
        clusters=(ClusterSpec("cluster_1", n_sources, attach="sink",
                              arrival_rate=lambda_total),))


def build_case2(n_per_cluster: int, lambda_per_relay: float = 50.0,
                rho_target: float = 0.5, *, sink_service_rate: Optional[float] = None,
                threshold: int = 1000) -> TopologySpec:
    """Two clusters of N sources, each behind its own relay, then the sink."""
    return _build_relayed(n_per_cluster, lambda_per_relay, rho_target, direct=False,
                          sink_service_rate=sink_service_rate, threshold=threshold)


def build_case3(n_per_cluster: int = 1, lambda_per_cluster: float = 50.0,
                rho_target: float = 0.5, *, sink_service_rate: Optional[float] = None,
                threshold: int = 1000) -> TopologySpec:
    """Two relayed clusters plus a third cluster attached straight to the sink."""
    return _build_relayed(n_per_cluster, lambda_per_cluster, rho_target, direct=True,
                          sink_service_rate=sink_service_rate, threshold=threshold)


def _build_relayed(n_per_cluster: int, lambda_per_cluster: float, rho_target: float,
                   direct: bool, sink_service_rate: Optional[float],
                   threshold: int) -> TopologySpec:
    """cluster_i -> relay_i -> sink for i = 1, 2; with ``direct`` a third
    cluster attaches to the sink."""
    if n_per_cluster < 1:
        raise ParameterError(f"n_per_cluster must be >= 1, got {n_per_cluster}")
    if not lambda_per_cluster > 0.0:
        raise ParameterError(f"lambda_per_cluster must be > 0, got {lambda_per_cluster}")
    if not (0.0 < rho_target < 1.0):
        raise ParameterError(f"rho_target must be in (0,1), got {rho_target}")
    if sink_service_rate is None:
        sink_service_rate = (3.0 if direct else 2.0) * lambda_per_cluster / rho_target
    relays = ("relay_1", "relay_2")
    relay_rate = lambda_per_cluster / rho_target
    nodes = tuple(NodeSpec(r, "sink", service_rate=relay_rate, threshold=threshold)
                  for r in relays)
    nodes += (NodeSpec("sink", None, service_rate=sink_service_rate, threshold=threshold),)
    attach = relays + (("sink",) if direct else ())
    clusters = tuple(ClusterSpec(f"cluster_{i}", n_per_cluster, attach=node_id,
                                 arrival_rate=lambda_per_cluster)
                     for i, node_id in enumerate(attach, start=1))
    return TopologySpec(nodes=nodes, clusters=clusters)


def validate_topology(spec: TopologySpec) -> list[str]:
    """Check all structural invariants; returns diagnostics (empty = ok),
    never raises."""
    issues: list[str] = []
    ids = [n.node_id for n in spec.nodes]
    if len(set(ids)) != len(ids):
        issues.append("duplicate node ids")
    if not ids:
        issues.append("no sink")
    # serving order: each node names a parent listed after it and the last one
    # (the sink) names none, which rules out cycles and second roots
    for i, n in enumerate(spec.nodes):
        if n.parent not in (ids[i + 1:] or [None]):
            issues.append(f"node {n.node_id}: parent {n.parent!r} is not a node listed "
                          "after it (only the sink, last, has none): not a tree")
    cluster_ids = [c.cluster_id for c in spec.clusters]
    if len(set(cluster_ids)) != len(cluster_ids):
        issues.append("duplicate cluster ids")
    for c in spec.clusters:
        if c.attach not in ids:
            issues.append(f"cluster {c.cluster_id} attaches to unknown node {c.attach}")
        if c.n_sources < 0:
            issues.append(f"cluster {c.cluster_id} has negative source count")
        if c.arrival_rate < 0.0:
            issues.append(f"cluster {c.cluster_id} has negative arrival rate")

    for n in spec.nodes:
        if not n.service_rate > 0.0:
            issues.append(f"node {n.node_id} needs a positive service rate")
        if n.threshold < 1:
            issues.append(f"node {n.node_id} needs a threshold >= 1")
    return issues
