"""Case-study network shapes: trees of queues rooted at the sink.

The tree holds queues only: relays and the sink, FIFO infinite-buffer
servers.  Each node names its ``parent`` (None at the sink), and
``TopologySpec.nodes`` lists them in serving order: every queue before its
parent, the sink last.  Sources are grouped into clusters; a cluster hands
its packets straight into the queue named by its ``attach`` (a relay or
the sink).  The three studied layouts differ only in where each cluster
of N sources attaches:

* ``build_star``    -- case 1: one cluster -> sink.
* ``build_case2``   -- two clusters -> two relays -> sink.
* ``build_case3``   -- case 2 plus a third cluster straight to the sink.

Every server sees the same utilization rho: a relay serves lambda/rho and
the sink is scaled to its total inflow, k*lambda/rho for k clusters.
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


def build_star(n: int, lambda_cluster: float = 50.0, rho: float = 0.5, *,
               threshold: int = 1000) -> TopologySpec:
    """Case 1: one cluster of n sources -> sink."""
    return _build_tree(("sink",), n, lambda_cluster, rho, threshold)


def build_case2(n: int, lambda_cluster: float = 50.0, rho: float = 0.5, *,
                threshold: int = 1000) -> TopologySpec:
    """Case 2: two clusters of n sources, each behind its own relay, then the sink."""
    return _build_tree(("relay_1", "relay_2"), n, lambda_cluster, rho, threshold)


def build_case3(n: int, lambda_cluster: float = 50.0, rho: float = 0.5, *,
                threshold: int = 1000) -> TopologySpec:
    """Case 3: case 2 plus a third cluster attached straight to the sink."""
    return _build_tree(("relay_1", "relay_2", "sink"), n, lambda_cluster, rho, threshold)


def _build_tree(attach: tuple[str, ...], n: int, lambda_cluster: float, rho: float,
                threshold: int) -> TopologySpec:
    """cluster_i (n sources, rate lambda_cluster) -> attach[i-1]; every relay
    named in ``attach`` feeds the sink.  A relay serves lambda_cluster/rho and
    the sink len(attach)*lambda_cluster/rho, so every queue sees rho."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not lambda_cluster > 0.0:
        raise ParameterError(f"lambda_cluster must be > 0, got {lambda_cluster}")
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"utilization rho must be in (0,1), got {rho}")
    if threshold < 1:
        raise ParameterError(f"threshold must be >= 1, got {threshold}")
    nodes = tuple(NodeSpec(r, "sink", lambda_cluster / rho, threshold)
                  for r in attach if r != "sink")
    nodes += (NodeSpec("sink", None, len(attach) * lambda_cluster / rho, threshold),)
    clusters = tuple(ClusterSpec(f"cluster_{i}", n, attach=node_id, arrival_rate=lambda_cluster)
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
