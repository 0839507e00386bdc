"""Topology builders and structural validation."""
import pytest
from dataclasses import replace

from wsnburst.dists import ParameterError
from wsnburst.topology import (ClusterSpec, NodeSpec, TopologySpec, build_case2,
                               build_case3, build_star, validate_topology)


def test_build_star_depth_and_utilization():
    topo = build_star(1, 50.0, 100.0, threshold=1000)
    assert validate_topology(topo) == []
    assert [n.node_id for n in topo.nodes] == ["sink"] and topo.sink_id == "sink"
    assert topo.clusters_at("sink") == list(topo.clusters)
    sink = topo.node("sink")
    assert topo.offered_load("sink") / sink.service_rate == pytest.approx(0.5)


def test_build_star_many_sources_share_rate():
    topo = build_star(10, 50.0, 100.0)
    c = topo.clusters[0]
    assert c.n_sources == 10
    assert c.arrival_rate / c.n_sources == pytest.approx(5.0)  # K per source


def test_build_star_rejects_zero_rate():
    with pytest.raises(ParameterError):
        build_star(1, 0.0, 100.0)


def test_build_star_refuses_bad_sink():
    build_star(1, 50.0, 100.0, threshold=1000)
    with pytest.raises(ParameterError, match="utilization"):
        build_star(1, 100.0, 100.0, threshold=1000)   # rho = 1
    with pytest.raises(ParameterError, match="service rate"):
        build_star(1, 50.0, 0.0, threshold=1000)
    with pytest.raises(ParameterError, match="threshold"):
        build_star(1, 50.0, 100.0, threshold=0)


def test_build_case2_rates_and_depth():
    topo = build_case2(1, 50.0, 0.5)
    assert validate_topology(topo) == []
    assert topo.node("relay_1").service_rate == pytest.approx(100.0)
    assert topo.node("relay_2").service_rate == pytest.approx(100.0)
    assert topo.node("sink").service_rate == pytest.approx(200.0)
    # utilization identity rho = load/v holds exactly at every server
    for node_id in ("relay_1", "relay_2", "sink"):
        v = topo.node(node_id).service_rate
        assert topo.offered_load(node_id) == 0.5 * v


def test_build_case2_any_n_keeps_depth():
    for n in (1, 2, 5, 10):
        topo = build_case2(n, 50.0, 0.5)
        assert [node.node_id for node in topo.nodes] == ["relay_1", "relay_2", "sink"]
        assert validate_topology(topo) == []
        for c in topo.clusters:
            assert c.arrival_rate / c.n_sources == pytest.approx(50.0 / n)


def test_build_case2_sink_override():
    topo = build_case2(1, 50.0, 0.5, sink_service_rate=100.0)
    assert topo.node("sink").service_rate == 100.0


def test_build_case3_rates_and_paths():
    topo = build_case3(1, 50.0, 0.5)
    assert validate_topology(topo) == []
    assert topo.node("sink").service_rate == pytest.approx(300.0)
    # direct cluster: one queue hop; relayed clusters: two
    assert [c.cluster_id for c in topo.clusters_at("sink")] == ["cluster_3"]
    assert [c.cluster_id for c in topo.clusters_at("relay_1")] == ["cluster_1"]
    assert topo.children_of("sink") == ["relay_1", "relay_2"]
    assert topo.offered_load("sink") == pytest.approx(150.0)
    for node_id in ("relay_1", "relay_2", "sink"):
        v = topo.node(node_id).service_rate
        assert topo.offered_load(node_id) == 0.5 * v


def test_nodes_listed_children_before_parents():
    topo = build_case3(1, 50.0, 0.5)
    order = [n.node_id for n in topo.nodes]
    assert order.index("relay_1") < order.index("sink")
    assert order.index("relay_2") < order.index("sink")
    assert order[-1] == topo.sink_id == "sink" and topo.nodes[-1].parent is None
    assert [n.parent for n in topo.nodes[:-1]] == ["sink", "sink"]


def test_validate_detects_multiple_sinks():
    topo = build_star(1, 50.0, 100.0)
    broken = replace(topo, nodes=topo.nodes + (
        NodeSpec("sink2", None, service_rate=10.0, threshold=10),))
    issues = validate_topology(broken)
    assert any("sink" in i for i in issues)


def test_validate_detects_cycle():
    nodes = (
        NodeSpec("relay_1", "relay_2", 100.0, 10),
        NodeSpec("relay_2", "relay_1", 100.0, 10),
        NodeSpec("sink", None, 100.0, 10),
    )
    spec = TopologySpec(nodes=nodes, clusters=(ClusterSpec("cluster_1", 1, "relay_1", 5.0),))
    issues = validate_topology(spec)
    assert any("not a tree" in i for i in issues)


def test_validate_detects_bad_cluster_attachment():
    topo = build_star(1, 50.0, 100.0)
    broken = replace(topo, clusters=(
        ClusterSpec("cluster_1", 1, "cluster_1", 50.0),))
    assert any("cluster" in i for i in validate_topology(broken))


def test_validate_detects_missing_service_rate():
    topo = build_star(1, 50.0, 100.0)
    nodes = tuple(replace(n, service_rate=0.0) if n.parent is None else n for n in topo.nodes)
    assert any("service rate" in i for i in validate_topology(replace(topo, nodes=nodes)))
