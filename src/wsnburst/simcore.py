"""Deterministic simulation engine for ON/OFF sources feeding a tree of queues.

Sources alternate ON bursts (a drawn number of packets emitted at peak
rate) with drawn OFF periods.  Emitted packets drop straight into the
queue of the cluster's attachment node; every relay and the sink is a
FIFO single server with exponential service, re-drawn independently at
each hop.  Within one replication the whole trajectory is a
deterministic function of the seed.

The engine evaluates nodes in child-before-parent order and computes
each FIFO server's departures with the recursion
``d[i] = max(a[i], d[i-1]) + s[i]`` in closed vectorized form
(``d = S + running-max(a - S_shifted)`` with ``S = cumsum(s)``), which
reproduces the exact event-by-event sample path at a fraction of the
cost of a serial event loop.  Statistics are collected from packets
created after the warm-up period; buffers are infinite and overflow is
counted virtually (arrivals that find at least B packets in system).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .dists import ParameterError, sample, sample_array
from .model import EMISSION_POISSON, BulkSizeLaw, SourceParams, bulk_law_for
from .rng import derive_seed, fnv1a64, substream
from .topology import TopologySpec, validate_topology

_SRC_TAG = fnv1a64("source")
_SVC_TAG = fnv1a64("service")
_SIZE_TAG = fnv1a64("size")

MEAN_PACKET_BYTES = 100.0  # recorded on traces only; service is drawn per hop

TRACE_COLUMNS = ("packet_id", "source_id", "cluster_id", "created_at",
                 "hop_node", "arrive", "depart", "size_bytes")
_TRACE_PAYLOAD = ("source", "pid", "size")   # per-arrival arrays carried in trace mode


@dataclass(frozen=True)
class RunConfig:
    """Per-replication horizon settings (seconds)."""

    horizon_s: float = 90_000.0   # 25 simulated hours
    warmup_s: float = 3_600.0     # statistics exclude the first hour
    trace: bool = False

    def __post_init__(self):
        if not 0.0 <= self.warmup_s < self.horizon_s:
            raise ParameterError(
                f"need 0 <= warmup_s < horizon_s, got {self.warmup_s} / {self.horizon_s}")


@dataclass
class NodeState:
    """Post-run per-node trajectory: sorted arrivals, FIFO departures, and
    the creation stamp of each arriving packet."""

    node_id: str
    threshold: int
    arrive: np.ndarray
    depart: np.ndarray
    created: np.ndarray
    cluster: np.ndarray            # cluster index of each arrival
    source: Optional[np.ndarray] = None   # trace mode only
    pid: Optional[np.ndarray] = None      # trace mode only
    size: Optional[np.ndarray] = None     # trace mode only


@dataclass(frozen=True)
class NodeMetrics:
    mpd_s: float
    throughput_pps: float
    overflow_prob: float
    overflow_defined: bool
    mean_queue_len: float
    packets: int               # post-warm-up arrivals
    arrivals_total: int
    in_system_at_horizon: int
    cluster_throughput_pps: dict[int, float]


@dataclass(frozen=True)
class ClusterMetrics:
    e2e_delay_s: float
    throughput_pps: float      # measured at the cluster's entry queue
    packets: int               # completed post-warm-up packets


@dataclass
class ReplicationResult:
    saturated: bool
    per_node: dict[str, NodeMetrics]
    per_cluster: dict[str, ClusterMetrics]
    overall_e2e_s: float
    overall_packets: int
    trace: Optional[dict[str, list]] = None   # TRACE_COLUMNS -> one list per column


def source_emit(params: SourceParams, law: BulkSizeLaw, rng: np.random.Generator,
                horizon: float) -> np.ndarray:
    """Emission times of one source over [0, horizon), strictly increasing.

    Each cycle draws a burst size L, emits L packets (evenly spaced
    1/lambda_p apart, or after Exponential(1/lambda_p) gaps in poisson
    mode; either way the burst occupies L slots so the long-run rate is
    exactly K), then stays quiet for an OFF draw.  The source cold-starts
    in an OFF period; bursts cut by the horizon are emitted partially.
    """
    if not horizon > 0.0:
        raise ParameterError(f"horizon must be > 0, got {horizon}")
    lam_p = params.lambda_p
    # bursts longer than the horizon are equivalent once truncated
    span = horizon * lam_p
    cap = int(span + 6.0 * math.sqrt(span) + 64.0)
    cycle = params.on_mean + params.off_mean
    poisson = params.emission_mode == EMISSION_POISSON

    chunks: list[np.ndarray] = []
    t = float(sample(params.off_dist, rng))
    while t < horizon:
        want = int((horizon - t) / cycle * 1.25) + 16
        sizes = law.sample_array(rng, want)
        np.minimum(sizes, cap, out=sizes)
        offs = sample_array(params.off_dist, rng, want)
        # per-packet increments; a burst's first packet also absorbs the OFF
        # period that precedes it (a burst occupies one slot/gap per packet,
        # so the long-run rate is exactly K)
        if poisson:
            inc = rng.exponential(1.0 / lam_p, int(sizes.sum()))
        else:
            inc = np.full(int(sizes.sum()), 1.0 / lam_p)
        inc[np.cumsum(sizes[:-1])] += offs[:-1]   # each later burst's first packet
        if not poisson:
            inc[0] = 0.0      # constant-rate bursts begin with a packet
        emissions = np.cumsum(inc)
        emissions += t
        t = float(emissions[-1] + offs[-1] + (0.0 if poisson else 1.0 / lam_p))
        chunks.append(emissions)
    times = np.concatenate(chunks) if chunks else np.empty(0)
    return times[times < horizon]


def fifo_departures(arrive: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Departure times of a FIFO single server fed the sorted ``arrive``
    stream with per-packet service times ``service``."""
    total = np.cumsum(service)
    slack = arrive - total + service          # a[i] - S[i-1]
    np.maximum.accumulate(slack, out=slack)   # max over j<=i of (a[j] - S[j-1])
    return slack + total


def packets_seen(arrive: np.ndarray, depart: np.ndarray) -> np.ndarray:
    """Packets already in system (queued + in service) found by each arrival."""
    return np.arange(arrive.size, dtype=np.int64) - np.searchsorted(
        depart, arrive, side="right")


def estimate_overflow(state: NodeState, warmup: float) -> tuple[float, bool]:
    """Fraction of post-warm-up arrivals finding >= threshold packets in the
    node.  Buffers are infinite; nothing is dropped.  With no measurable
    arrivals the probability is reported as 0 with a defined=False flag."""
    mask = state.created > warmup
    n = int(mask.sum())
    if n == 0:
        return 0.0, False
    seen = packets_seen(state.arrive, state.depart)
    hits = int(np.count_nonzero(seen[mask] >= state.threshold))
    return hits / n, True


def time_average_in_system(arrive: np.ndarray, depart: np.ndarray,
                           lo: float, hi: float) -> float:
    """Time-averaged number in system over the window (lo, hi]."""
    if arrive.size == 0 or hi <= lo:
        return 0.0
    overlap = np.minimum(depart, hi) - np.maximum(arrive, lo)
    np.clip(overlap, 0.0, None, out=overlap)
    return float(overlap.sum() / (hi - lo))


def simulate(topo: TopologySpec, sources: Mapping[str, SourceParams],
             config: RunConfig, seed: int) -> dict[str, NodeState]:
    """Per-node trajectories of one replication, in child-before-parent order.

    ``sources`` maps cluster_id to the per-source parameters of that
    cluster (all sources of a cluster are identical).  Identical
    (topology, sources, config, seed) give bitwise-identical trajectories.
    """
    issues = validate_topology(topo)
    if issues:
        raise ParameterError("invalid topology: " + "; ".join(issues))
    horizon = config.horizon_s
    carried = ("created", "cluster") + (_TRACE_PAYLOAD if config.trace else ())

    # per-cluster merged emission streams
    emissions: dict[str, dict] = {}
    for ci, cluster in enumerate(topo.clusters):
        params = sources[cluster.cluster_id] if cluster.n_sources else None
        law = bulk_law_for(params) if params is not None else None
        streams = []
        for si in range(cluster.n_sources):
            rng = substream(derive_seed(seed, _SRC_TAG, ci, si))
            times = source_emit(params, law, rng, horizon)
            stream = {"times": times}
            if config.trace:
                size_rng = substream(derive_seed(seed, _SIZE_TAG, ci, si))
                stream.update(source=np.full(times.size, si, dtype=np.int32),
                              pid=np.arange(times.size, dtype=np.int64),
                              size=size_rng.exponential(MEAN_PACKET_BYTES, times.size))
            streams.append(stream)
        merged = _merge_inputs(streams)
        merged["created"] = merged["times"]
        merged["cluster"] = np.full(merged["times"].size, ci, dtype=np.int16)
        emissions[cluster.cluster_id] = merged

    states: dict[str, NodeState] = {}
    for node in topo.queue_nodes():
        inputs: list[dict] = []
        for child_id in topo.children_of(node.node_id):
            st = states[child_id]
            mask = st.depart <= horizon    # later departures never reach the parent
            inputs.append({"times": st.depart[mask],
                           **{key: getattr(st, key)[mask] for key in carried}})
        inputs.extend(emissions[c.cluster_id] for c in topo.clusters_at(node.node_id))

        merged = _merge_inputs(inputs)
        arrive = merged.pop("times")
        svc_rng = substream(derive_seed(seed, _SVC_TAG, fnv1a64(node.node_id)))
        service = svc_rng.exponential(1.0 / node.service_rate, arrive.size)
        depart = fifo_departures(arrive, service)
        del service
        states[node.node_id] = NodeState(
            node_id=node.node_id, threshold=node.threshold, arrive=arrive,
            depart=depart, **merged)
    return states


def run_replication(topo: TopologySpec, sources: Mapping[str, SourceParams],
                    config: RunConfig, seed: int) -> ReplicationResult:
    """Execute one replication (``simulate``) and collect per-node /
    per-cluster metrics; the trajectories are dropped on return.

    Offered load >= service rate anywhere is allowed but flagged
    ``saturated``.
    """
    states = simulate(topo, sources, config, seed)
    horizon, warmup = config.horizon_s, config.warmup_s
    clusters = list(topo.clusters)
    metrics = {node_id: _node_metrics(st, warmup, horizon, len(clusters))
               for node_id, st in states.items()}
    saturated = any(topo.offered_load(node.node_id) >= node.service_rate * (1.0 - 1e-12)
                    for node in topo.queue_nodes())
    per_cluster, overall_e2e, overall_n = _cluster_metrics(
        clusters, states[topo.sink_id], metrics, warmup, horizon)
    return ReplicationResult(
        saturated=saturated, per_node=metrics, per_cluster=per_cluster,
        overall_e2e_s=overall_e2e, overall_packets=overall_n,
        trace=_trace_columns(clusters, states) if config.trace else None)


def _node_metrics(state: NodeState, warmup: float, horizon: float,
                  n_clusters: int) -> NodeMetrics:
    created_mask = state.created > warmup
    window = horizon - warmup
    in_window = state.arrive > warmup   # arrivals never exceed the horizon
    throughput = float(np.count_nonzero(in_window) / window)

    measured = created_mask & (state.depart <= horizon)
    if measured.any():
        mpd = float(np.mean(state.depart[measured] - state.arrive[measured]))
    else:
        mpd = 0.0
    overflow, defined = estimate_overflow(state, warmup)
    queue_len = time_average_in_system(state.arrive, state.depart, warmup, horizon)

    per_cluster_counts = np.bincount(state.cluster[in_window], minlength=n_clusters)
    cluster_thr = {ci: float(c / window) for ci, c in enumerate(per_cluster_counts)}
    arrivals = int(state.arrive.size)
    departed = int(np.searchsorted(state.depart, horizon, side="right"))
    return NodeMetrics(
        mpd_s=mpd, throughput_pps=throughput, overflow_prob=overflow,
        overflow_defined=defined, mean_queue_len=queue_len,
        packets=int(created_mask.sum()), arrivals_total=arrivals,
        in_system_at_horizon=arrivals - departed,
        cluster_throughput_pps=cluster_thr)


def _cluster_metrics(clusters, sink, node_metrics, warmup, horizon):
    measured = (sink.created > warmup) & (sink.depart <= horizon)
    e2e = sink.depart[measured] - sink.created[measured]
    idx = sink.cluster[measured]
    sums = np.bincount(idx, weights=e2e, minlength=len(clusters))
    counts = np.bincount(idx, minlength=len(clusters))
    overall_n = int(counts.sum())
    overall_e2e = float(sums.sum() / overall_n) if overall_n else 0.0
    per_cluster: dict[str, ClusterMetrics] = {}
    for ci, cluster in enumerate(clusters):
        n = int(counts[ci])
        per_cluster[cluster.cluster_id] = ClusterMetrics(
            e2e_delay_s=float(sums[ci] / n) if n else 0.0,
            throughput_pps=node_metrics[cluster.attach].cluster_throughput_pps[ci],
            packets=n)
    return per_cluster, overall_e2e, overall_n


def _merge_inputs(inputs: list[dict]) -> dict:
    """Merge sorted input streams into one sorted stream: one stable sort
    over the inputs in their given order, so on simultaneous events the
    earlier input goes first.  Empty inputs are skipped; a single input is
    returned as is."""
    if not inputs:
        return {"times": np.empty(0), "created": np.empty(0),
                "cluster": np.empty(0, dtype=np.int16), "source": np.empty(0, dtype=np.int32),
                "pid": np.empty(0, dtype=np.int64), "size": np.empty(0)}
    inputs = [s for s in inputs if s["times"].size] or inputs[:1]
    if len(inputs) == 1:
        return inputs[0]
    order = np.argsort(np.concatenate([s["times"] for s in inputs]), kind="stable")
    return {key: np.concatenate([s[key] for s in inputs])[order] for key in inputs[0]}


def _trace_columns(clusters, states: dict[str, NodeState]) -> dict[str, list]:
    """The per-hop trace as TRACE_COLUMNS: one row per (queue node, arrival),
    ordered by cluster, source, packet id and arrival time, so each packet's
    hops are adjacent and in path order."""
    nodes = list(states.values())

    def joined(key: str) -> np.ndarray:
        return np.concatenate([getattr(st, key) for st in nodes])

    cluster, source, pid, arrive = (joined(k) for k in ("cluster", "source", "pid", "arrive"))
    order = np.lexsort((arrive, pid, source, cluster))
    cluster, source = cluster[order].astype(np.int64), source[order]
    width = max((c.n_sources for c in clusters), default=0)
    source_ids = [f"c{ci + 1}s{si}" for ci in range(len(clusters)) for si in range(width)]
    hop = np.repeat(np.arange(len(nodes)), [st.arrive.size for st in nodes])[order]
    return {
        "packet_id": pid[order].tolist(),
        "source_id": np.array(source_ids)[cluster * width + source].tolist(),
        "cluster_id": np.array([c.cluster_id for c in clusters])[cluster].tolist(),
        "created_at": joined("created")[order].tolist(),
        "hop_node": np.array([st.node_id for st in nodes])[hop].tolist(),
        "arrive": arrive[order].tolist(),
        "depart": joined("depart")[order].tolist(),
        "size_bytes": joined("size")[order].tolist(),
    }


def write_trace_csv(trace: dict[str, list], path) -> None:
    """Per-hop trace dump: a TRACE_COLUMNS header, then one row per hop."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*(trace[name] for name in TRACE_COLUMNS)))
