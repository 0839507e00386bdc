"""Deterministic simulation engine for ON/OFF sources feeding a tree of queues.

Sources alternate ON bursts (a drawn number of packets emitted at peak
rate) with drawn OFF periods.  Emitted packets drop straight into the
queue of the cluster's attachment node; every relay and the sink is a
FIFO single server with exponential service, re-drawn independently at
each hop.  Within one replication the whole trajectory is a
deterministic function of the seed.

The engine streams the nodes child-before-parent, freeing a child's arrays
once its parent has merged them, and computes each FIFO server's
departures with the recursion ``d[i] = max(a[i], d[i-1]) + s[i]`` in
closed vectorized form (``d = S + running-max(a - S_shifted)`` with
``S = cumsum(s)``), which reproduces the exact event-by-event sample path
at a fraction of the cost of a serial event loop.  Statistics are collected from packets created after the warm-up
period; buffers are infinite and overflow is counted virtually:
``overflow_prob`` is the fraction of post-warm-up-created arrivals that
find at least B packets in system, ``depart[i-B] > arrive[i]``.
"""
from __future__ import annotations

import csv
import ctypes
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

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

# glibc mallopt (param, value): never trim the heap top (2 GiB - 1, the largest
# int), pad each heap growth by 256 MiB, and serve blocks below 256 MiB from the
# heap, so the multi-MB temporaries a replication frees are reused by the next
# one instead of being unmapped and faulted back in
_MALLOPT = ((-1, (1 << 31) - 1), (-2, 256 << 20), (-3, 256 << 20))


def _keep_heap() -> None:
    """Apply ``_MALLOPT`` through ctypes; a no-op on any libc but glibc."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


_keep_heap()


@dataclass(frozen=True)
class RunConfig:
    """Per-replication measurement settings: horizon and warm-up (seconds),
    trace mode, and the overflow-counting threshold B of every queue."""

    horizon_s: float = 90_000.0   # 25 simulated hours
    warmup_s: float = 3_600.0     # statistics exclude the first hour
    trace: bool = False
    threshold: int = 1000         # overflow_prob counts arrivals that find >= B packets

    def __post_init__(self):
        if not 0.0 <= self.warmup_s < self.horizon_s:
            raise ParameterError(
                f"need 0 <= warmup_s < horizon_s, got {self.warmup_s} / {self.horizon_s}")
        if self.threshold < 1:
            raise ParameterError(f"threshold B must be >= 1, got {self.threshold}")


@dataclass
class NodeState:
    """Post-run per-node trajectory: sorted arrivals, FIFO departures, and
    the creation stamp of each arriving packet."""

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
    mean_queue_len: float
    packets: int               # post-warm-up arrivals
    arrivals_total: int
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
    off_dist = params.off_dist

    chunks: list[np.ndarray] = []
    t = float(sample(off_dist, rng))
    while t < horizon:
        want = int((horizon - t) / cycle * 1.25) + 16
        sizes = law.sample_array(rng, want)
        np.minimum(sizes, cap, out=sizes)
        offs = sample_array(off_dist, rng, want)
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
    stream with per-packet service times ``service``.  Non-decreasing for
    any non-negative service (ties and zeros included), being the rounded sum
    of two non-decreasing arrays; the overflow count and handoff rely on it."""
    depart = np.cumsum(service)                   # S[i]
    slack = np.subtract(arrive, depart)
    slack += service                              # a[i] - S[i-1]
    np.maximum.accumulate(slack, out=slack)       # max over j<=i of (a[j] - S[j-1])
    depart += slack
    return depart


def packets_seen(arrive: np.ndarray, depart: np.ndarray) -> np.ndarray:
    """Packets already in system (queued + in service) found by each arrival."""
    return np.arange(arrive.size, dtype=np.int64) - np.searchsorted(
        depart, arrive, side="right")


def estimate_overflow(state: NodeState, mask: np.ndarray, B: int) -> float:
    """Fraction of the arrivals selected by ``mask`` that find >= ``B``
    packets in the node: departures are sorted, so arrival i does iff
    ``depart[i-B] > arrive[i]``.  Buffers are infinite; nothing is dropped.
    With no selected arrivals the probability is 0."""
    n = int(np.count_nonzero(mask))
    if n == 0:
        return 0.0
    k = max(state.arrive.size - B, 0)     # arrivals with at least B predecessors
    hits = np.count_nonzero((state.depart[:k] > state.arrive[B:]) & mask[B:])
    return hits / n


def time_average_in_system(arrive: np.ndarray, depart: np.ndarray,
                           lo: float, hi: float) -> float:
    """Time-averaged number in system over the window (lo, hi]: the clipped
    ``min(depart, hi) - max(arrive, lo)``, built in one array from the
    prefixes and suffixes the sorted inputs split into."""
    if arrive.size == 0 or hi <= lo:
        return 0.0
    done, first = np.searchsorted(depart, hi, "right"), np.searchsorted(arrive, lo, "right")
    overlap = np.empty(arrive.size)
    overlap[:done], overlap[done:] = depart[:done], hi
    overlap[:first] -= lo
    overlap[first:] -= arrive[first:]
    np.clip(overlap, 0.0, None, out=overlap)
    return float(overlap.sum() / (hi - lo))


def simulate(topo: TopologySpec, source: SourceParams,
             config: RunConfig, seed: int) -> Iterator[tuple[str, NodeState]]:
    """Yield ``(node_id, state)`` per queue node of one replication, in the
    serving order of ``topo.nodes``, keeping no yielded state.  Every source
    of every cluster follows the one law ``source``.  Identical (topology,
    source, config, seed) give bitwise-identical trajectories."""
    issues = validate_topology(topo)
    if issues:
        raise ParameterError("invalid topology: " + "; ".join(issues))
    horizon = config.horizon_s
    carried = ("created", "cluster") + (_TRACE_PAYLOAD if config.trace else ())
    law = bulk_law_for(source.on_kind, source.n_p)

    def emitted(ci: int, cluster) -> dict:
        # each source has its own substream, so emitting on demand keeps the bytes
        streams = []
        for si in range(cluster.n_sources):
            rng = substream(derive_seed(seed, _SRC_TAG, ci, si))
            times = source_emit(source, law, rng, horizon)
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
        return merged

    pending: dict[str, dict] = {}   # child id -> the part of its output that reaches its parent
    for node in topo.nodes:
        merged = _merge_inputs(
            [pending.pop(child_id) for child_id in topo.children_of(node.node_id)]
            + [emitted(ci, c) for ci, c in enumerate(topo.clusters) if c.attach == node.node_id])
        arrive = merged.pop("times")
        svc_rng = substream(derive_seed(seed, _SVC_TAG, fnv1a64(node.node_id)))
        depart = fifo_departures(arrive, svc_rng.exponential(1.0 / node.service_rate, arrive.size))
        if node.parent is not None:
            k = np.searchsorted(depart, horizon, "right")  # later ones never reach the parent
            pending[node.node_id] = {"times": depart[:k],
                                     **{key: merged[key][:k] for key in carried}}
        yield node.node_id, NodeState(arrive=arrive, depart=depart, **merged)
        del arrive, depart, merged   # else they would pin this child while its parent merges


def run_replication(topo: TopologySpec, source: SourceParams,
                    config: RunConfig, seed: int) -> ReplicationResult:
    """Execute one replication (``simulate``), taking each node's metrics as
    its state streams by; only the sink's state is kept (every node's in
    trace mode).

    A node whose mean load, ``source.K`` times the sources whose packets
    pass through it, reaches its service rate is allowed but flagged
    ``saturated``.
    """
    clusters = list(topo.clusters)
    metrics: dict[str, NodeMetrics] = {}
    states: dict[str, NodeState] = {}
    for node_id, st in simulate(topo, source, config, seed):
        metrics[node_id] = _node_metrics(st, config, len(clusters))
        if config.trace or node_id == topo.sink_id:
            states[node_id] = st
        del st   # else it would pin this child while its parent merges
    saturated = any(source.K * topo.sources_through(node.node_id)
                    >= node.service_rate * (1.0 - 1e-12) for node in topo.nodes)
    per_cluster, overall_e2e, overall_n = _cluster_metrics(
        clusters, states[topo.sink_id], metrics, config)
    return ReplicationResult(
        saturated=saturated, per_node=metrics, per_cluster=per_cluster,
        overall_e2e_s=overall_e2e, overall_packets=overall_n,
        trace=_trace_columns(clusters, states) if config.trace else None)


def _node_metrics(state: NodeState, config: RunConfig, n_clusters: int) -> NodeMetrics:
    horizon, warmup = config.horizon_s, config.warmup_s
    n, window = state.arrive.size, horizon - warmup
    first = np.searchsorted(state.arrive, warmup, "right")   # arrivals never exceed the horizon
    done = np.searchsorted(state.depart, horizon, "right")
    throughput = float((n - first) / window)

    created_mask = state.created > warmup
    sojourn = state.depart[:done][created_mask[:done]]
    sojourn -= state.arrive[:done][created_mask[:done]]
    mpd = float(np.mean(sojourn)) if sojourn.size else 0.0
    del sojourn   # before the overlap array of time_average_in_system is built
    overflow = estimate_overflow(state, created_mask, config.threshold)
    queue_len = time_average_in_system(state.arrive, state.depart, warmup, horizon)

    idx = state.cluster[first:]
    cluster_thr = {ci: float(np.count_nonzero(idx == ci) / window) for ci in range(n_clusters)}
    return NodeMetrics(
        mpd_s=mpd, throughput_pps=throughput, overflow_prob=overflow, mean_queue_len=queue_len,
        packets=int(created_mask.sum()), arrivals_total=n,
        cluster_throughput_pps=cluster_thr)


def _cluster_metrics(clusters, sink, node_metrics, config: RunConfig):
    done = np.searchsorted(sink.depart, config.horizon_s, "right")
    measured = sink.created[:done] > config.warmup_s
    e2e = sink.depart[:done][measured]
    e2e -= sink.created[:done][measured]
    idx = sink.cluster[:done][measured]
    # bincount's sequential summation order sets the bits of the e2e sums; counts are exact
    sums = np.bincount(idx, weights=e2e, minlength=len(clusters))
    counts = [np.count_nonzero(idx == ci) for ci in range(len(clusters))]
    overall_n = sum(counts)
    overall_e2e = float(sums.sum() / overall_n) if overall_n else 0.0
    per_cluster: dict[str, ClusterMetrics] = {}
    for ci, cluster in enumerate(clusters):
        n = counts[ci]
        per_cluster[cluster.cluster_id] = ClusterMetrics(
            e2e_delay_s=float(sums[ci] / n) if n else 0.0,
            throughput_pps=node_metrics[cluster.attach].cluster_throughput_pps[ci],
            packets=n)
    return per_cluster, overall_e2e, overall_n


def _merge_inputs(inputs: list[dict]) -> dict:
    """Merge sorted input streams into one sorted stream.  Empty inputs are
    skipped; a single input is returned as is.

    Inputs that carry only ``times`` (a cluster's source streams outside
    trace mode) are concatenated and value-sorted in place: emission times
    are finite, non-negative and never -0.0, so equal values have equal bits
    and the result is the stable merge's, bit for bit.  Inputs with more keys
    take one stable argsort over the inputs in their given order, so on
    simultaneous events the earlier input goes first, and a gather per key;
    each key is popped from the inputs once gathered, so an input array no
    one else holds is freed before the next key is built."""
    if not inputs:
        return {"times": np.empty(0), "created": np.empty(0),
                "cluster": np.empty(0, dtype=np.int16), "source": np.empty(0, dtype=np.int32),
                "pid": np.empty(0, dtype=np.int64), "size": np.empty(0)}
    inputs = [s for s in inputs if s["times"].size] or inputs[:1]
    if len(inputs) == 1:
        return inputs[0]
    if inputs[0].keys() == {"times"}:
        times = np.concatenate([s["times"] for s in inputs])
        times.sort()
        return {"times": times}
    order = np.argsort(np.concatenate([s["times"] for s in inputs]), kind="stable")
    return {key: np.concatenate([s.pop(key) for s in inputs])[order] for key in list(inputs[0])}


def _trace_columns(clusters, states: dict[str, NodeState]) -> dict[str, list]:
    """The per-hop trace as TRACE_COLUMNS: one row per (queue node, arrival),
    ordered by cluster, source, packet id and arrival time, so each packet's
    hops are adjacent and in path order."""
    hops, nodes = list(states), list(states.values())

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
        "hop_node": np.array(hops)[hop].tolist(),
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
