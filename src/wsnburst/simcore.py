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
at a fraction of the cost of a serial event loop.  Each queue draws its
services _BLOCK at a time into one reused buffer, carrying the service sum
and slack maximum between blocks, so its FIFO stage allocates 8 B per
arrival plus a few blocks.  Statistics are collected from packets created
after the warm-up period; buffers are infinite and overflow is counted virtually:
``overflow_prob`` is the fraction of post-warm-up-created arrivals that
find at least B packets in system, ``depart[i-B] > arrive[i]``.  One pass
per queue takes its metrics, and at the sink the end-to-end sums, from the
suffix of arrivals past the warm-up, a slice; behind relays (``created is
not arrive``) a filter over that suffix drops the packets created before it.
That pass reuses one n-length buffer, and streams with payload keys are
merged window by window into preallocated outputs, so the case-2/3 sink, a
replication's peak, allocates its merged state, a few windows and 8 B per arrival.
In const mode a source builds no packet of a burst that starts past the horizon.
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
# packets per block of service draws and FIFO walk; a payload merge cuts a
# stream of n packets into n // _BLOCK windows
_BLOCK = 1 << 15

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
    packets: int               # completed post-warm-up packets


@dataclass
class ReplicationResult:
    saturated: bool
    per_node: dict[str, NodeMetrics]
    per_cluster: dict[str, ClusterMetrics]
    overall_e2e_s: float
    trace: Optional[dict[str, list]] = None   # TRACE_COLUMNS -> one list per column


def source_emit(params: SourceParams, law: BulkSizeLaw, rng: np.random.Generator,
                horizon: float) -> np.ndarray:
    """Emission times of one source over [0, horizon), strictly increasing.

    Each cycle draws a burst size L, emits L packets (evenly spaced
    1/lambda_p apart, or after Exponential(1/lambda_p) gaps in poisson
    mode; either way the burst occupies L slots so the long-run rate is
    exactly K), then stays quiet for an OFF draw.  The source cold-starts
    in an OFF period; bursts cut by the horizon are emitted partially.  In
    const mode only the bursts that start before the horizon are built;
    poisson mode draws a gap per packet, so it builds its last chunk whole.
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

    chunks = [np.empty(0)]   # the empty head is all a source silent to the horizon returns
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
            # only bursts starting before the horizon: burst j+1 starts at t + sum_{i<=j}
            # (sizes[i]/lambda_p + offs[i]), up to rounding that the 1e-6 margin covers
            starts = np.cumsum(sizes / lam_p + offs)
            starts += t
            keep = int(np.searchsorted(starts, horizon * (1.0 + 1e-6))) + 1
            sizes, offs = sizes[:keep], offs[:keep]
            inc = np.full(int(sizes.sum()), 1.0 / lam_p)
        inc[np.cumsum(sizes[:-1])] += offs[:-1]   # each later burst's first packet
        if not poisson:
            inc[0] = 0.0      # constant-rate bursts begin with a packet
        emissions = np.cumsum(inc, out=inc)
        emissions += t
        chunks.append(emissions)
        if sizes.size < want:
            break     # a dropped burst starts at or past the horizon, so t would too
        t = float(emissions[-1] + offs[-1] + (0.0 if poisson else 1.0 / lam_p))
    # only the last chunk reaches the horizon: each earlier one ends before the t after it;
    # a lone chunk is returned as a view of its buffer, not copied
    chunks[-1] = chunks[-1][:np.searchsorted(chunks[-1], horizon)]
    return chunks[1] if len(chunks) == 2 else np.concatenate(chunks)


def fifo_departures(arrive: np.ndarray, service: np.ndarray,
                    out: Optional[np.ndarray] = None, carry: Optional[list] = None) -> np.ndarray:
    """Departure times of a FIFO single server fed the sorted ``arrive``
    stream with per-packet service times ``service``.  Non-decreasing for
    any non-negative service (ties and zeros included), being the rounded sum
    of two non-decreasing arrays; the overflow count and handoff rely on it.

    Block by block, ``carry`` is ``[S, M]``, the service sum and slack maximum
    before the block, advanced in place, and ``out`` takes the block's
    departures; both scans are sequential, so the blocks give one-shot bits."""
    total, reach = carry or (0.0, -math.inf)
    depart = np.empty_like(service) if out is None else out
    depart[:] = service
    depart[:1] += total
    np.cumsum(depart, out=depart)                 # S[i]
    slack = np.subtract(arrive, depart)
    slack += service                              # a[i] - S[i-1]
    np.fmax(slack[:1], reach, out=slack[:1])
    np.fmax.accumulate(slack, out=slack)          # max over j<=i of (a[j] - S[j-1])
    if carry is not None:
        carry[:] = depart[-1], slack[-1]
    depart += slack
    return depart


def packets_seen(arrive: np.ndarray, depart: np.ndarray) -> np.ndarray:
    """Packets already in system (queued + in service) found by each arrival."""
    return np.arange(arrive.size, dtype=np.int64) - np.searchsorted(
        depart, arrive, side="right")


def estimate_overflow(state: NodeState, first: int, B: int, keep=None) -> float:
    """Fraction of the measured arrivals that find >= ``B`` packets in the
    node: departures are sorted, so arrival i does iff ``depart[i-B] >
    arrive[i]``.  The measured arrivals are the suffix ``[first:]``, or those
    of it where the boolean ``keep`` over that suffix is True.  Buffers are
    infinite; nothing is dropped.  With no measured arrivals it is 0."""
    lo = max(B, first)    # arrivals with at least B predecessors
    hits = state.depart[lo - B:max(state.arrive.size - B, 0)] > state.arrive[lo:]
    if keep is not None:
        hits &= keep[lo - first:]
    n = state.arrive.size - first if keep is None else int(np.count_nonzero(keep))
    return np.count_nonzero(hits) / n if n else 0.0


def time_average_in_system(arrive: np.ndarray, depart: np.ndarray,
                           lo: float, hi: float, out: Optional[np.ndarray] = None) -> float:
    """Time-averaged number in system over the window (lo, hi]: the clipped
    ``min(depart, hi) - max(arrive, lo)``, built in one array from the
    prefixes and suffixes the sorted inputs split into; that array is the
    head of ``out`` when one at least as long as ``arrive`` is given."""
    if arrive.size == 0 or hi <= lo:
        return 0.0
    done, first = np.searchsorted(depart, hi, "right"), np.searchsorted(arrive, lo, "right")
    overlap = np.empty(arrive.size) if out is None else out[:arrive.size]
    overlap[:done], overlap[done:] = depart[:done], hi
    overlap[:first] -= lo
    overlap[first:] -= arrive[first:]
    np.clip(overlap, 0.0, None, out=overlap)
    return float(overlap.sum() / (hi - lo))


def _serve(arrive: np.ndarray, rng: np.random.Generator, mean_service: float) -> np.ndarray:
    """FIFO departures for ``arrive``, its Exponential(``mean_service``) services
    drawn from ``rng`` _BLOCK at a time into one buffer; numpy draws ``exponential``
    as scale times a standard exponential, so the bits equal one full draw's."""
    depart, carry = np.empty(arrive.size), [0.0, -math.inf]
    buf = np.empty(min(arrive.size, _BLOCK))
    for lo in range(0, arrive.size, _BLOCK):
        service = buf[:arrive.size - lo]
        rng.standard_exponential(out=service)
        service *= mean_service
        fifo_departures(arrive[lo:lo + _BLOCK], service, out=depart[lo:lo + _BLOCK],
                        carry=carry)
    return depart


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
        depart = _serve(arrive, svc_rng, 1.0 / node.service_rate)
        if node.parent is not None:
            k = np.searchsorted(depart, horizon, "right")  # later ones never reach the parent
            pending[node.node_id] = {"times": depart[:k],
                                     **{key: merged[key][:k] for key in carried}}
        yield node.node_id, NodeState(arrive=arrive, depart=depart, **merged)
        del arrive, depart, merged   # else they would pin this child while its parent merges


def run_replication(topo: TopologySpec, source: SourceParams,
                    config: RunConfig, seed: int) -> ReplicationResult:
    """Execute one replication (``simulate``), taking each node's metrics as
    its state streams by, and the end-to-end delays from the sink's; states
    are kept only in trace mode.

    A node whose mean load, ``source.K`` times the sources whose packets
    pass through it, reaches its service rate is allowed but flagged
    ``saturated``.
    """
    clusters = list(topo.clusters)
    metrics: dict[str, NodeMetrics] = {}
    states: dict[str, NodeState] = {}
    for node_id, st in simulate(topo, source, config, seed):
        metrics[node_id], e2e = _node_metrics(st, config, len(clusters), node_id == topo.sink_id)
        if config.trace:
            states[node_id] = st
        del st   # else it would pin this child while its parent merges
    sums, counts = e2e   # the sink is served last
    saturated = any(source.K * topo.sources_through(node.node_id)
                    >= node.service_rate * (1.0 - 1e-12) for node in topo.nodes)
    overall_n = sum(counts)
    per_cluster = {cluster.cluster_id: ClusterMetrics(
        e2e_delay_s=float(sums[ci] / counts[ci]) if counts[ci] else 0.0, packets=counts[ci])
        for ci, cluster in enumerate(clusters)}
    return ReplicationResult(
        saturated=saturated, per_node=metrics, per_cluster=per_cluster,
        overall_e2e_s=float(sums.sum() / overall_n) if overall_n else 0.0,
        trace=_trace_columns(clusters, states) if config.trace else None)


def _node_metrics(state: NodeState, config: RunConfig, n_clusters: int, sink: bool):
    """A queue's ``NodeMetrics``, and at the sink its per-cluster end-to-end
    delay sums and counts (else None), in one pass.  A packet arrives after it
    is created, so the measured arrivals lie in the suffix ``[first:]`` past
    the warm-up; only where ``created is not arrive`` (behind relays) does a
    filter ``keep`` over that suffix drop those created before it.  One
    n-length buffer takes in turn the sojourns, the sink's end-to-end delays
    (each compacted in place by ``keep``) and the overlaps of the time average."""
    horizon, warmup = config.horizon_s, config.warmup_s
    n, window = state.arrive.size, horizon - warmup
    first = int(np.searchsorted(state.arrive, warmup, "right"))   # arrivals end before the horizon
    done = int(np.searchsorted(state.depart, horizon, "right"))
    m = max(done - first, 0)
    keep = None if state.created is state.arrive else state.created[first:] > warmup
    buf = np.empty(n)
    sojourn = np.subtract(state.depart[first:done], state.arrive[first:done], out=buf[:m])
    if keep is not None:
        sojourn = _compact(sojourn, keep[:m])
    mpd = float(np.mean(sojourn)) if sojourn.size else 0.0
    e2e = None
    if sink:   # unfiltered, the end-to-end delays are the sojourns
        idx = state.cluster[first:done]
        if keep is not None:
            sojourn = _compact(np.subtract(state.depart[first:done], state.created[first:done],
                                           out=buf[:m]), keep[:m])
            idx = idx[keep[:m]]
        sums = np.zeros(n_clusters)
        np.add.at(sums, idx, sojourn)   # unbuffered, in index order: one bincount's bits
        e2e = sums, [np.count_nonzero(idx == ci) for ci in range(n_clusters)]
        del idx
    overflow = estimate_overflow(state, first, config.threshold, keep)
    queue_len = time_average_in_system(state.arrive, state.depart, warmup, horizon, out=buf)

    idx = state.cluster[first:]
    cluster_thr = {ci: float(np.count_nonzero(idx == ci) / window) for ci in range(n_clusters)}
    return NodeMetrics(
        mpd_s=mpd, throughput_pps=float((n - first) / window), overflow_prob=overflow,
        mean_queue_len=queue_len, arrivals_total=n,
        packets=n - first if keep is None else int(np.count_nonzero(keep)),
        cluster_throughput_pps=cluster_thr), e2e


def _compact(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``values[keep]`` built in place: the head up to the last dropped entry is
    compressed and written back next to the untouched tail, and the result is
    a view of ``values``.  Packets created before the warm-up arrive in the
    head of the suffix, so the compressed head is short."""
    cut = keep.size - int(np.argmin(keep[::-1])) if keep.size and not keep.all() else 0
    head = values[:cut][keep[:cut]]
    start = cut - head.size
    values[start:cut] = head
    return values[start:]


def _merge_inputs(inputs: list[dict]) -> dict:
    """Merge sorted input streams into one sorted stream.  Empty inputs are
    skipped; a single input is returned as is.

    Inputs that carry only ``times`` (a cluster's source streams outside
    trace mode) are concatenated and value-sorted in place: emission times
    are finite, non-negative and never -0.0, so equal values have equal bits
    and the result is the stable merge's, bit for bit.  Inputs with more keys
    are merged into one preallocated output per key, window by window: the
    time axis from 0 to the largest last time is cut into ``n // _BLOCK``
    equal windows, every input is cut at the window edges by ``searchsorted
    "left"``, so equal times land in one window, and each window takes one
    stable argsort over its inputs in their given order (on simultaneous
    events the earlier input goes first) and a gather per key.  The result
    is one global stable argsort's, bit for bit, and the temporaries are a
    window's, not the stream's."""
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
    n = sum(s["times"].size for s in inputs)
    out = {key: np.empty(n, dtype=arr.dtype) for key, arr in inputs[0].items()}
    windows = max(n // _BLOCK, 1)
    edges = np.linspace(0.0, max(s["times"][-1] for s in inputs), windows + 1)
    edges[0], edges[-1] = -np.inf, np.inf   # the outer windows take every time
    cuts = [np.searchsorted(s["times"], edges, "left") for s in inputs]
    pos = 0
    for w in range(windows):
        parts = [slice(c[w], c[w + 1]) for c in cuts]
        order = np.argsort(np.concatenate([s["times"][p] for s, p in zip(inputs, parts)]),
                           kind="stable")
        for key, merged in out.items():   # argsort's indices are in range; "raise" would buffer
            np.take(np.concatenate([s[key][p] for s, p in zip(inputs, parts)]), order,
                    out=merged[pos:pos + order.size], mode="clip")
        pos += order.size
    return out


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
