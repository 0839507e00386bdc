"""Reference implementations the vectorized engine is checked against.

``fifo_event_loop`` is an independent chronological oracle: a classic
future-event-list simulation of one FIFO single server, arrivals and
departures interleaved on a heap in time order, a deque holding the
waiting packets.  Service times are supplied per arrival index so the
oracle and the engine consume the identical randomness.

``fifo_closed_form`` and ``time_average_min_max`` are the one-shot array
forms the engine's in-place FIFO kernel and prefix-split time average must
equal bit for bit.

``stable_merge`` is the stable-argsort merge of sorted streams, one
concatenation, argsort and gather over whole streams, that the engine's
value-sort merge of payload-free streams and its window-by-window merge of
streams with payload keys must equal bit for bit.

``emit_then_cut`` is the emission that builds every burst of its last
chunk and then drops the packets past the horizon, and
``node_metrics_masked`` and ``cluster_metrics_masked`` are the separate
per-queue and sink passes that select the post-warm-up packets by a mask
over every arrival; the engine's horizon cut and its one pass over the
suffix past the warm-up, filtered behind relays, must equal them bit for bit.

``survival`` is R(x) = Pr(X > x) of every law in ``wsnburst.dists``: the
exponential, TPT and point survivals, which the package does not compute,
and the Pareto one taken from ``dists.reliability``.  It is the oracle for
the TPT mean's quadrature, the burst-size moment series and the
inverse-transform property ``survival(spec, sample(spec, u)) == u``.
"""
import heapq
import math
from collections import deque

import numpy as np

from wsnburst.dists import Exponential, Pareto, TPT, reliability, sample, sample_array
from wsnburst.model import EMISSION_POISSON
from wsnburst.simcore import ClusterMetrics, NodeMetrics, time_average_in_system

# departures sort before arrivals at equal times: a packet leaving exactly
# when another arrives has already freed the server / left the system
DEPARTURE, ARRIVAL = 0, 1


def fifo_event_loop(arrivals, services):
    """Returns (departure times, packets found in system by each arrival)."""
    n = len(arrivals)
    events = [(t, ARRIVAL, i) for i, t in enumerate(arrivals)]
    heapq.heapify(events)
    waiting = deque()
    in_system = set()
    busy = False
    depart = [0.0] * n
    seen = [0] * n
    while events:
        t, kind, i = heapq.heappop(events)
        if kind == ARRIVAL:
            seen[i] = len(in_system)
            in_system.add(i)
            if not busy:
                busy = True
                depart[i] = t + services[i]
                heapq.heappush(events, (depart[i], DEPARTURE, i))
            else:
                waiting.append(i)
        else:
            in_system.discard(i)
            if waiting:
                j = waiting.popleft()
                depart[j] = t + services[j]
                heapq.heappush(events, (depart[j], DEPARTURE, j))
            else:
                busy = False
    return depart, seen


def fifo_closed_form(arrive, service):
    """FIFO departures in one shot: ``d = S + running-max(a - S_shifted)``
    with ``S = cumsum(s)``, three full-length temporaries."""
    total = np.cumsum(service)
    slack = arrive - total + service          # a[i] - S[i-1]
    np.maximum.accumulate(slack, out=slack)   # max over j<=i of (a[j] - S[j-1])
    return slack + total


def time_average_min_max(arrive, depart, lo, hi):
    """Time-averaged number in system over (lo, hi] from the clipped
    overlaps ``min(depart, hi) - max(arrive, lo)``."""
    if arrive.size == 0 or hi <= lo:
        return 0.0
    overlap = np.minimum(depart, hi) - np.maximum(arrive, lo)
    np.clip(overlap, 0.0, None, out=overlap)
    return float(overlap.sum() / (hi - lo))


def stable_merge(inputs):
    """Merge sorted streams (dicts of equal-length arrays keyed by at least
    ``times``) with one stable argsort over the concatenated times, so on
    ties the earlier input goes first, and a gather of every key."""
    order = np.argsort(np.concatenate([s["times"] for s in inputs]), kind="stable")
    return {key: np.concatenate([s[key] for s in inputs])[order] for key in inputs[0]}


def survival(spec, x):
    """R(x) of any distribution spec, for scalars or arrays; TPT is the
    weighted sum of its exponential branches, clipped to [0, 1] because the
    weights sum to 1 only to rounding."""
    if isinstance(spec, Pareto):
        return reliability(spec, x)
    x = np.asarray(x, dtype=float)
    if isinstance(spec, Exponential):
        out = np.exp(-x / spec.mean)
    elif isinstance(spec, TPT):
        w, rates = spec.branch_weights(), spec.branch_rates()
        out = np.clip(np.einsum("j,j...->...", w, np.exp(-np.multiply.outer(rates, x))),
                      0.0, 1.0)
    else:   # Deterministic: a point mass at spec.value
        out = np.where(x < spec.value, 1.0, 0.0)
    return float(out) if out.ndim == 0 else out


def emit_then_cut(params, law, rng, horizon):
    """``simcore.source_emit`` with every drawn burst built: the chunks are
    concatenated and the emissions at or past the horizon dropped."""
    lam_p = params.lambda_p
    span = horizon * lam_p
    cap = int(span + 6.0 * math.sqrt(span) + 64.0)
    cycle = params.on_mean + params.off_mean
    poisson = params.emission_mode == EMISSION_POISSON
    chunks = []
    t = float(sample(params.off_dist, rng))
    while t < horizon:
        want = int((horizon - t) / cycle * 1.25) + 16
        sizes = law.sample_array(rng, want)
        np.minimum(sizes, cap, out=sizes)
        offs = sample_array(params.off_dist, rng, want)
        if poisson:
            inc = rng.exponential(1.0 / lam_p, int(sizes.sum()))
        else:
            inc = np.full(int(sizes.sum()), 1.0 / lam_p)
        inc[np.cumsum(sizes[:-1])] += offs[:-1]
        if not poisson:
            inc[0] = 0.0
        emissions = np.cumsum(inc)
        emissions += t
        t = float(emissions[-1] + offs[-1] + (0.0 if poisson else 1.0 / lam_p))
        chunks.append(emissions)
    times = np.concatenate(chunks) if chunks else np.empty(0)
    return times[times < horizon]


def node_metrics_masked(state, config, n_clusters):
    """One queue's ``NodeMetrics``, its post-warm-up packets selected by the
    mask ``created > warmup`` over every arrival and compressed; overflow is
    counted by the full-length compare ``depart[:n-B] > arrive[B:]``."""
    horizon, warmup, B = config.horizon_s, config.warmup_s, config.threshold
    n, window = state.arrive.size, horizon - warmup
    first = np.searchsorted(state.arrive, warmup, "right")
    done = np.searchsorted(state.depart, horizon, "right")
    created_mask = state.created > warmup
    measured = int(created_mask.sum())
    hits = np.count_nonzero((state.depart[:max(n - B, 0)] > state.arrive[B:]) & created_mask[B:])
    sojourn = state.depart[:done][created_mask[:done]]
    sojourn -= state.arrive[:done][created_mask[:done]]
    idx = state.cluster[first:]
    return NodeMetrics(
        mpd_s=float(np.mean(sojourn)) if sojourn.size else 0.0,
        throughput_pps=float((n - first) / window),
        overflow_prob=hits / measured if measured else 0.0,
        mean_queue_len=time_average_in_system(state.arrive, state.depart, warmup, horizon),
        packets=measured, arrivals_total=n,
        cluster_throughput_pps={ci: float(np.count_nonzero(idx == ci) / window)
                                for ci in range(n_clusters)})


def cluster_metrics_masked(clusters, sink, config):
    """(per-cluster ``ClusterMetrics``, overall end-to-end delay) from the
    sink's state: one ``bincount`` of the masked ``depart - created``."""
    done = np.searchsorted(sink.depart, config.horizon_s, "right")
    measured = sink.created[:done] > config.warmup_s
    e2e = sink.depart[:done][measured]
    e2e -= sink.created[:done][measured]
    idx = sink.cluster[:done][measured]
    sums = np.bincount(idx, weights=e2e, minlength=len(clusters))
    counts = [np.count_nonzero(idx == ci) for ci in range(len(clusters))]
    overall_n = sum(counts)
    per_cluster = {c.cluster_id: ClusterMetrics(
        e2e_delay_s=float(sums[ci] / counts[ci]) if counts[ci] else 0.0, packets=counts[ci])
        for ci, c in enumerate(clusters)}
    return per_cluster, float(sums.sum() / overall_n) if overall_n else 0.0
