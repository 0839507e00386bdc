"""Reference implementations the vectorized engine is checked against.

``fifo_event_loop`` is an independent chronological oracle: a classic
future-event-list simulation of one FIFO single server, arrivals and
departures interleaved on a heap in time order, a deque holding the
waiting packets.  Service times are supplied per arrival index so the
oracle and the engine consume the identical randomness.

``fifo_closed_form`` and ``time_average_min_max`` are the one-shot array
forms the engine's blocked and prefix-split versions must equal bit for bit.

``stable_merge`` is the stable-argsort merge of sorted streams that the
engine's value-sort merge of payload-free streams must equal bit for bit.
"""
import heapq
from collections import deque

import numpy as np

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
