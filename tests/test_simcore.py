"""Engine tests: emission process, FIFO recursion vs event-loop oracle,
replication metrics, determinism, conservation, traces, memory."""
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wsnburst as wb
from wsnburst.dists import Deterministic
from wsnburst.model import (EMISSION_CONST, EMISSION_POISSON, DeterministicLaw,
                            DistKind, bulk_law_for, derive_source_params)
from wsnburst.rng import derive_seed, substream
import wsnburst.simcore as simcore
from wsnburst.simcore import (TRACE_COLUMNS, NodeState, RunConfig, estimate_overflow,
                              fifo_departures, packets_seen, run_replication, simulate,
                              source_emit, time_average_in_system, write_trace_csv)
from wsnburst.topology import ClusterSpec, NodeSpec, TopologySpec

from reference import (cluster_metrics_masked, emit_then_cut, fifo_closed_form, fifo_event_loop,
                       node_metrics_masked, stable_merge, time_average_min_max)

EXP = DistKind.parse("exp")


def bursty_params(lam=50.0, n=1, n_p=50.0, b=0.5, on="exp", off="exp", mode=EMISSION_CONST):
    return derive_source_params(lam, n, n_p, b, DistKind.parse(on),
                                DistKind.parse(off), emission_mode=mode)


# ---------------------------------------------------------------- FIFO core

def test_fifo_recursion_matches_event_loop_oracle(rng):
    arrivals = np.sort(rng.uniform(0.0, 100.0, 5000))
    services = rng.exponential(0.02, 5000)
    depart = fifo_departures(arrivals, services)
    oracle_depart, oracle_seen = fifo_event_loop(arrivals.tolist(), services.tolist())
    np.testing.assert_allclose(depart, oracle_depart, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(packets_seen(arrivals, depart), oracle_seen)


def test_fifo_departures_preserve_order(rng):
    arrivals = np.sort(rng.uniform(0.0, 10.0, 2000))
    depart = fifo_departures(arrivals, rng.exponential(0.01, 2000))
    assert np.all(np.diff(depart) > 0)
    assert np.all(depart > arrivals)


def _tied_arrivals(rng, n, scale):
    """n sorted arrival times over [0, scale) in runs of 1-4 equal times."""
    times = np.sort(rng.uniform(0.0, scale, n))
    return np.repeat(times, rng.integers(1, 5, n))[:n]


@settings(max_examples=40)
@given(n=st.one_of(st.integers(0, 400),
                   st.sampled_from([16_383, 16_384, 16_385, 49_169])),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e5]),
       mean_service=st.sampled_from([0.0, 5e-324, 1e-15, 1e-9, 1e-3]),
       zero_frac=st.floats(0.0, 1.0))
def test_fifo_departures_match_closed_form_and_event_loop(n, seed, scale, mean_service,
                                                          zero_frac):
    # bit for bit the reference closed form, for small and large arrays; the
    # overflow count and the child-to-parent handoff rely on the order; tiny
    # services vanish in rounding against 1e5 s arrival times
    rng = np.random.default_rng(seed)
    arrive = _tied_arrivals(rng, n, scale)
    service = rng.exponential(mean_service, n)
    service[rng.random(n) < zero_frac] = 0.0
    depart = fifo_departures(arrive, service)
    np.testing.assert_array_equal(depart, fifo_closed_form(arrive, service))
    assert np.all(np.diff(depart) >= 0)
    oracle_depart, _ = fifo_event_loop(arrive.tolist(), service.tolist())
    np.testing.assert_allclose(depart, oracle_depart, rtol=1e-10, atol=0)
    # the slack holds no NaN and no -0.0, so fmax's running max has maximum's bits
    slack = arrive - np.cumsum(service) + service
    np.testing.assert_array_equal(np.fmax.accumulate(slack).view(np.int64),
                                  np.maximum.accumulate(slack).view(np.int64))


@pytest.mark.parametrize("n", [0, 1, simcore._BLOCK - 1, simcore._BLOCK, simcore._BLOCK + 1,
                               3 * simcore._BLOCK + 7])
@pytest.mark.parametrize("mean_service", [0.5, 1.5])
def test_block_walk_equals_one_shot_walk(n, mean_service):
    # arrivals at rate 1 with ties; at mean 1.5 the queue is overloaded and its
    # backlog crosses the block boundaries, so both carried values count
    rng = np.random.default_rng(n)
    arrive = _tied_arrivals(rng, n, float(n))
    seed = derive_seed(1729, n)
    one_shot = fifo_departures(arrive, substream(seed).exponential(mean_service, n))
    blocked = simcore._serve(arrive, substream(seed), mean_service)
    np.testing.assert_array_equal(blocked.view(np.int64), one_shot.view(np.int64))


# ------------------------------------------------------------- source_emit

def test_emission_b0_constant_rate_is_periodic():
    params = bursty_params(lam=10.0, b=0.0, n_p=5.0)
    times = source_emit(params, DeterministicLaw(5), substream(3), horizon=100.0)
    # never idle: a packet every 1/K seconds starting at t=0
    np.testing.assert_allclose(times, np.arange(times.size) / 10.0, atol=1e-9)
    assert times[-1] < 100.0


def test_emission_burst_spacing_and_off_gap():
    # deterministic 1.0 s OFF, 3-packet bursts at peak rate 100/s:
    # bursts at 1.00/1.01/1.02, then 2.03/2.04/2.05, ...
    # (a point OFF law is no SourceParams OFF kind, so a fake stands in)
    params = types.SimpleNamespace(lambda_p=100.0, on_mean=0.03, off_mean=1.0,
                                   off_dist=Deterministic(1.0), emission_mode=EMISSION_CONST)
    times = source_emit(params, DeterministicLaw(3), substream(1), horizon=3.0)
    np.testing.assert_allclose(times, [1.00, 1.01, 1.02, 2.03, 2.04, 2.05], atol=1e-9)


def test_emission_times_strictly_increasing(rng):
    for on in ("exp", "pareto", "tpt:10"):
        params = bursty_params(b=0.7, on=on)
        times = source_emit(params, bulk_law_for(params.on_kind, params.n_p), substream(11),
                            horizon=2000.0)
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0.0 and times[-1] < 2000.0


@pytest.mark.parametrize("on,mode", [("exp", EMISSION_CONST), ("exp", EMISSION_POISSON),
                                     ("pareto", EMISSION_CONST)])
def test_emission_long_run_rate_matches_renewal_oracle(on, mode):
    # renewal-reward oracle: rate = n_p / (ON + OFF) = K.  A finite window
    # also carries the straddling cycle's front-loaded packets, an O(1)
    # surplus covered by the n_p/horizon slack term.
    n_p = 20.0 if on == "pareto" else 10.0  # heavy-tail discretization needs n_p >> 1
    params = bursty_params(lam=5.0, n_p=n_p, b=0.6, on=on, mode=mode)
    horizon = 160_000.0
    rates = []
    for rep in range(12):
        times = source_emit(params, bulk_law_for(params.on_kind, params.n_p),
                            substream(derive_seed(42, rep)), horizon)
        rates.append(times.size / horizon)
    rates = np.asarray(rates)
    se = rates.std(ddof=1) / math.sqrt(rates.size)
    assert abs(rates.mean() - params.K) <= 3.0 * se + 5.0 * params.n_p / horizon


@settings(max_examples=40)
@given(mode=st.sampled_from([EMISSION_CONST, EMISSION_POISSON]),
       off=st.sampled_from(["exp", "pareto"]), n_p=st.sampled_from([1.0, 2.0, 50.0]),
       b=st.sampled_from([0.0, 0.01, 0.3, 0.9, 0.99]), horizon=st.sampled_from([0.05, 2000.0]),
       seed=st.integers(0, 2**32 - 1))
def test_emission_times_are_finite_non_negative_and_sorted(mode, off, n_p, b, horizon, seed):
    # the value-sort merge of source streams equals the stable merge only
    # because equal emission times have equal bits: no NaN, no -0.0
    params = bursty_params(n_p=n_p, b=b, off=off, mode=mode)
    times = source_emit(params, bulk_law_for(params.on_kind, params.n_p), substream(seed), horizon)
    assert np.all(np.isfinite(times)) and np.all(times >= 0.0)
    assert not np.any(np.signbit(times))
    assert np.all(np.diff(times) >= 0.0)


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from([EMISSION_CONST, EMISSION_POISSON]),
       on=st.sampled_from(["exp", "tpt:10", "pareto"]), off=st.sampled_from(["exp", "pareto"]),
       b=st.sampled_from([0.0, 0.3, 0.9]),
       horizon=st.one_of(st.floats(0.01, 3000.0), st.integers(1, 10**5).map(lambda k: k / 50.0)),
       seed=st.integers(0, 2**32 - 1))
def test_emission_equals_the_emit_then_cut_oracle(mode, on, off, b, horizon, seed):
    # bit for bit the emission that builds every drawn burst and then drops
    # what lies past the horizon.  b=0 gives a zero OFF and abutting bursts,
    # and horizons on the 1/50 s grid fall on or next to their packets; most
    # other horizons cut a burst (ON holds 1-b of the time)
    params = bursty_params(b=b, on=on, off=off, mode=mode)
    law = bulk_law_for(params.on_kind, params.n_p)
    got = source_emit(params, law, substream(seed), horizon)
    expect = emit_then_cut(params, law, substream(seed), horizon)
    assert got.shape == expect.shape
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_emission_partial_burst_cut_at_horizon():
    params = bursty_params(lam=10.0, b=0.0, n_p=5.0)
    times = source_emit(params, DeterministicLaw(5), substream(3), horizon=0.25)
    np.testing.assert_allclose(times, [0.0, 0.1, 0.2], atol=1e-12)


# --------------------------------------------------------- run_replication

def test_zero_sources_give_zero_metrics():
    topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=10.0),),
                        clusters=(ClusterSpec("cluster_1", 0, "sink"),))
    res = run_replication(topo, bursty_params(), RunConfig(horizon_s=100.0, warmup_s=10.0),
                          seed=1)
    m = res.per_node["sink"]
    assert m.mpd_s == 0.0 and m.throughput_pps == 0.0 and m.overflow_prob == 0.0
    assert m.packets == 0 and sum(c.packets for c in res.per_cluster.values()) == 0


def test_empty_cluster_beside_a_live_one():
    # the empty stream of a source-less cluster merges like any other input
    topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=100.0),),
                        clusters=(ClusterSpec("cluster_1", 0, "sink"),
                                  ClusterSpec("cluster_2", 1, "sink")))
    res = run_replication(topo, bursty_params(),
                          RunConfig(horizon_s=100.0, warmup_s=10.0), seed=1)
    assert res.per_cluster["cluster_1"].packets == 0
    assert res.per_cluster["cluster_2"].packets == sum(
        c.packets for c in res.per_cluster.values()) > 0


@pytest.mark.parametrize("case", ["case3", "empty_clusters"])
def test_cluster_counts_equal_bincount(case):
    # per-node cluster throughputs and the sink's cluster packets are counts
    # per cluster index; a source-less cluster must count 0, not vanish
    if case == "case3":
        topo, src = wb.build_case3(2, 50.0), bursty_params(n=2, b=0.9)
    else:
        topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=100.0),),
                            clusters=(ClusterSpec("cluster_1", 0, "sink"),
                                      ClusterSpec("cluster_2", 2, "sink"),
                                      ClusterSpec("cluster_3", 0, "sink")))
        src = bursty_params(n=2)
    config = RunConfig(horizon_s=600.0, warmup_s=60.0)
    res = run_replication(topo, src, config, seed=5)
    k, window = len(topo.clusters), 540.0
    for node_id, state in simulate(topo, src, config, seed=5):
        first = np.searchsorted(state.arrive, 60.0, "right")
        counts = np.bincount(state.cluster[first:], minlength=k)
        assert res.per_node[node_id].cluster_throughput_pps == {
            ci: float(c / window) for ci, c in enumerate(counts)}
    sink = state   # served last
    done = np.searchsorted(sink.depart, 600.0, "right")
    packets = np.bincount(sink.cluster[:done][sink.created[:done] > 60.0], minlength=k)
    assert [res.per_cluster[c.cluster_id].packets for c in topo.clusters] == packets.tolist()
    assert sum(c.packets for c in res.per_cluster.values()) == packets.sum() > 0


def _masked_replication(topo, src, config, seed):
    """(per_node, per_cluster, overall_e2e_s, sink state) of one replication
    by the oracle's separate masked passes over simulate's states."""
    per_node = {}
    for node_id, state in simulate(topo, src, config, seed):
        per_node[node_id] = node_metrics_masked(state, config, len(topo.clusters))
        if node_id == topo.sink_id:
            sink = state
    return (per_node, *cluster_metrics_masked(list(topo.clusters), sink, config), sink)


@pytest.mark.parametrize("case", ["star", "case2", "case3", "empty_clusters", "trace"])
def test_replication_metrics_equal_the_masked_oracle(case):
    # every queue takes the suffix past the warm-up, and only the case-2/3
    # sinks filter it; repr prints each float's shortest round-trip digits
    # (and the type of each count), so equal reprs mean equal bits
    config = RunConfig(horizon_s=1800.0, warmup_s=300.0, threshold=10)
    if case == "star":
        topo, src = wb.build_star(3), bursty_params(n=3, b=0.9)
    elif case in ("case2", "case3"):   # at rho=.5, seed 11, no relay is busy as the warm-up ends
        topo = (wb.build_case2 if case == "case2" else wb.build_case3)(2, 50.0, 0.7)
        src = bursty_params(n=2, b=0.9)
    elif case == "empty_clusters":   # the tree of test_cluster_counts_equal_bincount
        topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=100.0),),
                            clusters=(ClusterSpec("cluster_1", 0, "sink"),
                                      ClusterSpec("cluster_2", 2, "sink"),
                                      ClusterSpec("cluster_3", 0, "sink")))
        src = bursty_params(n=2)
    else:
        topo, src = wb.build_case3(1, 50.0), bursty_params(b=0.7)
        config = replace(config, trace=True)
    res = run_replication(topo, src, config, seed=11)
    per_node, per_cluster, overall_e2e, sink = _masked_replication(topo, src, config, seed=11)
    if case in ("case2", "case3", "trace"):   # the filter drops a packet of the suffix
        first = np.searchsorted(sink.arrive, config.warmup_s, "right")
        assert sink.created is not sink.arrive
        assert np.any(sink.created[first:] <= config.warmup_s)
    assert repr(res.per_node) == repr(per_node)
    assert repr(res.per_cluster) == repr(per_cluster)
    assert repr(res.overall_e2e_s) == repr(overall_e2e)
    assert sum(c.packets for c in per_cluster.values()) > 0


def test_suffix_and_mask_paths_give_identical_node_metrics():
    # a star sink's created is its arrive, so its metrics take the suffix
    # [first:] unfiltered; a copy of created forces the filter.  The state is
    # built so that a suffix one short changes the packet count, and so that
    # arrivals in [B, first) find >= B: an overflow suffix from B would count them
    config = RunConfig(horizon_s=1200.0, warmup_s=300.0, threshold=5)
    (_, state), = simulate(wb.build_star(2), bursty_params(n=2, b=0.9), config, seed=3)
    assert state.created is state.arrive
    first, B = np.searchsorted(state.arrive, 300.0, "right"), config.threshold
    assert first > B and np.any(state.depart[:first - B] > state.arrive[B:first])
    suffix = simcore._node_metrics(state, config, 1, True)
    masked = simcore._node_metrics(replace(state, created=state.arrive.copy()), config, 1, True)
    assert repr(suffix) == repr(masked)
    assert repr(suffix[0]) == repr(node_metrics_masked(state, config, 1))


def test_mm1_poisson_validation_mode_short():
    topo = wb.build_star(1)
    src = bursty_params(b=0.0, mode=EMISSION_POISSON)
    res = run_replication(topo, src,
                          RunConfig(horizon_s=7200.0, warmup_s=600.0), seed=4242)
    m = res.per_node["sink"]
    assert m.mpd_s == pytest.approx(0.02, rel=0.10)
    assert m.throughput_pps == pytest.approx(50.0, rel=0.05)


def test_near_smooth_limit_single_day():
    # at small b the poisson emission mode approaches the M/M/1 value
    # (1/v)/(1-rho); evenly spaced constant-rate emission is smoother than
    # Poisson and sits strictly below it (D/M/1-like)
    topo = wb.build_star(1)
    poisson = bursty_params(b=0.05, mode=EMISSION_POISSON)
    res = run_replication(topo, poisson, RunConfig(), seed=99)
    assert res.per_node["sink"].mpd_s == pytest.approx(0.02, rel=0.15)
    assert not res.saturated
    smooth = bursty_params(b=0.05, mode=EMISSION_CONST)
    res2 = run_replication(topo, smooth, RunConfig(), seed=99)
    assert res2.per_node["sink"].mpd_s < 0.02


def test_replication_bitwise_deterministic():
    topo = wb.build_star(1)
    src = bursty_params(b=0.6, on="tpt:10")
    cfg = RunConfig(horizon_s=7200.0, warmup_s=600.0)
    a = run_replication(topo, src, cfg, seed=77)
    b = run_replication(topo, src, cfg, seed=77)
    assert a.per_node == b.per_node
    sink_a = dict(simulate(topo, src, cfg, seed=77))["sink"]
    sink_b = dict(simulate(topo, src, cfg, seed=77))["sink"]
    assert np.array_equal(sink_a.depart, sink_b.depart)
    sink_c = dict(simulate(topo, src, cfg, seed=78))["sink"]
    assert not np.array_equal(sink_a.depart, sink_c.depart)


def test_adding_a_cluster_does_not_perturb_other_streams():
    # cluster 1's emissions are a function of (seed, cluster index) only
    cfg = RunConfig(horizon_s=3600.0, warmup_s=100.0)
    t2 = wb.build_case2(1, 50.0, 0.5)
    t3 = wb.build_case3(1, 50.0, 0.5)
    src = bursty_params(50.0, 1, b=0.5)
    r2 = dict(simulate(t2, src, cfg, seed=5))
    r3 = dict(simulate(t3, src, cfg, seed=5))
    np.testing.assert_array_equal(r2["relay_1"].arrive, r3["relay_1"].arrive)
    np.testing.assert_array_equal(r2["relay_1"].depart, r3["relay_1"].depart)


def test_saturated_flag_on_overloaded_node():
    topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=40.0),),
                        clusters=(ClusterSpec("cluster_1", 1, "sink"),))
    src = bursty_params(lam=50.0, b=0.2)
    cfg = RunConfig(horizon_s=600.0, warmup_s=60.0)
    assert run_replication(topo, src, cfg, seed=3).saturated
    # the sink's own source (50/s) stays under its 60/s; with the relay's it does not
    relayed = TopologySpec(nodes=(NodeSpec("relay_1", "sink", 100.0),
                                  NodeSpec("sink", None, 60.0)),
                           clusters=(ClusterSpec("cluster_1", 1, "relay_1"),
                                     ClusterSpec("cluster_2", 1, "sink")))
    assert relayed.sources_through("sink") == 2
    assert run_replication(relayed, src, cfg, seed=3).saturated
    assert not run_replication(relayed, bursty_params(lam=20.0, b=0.2), cfg, seed=3).saturated


def test_sink_first_listing_is_refused():
    # nodes are served in the order listed, so a parent before its children is an error
    topo = wb.build_case2(1, 50.0, 0.5)
    sink_first = TopologySpec(nodes=topo.nodes[-1:] + topo.nodes[:-1], clusters=topo.clusters)
    src = bursty_params(50.0, 1, b=0.5)
    with pytest.raises(wb.ParameterError, match="not a tree"):
        run_replication(sink_first, src, RunConfig(horizon_s=600.0, warmup_s=60.0), seed=1)


def test_case2_throughput_conservation_single_day():
    topo = wb.build_case2(1, 50.0, 0.5)
    src = bursty_params(50.0, 1, b=0.6)
    res = run_replication(topo, src, RunConfig(horizon_s=14_400.0, warmup_s=3_600.0),
                          seed=8)
    sink_thr = res.per_node["sink"].throughput_pps
    child_thr = (res.per_node["relay_1"].cluster_throughput_pps[0]
                 + res.per_node["relay_2"].cluster_throughput_pps[1])
    assert abs(sink_thr - child_thr) / sink_thr < 0.005


def test_merge_ties_go_to_the_earlier_input():
    # b=0 const emission: both sources emit at k/K, so every sink arrival
    # time occurs twice; the stable merge puts source 0 first each time
    topo = wb.build_star(2)
    src = bursty_params(lam=50.0, n=2, b=0.0)
    st = dict(simulate(topo, src,
                       RunConfig(horizon_s=600.0, warmup_s=0.0, trace=True), seed=1))["sink"]
    first = np.flatnonzero(st.arrive[1:] == st.arrive[:-1])
    assert first.size == 15_000
    assert np.all(st.source[first] == 0) and np.all(st.source[first + 1] == 1)


def _tied_streams(seed, data):
    """1-6 sorted time streams drawn from one small pool of values, so times
    tie within and across inputs; some streams are empty, one may be long."""
    pool = np.abs(data.draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12), label="pool"))
    sizes = data.draw(st.lists(st.one_of(st.integers(0, 40), st.just(3000)),
                               min_size=1, max_size=6), label="sizes")
    rng = np.random.default_rng(seed)
    return [{"times": np.sort(rng.choice(pool, size))} for size in sizes]


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_value_sort_merge_equals_stable_merge(seed, data):
    inputs = _tied_streams(seed, data)
    expect = stable_merge(inputs)
    got = simcore._merge_inputs([dict(s) for s in inputs])
    assert got.keys() == {"times"}
    assert np.array_equal(got["times"].view(np.int64), expect["times"].view(np.int64))


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_multi_key_merge_puts_the_earlier_input_first_on_ties(seed, data):
    # the relay-to-sink shape: each input carries created and cluster too
    inputs = [{"times": s["times"], "created": s["times"] / 2.0,
               "cluster": np.full(s["times"].size, ci, dtype=np.int16)}
              for ci, s in enumerate(_tied_streams(seed, data))]
    expect = stable_merge(inputs)
    got = simcore._merge_inputs([dict(s) for s in inputs])
    assert got.keys() == expect.keys()
    for key in expect:
        assert np.array_equal(got[key], expect[key]), key
    tied = got["times"][1:] == got["times"][:-1]
    assert np.all(got["cluster"][1:][tied] >= got["cluster"][:-1][tied])


def _trace_shaped(seed, data):
    """2-5 sorted streams, some empty, with every trace payload key: the times
    are drawn from the merge's own window edges (so ties fall exactly on an
    edge, within and across inputs), from one repeated value, or all zero."""
    sizes = data.draw(st.lists(st.integers(0, 60), min_size=2, max_size=5), label="sizes")
    sizes[data.draw(st.integers(0, len(sizes) - 1), label="live")] += 1
    block = data.draw(st.integers(1, 9), label="block")
    kind = data.draw(st.sampled_from(["edges", "equal", "zero"]), label="kind")
    top = 0.0 if kind == "zero" else data.draw(st.floats(1e-3, 1e6), label="top")
    edges = np.linspace(0.0, top, max(sum(sizes) // block, 1) + 1)
    if kind == "edges":
        pool = np.concatenate([edges, np.random.default_rng(seed).uniform(0.0, top, 8)])
    else:
        pool = edges[-1:]
    rng = np.random.default_rng(seed)
    streams = [np.sort(rng.choice(pool, size)) for size in sizes]
    longest = max(streams, key=len)
    longest[-1] = top    # the largest last time, which sets the edges
    return block, [{"times": times, "created": times / 3.0,
                    "cluster": np.full(times.size, ci, dtype=np.int16),
                    "source": rng.integers(0, 7, times.size, dtype=np.int32),
                    "pid": np.arange(times.size, dtype=np.int64),
                    "size": rng.exponential(100.0, times.size)}
                   for ci, times in enumerate(streams)]


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_windowed_merge_equals_one_stable_argsort(seed, data):
    # a small _BLOCK makes the merge cross many windows
    block, inputs = _trace_shaped(seed, data)
    expect = stable_merge(inputs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcore, "_BLOCK", block)
        got = simcore._merge_inputs([dict(s) for s in inputs])
    assert got.keys() == expect.keys()
    for key in expect:
        assert got[key].dtype == expect[key].dtype, key
        assert got[key].tobytes() == expect[key].tobytes(), key


def test_merge_allocates_its_outputs_and_a_few_windows():
    # the relay-to-sink shape: the outputs take 18 B per arrival and the
    # windows about 3 blocks of 8 B; one stable argsort and gather over the
    # whole stream traced 32.0 B per arrival
    rng = np.random.default_rng(11)
    inputs = []
    for ci, size in enumerate((400_000, 400_000, 200_000)):
        times = np.sort(rng.uniform(0.0, 7200.0, size))
        inputs.append({"times": times, "created": times - 0.1,
                       "cluster": np.full(size, ci, dtype=np.int16)})
    tracemalloc.start()
    try:
        merged = simcore._merge_inputs(inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = merged["times"].size
    assert n == 1_000_000 and peak <= 18 * n + 8 * 8 * simcore._BLOCK, peak / n


# ---------------------------------------------------------- metric helpers

def _keep_masks(n, rng):
    head = np.ones(n, dtype=bool)
    head[:n // 3][rng.random(n // 3) < 0.5] = False
    return {"all": np.ones(n, dtype=bool), "none": np.zeros(n, dtype=bool),
            "head": head, "random": rng.random(n) < 0.5}


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
@pytest.mark.parametrize("mask", ["all", "none", "head", "random"])
def test_compact_equals_boolean_indexing(n, mask):
    rng = np.random.default_rng(n)
    values, keep = rng.exponential(1.0, n), _keep_masks(n, rng)[mask]
    expect = values[keep]
    got = simcore._compact(values, keep)
    assert got.tobytes() == expect.tobytes()
    assert got.size == 0 or np.shares_memory(got, values)


@pytest.mark.parametrize("n", [0, 1, 32_767, 32_768, 32_769, 98_311])
@pytest.mark.parametrize("k", [1, 3])
def test_cluster_sums_equal_one_bincount(n, k):
    # the sink's per-cluster end-to-end sums have one bincount's bits, at a
    # star sink (the delays are the sojourns) and behind relays (the delays
    # run from creation, filtered by it); with k=3 cluster 1 must sum to 0.
    # Services spanning 8 decades make a pairwise sum differ from it
    rng = np.random.default_rng(n + k)
    horizon = max(n, 1) / 50.0
    config = RunConfig(horizon_s=horizon, warmup_s=horizon / 10.0)
    arrive = np.sort(rng.uniform(0.0, horizon, n))
    depart = fifo_departures(arrive, rng.exponential(1.0, n) * 10.0 ** rng.integers(-9, -1, n))
    cluster = (rng.integers(0, 2, n) * (k - 1)).astype(np.int16)
    done = np.searchsorted(depart, horizon, "right")
    for created in (arrive, arrive - rng.uniform(0.0, 1.0, n)):
        state = NodeState(arrive=arrive, depart=depart, created=created, cluster=cluster)
        measured = created[:done] > config.warmup_s
        ids = cluster[:done][measured]
        expect = np.bincount(ids, weights=(depart - created)[:done][measured], minlength=k)
        sums, counts = simcore._node_metrics(state, config, k, True)[1]
        assert sums.tobytes() == expect.tobytes()
        assert counts == np.bincount(ids, minlength=k).tolist()


def test_fifo_order_preserved_in_replication():
    topo = wb.build_star(1)
    src = bursty_params(b=0.8)
    st = dict(simulate(topo, src,
                       RunConfig(horizon_s=3600.0, warmup_s=100.0), seed=12))["sink"]
    assert np.all(np.diff(st.depart) >= 0)
    assert np.all(st.depart > st.arrive)


# ------------------------------------------------------------- overflow

def test_overflow_busy_period_threshold_one():
    arrive = np.array([0.0, 0.01, 0.02])
    depart = fifo_departures(arrive, np.array([1.0, 1.0, 1.0]))
    state = NodeState(arrive, depart, created=arrive, cluster=np.zeros(3, dtype=np.int16))
    assert estimate_overflow(state, 0, 1, state.created > -1.0) == pytest.approx(2.0 / 3.0)


def test_overflow_unreachable_threshold_is_zero():
    topo = wb.build_star(1)
    src = bursty_params(b=0.5)
    res = run_replication(topo, src,
                          RunConfig(horizon_s=3600.0, warmup_s=100.0, threshold=10**9), seed=21)
    assert res.per_node["sink"].overflow_prob == 0.0


def test_run_config_refuses_threshold_below_one():
    # B is a setting of the run, checked here and nowhere in the tree
    RunConfig(threshold=1)
    with pytest.raises(wb.ParameterError, match="threshold B must be >= 1, got 0"):
        RunConfig(threshold=0)


def test_overflow_counts_against_the_run_configs_threshold():
    # one trajectory, measured against each B: the run's B is the one counted
    topo, src = wb.build_star(1), bursty_params(b=0.8)
    config = RunConfig(horizon_s=3600.0, warmup_s=100.0)
    (_, state), = simulate(topo, src, config, seed=12)
    probs = []
    for B in (1, 10):
        res = run_replication(topo, src, replace(config, threshold=B), seed=12)
        probs.append(estimate_overflow(state, 0, B, state.created > 100.0))
        assert res.per_node["sink"].overflow_prob == probs[-1]
    assert probs[0] > probs[1] > 0.0


@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       load=st.sampled_from([0.2, 0.9, 3.0]), on_grid=st.booleans(),
       warm_frac=st.floats(0.0, 1.0), data=st.data())
def test_overflow_shifted_compare_is_exact(n, seed, load, on_grid, warm_frac, data):
    # tied arrivals, exponential services, a suffix [first:] with first in
    # 0..n, on it no filter or a random one, B in 1..n+3; on a grid of 1/4 s
    # the sums are exact, so departures land on arrival times (a packet
    # leaving as another arrives is not seen) and some services are 0
    rng = np.random.default_rng(seed)
    arrive = _tied_arrivals(rng, n, 10.0)
    service = rng.exponential(load * 10.0 / n, n)
    if on_grid:
        arrive, service = np.floor(arrive * 4.0) / 4.0, np.floor(service * 4.0) / 4.0
    first = data.draw(st.integers(0, n), label="first")
    keep = rng.random(n - first) < warm_frac if data.draw(st.booleans(), label="filter") else None
    B = data.draw(st.integers(1, n + 3), label="B")
    depart = fifo_departures(arrive, service)
    _, oracle_seen = fifo_event_loop(arrive.tolist(), service.tolist())
    state = NodeState(arrive, depart, created=arrive, cluster=np.zeros(n, dtype=np.int16))
    prob = estimate_overflow(state, first, B, keep)
    measured = np.zeros(n, dtype=bool)
    measured[first:] = True if keep is None else keep
    for seen in (np.asarray(oracle_seen), packets_seen(arrive, depart)):
        hits = int(np.count_nonzero(seen[measured] >= B))
        assert prob == (hits / measured.sum() if measured.any() else 0.0)


@pytest.mark.parametrize("case", ["star", "case3"])
def test_overflow_equals_packets_seen_count_on_replications(case):
    # star N=2 b=0 const: every sink arrival time occurs twice
    if case == "star":
        topo, src = wb.build_star(2), bursty_params(n=2, b=0.0)
    else:
        topo, src = wb.build_case3(1, 50.0), bursty_params(b=0.9)
    states = dict(simulate(topo, src,
                           RunConfig(horizon_s=600.0, warmup_s=60.0), seed=5))
    for node in states.values():
        n, mask = node.arrive.size, node.created > 60.0
        seen = packets_seen(node.arrive, node.depart)
        for B in (1, 2, 10, 1000, n - 1, n, n + 3):
            prob = estimate_overflow(node, 0, B, mask)
            assert prob == np.count_nonzero(seen[mask] >= B) / mask.sum()


def test_overflow_mm1_geometric_tail():
    # PASTA oracle: an arrival sees >= B in system with probability rho^B
    topo = wb.build_star(1)
    src = bursty_params(b=0.0, mode=EMISSION_POISSON)
    estimates = []
    for day in range(4):
        res = run_replication(topo, src,
                              RunConfig(horizon_s=14_400.0, warmup_s=1_000.0, threshold=5),
                              seed=derive_seed(1001, day))
        estimates.append(res.per_node["sink"].overflow_prob)
    estimates = np.asarray(estimates)
    se = estimates.std(ddof=1) / math.sqrt(estimates.size)
    assert abs(estimates.mean() - 0.5**5) <= 3.0 * se + 1e-4


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("case", [2, 3])
def test_trees_at_b0_are_jackson_networks(case, n):
    # poisson mode at b=0: each cluster sends a Poisson stream, every relay is
    # M/M/1 and (Burke) passes a Poisson stream on, and service is re-drawn at
    # each hop, so every queue at rho=.5 has W = 1/(v - lambda) and
    # P(seen >= B) = rho^B, and a cluster's W is the sum of its path's hops
    topo = (wb.build_case2 if case == 2 else wb.build_case3)(n, 50.0, 0.5)
    src = bursty_params(50.0, n, b=0.0, mode=EMISSION_POISSON)
    config = RunConfig(horizon_s=20_000.0, warmup_s=2_000.0, threshold=10)
    days = [run_replication(topo, src, config,
                            seed=derive_seed(2024, case, n, day)) for day in range(8)]
    hop_w = {"relay_1": 0.02, "relay_2": 0.02, "sink": 0.01 if case == 2 else 1.0 / 150.0}

    def check(values, exact):
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert se < 0.1 * exact and abs(values.mean() - exact) < 4.0 * se

    for node_id, w in hop_w.items():
        check([day.per_node[node_id].mpd_s for day in days], w)
        check([day.per_node[node_id].overflow_prob for day in days], 0.5**10)
    for c in topo.clusters:
        path_w = hop_w[c.attach] + (hop_w["sink"] if c.attach != "sink" else 0.0)
        check([day.per_cluster[c.cluster_id].e2e_delay_s for day in days], path_w)


# ----------------------------------------------------------------- traces

def _packet_hops(trace):
    """Row indices of each packet's hops, keyed by (cluster, source, packet)."""
    hops = {}
    keys = zip(trace["cluster_id"], trace["source_id"], trace["packet_id"])
    for row, key in enumerate(keys):
        hops.setdefault(key, []).append(row)
    return hops


def test_trace_timestamps_and_end_to_end_consistency():
    topo = wb.build_case2(1, 2.0, 0.5)
    src = bursty_params(2.0, 1, n_p=4.0, b=0.5)
    cfg = RunConfig(horizon_s=300.0, warmup_s=10.0, trace=True)
    res = run_replication(topo, src, cfg, seed=77)
    tr = res.trace
    assert tr["packet_id"]
    hops = _packet_hops(tr)
    for rows in hops.values():
        arrive = [tr["arrive"][r] for r in rows]
        depart = [tr["depart"][r] for r in rows]
        created = tr["created_at"][rows[0]]
        assert all(d >= a for a, d in zip(arrive, depart))
        # nondecreasing along the path, instantaneous handoff between hops
        for d0, a1 in zip(depart, arrive[1:]):
            assert d0 == pytest.approx(a1, abs=1e-12)
        assert arrive[0] == pytest.approx(created, abs=1e-12)
        total = sum(d - a for a, d in zip(arrive, depart))
        assert total == pytest.approx(depart[-1] - created, rel=1e-9)
        assert all(tr["size_bytes"][r] > 0.0 for r in rows)
    # every traced relay packet that departs in time reaches the sink
    two_hop = [rows for (cluster, _, _), rows in hops.items()
               if cluster == "cluster_1" and len(rows) == 2]
    assert two_hop, "expected relayed packets with two queue hops"


def test_trace_columns_contract():
    topo = wb.build_case2(2, 2.0, 0.5)
    src = bursty_params(2.0, 2, n_p=4.0, b=0.5)
    cfg = RunConfig(horizon_s=300.0, warmup_s=10.0, trace=True)
    res = run_replication(topo, src, cfg, seed=21)
    tr = res.trace
    assert tuple(tr) == TRACE_COLUMNS
    assert {len(column) for column in tr.values()} == {len(tr["packet_id"])}
    assert len(tr["packet_id"]) == sum(m.arrivals_total for m in res.per_node.values())
    cluster_index = {c.cluster_id: i for i, c in enumerate(topo.clusters)}
    order = [(cluster_index[c], int(s.partition("s")[2]), p, a) for c, s, p, a in
             zip(tr["cluster_id"], tr["source_id"], tr["packet_id"], tr["arrive"])]
    assert order == sorted(order)
    hops = _packet_hops(tr)
    assert any(len(rows) == 2 for rows in hops.values())
    for rows in hops.values():
        assert len({tr["size_bytes"][r] for r in rows}) == 1
        assert len({tr["created_at"][r] for r in rows}) == 1


def test_trace_csv_roundtrip(tmp_path):
    topo = wb.build_star(1, 1.0, 0.25)
    src = bursty_params(lam=1.0, n_p=2.0, b=0.5)
    cfg = RunConfig(horizon_s=60.0, warmup_s=5.0, trace=True)
    res = run_replication(topo, src, cfg, seed=5)
    out = tmp_path / "trace.csv"
    write_trace_csv(res.trace, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("packet_id,source_id,cluster_id,created_at")
    assert len(lines) == 1 + len(res.trace["packet_id"])
    first = lines[1].split(",")
    assert first == [str(res.trace[name][0]) for name in TRACE_COLUMNS]


def test_time_average_in_system_simple_interval():
    arrive = np.array([0.0, 1.0])
    depart = np.array([2.0, 3.0])
    # over (0, 4]: packet 1 present 2s, packet 2 present 2s -> mean 1.0
    assert time_average_in_system(arrive, depart, 0.0, 4.0) == pytest.approx(1.0)


@given(n=st.integers(0, 200), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_time_average_in_system_equals_min_max_form(n, seed, data):
    # on a 1/4 s grid, window edges drawn from the arrival and departure
    # times make arrivals equal to lo and departures equal to hi
    rng = np.random.default_rng(seed)
    arrive = np.floor(_tied_arrivals(rng, n, 10.0) * 4.0) / 4.0
    depart = fifo_departures(arrive, np.floor(rng.exponential(0.5, n) * 4.0) / 4.0)
    lo = data.draw(st.sampled_from(arrive.tolist() + [-1.0, 0.0, 5.0]), label="lo")
    hi = data.draw(st.sampled_from(depart.tolist() + [0.0, 5.0, 20.0]), label="hi")
    expect = time_average_min_max(arrive, depart, lo, hi)
    assert time_average_in_system(arrive, depart, lo, hi) == expect
    # a longer buffer holding stale values gives the same bits
    out = np.full(n + data.draw(st.integers(0, 3), label="spare"), np.nan)
    assert time_average_in_system(arrive, depart, lo, hi, out=out) == expect


# ----------------------------------------------------------------- memory

def _case3_b09():
    return wb.build_case3(1, 50.0), bursty_params(b=0.9)


def test_relay_states_are_freed_once_the_sink_has_merged_them(monkeypatch):
    topo, src = _case3_b09()
    cfg = RunConfig(horizon_s=600.0, warmup_s=60.0)
    assert list(dict(simulate(topo, src, cfg, seed=5))) == ["relay_1", "relay_2", "sink"]

    states = simulate(topo, src, cfg, seed=5)
    relays = [weakref.ref(state) for _, state in (next(states), next(states))]
    sink_id, _ = next(states)
    gc.collect()
    assert sink_id == "sink" and all(ref() is None for ref in relays)

    # by the time the sink serves its merged arrivals, no loop variable of
    # simulate or run_replication may pin a relay's state or arrays
    fifo, node_metrics = simcore.fifo_departures, simcore._node_metrics
    relay_refs, alive, served = [], [], []

    def fifo_spy(arrive, service, **block):
        gc.collect()
        alive[:] = [ref() is not None for ref in relay_refs]   # the last call serves the sink
        return fifo(arrive, service, **block)

    def metrics_spy(state, *args):
        served.append(None)   # counts the call without pinning the state
        if len(served) <= 2:   # serving order: relay_1, relay_2, then the sink
            relay_refs.extend(weakref.ref(x) for x in
                              (state, state.arrive, state.depart, state.created, state.cluster))
        return node_metrics(state, *args)

    monkeypatch.setattr(simcore, "fifo_departures", fifo_spy)
    monkeypatch.setattr(simcore, "_node_metrics", metrics_spy)
    run_replication(topo, src, cfg, seed=5)
    assert len(served) == 3 and len(alive) == 10 and not any(alive)


def _peak_bytes_per_sink_arrival(topo, src, config, seed):
    tracemalloc.start()
    try:
        res = run_replication(topo, src, config, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / res.per_node["sink"].arrivals_total


def test_case3_replication_peak_memory_per_sink_arrival():
    # a one-hour case-3 day at b=.9 traced 65.3 B per sink arrival while
    # every relay trajectory stayed alive through the sink, and 42.1-43.5 B
    # once replication streams through the tree, at the sink's metric pass
    # with a fresh array for its sojourns, its filtered end-to-end delays and
    # its time average, and one full-length bincount. With one reused metric
    # buffer, compacted in place, and the end-to-end sums added by np.add.at
    # with no copy of the cluster indices, the day traces 37.4-38.9 B, at the
    # sink's metric pass; its windowed merge traced 36.3 B (35.4 B for one
    # global argsort and gather), its FIFO stage 28.4 B.
    # Keeping the sink's compressed departures alive through its end-to-end
    # bincount reached 50.2 B, and np.compress(out=), which allocates an index
    # array, 48.5 B. The same day reads about 1 B more or less in one process
    # than another
    topo, src = _case3_b09()
    assert _peak_bytes_per_sink_arrival(
        topo, src, RunConfig(horizon_s=3600.0, warmup_s=600.0), seed=1729) < 41.0


def test_star_replication_peak_memory_per_sink_arrival():
    # a four-hour star day of ten sources at b=.3 traces 26.8 B per sink
    # arrival, at the sink's metric pass: its 8 B metric buffer beside the
    # 18 B state, with the end-to-end sums added by np.add.at in place. A
    # fresh sojourn array and one full-length bincount, with its intp copy of
    # the cluster indices, read 30.0 B; a separate cluster
    # pass over the kept sink state 32.5-33.5 B; the FIFO stage, which set
    # the peak at 35.1 B while it drew all services at once, now takes 18.7 B.
    # The same day reads about 1 B more or less in one process than another
    topo, src = wb.build_star(10), bursty_params(n=10, b=0.3)
    assert _peak_bytes_per_sink_arrival(
        topo, src, RunConfig(horizon_s=14_400.0, warmup_s=3_600.0), seed=1729) < 29.0


def test_small_sink_metric_pass_peak_memory_per_arrival():
    # a two-hour tpt:10 star sink of about 36 000 arrivals, just over one
    # _BLOCK: the metric pass allocates its 8 B buffer and the k cluster sums.
    # Per-_BLOCK bincounts seeded with the running sums traced 22.6 B per
    # arrival (the first block's int64 index and weight copies); one
    # full-length bincount with its intp copy of the cluster indices 14.7 B
    config = RunConfig(horizon_s=7200.0, warmup_s=600.0)
    src = bursty_params(lam=5.0, n_p=10.0, b=0.1, on="tpt:10")
    (_, state), = simulate(wb.build_star(1, 5.0), src, config, seed=1729)
    tracemalloc.start()
    try:
        simcore._node_metrics(state, config, 1, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = state.arrive.size
    assert simcore._BLOCK < n < 2 * simcore._BLOCK and peak / n < 15.0, (n, peak / n)


def test_serving_a_queue_allocates_its_departures_and_a_few_blocks():
    # the departures take 8 B per arrival; drawing every service at once and
    # walking the queue in one shot took 24 B (services, departures, slack)
    n = 1_000_000
    arrive = np.sort(np.random.default_rng(3).uniform(0.0, n / 50.0, n))
    tracemalloc.start()
    try:
        depart = simcore._serve(arrive, substream(5), 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert depart.size == n and peak <= 8 * n + 4 * 8 * simcore._BLOCK, peak / n


_GLIBC = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")

_FAULTS_PER_REPLICATION = """
import resource
import wsnburst as wb
from wsnburst.model import EMISSION_CONST, DistKind, derive_source_params
from wsnburst.simcore import RunConfig, run_replication
exp = DistKind.parse("exp")
topo, src = wb.build_case3(1, 50.0), derive_source_params(50.0, 1, 50.0, 0.9, exp, exp,
                                                          emission_mode=EMISSION_CONST)
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_replication(topo, src, RunConfig(horizon_s=3600.0, warmup_s=600.0), seed=1729)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _GLIBC, reason="the heap settings apply to glibc only")
def test_repeated_replications_reuse_the_heap():
    # a fresh process's third one-hour case-3 day at b=.9 took 6 738 minor
    # faults while glibc trimmed and unmapped the freed temporaries, and 0
    # with the settings simcore applies at import
    env = dict(os.environ, PYTHONPATH=str(Path(wb.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_REPLICATION], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 3 and faults[2] < 500, faults


def _refuse_cdll(*args):
    raise AssertionError("CDLL must not be loaded off glibc")


@pytest.mark.parametrize("confstr", [None, ValueError("unknown name"), "musl 1.2.4"],
                         ids=["no-confstr", "confstr-raises", "musl"])
def test_keep_heap_is_a_no_op_off_glibc(monkeypatch, confstr):
    def fake_confstr(name):
        if isinstance(confstr, Exception):
            raise confstr
        return confstr

    if confstr is None:
        monkeypatch.delattr(simcore.os, "confstr")
    else:
        monkeypatch.setattr(simcore.os, "confstr", fake_confstr)
    monkeypatch.setattr(simcore.ctypes, "CDLL", _refuse_cdll)
    simcore._keep_heap()


def test_keep_heap_sets_the_three_glibc_parameters(monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(simcore.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(simcore.ctypes, "CDLL", lambda name: libc)
    simcore._keep_heap()
    # M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD
    assert calls == [(-1, 2**31 - 1), (-2, 256 << 20), (-3, 256 << 20)]
