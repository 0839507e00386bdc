"""Engine tests: emission process, FIFO recursion vs event-loop oracle,
replication metrics, determinism, conservation, traces, memory."""
import gc
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wsnburst as wb
from wsnburst.dists import Deterministic
from wsnburst.model import (EMISSION_CONST, EMISSION_POISSON, DeterministicLaw,
                            DistKind, bulk_law_for, derive_source_params)
from wsnburst.rng import derive_seed, substream
import wsnburst.simcore as simcore
from wsnburst.simcore import (_BLOCK, TRACE_COLUMNS, NodeState, RunConfig, estimate_overflow,
                              fifo_departures, packets_seen, run_replication, simulate,
                              source_emit, time_average_in_system, write_trace_csv)
from wsnburst.topology import ClusterSpec, NodeSpec, TopologySpec

from reference import fifo_closed_form, fifo_event_loop, stable_merge, time_average_min_max

EXP = DistKind.parse("exp")


def _star(n=1, lam=50.0, rho=0.5, B=1000):
    return wb.build_star(n, lam, rho, threshold=B)


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
                   st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e5]),
       mean_service=st.sampled_from([0.0, 5e-324, 1e-15, 1e-9, 1e-3]),
       zero_frac=st.floats(0.0, 1.0))
def test_fifo_departures_blocked_matches_closed_form(n, seed, scale, mean_service, zero_frac):
    # the blocks carry the running sum and max, so the bits equal the one-shot
    # form on either side of a block edge; the overflow count and the
    # child-to-parent handoff rely on the order; tiny services vanish in
    # rounding against 1e5 s arrival times
    rng = np.random.default_rng(seed)
    arrive = _tied_arrivals(rng, n, scale)
    service = rng.exponential(mean_service, n)
    service[rng.random(n) < zero_frac] = 0.0
    depart = fifo_departures(arrive, service)
    np.testing.assert_array_equal(depart, fifo_closed_form(arrive, service))
    assert np.all(np.diff(depart) >= 0)
    oracle_depart, _ = fifo_event_loop(arrive.tolist(), service.tolist())
    np.testing.assert_allclose(depart, oracle_depart, rtol=1e-10, atol=0)


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


def test_emission_partial_burst_cut_at_horizon():
    params = bursty_params(lam=10.0, b=0.0, n_p=5.0)
    times = source_emit(params, DeterministicLaw(5), substream(3), horizon=0.25)
    np.testing.assert_allclose(times, [0.0, 0.1, 0.2], atol=1e-12)


# --------------------------------------------------------- run_replication

def test_zero_sources_give_zero_metrics():
    topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=10.0, threshold=5),),
                        clusters=(ClusterSpec("cluster_1", 0, "sink", 0.0),))
    res = run_replication(topo, {}, RunConfig(horizon_s=100.0, warmup_s=10.0), seed=1)
    m = res.per_node["sink"]
    assert m.mpd_s == 0.0 and m.throughput_pps == 0.0 and m.overflow_prob == 0.0
    assert m.packets == 0 and res.overall_packets == 0


def test_empty_cluster_beside_a_live_one():
    # the empty stream of a source-less cluster merges like any other input
    topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=100.0, threshold=10),),
                        clusters=(ClusterSpec("cluster_1", 0, "sink", 0.0),
                                  ClusterSpec("cluster_2", 1, "sink", 50.0)))
    res = run_replication(topo, {"cluster_2": bursty_params()},
                          RunConfig(horizon_s=100.0, warmup_s=10.0), seed=1)
    assert res.per_cluster["cluster_1"].packets == 0
    assert res.per_cluster["cluster_2"].packets == res.overall_packets > 0


@pytest.mark.parametrize("case", ["case3", "empty_clusters"])
def test_cluster_counts_equal_bincount(case):
    # per-node cluster throughputs and the sink's cluster packets are counts
    # per cluster index; a source-less cluster must count 0, not vanish
    if case == "case3":
        topo, src = wb.build_case3(2, 50.0), bursty_params(n=2, b=0.9)
    else:
        topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=100.0, threshold=10),),
                            clusters=(ClusterSpec("cluster_1", 0, "sink", 0.0),
                                      ClusterSpec("cluster_2", 2, "sink", 50.0),
                                      ClusterSpec("cluster_3", 0, "sink", 0.0)))
        src = bursty_params(n=2)
    sources = {c.cluster_id: src for c in topo.clusters if c.n_sources}
    config = RunConfig(horizon_s=600.0, warmup_s=60.0)
    res = run_replication(topo, sources, config, seed=5)
    k, window = len(topo.clusters), 540.0
    for node_id, state in simulate(topo, sources, config, seed=5):
        first = np.searchsorted(state.arrive, 60.0, "right")
        counts = np.bincount(state.cluster[first:], minlength=k)
        assert res.per_node[node_id].cluster_throughput_pps == {
            ci: float(c / window) for ci, c in enumerate(counts)}
    sink = state   # served last
    done = np.searchsorted(sink.depart, 600.0, "right")
    packets = np.bincount(sink.cluster[:done][sink.created[:done] > 60.0], minlength=k)
    assert [res.per_cluster[c.cluster_id].packets for c in topo.clusters] == packets.tolist()
    assert res.overall_packets == packets.sum() > 0


def test_mm1_poisson_validation_mode_short():
    topo = _star(B=10)
    src = bursty_params(b=0.0, mode=EMISSION_POISSON)
    res = run_replication(topo, {"cluster_1": src},
                          RunConfig(horizon_s=7200.0, warmup_s=600.0), seed=4242)
    m = res.per_node["sink"]
    assert m.mpd_s == pytest.approx(0.02, rel=0.10)
    assert m.throughput_pps == pytest.approx(50.0, rel=0.05)


def test_near_smooth_limit_single_day():
    # at small b the poisson emission mode approaches the M/M/1 value
    # (1/v)/(1-rho); evenly spaced constant-rate emission is smoother than
    # Poisson and sits strictly below it (D/M/1-like)
    topo = _star()
    poisson = bursty_params(b=0.05, mode=EMISSION_POISSON)
    res = run_replication(topo, {"cluster_1": poisson}, RunConfig(), seed=99)
    assert res.per_node["sink"].mpd_s == pytest.approx(0.02, rel=0.15)
    assert not res.saturated
    smooth = bursty_params(b=0.05, mode=EMISSION_CONST)
    res2 = run_replication(topo, {"cluster_1": smooth}, RunConfig(), seed=99)
    assert res2.per_node["sink"].mpd_s < 0.02


def test_replication_bitwise_deterministic():
    topo = _star()
    src = bursty_params(b=0.6, on="tpt:10")
    cfg = RunConfig(horizon_s=7200.0, warmup_s=600.0)
    a = run_replication(topo, {"cluster_1": src}, cfg, seed=77)
    b = run_replication(topo, {"cluster_1": src}, cfg, seed=77)
    assert a.per_node == b.per_node
    sink_a = dict(simulate(topo, {"cluster_1": src}, cfg, seed=77))["sink"]
    sink_b = dict(simulate(topo, {"cluster_1": src}, cfg, seed=77))["sink"]
    assert np.array_equal(sink_a.depart, sink_b.depart)
    sink_c = dict(simulate(topo, {"cluster_1": src}, cfg, seed=78))["sink"]
    assert not np.array_equal(sink_a.depart, sink_c.depart)


def test_adding_a_cluster_does_not_perturb_other_streams():
    # cluster 1's emissions are a function of (seed, cluster index) only
    cfg = RunConfig(horizon_s=3600.0, warmup_s=100.0)
    t2 = wb.build_case2(1, 50.0, 0.5)
    t3 = wb.build_case3(1, 50.0, 0.5)
    s2 = {c.cluster_id: bursty_params(50.0, 1, b=0.5) for c in t2.clusters}
    s3 = {c.cluster_id: bursty_params(50.0, 1, b=0.5) for c in t3.clusters}
    r2 = dict(simulate(t2, s2, cfg, seed=5))
    r3 = dict(simulate(t3, s3, cfg, seed=5))
    np.testing.assert_array_equal(r2["relay_1"].arrive, r3["relay_1"].arrive)
    np.testing.assert_array_equal(r2["relay_1"].depart, r3["relay_1"].depart)


def test_saturated_flag_on_overloaded_node():
    topo = TopologySpec(nodes=(NodeSpec("sink", None, service_rate=40.0, threshold=100),),
                        clusters=(ClusterSpec("cluster_1", 1, "sink", 50.0),))
    src = bursty_params(lam=50.0, b=0.2)
    res = run_replication(topo, {"cluster_1": src},
                          RunConfig(horizon_s=600.0, warmup_s=60.0), seed=3)
    assert res.saturated


def test_sink_first_listing_is_refused():
    # nodes are served in the order listed, so a parent before its children is an error
    topo = wb.build_case2(1, 50.0, 0.5)
    sink_first = TopologySpec(nodes=topo.nodes[-1:] + topo.nodes[:-1], clusters=topo.clusters)
    sources = {c.cluster_id: bursty_params(50.0, 1, b=0.5) for c in topo.clusters}
    with pytest.raises(wb.ParameterError, match="not a tree"):
        run_replication(sink_first, sources, RunConfig(horizon_s=600.0, warmup_s=60.0), seed=1)


def test_case2_throughput_conservation_single_day():
    topo = wb.build_case2(1, 50.0, 0.5)
    sources = {c.cluster_id: bursty_params(50.0, 1, b=0.6) for c in topo.clusters}
    res = run_replication(topo, sources, RunConfig(horizon_s=14_400.0, warmup_s=3_600.0),
                          seed=8)
    sink_thr = res.per_node["sink"].throughput_pps
    child_thr = (res.per_cluster["cluster_1"].throughput_pps
                 + res.per_cluster["cluster_2"].throughput_pps)
    assert abs(sink_thr - child_thr) / sink_thr < 0.005


def test_merge_ties_go_to_the_earlier_input():
    # b=0 const emission: both sources emit at k/K, so every sink arrival
    # time occurs twice; the stable merge puts source 0 first each time
    topo = _star(n=2)
    src = bursty_params(lam=50.0, n=2, b=0.0)
    st = dict(simulate(topo, {"cluster_1": src},
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


def test_fifo_order_preserved_in_replication():
    topo = _star()
    src = bursty_params(b=0.8)
    st = dict(simulate(topo, {"cluster_1": src},
                       RunConfig(horizon_s=3600.0, warmup_s=100.0), seed=12))["sink"]
    assert np.all(np.diff(st.depart) >= 0)
    assert np.all(st.depart > st.arrive)


# ------------------------------------------------------------- overflow

def test_overflow_busy_period_threshold_one():
    arrive = np.array([0.0, 0.01, 0.02])
    depart = fifo_departures(arrive, np.array([1.0, 1.0, 1.0]))
    state = NodeState("n", 1, arrive, depart, created=arrive,
                      cluster=np.zeros(3, dtype=np.int16))
    assert estimate_overflow(state, state.created > -1.0) == pytest.approx(2.0 / 3.0)


def test_overflow_unreachable_threshold_is_zero():
    topo = _star(B=10**9)
    src = bursty_params(b=0.5)
    res = run_replication(topo, {"cluster_1": src},
                          RunConfig(horizon_s=3600.0, warmup_s=100.0), seed=21)
    assert res.per_node["sink"].overflow_prob == 0.0


@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       load=st.sampled_from([0.2, 0.9, 3.0]), on_grid=st.booleans(),
       warm_frac=st.floats(0.0, 1.0), data=st.data())
def test_overflow_shifted_compare_is_exact(n, seed, load, on_grid, warm_frac, data):
    # tied arrivals, exponential services, a random warm-up mask, B in 1..n+3;
    # on a grid of 1/4 s the sums are exact, so departures land on arrival
    # times (a packet leaving as another arrives is not seen) and some
    # services are 0
    rng = np.random.default_rng(seed)
    arrive = _tied_arrivals(rng, n, 10.0)
    service = rng.exponential(load * 10.0 / n, n)
    if on_grid:
        arrive, service = np.floor(arrive * 4.0) / 4.0, np.floor(service * 4.0) / 4.0
    mask = rng.random(n) < warm_frac
    B = data.draw(st.integers(1, n + 3), label="B")
    depart = fifo_departures(arrive, service)
    _, oracle_seen = fifo_event_loop(arrive.tolist(), service.tolist())
    state = NodeState("n", B, arrive, depart, created=arrive,
                      cluster=np.zeros(n, dtype=np.int16))
    prob = estimate_overflow(state, mask)
    measured = int(mask.sum())
    for seen in (np.asarray(oracle_seen), packets_seen(arrive, depart)):
        hits = int(np.count_nonzero(seen[mask] >= B))
        assert prob == (hits / measured if measured else 0.0)


@pytest.mark.parametrize("case", ["star", "case3"])
def test_overflow_equals_packets_seen_count_on_replications(case):
    # star N=2 b=0 const: every sink arrival time occurs twice
    if case == "star":
        topo, src = _star(n=2), bursty_params(n=2, b=0.0)
    else:
        topo, src = wb.build_case3(1, 50.0), bursty_params(b=0.9)
    states = dict(simulate(topo, {c.cluster_id: src for c in topo.clusters},
                           RunConfig(horizon_s=600.0, warmup_s=60.0), seed=5))
    for node in states.values():
        n, mask = node.arrive.size, node.created > 60.0
        seen = packets_seen(node.arrive, node.depart)
        for B in (1, 2, 10, 1000, n - 1, n, n + 3):
            state = NodeState(node.node_id, B, node.arrive, node.depart,
                              node.created, node.cluster)
            prob = estimate_overflow(state, mask)
            assert prob == np.count_nonzero(seen[mask] >= B) / mask.sum()


def test_overflow_mm1_geometric_tail():
    # PASTA oracle: an arrival sees >= B in system with probability rho^B
    topo = _star(B=5)
    src = bursty_params(b=0.0, mode=EMISSION_POISSON)
    estimates = []
    for day in range(4):
        res = run_replication(topo, {"cluster_1": src},
                              RunConfig(horizon_s=14_400.0, warmup_s=1_000.0),
                              seed=derive_seed(1001, day))
        estimates.append(res.per_node["sink"].overflow_prob)
    estimates = np.asarray(estimates)
    se = estimates.std(ddof=1) / math.sqrt(estimates.size)
    assert abs(estimates.mean() - 0.5**5) <= 3.0 * se + 1e-4


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
    sources = {c.cluster_id: bursty_params(2.0, 1, n_p=4.0, b=0.5) for c in topo.clusters}
    cfg = RunConfig(horizon_s=300.0, warmup_s=10.0, trace=True)
    res = run_replication(topo, sources, cfg, seed=77)
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
    sources = {c.cluster_id: bursty_params(2.0, 2, n_p=4.0, b=0.5) for c in topo.clusters}
    cfg = RunConfig(horizon_s=300.0, warmup_s=10.0, trace=True)
    res = run_replication(topo, sources, cfg, seed=21)
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
    topo = _star(lam=1.0, rho=0.25)
    src = bursty_params(lam=1.0, n_p=2.0, b=0.5)
    cfg = RunConfig(horizon_s=60.0, warmup_s=5.0, trace=True)
    res = run_replication(topo, {"cluster_1": src}, cfg, seed=5)
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
    assert (time_average_in_system(arrive, depart, lo, hi)
            == time_average_min_max(arrive, depart, lo, hi))


# ----------------------------------------------------------------- memory

def _case3_b09():
    topo = wb.build_case3(1, 50.0)
    src = bursty_params(b=0.9)
    return topo, {c.cluster_id: src for c in topo.clusters}


def test_relay_states_are_freed_once_the_sink_has_merged_them(monkeypatch):
    topo, sources = _case3_b09()
    cfg = RunConfig(horizon_s=600.0, warmup_s=60.0)
    assert list(dict(simulate(topo, sources, cfg, seed=5))) == ["relay_1", "relay_2", "sink"]

    states = simulate(topo, sources, cfg, seed=5)
    relays = [weakref.ref(state) for _, state in (next(states), next(states))]
    sink_id, _ = next(states)
    gc.collect()
    assert sink_id == "sink" and all(ref() is None for ref in relays)

    # by the time the sink serves its merged arrivals, no loop variable of
    # simulate or run_replication may pin a relay's state or arrays
    fifo, node_metrics = simcore.fifo_departures, simcore._node_metrics
    relay_refs, alive = [], []

    def fifo_spy(arrive, service):
        gc.collect()
        alive[:] = [ref() is not None for ref in relay_refs]   # the last call serves the sink
        return fifo(arrive, service)

    def metrics_spy(state, *args):
        if state.node_id != "sink":
            relay_refs.extend(weakref.ref(x) for x in
                              (state, state.arrive, state.depart, state.created, state.cluster))
        return node_metrics(state, *args)

    monkeypatch.setattr(simcore, "fifo_departures", fifo_spy)
    monkeypatch.setattr(simcore, "_node_metrics", metrics_spy)
    run_replication(topo, sources, cfg, seed=5)
    assert len(alive) == 10 and not any(alive)


def test_case3_replication_peak_memory_per_sink_arrival():
    # a one-hour case-3 day at b=.9 traced 65.3 B per sink arrival while
    # every relay trajectory stayed alive through the sink, and 42.1 B once
    # replication streams through the tree (the sink's metrics are the
    # peak); a merge that kept its inputs to the end reached 47.3 B
    topo, sources = _case3_b09()
    tracemalloc.start()
    try:
        res = run_replication(topo, sources, RunConfig(horizon_s=3600.0, warmup_s=600.0),
                              seed=1729)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / res.per_node["sink"].arrivals_total < 46.0
