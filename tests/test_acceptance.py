"""Acceptance suite: one test per criterion, full simulation horizons.

Each test prints a ``criterion NN: PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -s``) and then asserts.  The suite is
compute-heavy (hundreds of 25-hour replications, run two at a time by
``_map_days``) and takes about 2 minutes on a 2-vCPU x86-64 VM; every test
carries the ``acceptance`` marker, so ``pytest -m "not acceptance"`` leaves
it out.
"""
import json
import math
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import wsnburst as wb
from wsnburst.dists import Exponential, Pareto, TPT, sample, sample_array, tpt_calibrate
from wsnburst.model import (EMISSION_CONST, EMISSION_POISSON, DistKind,
                            GeometricLaw, derive_source_params, mpd_bulk_limit,
                            mpd_smooth_limit)
from wsnburst.rng import derive_seed, substream
from wsnburst.simcore import RunConfig, run_replication

pytestmark = pytest.mark.acceptance

EXP = DistKind.parse("exp")
PARETO = DistKind.parse("pareto")
TPT30 = DistKind.parse("tpt:30")
DAY_CFG = RunConfig()              # 25 h horizon, 1 h warm-up, B = 1000
MASTER = 1729                      # package default master seed
B_GRID = [round(0.05 * k, 9) for k in range(1, 20)]           # 0.05 .. 0.95
B_GRID_HIGH = [round(0.5 + 0.05 * k, 9) for k in range(10)]   # 0.50 .. 0.95


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _star_day(n, b, on_kind, off_kind, seed, *, lam=50.0, rho=0.5, n_p=50.0,
              B=1000, mode=EMISSION_CONST):
    topo = wb.build_star(n, lam, rho)
    src = derive_source_params(lam, n, n_p, b, on_kind, off_kind, emission_mode=mode)
    return run_replication(topo, src, replace(DAY_CFG, threshold=B), seed)


def _case_day(case, b, seed, on_kind=EXP):
    topo = wb.build_case2(1, 50.0, 0.5) if case == 2 else wb.build_case3(1, 50.0, 0.5)
    return run_replication(topo, derive_source_params(50.0, 1, 50.0, b, on_kind, EXP),
                           DAY_CFG, seed)


def _raise_wsnburst_warnings():
    # pyproject's filter, so a worker checks no less than the main process
    warnings.filterwarnings("error", category=RuntimeWarning, module="wsnburst")


def _map_days(day, arg_tuples):
    """``[day(*args) for args in arg_tuples]`` on two worker processes, in
    input order.  A day is a function of its arguments alone, so the results
    are the serial loop's.  Never more than two workers: two case-3 days at
    once peak at about 1.4 GiB."""
    with ProcessPoolExecutor(max_workers=2, initializer=_raise_wsnburst_warnings) as pool:
        return list(pool.map(day, *zip(*arg_tuples)))


def tail_slope(samples, lo_q=0.90, hi_q=0.999, points=60):
    """Least-squares slope of log empirical reliability vs log x, evaluated
    on a log-spaced grid across the given percentile range."""
    xs = np.sort(samples)
    lo, hi = np.quantile(xs, lo_q), np.quantile(xs, hi_q)
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), points))
    surv = 1.0 - np.searchsorted(xs, grid, side="right") / xs.size
    keep = surv > 0
    return float(np.polyfit(np.log(grid[keep]), np.log(surv[keep]), 1)[0])


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_blowup_tables():
    t0 = time.perf_counter()
    one = wb.blowup_points(1, 0.5)
    two = wb.blowup_points(2, 0.5)
    ten = wb.blowup_points(10, 0.5)
    elapsed = time.perf_counter() - t0
    ok = one == [0.5]
    ok &= abs(two[0] - 2.0 / 3.0) < 1e-15 and two[1] == 0.5
    ok &= abs(ten[0] - 0.909091) <= 1e-6
    exact_tail = all(wb.blowup_points(n, round(0.1 * k, 9))[-1] == 1.0 - round(0.1 * k, 9)
                     for n in range(1, 11) for k in range(1, 10))
    ok &= exact_tail and elapsed < 1e-3
    assert _report(1, ok, f"b(2,.5)={two}, b1(10,.5)={ten[0]:.6f}, "
                          f"tail exact={exact_tail}, {elapsed * 1e6:.0f} us")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_mm1_oracle():
    t0 = time.perf_counter()
    mpds, ovfs, arrivals = [], [], 0
    days = _map_days(partial(_star_day, B=10, mode=EMISSION_POISSON),
                     [(1, 0.0, EXP, EXP, derive_seed(MASTER, 2, day)) for day in range(10)])
    for res in days:
        sink = res.per_node["sink"]
        mpds.append(sink.mpd_s)
        ovfs.append(sink.overflow_prob)
        arrivals += sink.packets
    runtime = time.perf_counter() - t0
    mean_mpd = float(np.mean(mpds))
    mean_ovf = float(np.mean(ovfs))
    se_ovf = float(np.std(ovfs, ddof=1) / math.sqrt(len(ovfs)))
    target_ovf = 0.5**10
    ok_mpd = abs(mean_mpd - 0.02) / 0.02 <= 0.02
    ok_ovf = abs(mean_ovf - target_ovf) <= 3.0 * se_ovf
    ok = ok_mpd and ok_ovf and arrivals >= 10**7 and runtime <= 120.0
    assert _report(2, ok, f"mPD {mean_mpd:.5f} (target 0.02 +-2%), "
                          f"ovf {mean_ovf:.3e} vs {target_ovf:.3e} (3SE {3 * se_ovf:.1e}), "
                          f"{arrivals} arrivals, {runtime:.0f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_near_smooth_limit():
    # The b->0 limit equals (1/v)/(1-rho) for Poisson emission within bursts;
    # evenly spaced constant-rate emission converges to the smoother D/M/1
    # queue instead (measured ~0.64x), so the M/M/1 comparison is made in
    # the poisson emission mode (see decisions ledger).
    target = mpd_smooth_limit(100.0, 0.5)
    means = {}
    for mode in (EMISSION_POISSON, EMISSION_CONST):
        days = _map_days(partial(_star_day, mode=mode),
                         [(1, 0.05, EXP, EXP, derive_seed(MASTER, 3, day)) for day in range(10)])
        vals = [res.per_node["sink"].mpd_s for res in days]
        means[mode] = float(np.mean(vals))
    ok = abs(means[EMISSION_POISSON] - target) / target <= 0.15
    assert _report(3, ok, f"poisson-mode mPD {means[EMISSION_POISSON]:.5f} vs {target} "
                          f"(+-15%); const-mode {means[EMISSION_CONST]:.5f} for reference")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_bulk_approach():
    days = _map_days(partial(_star_day, lam=10.0, n_p=20.0),
                     [(1, b, EXP, EXP, derive_seed(MASTER, 4, int(b * 1e6), day))
                      for b in B_GRID for day in range(10)])
    means = []
    for i, b in enumerate(B_GRID):
        vals = [res.per_node["sink"].mpd_s for res in days[10 * i:10 * i + 10]]
        means.append(float(np.mean(vals)))
    bulk = mpd_bulk_limit(20.0, 0.5, GeometricLaw(20.0))   # 2.0 s
    ratio = means[-1] / means[0]
    violations = sum(1 for lo, hi in zip(means, means[1:]) if hi < lo * 0.95)
    ok = ratio >= 10.0 and means[-1] <= bulk * 1.5 and violations <= 1
    assert _report(4, ok, f"mPD(.05)={means[0]:.4f}, mPD(.95)={means[-1]:.4f}, "
                          f"ratio {ratio:.1f} (>=10), bulk cap {bulk * 1.5:.1f}, "
                          f"trend violations {violations} (<=1)")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_blowup_jump():
    """The median mPD of ten 25 h days at b=.6 is at least 10 times that at
    b=.4 (N=1, tpt:30) on at least 7 of 10 seed sets; the overflow past
    B=1000 is at most 1e-9 at b=.4 and positive on average at b=.6.  These
    medians describe a 25 h day, not the stationary mean: at b=.6 the
    stationary W is 167.2 s, while ten 25 h days (poisson emission) have a
    median of 3.8 s.  A day holds about 9e4 bursts and rarely reaches the
    TPT branches that set W."""
    passing, ovf_low, ovf_high = 0, [], []
    ratios = []
    days = iter(_map_days(_star_day, [(1, b, TPT30, EXP, derive_seed(master, 5, int(b * 1e6), day))
                                      for master in range(1, 11) for b in (0.4, 0.6)
                                      for day in range(10)]))
    for master in range(1, 11):
        medians = {}
        for b in (0.4, 0.6):
            mpds = []
            for _ in range(10):
                res = next(days)
                mpds.append(res.per_node["sink"].mpd_s)
                (ovf_low if b == 0.4 else ovf_high).append(
                    res.per_node["sink"].overflow_prob)
            medians[b] = float(np.median(mpds))
        ratio = medians[0.6] / medians[0.4]
        ratios.append(ratio)
        passing += ratio >= 10.0
    ok_ratio = passing >= 7
    ok_ovf = max(ovf_low) <= 1e-9 and float(np.mean(ovf_high)) > 0.0
    ok = ok_ratio and ok_ovf
    assert _report(5, ok, f"ratio>=10 on {passing}/10 seed sets "
                          f"(median ratio {np.median(ratios):.0f}); "
                          f"ovf(b=.4) max {max(ovf_low):.1e}, "
                          f"ovf(b=.6) mean {np.mean(ovf_high):.3e} > 0")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_two_node_damping():
    days = _map_days(_star_day, [(n, 0.55, TPT30, EXP, derive_seed(MASTER, 6, n, day))
                                 for n in (1, 2) for day in range(10)])
    medians = {}
    for i, n in enumerate((1, 2)):
        vals = [res.per_node["sink"].mpd_s for res in days[10 * i:10 * i + 10]]
        medians[n] = float(np.median(vals))
    ok = medians[2] < medians[1]
    assert _report(6, ok, f"10-day median mPD: N=1 {medians[1]:.3f} s, "
                          f"N=2 {medians[2]:.3f} s (strictly less)")


# ------------------------------------------------------- criteria 7 and 8

CASE_DAYS = 3  # replications per sweep point for the cluster-tree sweeps


def _case_sweep(case, criterion):
    """``CASE_DAYS`` days of ``case`` at each b of B_GRID_HIGH, keyed by b."""
    days = _map_days(_case_day, [(case, b, derive_seed(MASTER, criterion, int(b * 1e6), day))
                                 for b in B_GRID_HIGH for day in range(CASE_DAYS)])
    return {b: days[CASE_DAYS * i:CASE_DAYS * (i + 1)] for i, b in enumerate(B_GRID_HIGH)}


@pytest.fixture(scope="module")
def case2_sweep():
    return _case_sweep(2, 7)


@pytest.fixture(scope="module")
def case3_sweep():
    return _case_sweep(3, 8)


def test_criterion_07_throughput_conservation(case2_sweep):
    worst = 0.0
    for b, days in case2_sweep.items():
        for res in days:
            sink = res.per_node["sink"].throughput_pps
            # each cluster's throughput is measured at its entry relay
            children = (res.per_node["relay_1"].cluster_throughput_pps[0]
                        + res.per_node["relay_2"].cluster_throughput_pps[1])
            worst = max(worst, abs(sink - children) / sink)
    ok = worst <= 0.005
    assert _report(7, ok, f"max |sink - (c1+c2)| / sink = {worst:.2e} over "
                          f"{len(case2_sweep)} b-points x {CASE_DAYS} days (<=0.5%)")


def test_criterion_08_case3_blowup_onset(case2_sweep, case3_sweep):
    """Case-3/case-2 end-to-end ratio of a relayed cluster: near 1 at low b,
    below 3 while the direct cluster's peak rate 50/(1-b) stays under the
    300 pps sink, and at least 3 at some b past it (b in {.85, .9, .95}).

    This fails, and not by noise.  A relayed cluster's delay is set by its
    relay, which is bit-identical in cases 2 and 3 (substreams are keyed by
    entity).  At N=1 with exp ON in const mode each relay is a GI/M/1 queue
    whose exact mean sojourn R is 0.601, 0.724 and 0.857 s at b = .85, .9
    and .95.  With s2 and s3 the sink hops of cases 2 and 3, the ratio
    (R + s3)/(R + s2) reaches 3 only if s3 >= 2R + 3 s2: at b=.85 that
    needs s3 >= 1.2 s, and at b=.9, with s2 = 0.036 s, s3 >= 1.56 s, while
    the measured s3 is 0.081 s (relay_1 0.7265 s in both cases, seed 77,
    25 h), so cluster_1 only goes from 0.762 to 0.782 s.
    """
    lam_p_exceeds_sink = {b: 50.0 / (1.0 - b) > 300.0 for b in B_GRID_HIGH}
    ratios = {}
    for b in B_GRID_HIGH:
        for cl in ("cluster_1", "cluster_2"):
            e2 = float(np.mean([r.per_cluster[cl].e2e_delay_s for r in case2_sweep[b]]))
            e3 = float(np.mean([r.per_cluster[cl].e2e_delay_s for r in case3_sweep[b]]))
            ratios[(b, cl)] = e3 / e2
    low_b_ok = all(abs(ratios[(b, cl)] - 1.0) < 0.20
                   for b in (0.5, 0.55, 0.6) for cl in ("cluster_1", "cluster_2"))
    before_ok = all(ratios[(b, cl)] < 3.0
                    for b in B_GRID_HIGH if not lam_p_exceeds_sink[b]
                    for cl in ("cluster_1", "cluster_2"))
    after_max = max(ratios[(b, cl)]
                    for b in B_GRID_HIGH if lam_p_exceeds_sink[b]
                    for cl in ("cluster_1", "cluster_2"))
    after_ok = after_max >= 3.0
    ok = low_b_ok and before_ok and after_ok
    assert _report(8, ok, f"low-b match within 20%: {low_b_ok}; "
                          f"no >=3x before lambda_p>v_sink: {before_ok}; "
                          f"max ratio after threshold {after_max:.2f} "
                          f"(>=3 required: {after_ok})")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_sampler_suite():
    xs = sample_array(Pareto(alpha=1.4, mean=50.0), substream(520), 1_000_000)
    mean_ok = abs(xs.mean() - 50.0) / 50.0 < 0.05
    slope = tail_slope(xs)
    slope_ok = abs(slope - (-1.4)) <= 0.15

    mu = 2.0
    exp_draws = sample_array(Exponential(1.0 / mu), substream(99), 100_000)
    tpt_draws = sample_array(TPT(theta=0.5, T=1, lam=1.5, mu=mu), substream(99), 100_000)
    bitwise_ok = np.array_equal(exp_draws, tpt_draws)

    calib_ok = all(abs(tpt_calibrate(0.5, 1.4, 1.0, T).mean - 1.0) < 1e-12
                   for T in (1, 2, 5, 10, 30))
    ok = mean_ok and slope_ok and bitwise_ok and calib_ok
    assert _report(9, ok, f"pareto mean {xs.mean():.2f} (+-5%), tail slope {slope:.3f} "
                          f"(-1.4 +-0.15), TPT(T=1) bitwise={bitwise_ok}, "
                          f"calibration<1e-12={calib_ok}")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_cli_determinism(tmp_path):
    config = {"case": 1, "N": [1], "b": {"start": 0.5, "stop": 0.6, "step": 0.05},
              "on_kind": "exp", "days": 2, "horizon_s": 7200.0, "warmup_s": 3600.0,
              "seed": 424242}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("run_a", "run_b"):
        proc = subprocess.run(
            [sys.executable, "-m", "wsnburst", "simulate", "--config", str(cfg_path),
             "--out", str(tmp_path / name)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert _report(10, ok, f"two `wsnburst simulate` runs, results.csv "
                           f"{len(outputs[0])} bytes, byte-identical={ok}")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_fluctuation_ordering():
    """CV of 10 daily mean delays (star, N=1, b=.7): Pareto ON beats exp ON,
    and Pareto OFF is at least Pareto ON with exp OFF, on 8 of 10 masters.

    The second ordering fails on about 4 of 10, because at b=.7, past the
    one-source blow-up point b_1 = 1 - rho = .5, the day's mean delay has no
    finite mean across days.  One burst of L packets then overloads the sink
    (167 against 100 pps) and adds a delay sum that grows as L^2; with
    Pareto ON at alpha = 1.4, L^2 has tail index alpha/2 = 0.7 < 1.  So the
    CVs of 10 days (at most sqrt(9) = 3, reached when one day holds the
    whole sum) are draws of a statistic with no limit, and more days would
    not settle them.  The OFF law itself is not weak: with exp ON at b=.7 in
    const mode the exact stationary W is 0.2944 s with exp OFF and 0.5609 s
    with Pareto OFF (x1.91).
    """
    b_key = int(0.7 * 1e6)
    variants = {1: (EXP, EXP), 2: (PARETO, EXP), 3: (PARETO, PARETO)}
    both, first_only = 0, 0
    rows = []
    days = iter(_map_days(_star_day, [(1, 0.7, on_kind, off_kind,
                                       derive_seed(master, variant, b_key, day))
                                      for master in range(1, 11)
                                      for variant, (on_kind, off_kind) in variants.items()
                                      for day in range(10)]))
    for master in range(1, 11):
        cvs = {}
        for variant in variants:
            mpds = [next(days).per_node["sink"].mpd_s for _ in range(10)]
            arr = np.asarray(mpds)
            cvs[variant] = float(arr.std() / arr.mean())
        ok1 = cvs[2] > cvs[1]
        ok2 = cvs[3] >= cvs[2]
        first_only += ok1
        both += ok1 and ok2
        rows.append((master, cvs[1], cvs[2], cvs[3]))
    ok = both >= 8
    assert _report(11, ok, f"CV(pareto ON)>CV(exp ON) on {first_only}/10 masters; "
                           f"both orderings on {both}/10 (need >=8)")
