"""Closed-form model results: burstiness, blow-up points, delay limits, bulk factor."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import wsnburst.model as model
from wsnburst.dists import (Deterministic, Exponential, ParameterError, Pareto, mean_of,
                            reliability, tpt_calibrate)
from wsnburst.model import (DeterministicLaw, DiscretizedLaw, DistKind, GeometricLaw,
                            SourceParams, blowup_points, bulk_factor,
                            bulk_law_for, derive_source_params,
                            mpd_bulk_limit, mpd_smooth_limit)

EXP = DistKind.parse("exp")


def brute_force_geometric_bulk_factor(m: float) -> float:
    """Independent oracle: D = sum l(l+1)/2 p(l) / sum l p(l) over the
    geometric pmf on {1,2,...}, truncated once the tail mass is < 1e-12."""
    p = 1.0 / m
    num = den = 0.0
    l, pl = 1, p
    while pl > 1e-18 or l < 10 * m:
        num += l * (l + 1) / 2.0 * pl
        den += l * pl
        l += 1
        pl *= 1.0 - p
        if l > 10_000_000:
            break
    return num / den


@pytest.mark.parametrize("K, lam_p, expected", [
    (10.0, 20.0, 0.5),
    (50.0, 50.0, 0.0),
    (10.0, 200.0, 0.95),
])
def test_burstiness(K, lam_p, expected):
    # b = 1 - K/lambda_p: a source given K and b bursts at lambda_p
    p = SourceParams(K=K, b=expected, n_p=5.0, on_kind=EXP, off_kind=EXP)
    assert p.lambda_p == pytest.approx(lam_p, rel=1e-12)
    assert 1.0 - p.K / p.lambda_p == pytest.approx(expected, abs=1e-12)


def test_burstiness_domain_error():
    # a mean rate above the peak rate is a negative burstiness
    with pytest.raises(ParameterError):
        SourceParams(K=30.0, b=1.0 - 30.0 / 20.0, n_p=5.0, on_kind=EXP, off_kind=EXP)


def test_blowup_points_known_values():
    assert blowup_points(1, 0.5) == [0.5]
    b = blowup_points(2, 0.5)
    assert b[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert b[1] == 0.5
    assert blowup_points(10, 0.5)[0] == pytest.approx(10.0 / 11.0, abs=1e-12)


def test_blowup_points_last_is_exactly_one_minus_rho():
    for n in range(1, 11):
        for rho in np.arange(0.1, 0.95, 0.1):
            rho = float(rho)
            assert blowup_points(n, rho)[-1] == 1.0 - rho  # exact, not approx


@given(n=st.integers(1, 40), rho=st.floats(0.01, 0.99, exclude_max=True))
def test_blowup_points_strictly_decreasing_in_unit_interval(n, rho):
    pts = blowup_points(n, rho)
    assert len(pts) == n
    assert all(0.0 < b < 1.0 for b in pts)
    assert all(a > b for a, b in zip(pts, pts[1:]))
    assert pts[-1] == 1.0 - rho


def test_blowup_points_domain_errors():
    with pytest.raises(ParameterError):
        blowup_points(0, 0.5)
    with pytest.raises(ParameterError):
        blowup_points(2, 1.0)


@pytest.mark.parametrize("v, rho, expected", [
    (100.0, 0.5, 0.02),
    (20.0, 0.5, 0.1),
    (100.0, 0.9, 0.1),
])
def test_mpd_smooth_limit(v, rho, expected):
    assert mpd_smooth_limit(v, rho) == pytest.approx(expected, rel=1e-12)


def test_mpd_smooth_limit_instability_error():
    with pytest.raises(ParameterError):
        mpd_smooth_limit(100.0, 1.0)


def test_bulk_factor_geometric_matches_brute_force():
    for m in (20.0, 50.0, 3.0):
        closed = bulk_factor(GeometricLaw(mean=m))
        oracle = brute_force_geometric_bulk_factor(m)
        assert type(closed) is float
        assert closed == pytest.approx(oracle, rel=1e-9)
        assert closed == pytest.approx(m, rel=1e-9)


def test_bulk_factor_deterministic():
    assert bulk_factor(DeterministicLaw(1)) == 1.0
    assert bulk_factor(DeterministicLaw(5)) == 3.0


def test_bulk_factor_does_not_square_the_mean():
    # E[L(L+1)/2] overflows above a mean of about 1.3e154; D stays finite
    assert bulk_factor(GeometricLaw(1e200)) == 1e200
    assert bulk_factor(DeterministicLaw(10**200)) == 5e199
    assert mpd_bulk_limit(20.0, 0.5, GeometricLaw(1e200)) == pytest.approx(1e199, rel=1e-12)
    with pytest.raises(ParameterError, match="finite float"):
        DeterministicLaw(10**400)   # float(10**400) would raise OverflowError


def test_bulk_factor_infinite_for_heavy_tail():
    # alpha <= 2: E[L] is finite but the second moment, and so D, diverges
    law = DiscretizedLaw(Pareto(alpha=1.4, mean=20.0))
    assert 1.0 < law.moments()[0] < math.inf
    assert bulk_factor(law) == math.inf
    assert mpd_bulk_limit(100.0, 0.5, law) == math.inf


def test_bulk_factor_monte_carlo_light_tail_accuracy(rng):
    # discretized exponential ~ geometric: D should land near the mean, and
    # the ratio estimate over the law's own draws must agree with the series
    law = DiscretizedLaw(Exponential(mean=20.0))
    d = bulk_factor(law)
    assert d == pytest.approx(20.0, rel=0.05)
    ell = law.sample_array(rng, 400_000).astype(float)
    z = ell * (ell + 1.0) / 2.0
    est = z.mean() / ell.mean()
    resid = z - est * ell
    stderr = np.sqrt(np.mean(resid * resid) / ell.size) / ell.mean()
    assert abs(est - d) < 4.0 * stderr


def _series_moments(dist, terms=400_000):
    """Term-by-term 1 + sum_{l>=2} R(l-1/2) and 1 + sum_{l>=2} l R(l-1/2)."""
    x = np.arange(2, terms + 1) - 0.5
    r = reliability(dist, x)
    return 1.0 + math.fsum(r), 1.0 + math.fsum((x + 0.5) * r)


def test_discretized_moments_match_series_and_zeta():
    for dist in (Exponential(mean=20.0), tpt_calibrate(0.5, 1.4, 50.0, 3),
                 tpt_calibrate(0.5, 1.4, 50.0, 10)):
        mean, second = DiscretizedLaw(dist).moments()
        oracle_mean, oracle_second = _series_moments(dist)
        assert mean == pytest.approx(oracle_mean, rel=1e-12)
        assert second == pytest.approx(oracle_second, rel=1e-12)
    # Pareto: sum_{l>=2} (1 + (l-1/2)/s)^-alpha = s^alpha zeta(alpha, s+3/2)
    for alpha in (2.5, 3.0, 4.0):
        dist = Pareto(alpha=alpha, mean=20.0)
        s = dist.scale
        mean, second = DiscretizedLaw(dist).moments()
        z1, z0 = zeta(alpha - 1.0, s + 1.5), zeta(alpha, s + 1.5)
        assert mean == pytest.approx(1.0 + s**alpha * z0, rel=1e-10)
        assert second == pytest.approx(1.0 + s**alpha * (z1 - (s - 0.5) * z0), rel=1e-6)


@pytest.mark.parametrize("v, rho, law, expected", [
    (20.0, 0.5, GeometricLaw(20.0), 2.0),
    (100.0, 0.5, DeterministicLaw(1), 0.02),
    (100.0, 0.5, GeometricLaw(50.0), 1.0),
])
def test_mpd_bulk_limit(v, rho, law, expected):
    assert mpd_bulk_limit(v, rho, law) == pytest.approx(expected, rel=1e-9)


def test_mpd_bulk_limit_at_least_smooth_limit():
    for law in (GeometricLaw(5.0), DeterministicLaw(1), DeterministicLaw(9)):
        assert mpd_bulk_limit(50.0, 0.3, law) >= mpd_smooth_limit(50.0, 0.3) - 1e-15


def test_derive_source_params_symmetric_case():
    p = derive_source_params(50.0, 1, 50.0, 0.5, DistKind.parse("exp"), DistKind.parse("exp"))
    assert p.K == pytest.approx(50.0)
    assert p.lambda_p == pytest.approx(100.0)
    assert p.on_mean == pytest.approx(0.5)
    assert p.off_mean == pytest.approx(0.5)
    # renewal oracle: K = n_p / (ON + OFF)
    assert p.n_p / (p.on_mean + p.off_mean) == pytest.approx(50.0, rel=1e-12)


def test_derive_source_params_splits_rate_across_nodes():
    p = derive_source_params(50.0, 5, 50.0, 0.9, DistKind.parse("exp"), DistKind.parse("exp"))
    assert p.K == pytest.approx(10.0)
    assert p.lambda_p == pytest.approx(100.0)


def test_derive_source_params_zero_burstiness_never_idles():
    p = derive_source_params(50.0, 1, 50.0, 0.0, DistKind.parse("exp"), DistKind.parse("exp"))
    assert p.lambda_p == pytest.approx(50.0)
    assert p.off_mean == 0.0
    assert p.off_dist == Deterministic(0.0)


def test_derive_source_params_domain_errors():
    exp = DistKind.parse("exp")
    with pytest.raises(ParameterError):
        derive_source_params(50.0, 1, 50.0, 1.0, exp, exp)
    with pytest.raises(ParameterError):
        derive_source_params(0.0, 1, 50.0, 0.5, exp, exp)
    with pytest.raises(ParameterError):
        derive_source_params(50.0, 0, 50.0, 0.5, exp, exp)


@given(b=st.floats(0.0, 0.999), n=st.integers(1, 10),
       lam=st.floats(0.1, 500.0), n_p=st.floats(1.0, 200.0))
def test_derive_source_params_burstiness_round_trip(b, n, lam, n_p):
    p = derive_source_params(lam, n, n_p, b, DistKind.parse("exp"), DistKind.parse("exp"))
    assert abs((1.0 - p.K / p.lambda_p) - b) < 1e-12


@pytest.mark.parametrize("field, value", [
    ("b", 1.0), ("K", 0.0), ("n_p", 0.5), ("emission_mode", "burst"),
    ("off_kind", DistKind.parse("tpt:5")),
], ids=["b=1", "K=0", "n_p<1", "unknown-mode", "tpt-off"])
def test_source_params_refuses_bad_input(field, value):
    good = dict(K=50.0, b=0.5, n_p=50.0, on_kind=EXP, off_kind=EXP)
    SourceParams(**good)
    with pytest.raises(ParameterError):
        SourceParams(**{**good, field: value})


def test_dist_kind_parsing():
    k = DistKind.parse("tpt:30")
    assert k.kind == "tpt" and k.T == 30 and k.label() == "tpt:30"
    assert DistKind.parse("exp").label() == "exp"
    with pytest.raises(ParameterError):
        DistKind.parse("tpt")
    with pytest.raises(ParameterError):
        DistKind.parse("weibull")


def test_dist_kind_make_means():
    for text in ("exp", "pareto", "tpt:7"):
        spec = DistKind.parse(text).make(3.5)
        assert mean_of(spec) == pytest.approx(3.5, rel=1e-12)
    assert DistKind.parse("exp").make(0.0) == Deterministic(0.0)


def test_geometric_law_sampling(rng):
    law = GeometricLaw(mean=20.0)
    ells = law.sample_array(rng, 200_000)
    assert ells.min() >= 1
    assert ells.mean() == pytest.approx(20.0, rel=0.02)
    assert law.mean == 20.0


def test_discretized_law_mean_within_one_percent():
    for kind in ("pareto", "tpt:30", "tpt:100"):
        law = bulk_law_for(DistKind.parse(kind), 50.0)
        assert isinstance(law, DiscretizedLaw)
        assert law.moments()[0] == pytest.approx(50.0, rel=0.01)


def test_discretized_law_rejects_distorting_small_mean():
    # max(1, round(X)) lifts the mean of a heavy-tailed law with a small
    # target beyond the 1% gate; construction must refuse rather than drift
    with pytest.raises(ParameterError):
        DiscretizedLaw(Pareto(alpha=1.4, mean=8.0))


def test_discretized_law_refuses_a_nan_mean(monkeypatch):
    # a NaN compares false against any bound, so the gate is written to fail on it
    monkeypatch.setattr(model, "_discretized_moments", lambda dist: (math.nan, math.nan))
    with pytest.raises(ParameterError, match="discretized burst-size mean nan"):
        DiscretizedLaw(Pareto(alpha=1.4, mean=50.0))


@pytest.mark.parametrize("kind, second", [("tpt:800", 7.572314976267199e105),
                                           ("tpt:1023", 4.457541538615293e134)])
def test_tpt_second_moment_stays_finite_where_gap_squared_underflows(kind, second):
    # the slow branches have 1 - e^{-r} below 1.5e-162, whose square is 0;
    # the values are mpmath sums at 60 digits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, got = bulk_law_for(DistKind.parse(kind), 50.0).moments()
    assert mean == pytest.approx(50.018110700704625, rel=1e-14)
    assert got == pytest.approx(second, rel=1e-14)


def test_discretized_law_mean_against_monte_carlo(rng):
    law = DiscretizedLaw(Pareto(alpha=2.5, mean=12.0))  # light enough tail to converge
    ells = law.sample_array(rng, 400_000)
    se = ells.std(ddof=1) / math.sqrt(ells.size)
    assert abs(ells.mean() - law.moments()[0]) < 4.0 * se + 0.01
    assert ells.min() >= 1


def test_bulk_law_for_maps_on_shape():
    assert isinstance(bulk_law_for(DistKind.parse("exp"), 50.0), GeometricLaw)
    law = bulk_law_for(DistKind.parse("pareto"), 50.0)
    assert isinstance(law, DiscretizedLaw)
    assert law.moments()[0] == pytest.approx(50.0, rel=0.01)
    assert isinstance(law.dist, Pareto)
    # laws are immutable, so each (shape, n_p) pair is built once per process
    assert bulk_law_for(DistKind.parse("pareto"), 50.0) is law


@settings(max_examples=60)
@given(n_p=st.floats(20.0, 200.0), on=st.sampled_from(["tpt:10", "tpt:30"]))
def test_bulk_law_depends_only_on_on_shape_and_n_p(n_p, on):
    # the burst-size law is set in packets: calibrated at n_p itself, not at
    # an ON mean in seconds rescaled to n_p
    kind = DistKind.parse(on)
    assert bulk_law_for(kind, n_p).dist == tpt_calibrate(0.5, 1.4, n_p, kind.T)
