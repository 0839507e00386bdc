"""Distribution layer: closed forms, inverse-transform sampling, calibration."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from wsnburst.dists import (Deterministic, Exponential, ParameterError, Pareto, TPT,
                            mean_of, reliability, sample, sample_array,
                            tpt_calibrate)
from wsnburst.rng import substream

# Frozen oracle values (re-derived below where cheap):
# - Pareto(1.4, 50) median: root of R(x) = 0.5, solved by bisection on the
#   closed form -> 12.813414240305516
# - TPT(theta=.5, T=3, lam=1.64067, mu=1) mean: quadrature of R over [0,inf)
#   -> 1.4247340069857142
# - Exponential(mean=2) inverse transform at u=0.5 -> -2 ln(0.5)
PARETO_MEDIAN = 12.813414240305516
TPT_T3_MEAN = 1.4247340069857142


class FixedStream:
    """Duck-typed generator yielding a preset uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n=None):
        if n is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(n)])


def test_reliability_at_zero_is_one():
    assert reliability(Pareto(alpha=1.4, mean=50.0), 0.0) == 1.0


def test_tpt_single_branch_is_exponential_reliability():
    # T=1 collapses to a plain exponential with rate mu
    spec = TPT(theta=0.5, T=1, lam=1.7, mu=2.0)
    assert reliability(spec, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_pareto_median_roundtrip():
    spec = Pareto(alpha=1.4, mean=50.0)
    # independent oracle: invert R by bisection, then substitute back
    x = brentq(lambda t: reliability(spec, t) - 0.5, 0.0, 1e6, xtol=1e-12)
    assert x == pytest.approx(PARETO_MEDIAN, abs=1e-9)
    assert reliability(spec, PARETO_MEDIAN) == pytest.approx(0.5, abs=1e-12)


def test_reliability_rejects_negative_x():
    with pytest.raises(ParameterError):
        reliability(Exponential(1.0), -0.1)


@pytest.mark.parametrize("spec, expected", [
    (Pareto(alpha=1.4, mean=50.0), 50.0),
    (TPT(theta=0.5, T=1, lam=1.6, mu=2.0), 0.5),
    (Deterministic(3.25), 3.25),
    (Exponential(0.125), 0.125),
])
def test_mean_of_closed_forms(spec, expected):
    assert mean_of(spec) == pytest.approx(expected, rel=1e-12)


def test_tpt_mean_matches_quadrature_oracle():
    spec = TPT(theta=0.5, T=3, lam=1.64067, mu=1.0)
    oracle, err = quad(lambda x: reliability(spec, x), 0.0, 5000.0, limit=400)
    assert err < 1e-8
    assert mean_of(spec) == pytest.approx(oracle, rel=1e-9)
    assert mean_of(spec) == pytest.approx(TPT_T3_MEAN, rel=1e-12)


def test_tpt_mean_theta_lam_unity_limit():
    # theta*lam == 1 is the removable singularity of the geometric sum
    theta = 0.5
    spec = TPT(theta=theta, T=4, lam=1.0 / theta, mu=1.0)
    oracle, _ = quad(lambda x: reliability(spec, x), 0.0, 2000.0, limit=400)
    assert mean_of(spec) == pytest.approx(oracle, rel=1e-9)


def test_sample_exponential_inverse_transform():
    x = sample(Exponential(mean=2.0), FixedStream([0.5]))
    assert x == pytest.approx(1.3862943611198906, rel=1e-15)


def test_sample_pareto_u_is_survival_probability():
    spec = Pareto(alpha=1.4, mean=50.0)
    for u in (0.5, 0.1, 0.9, 0.999):
        x = sample(spec, FixedStream([u]))
        assert reliability(spec, x) == pytest.approx(u, rel=1e-12)
    assert sample(spec, FixedStream([0.5])) == pytest.approx(PARETO_MEDIAN, abs=1e-9)


def test_sample_rejects_zero_uniform():
    x = sample(Exponential(1.0), FixedStream([0.0, 0.25]))
    assert x == pytest.approx(-math.log(0.25), rel=1e-12)


def test_deterministic_consumes_no_randomness():
    stream = FixedStream([0.7])
    assert sample(Deterministic(4.0), stream) == 4.0
    assert stream.values == [0.7]


def test_tpt_t1_bitwise_equals_exponential():
    mu = 2.0
    exp_spec = Exponential(mean=1.0 / mu)
    tpt_spec = TPT(theta=0.5, T=1, lam=1.5, mu=mu)
    xs = sample_array(exp_spec, substream(1234), 5000)
    ys = sample_array(tpt_spec, substream(1234), 5000)
    assert np.array_equal(xs, ys)


def test_sampling_is_bitwise_deterministic():
    spec = TPT(theta=0.5, T=8, lam=1.64, mu=3.0)
    xs = sample_array(spec, substream(777), 10_000)
    ys = sample_array(spec, substream(777), 10_000)
    assert np.array_equal(xs, ys)
    single = [sample_array(spec, substream(31), 1)[0] for _ in range(3)]
    assert single[0] == single[1] == single[2]


@pytest.mark.parametrize("spec", [
    Exponential(mean=0.4),
    TPT(theta=0.5, T=5, lam=1.640670712015276, mu=2.0),
])
def test_empirical_mean_within_three_standard_errors(spec):
    xs = sample_array(spec, substream(2024), 1_000_000)
    se = xs.std(ddof=1) / math.sqrt(xs.size)
    assert abs(xs.mean() - mean_of(spec)) <= 3.0 * se


def test_pareto_empirical_mean_within_five_percent():
    # heavy tail (alpha=1.4): the sample mean converges slowly, hence the
    # documented 5% tolerance
    spec = Pareto(alpha=1.4, mean=50.0)
    xs = sample_array(spec, substream(520), 1_000_000)
    assert abs(xs.mean() - 50.0) / 50.0 < 0.05


def test_tpt_calibrate_power_tail_construction():
    spec = tpt_calibrate(theta=0.5, alpha=1.4, target_mean=1.0, T=1)
    # oracle: the geometric factor must satisfy theta * lam**alpha == 1
    assert 0.5 * spec.lam**1.4 == pytest.approx(1.0, rel=1e-12)
    assert spec.lam == pytest.approx(1.640670712015276, rel=1e-12)
    assert spec.mu == pytest.approx(1.0, rel=1e-12)


def test_tpt_calibrate_exponential_reduction():
    spec = tpt_calibrate(theta=0.5, alpha=1.4, target_mean=0.5, T=1)
    assert spec.mu == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("T", [1, 3, 30])
def test_tpt_calibrate_mean_error_below_1e12(T):
    spec = tpt_calibrate(theta=0.5, alpha=1.4, target_mean=1.0, T=T)
    assert abs(mean_of(spec) - 1.0) < 1e-12


@given(
    kind=st.sampled_from(["exp", "pareto", "tpt"]),
    mean=st.floats(0.01, 1e4),
    alpha=st.floats(1.05, 5.0),
    theta=st.floats(0.05, 0.95),
    T=st.integers(1, 40),
    x1=st.floats(0.0, 1e5),
    x2=st.floats(0.0, 1e5),
)
def test_reliability_is_nonincreasing_from_one(kind, mean, alpha, theta, T, x1, x2):
    if kind == "exp":
        spec = Exponential(mean=mean)
    elif kind == "pareto":
        spec = Pareto(alpha=alpha, mean=mean)
    else:
        spec = tpt_calibrate(theta, alpha, mean, T)
    lo, hi = sorted((x1, x2))
    r_lo, r_hi = reliability(spec, lo), reliability(spec, hi)
    assert reliability(spec, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert r_hi <= r_lo + 1e-12
    assert 0.0 <= r_hi <= 1.0
    assert mean_of(spec) > 0.0


@pytest.mark.parametrize("bad", [
    lambda: Exponential(mean=0.0),
    lambda: Pareto(alpha=1.0, mean=5.0),
    lambda: Pareto(alpha=1.4, mean=-1.0),
    lambda: TPT(theta=0.0, T=3, lam=1.5, mu=1.0),
    lambda: TPT(theta=0.5, T=0, lam=1.5, mu=1.0),
    lambda: TPT(theta=0.5, T=3, lam=1.0, mu=1.0),
    lambda: TPT(theta=0.5, T=3, lam=1.5, mu=0.0),
    lambda: Deterministic(-0.5),
    lambda: tpt_calibrate(0.5, 0.9, 1.0, 3),
])
def test_invalid_parameters_raise(bad):
    with pytest.raises(ParameterError):
        bad()


def test_tpt_refuses_a_last_branch_factor_below_the_smallest_normal_float():
    # theta^(T-1) at theta=.5 is 2^-1022 at T=1023, the smallest normal float;
    # past it the weights and rates underflow, and the discretized moments
    # of tpt:1100 (second) and tpt:1500 (both) are NaN, 0 * inf
    TPT(theta=0.5, T=1023, lam=1.5, mu=1.0)
    for T in (1024, 1500, 10**400):
        with pytest.raises(ParameterError, match=f"truncation level T={T} is too large"):
            TPT(theta=0.5, T=T, lam=1.5, mu=1.0)
