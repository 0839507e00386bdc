"""Source/sink parameters and closed-form performance results.

The traffic model superposes N independent, identical ON/OFF sources.
Each source emits packets at peak rate ``lambda_p`` while ON and is
silent while OFF; ``b = OFF/(ON+OFF) = 1 - K/lambda_p`` is the
burstiness knob, swept at constant mean load.  This module holds the
parameter records plus everything that can be answered without
simulating: the smooth (b=0) and bulk (b=1) mean-packet-delay limits,
the bulk factor D, and the locations of the N blow-up points where the
peak-rate combinatorics first saturate the server.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import dists
from .dists import (DistributionSpec, Deterministic, Exponential, ParameterError,
                    Pareto, mean_of, sample_array, tpt_calibrate)
from .rng import open_uniform_array

EMISSION_CONST = "const"      # packets evenly spaced 1/lambda_p within a burst
EMISSION_POISSON = "poisson"  # packet gaps Exponential(1/lambda_p) within a burst

_REL_TOL = 1e-9
_BULK_MC_SAMPLES = 1_000_000   # Monte Carlo draws behind a discretized law's bulk factor


@dataclass(frozen=True)
class SourceParams:
    """One ON/OFF source.  All fields are mutually constrained; use
    ``derive_source_params`` to build a consistent record."""

    K: float                      # mean packet rate over ON+OFF (packets/s)
    lambda_p: float               # peak rate during a burst (packets/s)
    n_p: float                    # mean packets per burst
    b: float                      # burstiness in [0,1)
    on_mean: float                # mean ON time, n_p/lambda_p (s)
    off_mean: float               # mean OFF time (s)
    on_dist: DistributionSpec     # ON-time law, mean on_mean
    off_dist: DistributionSpec    # OFF-time law, mean off_mean
    emission_mode: str = EMISSION_CONST

    def __post_init__(self):
        if not (0.0 <= self.b < 1.0):
            raise ParameterError(f"burstiness b must be in [0,1), got {self.b}")
        if not (0.0 < self.K <= self.lambda_p):
            raise ParameterError(f"need 0 < K <= lambda_p, got K={self.K}, lambda_p={self.lambda_p}")
        if self.n_p < 1.0:
            raise ParameterError(f"mean burst size n_p must be >= 1, got {self.n_p}")
        if self.emission_mode not in (EMISSION_CONST, EMISSION_POISSON):
            raise ParameterError(f"unknown emission mode {self.emission_mode!r}")
        _check_close("b", self.b, 1.0 - self.K / self.lambda_p)
        _check_close("on_mean", self.on_mean, self.n_p / self.lambda_p)
        _check_close("off_mean", self.off_mean, self.on_mean * self.b / (1.0 - self.b))
        _check_close("K", self.K, self.n_p / (self.on_mean + self.off_mean))
        _check_close("mean_of(on_dist)", mean_of(self.on_dist), self.on_mean)
        _check_close("mean_of(off_dist)", mean_of(self.off_dist), self.off_mean)


def _check_close(name: str, actual: float, expected: float) -> None:
    scale = max(abs(expected), 1.0)
    if abs(actual - expected) > _REL_TOL * scale:
        raise ParameterError(f"inconsistent SourceParams: {name}={actual!r}, expected {expected!r}")


@dataclass(frozen=True)
class SinkParams:
    """Service-side parameters of a queueing node."""

    v: float      # service rate (packets/s)
    rho: float    # utilization, offered load / v
    B: int        # overflow-counting threshold (packets in system)

    def __post_init__(self):
        if not self.v > 0.0:
            raise ParameterError(f"service rate v must be > 0, got {self.v}")
        if not (0.0 < self.rho < 1.0):
            raise ParameterError(f"utilization rho must be in (0,1) for steady state, got {self.rho}")
        if self.B < 1:
            raise ParameterError(f"threshold B must be >= 1, got {self.B}")


@dataclass(frozen=True)
class DistKind:
    """Shape selector for ON/OFF laws: 'exp', 'pareto', or 'tpt' with a
    truncation level (written 'tpt:<T>' in configs)."""

    kind: str
    T: Optional[int] = None
    alpha: float = 1.4
    theta: float = 0.5

    def __post_init__(self):
        if self.kind not in ("exp", "pareto", "tpt"):
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "tpt":
            if self.T is None or self.T < 1:
                raise ParameterError("tpt kind requires a truncation level T >= 1")
        if not self.alpha > 1.0:
            raise ParameterError(f"alpha must be > 1, got {self.alpha}")
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"theta must be in (0,1), got {self.theta}")

    @classmethod
    def parse(cls, text: str, alpha: float = 1.4, theta: float = 0.5) -> "DistKind":
        """Parse 'exp', 'pareto', or 'tpt:<T>'."""
        if text == "tpt" or text.startswith("tpt:"):
            _, _, t = text.partition(":")
            if not t:
                raise ParameterError("tpt kind must carry a truncation level, e.g. 'tpt:30'")
            return cls(kind="tpt", T=int(t), alpha=alpha, theta=theta)
        return cls(kind=text, alpha=alpha, theta=theta)

    def label(self) -> str:
        return f"tpt:{self.T}" if self.kind == "tpt" else self.kind

    def make(self, mean: float) -> DistributionSpec:
        """A spec of this shape with the given mean."""
        if mean == 0.0:
            return Deterministic(0.0)
        if self.kind == "exp":
            return Exponential(mean=mean)
        if self.kind == "pareto":
            return Pareto(alpha=self.alpha, mean=mean)
        return tpt_calibrate(self.theta, self.alpha, mean, self.T)


def burstiness(K: float, lambda_p: float) -> float:
    """b = 1 - K/lambda_p, the fraction of a source's cycle spent OFF."""
    if not 0.0 < K <= lambda_p:
        raise ParameterError(f"need 0 < K <= lambda_p, got K={K}, lambda_p={lambda_p}")
    return 1.0 - K / lambda_p


def derive_source_params(lambda_total: float, N: int, n_p: float, b: float,
                         on_kind: DistKind, off_kind: DistKind,
                         emission_mode: str = EMISSION_CONST) -> SourceParams:
    """Per-source parameters for an N-source group with aggregate mean rate
    ``lambda_total``: K = lambda_total/N and lambda_p = K/(1-b), so the
    requested burstiness is met while the offered load stays fixed."""
    if not lambda_total > 0.0:
        raise ParameterError(f"lambda_total must be > 0, got {lambda_total}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if not (0.0 <= b < 1.0):
        raise ParameterError(f"burstiness b must be in [0,1), got {b}")
    if n_p < 1.0:
        raise ParameterError(f"n_p must be >= 1, got {n_p}")
    K = lambda_total / N
    lambda_p = K / (1.0 - b)
    if not math.isfinite(lambda_p):
        raise ParameterError(f"peak rate overflows at b={b}")
    on_mean = n_p / lambda_p
    off_mean = on_mean * b / (1.0 - b)
    return SourceParams(
        K=K, lambda_p=lambda_p, n_p=n_p, b=b,
        on_mean=on_mean, off_mean=off_mean,
        on_dist=on_kind.make(on_mean),
        off_dist=off_kind.make(off_mean) if off_mean > 0.0 else Deterministic(0.0),
        emission_mode=emission_mode,
    )


def blowup_points(N: int, rho: float) -> list[float]:
    """Burstiness values b_1 > b_2 > ... > b_N at which i sources bursting
    simultaneously (the rest at mean rate) saturate the server:
    b_i = N(1-rho) / (N - rho(N-i)).  b_N equals 1-rho exactly."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho must be in (0,1), got {rho}")
    # written as (1-rho) / (1 - rho*(N-i)/N) so i=N gives 1-rho with no rounding
    return [(1.0 - rho) / (1.0 - rho * (N - i) / N) for i in range(1, N + 1)]


def mpd_smooth_limit(v: float, rho: float) -> float:
    """Mean packet delay of the b=0 (Poisson) limit: (1/v)/(1-rho)."""
    if not v > 0.0:
        raise ParameterError(f"service rate v must be > 0, got {v}")
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"unstable utilization rho={rho}; need 0 < rho < 1")
    return (1.0 / v) / (1.0 - rho)


@dataclass(frozen=True)
class GeometricLaw:
    """Burst size L on {1,2,...} with success probability 1/mean, so E[L]=mean.
    This is the packet-count law implied by exponential ON times."""

    mean: float

    def __post_init__(self):
        if self.mean < 1.0:
            raise ParameterError(f"geometric burst-size mean must be >= 1, got {self.mean}")

    def mean_packets(self) -> float:
        return self.mean

    def second_moment(self) -> float:
        p = 1.0 / self.mean
        return (2.0 - p) / (p * p)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.mean == 1.0:
            return np.ones(n, dtype=np.int64)
        u = open_uniform_array(rng, n)
        # inverse CDF of the geometric on {1,2,...}
        ell = np.ceil(np.log(u) / math.log1p(-1.0 / self.mean)).astype(np.int64)
        np.maximum(ell, 1, out=ell)
        return ell


@dataclass(frozen=True)
class DiscretizedLaw:
    """Burst size L = max(1, round(X)) for a continuous X.

    The mean is evaluated deterministically from the series
    E[L] = 1 + sum_{l>=2} R(l - 1/2) (closed tail for the exponential
    mixtures, analytic tail integral for Pareto), and construction fails
    if it strays more than 1% from the continuous mean.
    """

    dist: DistributionSpec
    _mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _discretized_mean(self.dist)
        target = mean_of(self.dist)
        if target > 0 and abs(m - target) > 0.01 * target:
            raise ParameterError(
                f"discretized burst-size mean {m:.6g} deviates more than 1% "
                f"from the continuous mean {target:.6g}")
        object.__setattr__(self, "_mean", m)

    def mean_packets(self) -> float:
        return self._mean

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = sample_array(self.dist, rng, n)
        ell = np.rint(x).astype(np.int64)
        np.maximum(ell, 1, out=ell)
        return ell


@dataclass(frozen=True)
class DeterministicLaw:
    """Every burst carries exactly ``packets`` packets."""

    packets: int

    def __post_init__(self):
        if self.packets < 1:
            raise ParameterError(f"burst size must be >= 1, got {self.packets}")

    def mean_packets(self) -> float:
        return float(self.packets)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.packets, dtype=np.int64)


BulkSizeLaw = Union[GeometricLaw, DiscretizedLaw, DeterministicLaw]


def _discretized_mean(dist: DistributionSpec, cutoff: int = 200_000) -> float:
    """E[max(1, round(X))] = 1 + sum_{l>=2} R(l-1/2), with the tail beyond
    ``cutoff`` taken in closed form."""
    if isinstance(dist, Deterministic):
        return float(max(1.0, np.rint(dist.value)))
    grid = np.arange(2, cutoff + 1, dtype=float) - 0.5
    total = 1.0 + float(np.sum(dists.reliability(dist, grid)))
    x0 = cutoff + 0.5
    if isinstance(dist, Exponential):
        r = math.exp(-1.0 / dist.mean)
        total += math.exp(-x0 / dist.mean) * r / (1.0 - r) if r > 0 else 0.0
    elif isinstance(dist, dists.TPT):
        w = dist.branch_weights()
        for j in range(dist.T):
            rate = dist.mu / dist.lam**j
            r = math.exp(-rate)
            total += w[j] * math.exp(-rate * x0) * r / (1.0 - r)
    elif isinstance(dist, Pareto):
        # integral tail: sum_{l>cutoff} R(l-1/2) ~= int_{x0}^inf R dx
        total += dist.scale / (dist.alpha - 1.0) * (1.0 + x0 / dist.scale) ** (1.0 - dist.alpha)
    else:
        raise ParameterError(f"cannot discretize {dist!r}")
    return total


def bulk_law_for(params: SourceParams) -> BulkSizeLaw:
    """Burst-size law implied by a source's ON-time distribution: the count
    law has the same shape as the ON time, scaled to mean n_p packets."""
    if isinstance(params.on_dist, Exponential):
        return GeometricLaw(mean=params.n_p)
    if isinstance(params.on_dist, Deterministic):
        return DeterministicLaw(packets=int(round(params.n_p)))
    return DiscretizedLaw(dist=dists.rescale(params.on_dist, params.n_p))


@dataclass(frozen=True)
class BulkFactor:
    """D = E[L(L+1)/2] / E[L] plus how it was obtained."""

    value: float
    stderr: float            # 0 for closed forms
    exact: bool
    heavy_tail_warning: bool  # second moment unstable (power tail alpha <= 2)

    def __float__(self) -> float:
        return self.value


def bulk_factor(law: BulkSizeLaw, rng: np.random.Generator | None = None) -> BulkFactor:
    """Bulk factor D of a burst-size law.

    Geometric and deterministic laws use closed-form moments; a
    discretized continuous law is estimated by Monte Carlo with a ratio-
    estimator standard error, flagged when the underlying tail makes the
    second moment unstable.
    """
    if isinstance(law, GeometricLaw):
        m = law.mean_packets()
        d = (law.second_moment() + m) / (2.0 * m)
        return BulkFactor(value=d, stderr=0.0, exact=True, heavy_tail_warning=False)
    if isinstance(law, DeterministicLaw):
        return BulkFactor(value=(law.packets + 1) / 2.0, stderr=0.0, exact=True,
                          heavy_tail_warning=False)
    if isinstance(law, DiscretizedLaw):
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0x9E3779B9))
        ell = law.sample_array(rng, _BULK_MC_SAMPLES).astype(float)
        z = ell * (ell + 1.0) / 2.0
        d = float(z.mean() / ell.mean())
        resid = z - d * ell
        stderr = float(np.sqrt(np.mean(resid * resid) / ell.size) / ell.mean())
        warn = isinstance(law.dist, Pareto) and law.dist.alpha <= 2.0
        return BulkFactor(value=d, stderr=stderr, exact=False, heavy_tail_warning=warn)
    raise ParameterError(f"unknown bulk-size law: {law!r}")


def mpd_bulk_limit(v: float, rho: float, law: BulkSizeLaw,
                   rng: np.random.Generator | None = None) -> float:
    """Mean packet delay of the b=1 (bulk arrival) limit: D * (1/v)/(1-rho)."""
    return bulk_factor(law, rng=rng).value * mpd_smooth_limit(v, rho)
