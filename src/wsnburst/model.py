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

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import dists
from .dists import (DistributionSpec, Deterministic, Exponential, ParameterError,
                    Pareto, sample_array, tpt_calibrate)
from .rng import open_uniform_array

EMISSION_CONST = "const"      # packets evenly spaced 1/lambda_p within a burst
EMISSION_POISSON = "poisson"  # packet gaps Exponential(1/lambda_p) within a burst

_PARETO_CUTOFF = 200_000   # Pareto burst-size terms summed before the integral tail
_TPT_THETA = 0.5           # branch-weight ratio of every TPT law a DistKind makes


@dataclass(frozen=True)
class SourceParams:
    """One ON/OFF source, given by its inputs: the mean rate K, the
    burstiness b, the mean burst size n_p, the ON and OFF shapes and the
    emission mode.  The peak rate and the ON and OFF means follow from them."""

    K: float                      # mean packet rate over ON+OFF (packets/s)
    b: float                      # burstiness in [0,1), b = 1 - K/lambda_p
    n_p: float                    # mean packets per burst
    on_kind: DistKind             # ON-time shape, hence the burst-size law
    off_kind: DistKind            # OFF-time shape: exp or pareto
    emission_mode: str = EMISSION_CONST

    def __post_init__(self):
        if not (0.0 <= self.b < 1.0):
            raise ParameterError(f"burstiness b must be in [0,1), got {self.b}")
        if not self.K > 0.0:
            raise ParameterError(f"mean rate K must be > 0, got {self.K}")
        if not math.isfinite(self.lambda_p):
            raise ParameterError(f"peak rate overflows at K={self.K}, b={self.b}")
        if not self.n_p >= 1.0:
            raise ParameterError(f"mean burst size n_p must be >= 1, got {self.n_p}")
        if self.emission_mode not in (EMISSION_CONST, EMISSION_POISSON):
            raise ParameterError(f"unknown emission mode {self.emission_mode!r}")
        if self.off_kind.kind not in ("exp", "pareto"):
            raise ParameterError(f"OFF kind must be exp or pareto, got {self.off_kind.label()}")

    @property
    def lambda_p(self) -> float:
        """Peak rate during a burst (packets/s)."""
        return self.K / (1.0 - self.b)

    @property
    def on_mean(self) -> float:
        """Mean ON time n_p/lambda_p (s)."""
        return self.n_p / self.lambda_p

    @property
    def off_mean(self) -> float:
        """Mean OFF time (s), so that OFF/(ON+OFF) = b."""
        return self.on_mean * self.b / (1.0 - self.b)

    @property
    def off_dist(self) -> DistributionSpec:
        """OFF-time law, mean off_mean (the point 0 when b = 0)."""
        return self.off_kind.make(self.off_mean)


@dataclass(frozen=True)
class DistKind:
    """Shape selector for ON/OFF laws: 'exp', 'pareto', or 'tpt' with a
    truncation level (written 'tpt:<T>' in configs)."""

    kind: str
    T: Optional[int] = None
    alpha: float = 1.4

    def __post_init__(self):
        if self.kind not in ("exp", "pareto", "tpt"):
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "tpt":
            if self.T is None or self.T < 1:
                raise ParameterError("tpt kind requires a truncation level T >= 1")
        if not self.alpha > 1.0:
            raise ParameterError(f"alpha must be > 1, got {self.alpha}")

    @classmethod
    def parse(cls, text: str, alpha: float = 1.4) -> "DistKind":
        """Parse 'exp', 'pareto', or 'tpt:<T>'."""
        if text == "tpt" or text.startswith("tpt:"):
            _, _, t = text.partition(":")
            if not t:
                raise ParameterError("tpt kind must carry a truncation level, e.g. 'tpt:30'")
            return cls(kind="tpt", T=int(t), alpha=alpha)
        return cls(kind=text, alpha=alpha)

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
        return tpt_calibrate(_TPT_THETA, self.alpha, mean, self.T)


def derive_source_params(lambda_total: float, N: int, n_p: float, b: float,
                         on_kind: DistKind, off_kind: DistKind,
                         emission_mode: str = EMISSION_CONST) -> SourceParams:
    """Per-source parameters for an N-source group with aggregate mean rate
    ``lambda_total``: K = lambda_total/N, so the peak rate K/(1-b) meets the
    requested burstiness while the offered load stays fixed."""
    if not lambda_total > 0.0:
        raise ParameterError(f"lambda_total must be > 0, got {lambda_total}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    return SourceParams(K=lambda_total / N, b=b, n_p=n_p, on_kind=on_kind,
                        off_kind=off_kind, emission_mode=emission_mode)


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
    if not 0.0 < v < math.inf:
        raise ParameterError(f"service rate v must be finite and > 0, got {v}")
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"unstable utilization rho={rho}; need 0 < rho < 1")
    mpd = (1.0 / v) / (1.0 - rho)
    if not math.isfinite(mpd):   # 1/v overflows for a subnormal v
        raise ParameterError(f"mean packet delay (1/v)/(1-rho) overflows at v={v}, rho={rho}")
    return mpd


@dataclass(frozen=True)
class GeometricLaw:
    """Burst size L on {1,2,...} with success probability 1/mean, so E[L]=mean.
    This is the packet-count law implied by exponential ON times."""

    mean: float

    def __post_init__(self):
        if not 1.0 <= self.mean < math.inf:   # refuses NaN too
            raise ParameterError(f"geometric burst-size mean must be finite and >= 1, "
                                 f"got {self.mean}")

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
    """Burst size L = max(1, round(X)) for a Pareto or TPT X.

    Both moments are evaluated deterministically (``_discretized_moments``),
    and construction fails if the mean strays more than 1% from the
    continuous mean.
    """

    dist: DistributionSpec
    _moments: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, second = _discretized_moments(self.dist)
        target = self.dist.mean
        if target > 0 and not abs(m - target) <= 0.01 * target:   # a NaN mean fails too
            raise ParameterError(
                f"discretized burst-size mean {m:.6g} deviates more than 1% "
                f"from the continuous mean {target:.6g}")
        object.__setattr__(self, "_moments", (m, second))

    def moments(self) -> tuple[float, float]:
        """(E[L], E[L(L+1)/2])."""
        return self._moments

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
        if not 1 <= self.packets <= sys.float_info.max:   # compared exactly, never converted
            raise ParameterError(f"burst size must be >= 1 and a finite float, "
                                 f"got {self.packets}")

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.packets, dtype=np.int64)


BulkSizeLaw = Union[GeometricLaw, DiscretizedLaw, DeterministicLaw]


def _discretized_moments(dist: DistributionSpec) -> tuple[float, float]:
    """(E[L], E[L(L+1)/2]) of L = max(1, round(X)).

    With P(L >= l) = R(l - 1/2) for l >= 2 these are
    1 + sum_{l>=2} R(l-1/2) and 1 + sum_{l>=2} l R(l-1/2).  A TPT branch,
    an exponential of rate r, sums to e^{-3r/2}/(1-e^{-r}) and
    e^{-3r/2}(2-e^{-r})/(1-e^{-r})^2.  Pareto is summed up to
    ``_PARETO_CUTOFF`` with the tail taken as an integral; its second
    moment is infinite for alpha <= 2.
    """
    if isinstance(dist, Pareto):
        s, a = dist.scale, dist.alpha
        x = np.arange(2, _PARETO_CUTOFF + 1, dtype=float) - 0.5
        r = dists.reliability(dist, x)
        u0 = 1.0 + (_PARETO_CUTOFF + 0.5) / s
        mean = 1.0 + float(np.sum(r)) + s / (a - 1.0) * u0 ** (1.0 - a)
        if a <= 2.0:
            return mean, math.inf
        tail = (s * s * (u0 ** (2.0 - a) / (a - 2.0) - u0 ** (1.0 - a) / (a - 1.0))
                + 0.5 * s / (a - 1.0) * u0 ** (1.0 - a))
        return mean, 1.0 + float(np.sum((x + 0.5) * r)) + tail
    if not isinstance(dist, dists.TPT):
        raise ParameterError(f"cannot discretize {dist!r}")
    w, rates = dist.branch_weights(), dist.branch_rates()
    head = np.exp(-1.5 * rates)    # R(3/2) of each branch
    gap = -np.expm1(-rates)        # 1 - e^{-r}
    # divided by gap one factor at a time: gap**2 underflows to 0 below about 1.5e-162
    return 1.0 + float(w @ (head / gap)), 1.0 + float((w * head / gap) @ ((1.0 + gap) / gap))


@functools.cache
def bulk_law_for(on_kind: DistKind, n_p: float) -> BulkSizeLaw:
    """Burst-size law in packets: the ON shape at mean n_p.  Exponential ON
    times give the geometric law.  Laws are immutable, so each (shape, n_p)
    pair is built once per process."""
    if on_kind.kind == "exp":
        return GeometricLaw(mean=n_p)
    return DiscretizedLaw(dist=on_kind.make(n_p))


def bulk_factor(law: BulkSizeLaw) -> float:
    """Bulk factor D = E[L(L+1)/2] / E[L] of a burst-size law: the mean of a
    geometric law and (k+1)/2 for k packets, taken without the second moment
    (it overflows first); infinite if the second moment diverges (Pareto alpha <= 2)."""
    if isinstance(law, GeometricLaw):
        return law.mean
    if isinstance(law, DeterministicLaw):
        return (law.packets + 1.0) / 2.0
    mean, second = law.moments()
    return second / mean


def mpd_bulk_limit(v: float, rho: float, law: BulkSizeLaw) -> float:
    """Mean packet delay of the b=1 (bulk arrival) limit: D * (1/v)/(1-rho)."""
    return bulk_factor(law) * mpd_smooth_limit(v, rho)
