"""Interarrival / ON / OFF / burst-size distributions.

Four laws cover every random quantity in the traffic model:

* ``Exponential`` -- memoryless times (smooth traffic, OFF periods).
* ``Pareto`` -- shifted power-law with reliability
  ``R(x) = (1 + x/(M(alpha-1)))**(-alpha)``, so ``E[X] = M`` for
  ``alpha > 1``.  Produces long-range-dependent traffic.
* ``TPT`` -- truncated power tail: a T-branch hyperexponential whose
  reliability ``R(x) = (1-theta)/(1-theta^T) * sum_j theta^j exp(-mu x / lam^j)``
  mimics a power tail up to truncation level T.  T=1 is exactly
  exponential; T -> infinity approaches a true power tail.
* ``Deterministic`` -- a point mass (value 0 is allowed and stands for a
  degenerate "never idle" OFF law).

Sampling is inverse-transform throughout, with the uniform draw taken
as the survival probability: ``reliability(spec, sample(spec, u)) == u``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import open_uniform_array


class ParameterError(ValueError):
    """A distribution or model parameter is outside its valid domain."""


@dataclass(frozen=True)
class Exponential:
    mean: float

    def __post_init__(self):
        if not self.mean > 0.0:
            raise ParameterError(f"Exponential mean must be > 0, got {self.mean}")


@dataclass(frozen=True)
class Pareto:
    """Shifted Pareto with shape ``alpha`` (> 1 so the mean is finite) and mean ``mean``."""

    alpha: float
    mean: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ParameterError(f"Pareto alpha must be > 1, got {self.alpha}")
        if not self.mean > 0.0:
            raise ParameterError(f"Pareto mean must be > 0, got {self.mean}")

    @property
    def scale(self) -> float:
        # R(x) = (1 + x/scale)^(-alpha)
        return self.mean * (self.alpha - 1.0)


@dataclass(frozen=True)
class TPT:
    """Truncated power tail: mixture of T exponentials with geometrically
    decaying weights ``(1-theta) theta^j / (1-theta^T)`` and rates ``mu / lam^j``."""

    theta: float
    T: int
    lam: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"TPT theta must be in (0,1), got {self.theta}")
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ParameterError(f"TPT truncation level T must be an integer >= 1, got {self.T}")
        # the last branch factor theta^(T-1) must stay a normal float; compared
        # through logarithms, so no power and no T-length array is built
        if self.T - 1 > math.log(sys.float_info.min) / math.log(self.theta):
            raise ParameterError(f"TPT truncation level T={self.T} is too large for "
                                 f"theta={self.theta}: theta^(T-1) underflows")
        if not self.lam > 1.0:
            raise ParameterError(f"TPT lam must be > 1, got {self.lam}")
        if not self.mu > 0.0:
            raise ParameterError(f"TPT mu must be > 0, got {self.mu}")

    def branch_weights(self) -> np.ndarray:
        j = np.arange(self.T)
        w = (1.0 - self.theta) * self.theta**j / (1.0 - self.theta**self.T)
        return w

    def branch_rates(self) -> np.ndarray:
        return self.mu / self.lam ** np.arange(self.T)


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ParameterError(f"Deterministic value must be >= 0, got {self.value}")


DistributionSpec = Union[Exponential, Pareto, TPT, Deterministic]


def reliability(spec: DistributionSpec, x) -> float:
    """Survival function R(x) = Pr(X > x).  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ParameterError("reliability requires x >= 0")
    if isinstance(spec, Exponential):
        out = np.exp(-x / spec.mean)
    elif isinstance(spec, Pareto):
        out = (1.0 + x / spec.scale) ** (-spec.alpha)
    elif isinstance(spec, TPT):
        w, rates = spec.branch_weights(), spec.branch_rates()
        out = np.einsum("j,j...->...", w, np.exp(-np.multiply.outer(rates, x)))
        out = np.clip(out, 0.0, 1.0)  # weight normalization is 1 +- eps
    elif isinstance(spec, Deterministic):
        out = np.where(x < spec.value, 1.0, 0.0)
    else:
        raise ParameterError(f"unknown distribution spec: {spec!r}")
    return float(out) if out.ndim == 0 else out


def mean_of(spec: DistributionSpec) -> float:
    """Analytic mean of the distribution."""
    if isinstance(spec, (Exponential, Pareto)):
        return spec.mean
    if isinstance(spec, Deterministic):
        return spec.value
    if isinstance(spec, TPT):
        # mean = (1-theta)/((1-theta^T) mu) * sum_{j<T} (theta lam)^j
        x = spec.theta * spec.lam
        if abs(x - 1.0) < 1e-12:
            geo = float(spec.T)
        else:
            geo = (1.0 - x**spec.T) / (1.0 - x)
        return (1.0 - spec.theta) / ((1.0 - spec.theta**spec.T) * spec.mu) * geo
    raise ParameterError(f"unknown distribution spec: {spec!r}")


def sample(spec: DistributionSpec, rng: np.random.Generator) -> float:
    """One inverse-transform draw of an OFF-time law (exponential, Pareto or
    a point).  The uniform is the survival probability, so
    ``reliability(spec, sample(spec, rng))`` reproduces the drawn uniform."""
    if isinstance(spec, Deterministic):
        return spec.value  # consumes no randomness
    u = float(open_uniform_array(rng, 1)[0])
    if isinstance(spec, Exponential):
        return -spec.mean * math.log(u)
    if isinstance(spec, Pareto):
        return spec.scale * (u ** (-1.0 / spec.alpha) - 1.0)
    raise ParameterError(f"cannot draw one value of {spec!r}; use sample_array")


def sample_array(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n inverse-transform draws; same transforms as ``sample``, and for TPT
    the branch uniforms first, then the magnitudes."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    if isinstance(spec, Deterministic):
        return np.full(n, spec.value)
    if isinstance(spec, Exponential):
        return -spec.mean * np.log(open_uniform_array(rng, n))
    if isinstance(spec, Pareto):
        u = open_uniform_array(rng, n)
        return spec.scale * (u ** (-1.0 / spec.alpha) - 1.0)
    if isinstance(spec, TPT):
        if spec.T == 1:
            return -(1.0 / spec.mu) * np.log(open_uniform_array(rng, n))
        cum = np.cumsum(spec.branch_weights())
        j = np.searchsorted(cum, rng.random(n), side="right")
        np.minimum(j, spec.T - 1, out=j)
        scale = spec.lam ** j.astype(float) / spec.mu
        return -scale * np.log(open_uniform_array(rng, n))
    raise ParameterError(f"unknown distribution spec: {spec!r}")


def tpt_calibrate(theta: float, alpha: float, target_mean: float, T: int) -> TPT:
    """Build a TPT spec whose untruncated tail decays as ``x**(-alpha)``
    and whose mean equals ``target_mean``.

    The geometric rate factor is ``lam = theta**(-1/alpha)`` (the standard
    power-tail construction, i.e. ``theta * lam**alpha == 1``); ``mu`` is
    then solved exactly from the closed-form mean, so the calibration error
    is at the floating-point level.
    """
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must be in (0,1), got {theta}")
    if not alpha > 1.0:
        raise ParameterError(f"alpha must be > 1, got {alpha}")
    if not target_mean > 0.0:
        raise ParameterError(f"target_mean must be > 0, got {target_mean}")
    lam = theta ** (-1.0 / alpha)
    return TPT(theta=theta, T=T, lam=lam, mu=mean_of(TPT(theta, T, lam, 1.0)) / target_mean)
