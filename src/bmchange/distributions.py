"""Random generation and distribution functions for block-maxima testing.

Everything here is pure: samplers take an explicit ``numpy.random.Generator``
and never share state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

EULER_GAMMA = 0.57721566490153286061

# Below this |xi| the Gumbel-limit branches are used; keeps expressions like
# (2^xi - 1)/xi away from catastrophic cancellation.
XI_ZERO_TOL = 1e-8


class DataError(ValueError):
    """Invalid input data (bad file, bad sample, bad argument)."""


class FeasibilityError(ValueError):
    """A moment triple falls outside the domain of the requested GEV map."""


@dataclass(frozen=True)
class GevParams:
    """Location/scale/shape triple of the generalized extreme value law."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "xi"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"GevParams.{name} must be finite")
        if self.sigma <= 0:
            raise DataError("GevParams.sigma must be positive")


@dataclass(frozen=True)
class GpdParams:
    """Generalized Pareto scale/shape pair; location is fixed at 0."""

    sigma: float
    xi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.xi)):
            raise DataError("GpdParams fields must be finite")
        if self.sigma <= 0:
            raise DataError("GpdParams.sigma must be positive")


def gev_cdf(x, p: GevParams):
    """GEV c.d.f. at ``x``; accepts scalars or arrays, total on the reals."""
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    if abs(p.xi) < XI_ZERO_TOL:
        out = np.exp(-np.exp(-z))
    else:
        # (1 + xi z)^(-1/xi) through log1p: near the Gumbel threshold the
        # power form loses about 1/xi ulps of 1 + xi z
        with np.errstate(divide="ignore", over="ignore"):
            out = np.exp(-np.exp(-np.log1p(np.maximum(p.xi * z, -1.0)) / p.xi))
    return float(out) if np.isscalar(x) else out


def gev_quantile(u, p: GevParams):
    """Inverse of :func:`gev_cdf` on (0, 1)."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DataError("quantile argument must lie strictly inside (0, 1)")
    loglog = np.log(-np.log(u_arr))
    if abs(p.xi) < XI_ZERO_TOL:
        out = p.mu - p.sigma * loglog
    else:
        out = p.mu + p.sigma * np.expm1(-p.xi * loglog) / p.xi
    return float(out) if np.isscalar(u) else out


def gpd_cdf(x, p: GpdParams):
    z = np.maximum(np.asarray(x, dtype=float), 0.0) / p.sigma
    if abs(p.xi) < XI_ZERO_TOL:
        out = -np.expm1(-z)
    else:
        t = np.maximum(1.0 + p.xi * z, 0.0)
        with np.errstate(divide="ignore"):
            out = 1.0 - np.power(t, -1.0 / p.xi)
        if p.xi < 0:
            out = np.where(z >= -1.0 / p.xi, 1.0, out)
    return float(out) if np.isscalar(x) else out


def gpd_quantile(u, p: GpdParams):
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DataError("quantile argument must lie strictly inside (0, 1)")
    if abs(p.xi) < XI_ZERO_TOL:
        out = -p.sigma * np.log1p(-u_arr)
    else:
        out = p.sigma * np.expm1(-p.xi * np.log1p(-u_arr)) / p.xi
    return float(out) if np.isscalar(u) else out


def sample_gev(n: int, p: GevParams, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. GEV draws by inverse transform; deterministic given the rng state."""
    if n < 1:
        raise DataError("sample size must be at least 1")
    return gev_quantile(rng.random(n), p)


# --- base distributions for block-maxima generation -------------------------


@dataclass(frozen=True)
class GevDist:
    params: GevParams

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_gev(n, self.params, rng)

    def cdf(self, x):
        return gev_cdf(x, self.params)


@dataclass(frozen=True)
class GpdDist:
    params: GpdParams

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return gpd_quantile(rng.random(n), self.params)

    def cdf(self, x):
        return gpd_cdf(x, self.params)


@dataclass(frozen=True)
class AbsStudentTDist:
    """Absolute value of a standard Student t; df = 1/shape."""

    df: float

    def __post_init__(self) -> None:
        if self.df <= 0:
            raise DataError("degrees of freedom must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.abs(rng.standard_t(self.df, size=n))

    def cdf(self, x):
        from scipy.stats import t as student_t

        return np.clip(2.0 * student_t.cdf(np.asarray(x, float), self.df) - 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class NormalDist:
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self) -> None:
        if self.sd <= 0:
            raise DataError("standard deviation must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(n)

    def cdf(self, x):
        z = (np.asarray(x, float) - self.mean) / self.sd
        from scipy.special import ndtr

        return ndtr(z)


@dataclass(frozen=True)
class ExponentialDist:
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise DataError("rate must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def cdf(self, x):
        return -np.expm1(-self.rate * np.maximum(np.asarray(x, float), 0.0))


BASE_DISTRIBUTIONS = (GevDist, GpdDist, AbsStudentTDist, NormalDist, ExponentialDist)


def sample_block_maxima(n_blocks: int, block_size: int, base, rng: np.random.Generator) -> np.ndarray:
    """Maxima of ``n_blocks`` disjoint blocks of ``block_size`` fresh base draws."""
    if n_blocks < 1 or block_size < 1:
        raise DataError("n_blocks and block_size must be at least 1")
    if not isinstance(base, BASE_DISTRIBUTIONS):
        raise DataError(f"unsupported base distribution: {base!r}")
    draws = base.sample(n_blocks * block_size, rng)
    return draws.reshape(n_blocks, block_size).max(axis=1)


# --- special functions ------------------------------------------------------


def kolmogorov_cdf(x: float) -> float:
    """C.d.f. of the supremum of a Brownian bridge (Kolmogorov distribution)."""
    return float(1.0 - kolmogorov(x))


def as_sample(values) -> np.ndarray:
    """Validate observations: 1-D, finite, nonempty; observation order kept."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DataError("a sample must be a nonempty 1-D array of reals")
    if not np.all(np.isfinite(arr)):
        raise DataError("a sample must contain only finite values")
    return arr


def as_rows(values) -> np.ndarray:
    """Validate a batch of samples: a 2-D array of finite reals, one per row."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.size < 1:
        raise DataError("a batch of samples must be a nonempty 2-D array of reals")
    if not np.all(np.isfinite(arr)):
        raise DataError("a sample must contain only finite values")
    return arr
