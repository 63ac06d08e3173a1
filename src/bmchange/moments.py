"""Probability-weighted-moment estimation on subsamples.

Two weight families are supported: the classical one with weights
(1, x, x^2) and a logarithmic one with weights
(-x log x, x (log x)^2, -x^2 log x).  Both come with closed-form weight
derivatives, needed by the variance estimator downstream.

The prefix/suffix engine evaluates the subsample estimators for every split
point of a sample; its normative reference is the naive per-split
recomputation, which the tests enforce.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import EULER_GAMMA, DataError, GevParams, as_sample, gamma_fn

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
LOG32 = math.log(1.5)

# Shape bracket searched by the numeric GEV-map solvers.
SHAPE_BRACKET_LO = -5.0
PWM_SHAPE_HI = 1.0 - 1e-6
GPWM_SHAPE_HI = 2.0 - 1e-6


class Estimator(enum.Enum):
    BETA_HAT = "beta_hat"  # plotting-position estimator
    B_HAT = "b_hat"        # unbiased order-statistics estimator
    EXACT = "exact"        # population value (oracles only)


@dataclass(frozen=True)
class WeightFamily:
    """Weight functions nu_i on (0, 1] and their derivatives."""

    tag: str

    def nu_matrix(self, u: np.ndarray) -> np.ndarray:
        """(len(u), 3) matrix of nu_i(u)."""
        u = np.asarray(u, dtype=float)
        out = np.empty((u.size, 3))
        if self.tag == "pwm":
            out[:, 0] = 1.0
            out[:, 1] = u
            out[:, 2] = u * u
        else:
            lu = np.log(u)
            out[:, 0] = -u * lu
            out[:, 1] = u * lu * lu
            out[:, 2] = -u * u * lu
        return out

    def nu_prime_matrix(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.empty((u.size, 3))
        if self.tag == "pwm":
            out[:, 0] = 0.0
            out[:, 1] = 1.0
            out[:, 2] = 2.0 * u
        else:
            lu = np.log(u)
            out[:, 0] = -(lu + 1.0)
            out[:, 1] = lu * lu + 2.0 * lu
            out[:, 2] = -(2.0 * u * lu + u)
        return out


PWM = WeightFamily("pwm")
GPWM = WeightFamily("gpwm")


@dataclass(frozen=True)
class MomentTriple:
    m1: float
    m2: float
    m3: float
    family: WeightFamily = PWM
    estimator: Estimator = Estimator.EXACT
    gamma: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.m1, self.m2, self.m3)):
            raise DataError("moment triple entries must be finite")


def _as_triple_array(m) -> np.ndarray:
    if isinstance(m, MomentTriple):
        return m.as_array()
    arr = np.asarray(m, dtype=float)
    if arr.shape != (3,):
        raise DataError("expected a moment triple")
    return arr


def ecdf(sample, x: float, gamma: float) -> float:
    """Modified empirical c.d.f. (count{X_j <= x} + gamma)/n; not clamped."""
    values = as_sample(sample)
    return (float(np.count_nonzero(values <= x)) + gamma) / values.size


def _plotting_positions(n: int, gamma: float) -> np.ndarray:
    return (np.arange(1, n + 1) + gamma) / n


def beta_hat(sample, family: WeightFamily = PWM, gamma: float = -0.35) -> MomentTriple:
    """Plotting-position moment estimator over the whole sample.

    Ranks are assigned by stable sorted position, so the estimator equals
    the sorted-sample form (1/n) sum_j X_(j) nu_i((j + gamma)/n).
    """
    values = np.sort(as_sample(sample), kind="stable")
    n = values.size
    pos = _plotting_positions(n, gamma)
    if family.tag == "gpwm" and pos[0] <= 0.0:
        raise DataError("log-weight moments need strictly positive ecdf values; use gamma >= 0")
    m = values @ family.nu_matrix(pos) / n
    return MomentTriple(*m, family=family, estimator=Estimator.BETA_HAT, gamma=gamma)


def _b_weights(n: int) -> np.ndarray:
    """(n, 3) weight matrix of the unbiased estimator for ranks 1..n."""
    j = np.arange(1, n + 1, dtype=float)
    w = np.empty((n, 3))
    w[:, 0] = 1.0
    w[:, 1] = (j - 1.0) / (n - 1.0)
    w[:, 2] = (j - 1.0) * (j - 2.0) / ((n - 1.0) * (n - 2.0))
    return w


def b_hat(sample) -> MomentTriple:
    """Unbiased order-statistics moment estimator; needs n >= 3."""
    values = np.sort(as_sample(sample), kind="stable")
    n = values.size
    if n < 3:
        raise DataError("the unbiased estimator needs at least 3 observations")
    m = values @ _b_weights(n) / n
    return MomentTriple(*m, family=PWM, estimator=Estimator.B_HAT)


def exact_pwm_gev(p: GevParams) -> MomentTriple:
    """Population moments of the GEV under the classical weights (test oracle).

    Uses beta_i = E[max(X_1..X_i)]/i together with max-stability: the maximum
    of i i.i.d. GEV(mu, sigma, xi) variables is GEV with location
    mu + sigma (i^xi - 1)/xi, scale sigma i^xi and the same shape.
    """
    if p.xi >= 1.0:
        raise DataError("population moments need shape < 1 (finite mean)")
    out = []
    for i in (1, 2, 3):
        if abs(p.xi) < 1e-12:
            loc, scale = p.mu + p.sigma * math.log(i), p.sigma
            mean = loc + scale * EULER_GAMMA
        else:
            loc = p.mu + p.sigma * (i ** p.xi - 1.0) / p.xi
            scale = p.sigma * i ** p.xi
            mean = loc + scale * (gamma_fn(1.0 - p.xi) - 1.0) / p.xi
        out.append(mean / i)
    return MomentTriple(*out, family=PWM, estimator=Estimator.EXACT)


def in_dxi(m) -> bool:
    """Feasibility region of the classical moment-to-GEV map (strict)."""
    return bool(in_dxi_rows(_as_triple_array(m)[None])[0])


def shape_ratio_target(m) -> float:
    """(3 m3 - m1)/(2 m2 - m1), the right side of the shape equation."""
    m1, m2, m3 = _as_triple_array(m)
    return (3 * m3 - m1) / (2 * m2 - m1)


def gpwm_solver_target(m) -> float:
    """2 (m1 - m2)/(m1 - 9/4 m3), matched against xi/(1 - (3/2)^xi)."""
    m1, m2, m3 = _as_triple_array(m)
    return 2.0 * (m1 - m2) / (m1 - 2.25 * m3)


def _gpwm_q(xi: float) -> float:
    """xi / (1 - (3/2)^xi); continuous, strictly increasing, always negative."""
    if abs(xi) < 1e-12:
        return -1.0 / LOG32
    return -xi / math.expm1(xi * LOG32)


GPWM_TARGET_LO = _gpwm_q(SHAPE_BRACKET_LO)
GPWM_TARGET_HI = _gpwm_q(GPWM_SHAPE_HI)


def in_dh(m) -> bool:
    """True iff the log-weight moment system is solvable with shape < 2 and
    positive scale.

    The solver target xi/(1 - 1.5^xi) is strictly increasing on the search
    bracket, so solvability reduces to the target falling inside the
    bracket's image and the scale equation giving a positive value (m1 > m2).
    """
    return bool(in_dh_rows(_as_triple_array(m)[None])[0])


def in_dh_rows(m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`in_dh` over rows of an (n, 3) array."""
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    denom = m1 - 2.25 * m3
    with np.errstate(divide="ignore", invalid="ignore"):
        target = 2.0 * (m1 - m2) / denom
    return (m1 - m2 > 0.0) & (denom != 0.0) & (target > GPWM_TARGET_LO) & (target < GPWM_TARGET_HI)


def in_dxi_rows(m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`in_dxi` over rows of an (n, 3) array."""
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    return (2 * m2 - m1 > 0) & (3 * m3 - 2 * m2 > 0) & (-m1 + 4 * m2 - 3 * m3 > 0)


def prefix_suffix_moments(
    sample,
    estimator: Estimator,
    family: WeightFamily = PWM,
    gamma: float = -0.35,
):
    """Subsample moments at every split of the sample.

    Returns ``(prefix, prefix_valid, suffix, suffix_valid)`` where
    ``prefix[k]`` holds the moments of ``X_1..X_k`` (row 0 unused) and
    ``suffix[k]`` those of ``X_{k+1}..X_n`` (row n unused).  Rows below the
    estimator's minimum subsample size are flagged invalid rather than
    zero-filled, so they can never win the CUSUM maximum.
    """
    values = as_sample(sample)
    n = values.size
    if n < 2:
        raise DataError("need at least 2 observations to split")
    if estimator is Estimator.B_HAT and family.tag != "pwm":
        raise DataError("the unbiased estimator is defined for the classical weights only")
    pre_m, pre_ok = _running_prefix(values, estimator, family, gamma)
    suf_rev, suf_rev_ok = _running_prefix(values[::-1], estimator, family, gamma)
    # suffix over X_{k+1}..X_n has length n-k = reversed-prefix length n-k
    suffix = np.full((n + 1, 3), np.nan)
    suffix_valid = np.zeros(n + 1, dtype=bool)
    suffix[:n] = suf_rev[n - np.arange(n)]
    suffix_valid[:n] = suf_rev_ok[n - np.arange(n)]
    prefix = np.vstack([np.full((1, 3), np.nan), pre_m[1:]])
    prefix_valid = np.concatenate([[False], pre_ok[1:]])
    return prefix, prefix_valid, suffix, suffix_valid


def _running_prefix(values: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float):
    """Moments of X_1..X_k for every k, via incremental sorted insertion."""
    n = values.size
    out = np.full((n + 1, 3), np.nan)
    ok = np.zeros(n + 1, dtype=bool)
    sorted_buf = np.empty(n)
    min_size = 3 if estimator is Estimator.B_HAT else 1
    if estimator is Estimator.BETA_HAT and family.tag == "gpwm" and 1.0 + gamma <= 0.0:
        raise DataError("log-weight moments need strictly positive ecdf values; use gamma >= 0")
    jm1 = np.arange(0.0, n)            # j - 1 for j = 1..n
    jm1m2 = jm1 * np.arange(-1.0, n - 1)
    for k in range(1, n + 1):
        x = values[k - 1]
        idx = np.searchsorted(sorted_buf[: k - 1], x, side="right")
        sorted_buf[idx + 1 : k] = sorted_buf[idx : k - 1]
        sorted_buf[idx] = x
        if k < min_size:
            continue
        s = sorted_buf[:k]
        if estimator is Estimator.B_HAT:
            out[k, 0] = s.mean()
            out[k, 1] = (jm1[:k] @ s) / (k * (k - 1.0))
            out[k, 2] = (jm1m2[:k] @ s) / (k * (k - 1.0) * (k - 2.0))
        else:
            pos = (np.arange(1, k + 1) + gamma) / k
            out[k] = s @ family.nu_matrix(pos) / k
        ok[k] = True
    return out, ok
