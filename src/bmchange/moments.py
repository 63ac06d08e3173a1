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

from .distributions import EULER_GAMMA, DataError, GevParams, as_rows, as_sample

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
LOG32 = math.log(1.5)
_ZETA3 = 1.2020569031595942  # Riemann zeta(3)

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
    """Weight functions nu_i on (0, 1] and their derivatives, with the
    family's default plotting-position offset gamma."""

    tag: str
    default_gamma: float

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
            ulu = u * lu
            np.negative(ulu, out=out[:, 0])
            np.multiply(ulu, lu, out=out[:, 1])
            np.multiply(-u * u, lu, out=out[:, 2])
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


PWM = WeightFamily("pwm", -0.35)
GPWM = WeightFamily("gpwm", 0.0)


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


def position_numerators(n: int, family: WeightFamily, gamma: float | None) -> np.ndarray:
    """j + gamma for ranks j = 1..n: the plotting positions of a sample of
    size k are (j + gamma)/k.  gamma None means the family's default; the
    log weights need every position positive."""
    gamma = family.default_gamma if gamma is None else gamma
    if family.tag == "gpwm" and 1.0 + gamma <= 0.0:
        raise DataError("log-weight moments need strictly positive ecdf values; use gamma >= 0")
    return np.arange(1, n + 1) + gamma


def full_sample_rows(values: np.ndarray, estimator: Estimator, family: WeightFamily = PWM, gamma: float | None = None):
    """Whole-sample moments along the last axis: (3,) for a sample, (R, 3) for rows.

    Ranks are assigned by stable sorted position, so the plotting-position
    estimator equals the sorted-sample form (1/n) sum_j X_(j) nu_i((j + gamma)/n).
    """
    s = np.sort(values, axis=-1, kind="stable")
    n = s.shape[-1]
    if estimator is Estimator.B_HAT:
        if n < 3:
            raise DataError("the unbiased estimator needs at least 3 observations")
        return _row_products(s, _b_weights(n)) / n
    return _row_products(s, family.nu_matrix(position_numerators(n, family, gamma) / n)) / n


def _row_products(s: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``s @ weights`` along the last axis of ``s``, one matrix-vector
    product per row, so that a row's result does not depend on how many
    rows are stacked with it (a matrix-matrix product does)."""
    return (s[..., None, :] @ weights)[..., 0, :]


def beta_hat(sample, family: WeightFamily = PWM, gamma: float | None = None) -> MomentTriple:
    """Plotting-position moment estimator over the whole sample; gamma None
    means the family's default."""
    gamma = family.default_gamma if gamma is None else gamma
    m = full_sample_rows(as_sample(sample), Estimator.BETA_HAT, family, gamma)
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
    m = full_sample_rows(as_sample(sample), Estimator.B_HAT)
    return MomentTriple(*m, family=PWM, estimator=Estimator.B_HAT)


def exact_pwm_gev(p: GevParams) -> MomentTriple:
    """Population moments of the GEV under the classical weights (test oracle).

    Uses beta_i = E[max(X_1..X_i)]/i together with max-stability: the maximum
    of i i.i.d. GEV(mu, sigma, xi) variables is GEV with location
    mu + sigma (i^xi - 1)/xi, scale sigma i^xi and the same shape.
    """
    if p.xi >= 1.0:
        raise DataError("population moments need shape < 1 (finite mean)")
    xi = p.xi
    # log Gamma(1 - xi): near 0 by its Taylor series, since rounding 1 - xi
    # costs (Gamma(1 - xi) - 1)/xi about 1e-16/|xi| relative
    if abs(xi) < 1e-4:
        log_gamma = xi * (EULER_GAMMA + xi * (math.pi**2 / 12.0 + xi * _ZETA3 / 3.0))
    else:
        log_gamma = math.lgamma(1.0 - xi)
    out = []
    for i in (1, 2, 3):
        if abs(xi) < 1e-12:
            loc, scale = p.mu + p.sigma * math.log(i), p.sigma
            mean = loc + scale * EULER_GAMMA
        else:
            loc = p.mu + p.sigma * math.expm1(xi * math.log(i)) / xi
            scale = p.sigma * i**xi
            mean = loc + scale * math.expm1(log_gamma) / xi
        out.append(mean / i)
    return MomentTriple(*out, family=PWM, estimator=Estimator.EXACT)


def in_dxi(m) -> bool:
    """Feasibility region of the classical moment-to-GEV map (strict)."""
    return bool(in_dxi_rows(_as_triple_array(m)[None])[0])


def shape_ratio_target(m) -> float:
    """(3 m3 - m1)/(2 m2 - m1), the right side of the shape equation."""
    m1, m2, m3 = _as_triple_array(m)
    return (3 * m3 - m1) / (2 * m2 - m1)


def gpwm_ratio_rows(m: np.ndarray):
    """Numerator 2 (m1 - m2), denominator m1 - 9/4 m3 and their ratio, per
    row of an (n, 3) array: the ratio is matched against xi/(1 - (3/2)^xi)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = 2.0 * (m[:, 0] - m[:, 1])
        den = m[:, 0] - 2.25 * m[:, 2]
        return num, den, num / den


def gpwm_solver_target(m) -> float:
    """2 (m1 - m2)/(m1 - 9/4 m3), matched against xi/(1 - (3/2)^xi)."""
    return float(gpwm_ratio_rows(_as_triple_array(m)[None])[2][0])


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
    """Vectorized :func:`in_dh` over rows of an (n, 3) array; False on a
    row that is not finite."""
    num, den, target = gpwm_ratio_rows(m)
    return (num > 0.0) & (den != 0.0) & (target > GPWM_TARGET_LO) & (target < GPWM_TARGET_HI)


# D_xi is where all three margins are positive; one label per margin.
DXI_CONDITIONS = ("2*m2 - m1 > 0", "3*m3 - 2*m2 > 0", "-m1 + 4*m2 - 3*m3 > 0")


def dxi_margins(m: np.ndarray):
    """The three margins of D_xi along the last axis of ``m`` (see DXI_CONDITIONS)."""
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    return 2 * m2 - m1, 3 * m3 - 2 * m2, -m1 + 4 * m2 - 3 * m3


def in_dxi_rows(m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`in_dxi` over rows of an (n, 3) array."""
    a, b, c = dxi_margins(m)
    return (a > 0) & (b > 0) & (c > 0)


def prefix_suffix_moments(
    sample,
    estimator: Estimator,
    family: WeightFamily = PWM,
    gamma: float | None = None,
):
    """Subsample moments at every split of the sample.

    Returns ``(prefix, prefix_valid, suffix, suffix_valid)`` where
    ``prefix[k]`` holds the moments of ``X_1..X_k`` (row 0 unused) and
    ``suffix[k]`` those of ``X_{k+1}..X_n`` (row n unused).  Rows below the
    estimator's minimum subsample size are flagged invalid rather than
    zero-filled, so they can never win the CUSUM maximum.

    An (R, n) array of R samples gives ``prefix`` and ``suffix`` of shape
    (R, n + 1, 3); the validity flags depend on k only and keep shape
    (n + 1,).
    """
    batch = np.ndim(sample) == 2
    values = as_rows(sample) if batch else as_sample(sample)[None]
    n = values.shape[1]
    if n < 2:
        raise DataError("need at least 2 observations to split")
    if estimator is Estimator.B_HAT and family.tag != "pwm":
        raise DataError("the unbiased estimator is defined for the classical weights only")
    prefix, prefix_valid = _running_prefix(values, estimator, family, gamma)
    suf_rev, suf_rev_ok = _running_prefix(values[:, ::-1], estimator, family, gamma)
    # suffix over X_{k+1}..X_n has length n-k = reversed-prefix length n-k
    suffix = suf_rev[:, ::-1]
    suffix_valid = suf_rev_ok[::-1]
    if batch:
        return prefix, prefix_valid, suffix, suffix_valid
    return prefix[0], prefix_valid, suffix[0], suffix_valid


def _running_prefix(values: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float):
    """Moments of X_1..X_k of every row for every k, via incremental sorted insertion.

    ``values`` is (R, n).  Each step inserts every row's new value into that
    row's sorted buffer, then takes the moments of all rows as one product
    with a (k, 3) weight matrix that the rows share.
    """
    rows, n = values.shape
    out = np.full((rows, n + 1, 3), np.nan)
    ok = np.zeros(n + 1, dtype=bool)
    buf, spare = np.empty((rows, n)), np.empty((rows, n))
    min_size = 3 if estimator is Estimator.B_HAT else 1
    j_gamma = position_numerators(n, family, gamma)
    jm1 = np.arange(0.0, n)            # j - 1 for j = 1..n
    # rows 1, j-1, (j-1)(j-2); one dot product per row and column
    b_weights = np.stack([np.ones(n), jm1, jm1 * (jm1 - 1.0)])
    for k in range(1, n + 1):
        x = values[:, k - 1]
        prev = buf[:, : k - 1]
        if rows == 1:
            idx = np.searchsorted(prev[0], x[0], side="right")
            buf[0, idx + 1 : k] = prev[0, idx:]
            buf[0, idx] = x[0]
        else:
            # branchless merge: new[j] = min(old[j], max(x, old[j-1]))
            nxt = spare[:, :k]
            np.maximum(prev, x[:, None], out=nxt[:, 1:])
            nxt[:, 0] = x
            np.minimum(nxt[:, : k - 1], prev, out=nxt[:, : k - 1])
            buf, spare = spare, buf
        if k < min_size:
            continue
        s = buf[:, :k]
        if estimator is Estimator.B_HAT:
            out[:, k] = np.vecdot(s[:, None, :], b_weights[:, :k]) / np.array(
                [k, k * (k - 1.0), k * (k - 1.0) * (k - 2.0)]
            )
        else:
            out[:, k] = _row_products(s, family.nu_matrix(j_gamma[:k] / k)) / k
        ok[k] = True
    return out, ok
