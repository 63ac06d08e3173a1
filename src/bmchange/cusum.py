"""CUSUM-type change-point tests built on subsample GEV parameter estimates.

Three test families are provided, named after the moment estimator driving
them: ``pwm-t`` (unbiased order-statistics moments, no feasibility
indicator), ``pwm-s`` (plotting-position moments with a feasibility
indicator) and ``gpwm`` (log-weight moments with a solvability indicator).
Each family tests for a change in one GEV parameter (location, scale or
shape).  P-values come from the Kolmogorov distribution after studentizing
by a plug-in estimate of the asymptotic variance.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DataError, FeasibilityError, GevParams, as_sample, kolmogorov_cdf
from .gev_maps import PARAMS, GevMapKind, approx_map_rows, jacobian, map_triple
from .moments import (
    GPWM,
    PWM,
    Estimator,
    MomentTriple,
    WeightFamily,
    b_hat,
    beta_hat,
    in_dh_rows,
    in_dxi_rows,
    prefix_suffix_moments,
)

TARGETS = PARAMS


class Family(enum.Enum):
    PWM_T = "pwm-t"
    PWM_S = "pwm-s"
    GPWM_S = "gpwm"


_FAMILY_SETUP = {
    Family.PWM_T: (Estimator.B_HAT, PWM, -0.35, GevMapKind.PWM_APPROX),
    Family.PWM_S: (Estimator.BETA_HAT, PWM, -0.35, GevMapKind.PWM_APPROX),
    Family.GPWM_S: (Estimator.BETA_HAT, GPWM, 0.0, GevMapKind.GPWM_APPROX),
}


@dataclass(frozen=True)
class TestConfig:
    """One test: a family, a target parameter, and the practical adjustments.

    ``gamma`` and ``variance_correction`` default to None and are resolved
    per family/target: gamma is -0.35 for the classical weights and 0 for the
    log weights; the variance inflation (n+10)/n applies to the pwm-t scale
    test, (n+20)/n to the pwm-t shape test, 1 elsewhere.
    """

    __test__ = False  # not a test case despite the name

    family: Family = Family.PWM_T
    target: str = "mu"
    r: int = 10
    gamma: float | None = None
    recenter: bool = True
    variance_correction: float | None = None

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise DataError(f"unknown target {self.target!r}")
        if self.r < 1:
            raise DataError("trim r must be at least 1")
        if self.variance_correction is not None and self.variance_correction <= 0:
            raise DataError("variance correction must be positive")

    def resolved_gamma(self) -> float:
        if self.gamma is not None:
            return self.gamma
        return _FAMILY_SETUP[self.family][2]

    def resolved_correction(self, n: int) -> float:
        if self.variance_correction is not None:
            return self.variance_correction
        if self.family is Family.PWM_T and self.target == "sigma":
            return (n + 10.0) / n
        if self.family is Family.PWM_T and self.target == "xi":
            return (n + 20.0) / n
        return 1.0


@dataclass(frozen=True)
class TestResult:
    statistic: float
    sigma_hat: float
    p_value: float
    argmax_k: int
    left_params: GevParams | None
    right_params: GevParams | None
    skipped_k: tuple[int, ...]
    config: TestConfig
    n: int

    def to_dict(self) -> dict:
        return {
            "family": self.config.family.value,
            "target": self.config.target,
            "statistic": self.statistic,
            "sigma_hat": self.sigma_hat,
            "p_value": self.p_value,
            "argmax_k": self.argmax_k,
            "left_params": None
            if self.left_params is None
            else {"mu": self.left_params.mu, "sigma": self.left_params.sigma, "xi": self.left_params.xi},
            "right_params": None
            if self.right_params is None
            else {"mu": self.right_params.mu, "sigma": self.right_params.sigma, "xi": self.right_params.xi},
            "skipped_k": list(self.skipped_k),
            "n": self.n,
        }


def _full_sample_triple(values: np.ndarray, family: Family, gamma: float):
    estimator, weights, _, _ = _FAMILY_SETUP[family]
    if estimator is Estimator.B_HAT:
        return b_hat(values)
    return beta_hat(values, weights, gamma)


def recenter(sample, config: TestConfig) -> np.ndarray:
    """Subtract the full-sample location estimate of the config's family."""
    values = as_sample(sample)
    triple = _full_sample_triple(values, config.family, config.resolved_gamma())
    kind = _FAMILY_SETUP[config.family][3]
    try:
        loc = map_triple(kind, triple).mu
    except (FeasibilityError, ValueError) as exc:
        raise FeasibilityError(
            f"cannot recenter: full-sample moments outside the {config.family.value} map domain ({exc})"
        ) from exc
    return values - loc


def _rows_ok(rows: np.ndarray, pred) -> np.ndarray:
    ok = np.zeros(rows.shape[0], dtype=bool)
    finite = np.all(np.isfinite(rows), axis=1)
    if finite.any():
        ok[finite] = pred(rows[finite])
    return ok


class _Group(NamedTuple):
    """Per-family work shared by every target of a test group."""

    ks: np.ndarray          # splits r..n-r
    left: np.ndarray        # (len(ks), 3) prefix parameters, NaN where skipped
    right: np.ndarray       # suffix parameters, likewise
    cov: np.ndarray         # covariance of the pseudo-observations
    triple: MomentTriple    # full-sample moments


def _family_group(values: np.ndarray, config: TestConfig, do_recenter: bool) -> _Group:
    n, r = values.size, config.r
    if n < 2 * r:
        raise DataError(f"need n >= 2r = {2 * r} observations")
    if do_recenter:
        values = recenter(values, config)
    family, gamma = config.family, config.resolved_gamma()
    estimator, weights, _, _ = _FAMILY_SETUP[family]
    prefix, pre_ok, suffix, suf_ok = prefix_suffix_moments(values, estimator, weights, gamma)
    ks = np.arange(r, n - r + 1)
    prefix, suffix, ok = prefix[ks], suffix[ks], pre_ok[ks] & suf_ok[ks]
    # the family's per-split indicator
    if family is Family.PWM_S:
        ok &= _rows_ok(prefix, in_dxi_rows) & _rows_ok(suffix, in_dxi_rows)
    elif family is Family.GPWM_S:
        ok &= _rows_ok(prefix, in_dh_rows) & _rows_ok(suffix, in_dh_rows)
    left = np.where(ok[:, None], approx_map_rows(weights.tag, prefix), np.nan)
    right = np.where(ok[:, None], approx_map_rows(weights.tag, suffix), np.nan)
    cov = np.cov(pseudo_observations(values, weights, gamma), rowvar=False, bias=True)
    return _Group(ks, left, right, cov, _full_sample_triple(values, family, gamma))


def _statistic_from_group(group: _Group, target: str, n: int):
    col = TARGETS.index(target)
    with np.errstate(invalid="ignore"):
        diff = np.abs(group.left[:, col] - group.right[:, col])
    valid = np.isfinite(diff)
    ks = group.ks
    skipped = tuple(int(k) for k in ks[~valid])
    if not valid.any():
        raise FeasibilityError("no feasible split: every k was skipped")
    weight = ks * (n - ks) / n**1.5
    vals = np.where(valid, weight * diff, -np.inf)
    idx = int(np.argmax(vals))  # ties: smallest k wins
    return float(vals[idx]), int(ks[idx]), skipped


def _sigma_from_group(group: _Group, config: TestConfig, n: int) -> float:
    grad = jacobian(_FAMILY_SETUP[config.family][3], config.target, group.triple)
    var = float(grad @ group.cov @ grad) * config.resolved_correction(n)
    if not var > 0.0:
        raise DataError("degenerate variance estimate (near-constant sample?)")
    return math.sqrt(var)


def statistic(sample, config: TestConfig):
    """CUSUM statistic over splits k in {r, ..., n-r}.

    Returns ``(value, argmax_k, skipped_k)``; does not recenter (see
    :func:`run_test` for the full pipeline).
    """
    values = as_sample(sample)
    group = _family_group(values, config, do_recenter=False)
    return _statistic_from_group(group, config.target, values.size)


def pseudo_observations(sample, family: WeightFamily = PWM, gamma: float = -0.35) -> np.ndarray:
    """Per-observation influence values, one column per weight function.

    Column j of the result holds
    X_i nu_j(F(X_i)) + (1/n) sum_m X_m nu_j'(F(X_m)) 1(X_i <= X_m)
    with F the modified empirical c.d.f. of the full sample.
    """
    values = as_sample(sample)
    n = values.size
    if n < 2:
        raise DataError("need at least 2 observations")
    order = np.argsort(values, kind="stable")
    s = values[order]
    pos = (np.arange(1, n + 1) + gamma) / n
    if family.tag == "gpwm" and pos[0] <= 0.0:
        raise DataError("log-weight pseudo-observations need strictly positive ecdf values")
    nu = family.nu_matrix(pos)
    nup = family.nu_prime_matrix(pos)
    tail = np.vstack([np.cumsum((s[:, None] * nup)[::-1], axis=0)[::-1], np.zeros(3)])
    first_idx = np.searchsorted(s, values, side="left")
    rank_of = np.empty(n, dtype=int)
    rank_of[order] = np.arange(n)
    y = values[:, None] * nu[rank_of] + tail[first_idx] / n
    return y


def sigma_hat(sample, config: TestConfig) -> float:
    """Plug-in estimate of the asymptotic standard deviation of the statistic."""
    values = as_sample(sample)
    group = _family_group(values, config, do_recenter=False)
    return _sigma_from_group(group, config, values.size)


def run_test(sample, config: TestConfig) -> TestResult:
    """Full pipeline: recenter, statistic, variance, Kolmogorov p-value."""
    return run_suite(sample, [config])[0]


def run_suite(sample, configs: list[TestConfig]) -> list[TestResult]:
    """Run several tests on one sample, sharing per-family heavy work."""
    values = as_sample(sample)
    n = values.size
    results: dict[int, TestResult] = {}
    by_key: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        key = (cfg.family, cfg.gamma, cfg.recenter, cfg.r)
        by_key.setdefault(key, []).append(i)
    for idxs in by_key.values():
        group = _family_group(values, configs[idxs[0]], configs[idxs[0]].recenter)
        for i in idxs:
            cfg = configs[i]
            stat, argmax_k, skipped = _statistic_from_group(group, cfg.target, n)
            sd = _sigma_from_group(group, cfg, n)
            p = 1.0 - kolmogorov_cdf(stat / sd)
            left = right = None
            try:
                left = GevParams(*group.left[argmax_k - cfg.r].tolist())
                right = GevParams(*group.right[argmax_k - cfg.r].tolist())
            except ValueError:
                pass  # side estimates are descriptive only
            results[i] = TestResult(
                statistic=stat,
                sigma_hat=sd,
                p_value=p,
                argmax_k=argmax_k,
                left_params=left,
                right_params=right,
                skipped_k=skipped,
                config=cfg,
                n=n,
            )
    return [results[i] for i in range(len(configs))]


def family_suite(family: Family, r: int = 10, recenter: bool = True) -> list[TestConfig]:
    """The three per-parameter tests of one family."""
    return [TestConfig(family=family, target=t, r=r, recenter=recenter) for t in TARGETS]
