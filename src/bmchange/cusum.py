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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import kolmogorov

from .distributions import DataError, FeasibilityError, GevParams, as_rows, as_sample
from .gev_maps import PARAMS, approx_map_rows, map_outcome
from .moments import (
    GPWM,
    PWM,
    Estimator,
    MomentTriple,
    WeightFamily,
    full_sample_rows,
    in_dh_rows,
    position_numerators,
    prefix_suffix_moments,
)

# Unused here, but bench/spans.py wraps these names in this module.
from .distributions import kolmogorov_cdf  # noqa: F401
from .gev_maps import jacobian, map_triple  # noqa: F401
from .moments import b_hat, beta_hat, in_dxi_rows  # noqa: F401

TARGETS = PARAMS


class Family(enum.Enum):
    PWM_T = "pwm-t"
    PWM_S = "pwm-s"
    GPWM_S = "gpwm"


_FAMILY_SETUP = {
    Family.PWM_T: (Estimator.B_HAT, PWM),
    Family.PWM_S: (Estimator.BETA_HAT, PWM),
    Family.GPWM_S: (Estimator.BETA_HAT, GPWM),
}


@dataclass(frozen=True)
class TestConfig:
    """One test: a family, a target parameter, and the practical adjustments.

    ``gamma`` and ``variance_correction`` default to None and are resolved
    per family/target: gamma is the weight family's ``default_gamma``; the
    variance inflation (n+10)/n applies to the pwm-t scale test, (n+20)/n to
    the pwm-t shape test, 1 elsewhere.
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
        return _FAMILY_SETUP[self.family][1].default_gamma

    def resolved_correction(self, n: int) -> float:
        if self.variance_correction is not None:
            return self.variance_correction
        if self.family is Family.PWM_T and self.target == "sigma":
            return (n + 10.0) / n
        if self.family is Family.PWM_T and self.target == "xi":
            return (n + 20.0) / n
        return 1.0

    @property
    def name(self) -> str:
        return f"{self.family.value}:{self.target}"


@dataclass(frozen=True)
class TestResult:
    """One test on one sample; ``config`` is None for the classical baselines."""

    __test__ = False  # not a test case despite the name

    statistic: float
    sigma_hat: float
    p_value: float
    argmax_k: int
    left_params: GevParams | None
    right_params: GevParams | None
    skipped_k: tuple[int, ...]
    config: TestConfig | None
    n: int
    name: str

    def to_dict(self) -> dict:
        if self.config is None:
            head = {"test": self.name}
        else:
            head = {"family": self.config.family.value, "target": self.config.target}
        return {
            **head,
            "statistic": self.statistic,
            "sigma_hat": self.sigma_hat,
            "p_value": self.p_value,
            "argmax_k": self.argmax_k,
            "left_params": None if self.left_params is None else asdict(self.left_params),
            "right_params": None if self.right_params is None else asdict(self.right_params),
            "skipped_k": list(self.skipped_k),
            "n": self.n,
        }


def _full_sample_rows(values: np.ndarray, config: TestConfig) -> np.ndarray:
    estimator, weights = _FAMILY_SETUP[config.family]
    return full_sample_rows(values, estimator, weights, config.resolved_gamma())


def _error_of(fn, *args) -> ValueError | None:
    try:
        fn(*args)
    except ValueError as exc:
        return exc
    return None


def _recenter_rows(values: np.ndarray, config: TestConfig):
    """Subtract each row's full-sample location estimate.

    Returns the shifted (R, n) rows and, per row, the error that
    :func:`recenter` raises on that row alone (None when it succeeds); a
    failed row is left unshifted.
    """
    triples = _full_sample_rows(values, config)
    tag = _FAMILY_SETUP[config.family][1].tag
    params = approx_map_rows(tag, triples)
    errors = []
    for triple, row in zip(triples, params):
        exc = _error_of(MomentTriple, *triple.tolist())
        if exc is None:
            outcome = map_outcome(tag, triple, row)
            if isinstance(outcome, ValueError):
                exc = FeasibilityError(
                    f"cannot recenter: full-sample moments outside the {config.family.value} map domain ({outcome})"
                )
                exc.__cause__ = outcome
        errors.append(exc)
    failed = np.array([exc is not None for exc in errors])
    return values - np.where(failed, 0.0, params[:, 0])[:, None], errors


def recenter(sample, config: TestConfig) -> np.ndarray:
    """Subtract the full-sample location estimate of the config's family."""
    values, errors = _recenter_rows(as_sample(sample)[None], config)
    _raise_if_error(errors[0])
    return values[0]


class _Group(NamedTuple):
    """Per-family work shared by every target of a test group, over R rows."""

    errors: list            # per row: the group's failure on that row alone, or None
    ks: np.ndarray          # splits r..n-r
    left: np.ndarray        # (R, len(ks), 3) prefix parameters, NaN where skipped
    right: np.ndarray       # suffix parameters, likewise
    cov: np.ndarray         # (R, 3, 3) covariance of the pseudo-observations
    triples: np.ndarray     # (R, 3) full-sample moments
    params: np.ndarray      # (R, 3) their map, NaN off the map's domain
    jac: np.ndarray         # (R, 3, 3) Jacobian of the map at the triples


def _family_group(values: np.ndarray, config: TestConfig, do_recenter: bool) -> _Group:
    rows, n = values.shape
    r, family, gamma = config.r, config.family, config.resolved_gamma()
    estimator, weights = _FAMILY_SETUP[family]
    tied = np.all(values == values[:, :1], axis=1)
    errors = [DataError("all values are tied") if t else None for t in tied]
    try:
        if n < 2 * r:
            raise DataError(f"need n >= 2r = {2 * r} observations")
        if do_recenter:
            values, recenter_errors = _recenter_rows(values, config)
            errors = [e or f for e, f in zip(errors, recenter_errors)]
        prefix, pre_ok, suffix, suf_ok = prefix_suffix_moments(values, estimator, weights, gamma)
        ks = np.arange(r, n - r + 1)
        prefix, suffix = prefix[:, ks].reshape(-1, 3), suffix[:, ks].reshape(-1, 3)
        ok = np.broadcast_to(pre_ok[ks] & suf_ok[ks], (rows, ks.size)).ravel()
        # The pwm map is NaN off D_xi, so pwm-t and pwm-s skip exactly those
        # splits; D_h is narrower than the domain of the gpwm map.
        if family is Family.GPWM_S:
            ok = ok & in_dh_rows(prefix) & in_dh_rows(suffix)
        left = np.where(ok[:, None], approx_map_rows(weights.tag, prefix), np.nan).reshape(rows, -1, 3)
        right = np.where(ok[:, None], approx_map_rows(weights.tag, suffix), np.nan).reshape(rows, -1, 3)
        del prefix, suffix
        y = pseudo_observations(values, weights, gamma)
        y -= y.mean(axis=1, keepdims=True)
        cov = np.matmul(y.transpose(0, 2, 1), y) * (1.0 / n)
        triples = _full_sample_rows(values, config)
        params, jac = approx_map_rows(weights.tag, triples, grad=True)
    except (DataError, FeasibilityError) as exc:  # the same on every row
        return _Group([e or exc for e in errors], *[None] * 7)
    errors = [e or _error_of(MomentTriple, *t.tolist()) for e, t in zip(errors, triples)]
    return _Group(errors, ks, left, right, cov, triples, params, jac)


class SplitMax(NamedTuple):
    value: np.ndarray       # (R,) maximum of the weighted differences
    index: np.ndarray       # (R,) position of the maximum in ks
    valid: np.ndarray       # (R, len(ks)) splits where both sides are feasible


def split_max(left: np.ndarray, right: np.ndarray, ks: np.ndarray, n: int) -> SplitMax:
    """Per row, the max over splits k of k(n-k)/n^1.5 |left - right|; the side
    estimates are (R, len(ks)), NaN at skipped splits.  Ties: smallest k wins."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(left - right)
    valid = np.isfinite(diff)
    weight = ks * (n - ks) / n**1.5
    vals = np.where(valid, weight * diff, -np.inf)
    idx = np.argmax(vals, axis=1)
    return SplitMax(vals[np.arange(vals.shape[0]), idx], idx, valid)


def _no_split(valid_row: np.ndarray) -> FeasibilityError | None:
    return None if valid_row.any() else FeasibilityError("no feasible split: every k was skipped")


def _variances(group: _Group, config: TestConfig, n: int) -> np.ndarray:
    grad = group.jac[:, TARGETS.index(config.target)]
    with np.errstate(invalid="ignore", over="ignore"):
        var = np.vecdot((grad[:, None, :] @ group.cov)[:, 0], grad)
    return var * config.resolved_correction(n)


def _sd_or_error(group: _Group, row: int, var: float, config: TestConfig) -> float | ValueError:
    if np.isnan(group.params[row, 2]):
        return map_outcome(_FAMILY_SETUP[config.family][1].tag, group.triples[row], group.params[row])
    if not var > 0.0:
        return DataError("degenerate variance estimate (near-constant sample?)")
    return math.sqrt(var)


def _raise_if_error(value):
    if isinstance(value, Exception):
        raise value
    return value


def statistic(sample, config: TestConfig):
    """CUSUM statistic over splits k in {r, ..., n-r}.

    Returns ``(value, argmax_k, skipped_k)``; does not recenter (see
    :func:`run_test` for the full pipeline).
    """
    values = as_sample(sample)
    group = _family_group(values[None], config, do_recenter=False)
    _raise_if_error(group.errors[0])
    col = TARGETS.index(config.target)
    stats = split_max(group.left[:, :, col], group.right[:, :, col], group.ks, values.size)
    _raise_if_error(_no_split(stats.valid[0]))
    skipped = tuple(group.ks[~stats.valid[0]].tolist())
    return float(stats.value[0]), int(group.ks[stats.index[0]]), skipped


def pseudo_observations(sample, family: WeightFamily = PWM, gamma: float | None = None) -> np.ndarray:
    """Per-observation influence values, one column per weight function.

    Column j of the result holds
    X_i nu_j(F(X_i)) + (1/n) sum_m X_m nu_j'(F(X_m)) 1(X_i <= X_m)
    with F the modified empirical c.d.f. of the full sample (offset gamma,
    None for the family's default).  An (R, n) array of samples gives an
    (R, n, 3) result.
    """
    batch = np.ndim(sample) == 2
    values = as_rows(sample) if batch else as_sample(sample)[None]
    n = values.shape[1]
    if n < 2:
        raise DataError("need at least 2 observations")
    order = np.argsort(values, axis=1, kind="stable")
    s = np.take_along_axis(values, order, axis=1)
    pos = position_numerators(n, family, gamma) / n
    nu = family.nu_matrix(pos)
    nup = family.nu_prime_matrix(pos)
    # tail sums from the largest value down: tail[:, n-1-j] sums sorted positions >= j
    tail = s[:, ::-1, None] * nup[::-1]
    np.cumsum(tail, axis=1, out=tail)
    # sorted position of the first value of each tie group
    starts = np.ones(s.shape, dtype=bool)
    starts[:, 1:] = s[:, 1:] != s[:, :-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
    rows = np.arange(values.shape[0])[:, None]
    y_sorted = tail[rows, n - 1 - first]
    del tail
    y_sorted /= n
    y_sorted += s[:, :, None] * nu
    y = np.empty_like(y_sorted)
    y[rows, order] = y_sorted
    return y if batch else y[0]


def sigma_hat(sample, config: TestConfig) -> float:
    """Plug-in estimate of the asymptotic standard deviation of the statistic."""
    values = as_sample(sample)
    group = _family_group(values[None], config, do_recenter=False)
    _raise_if_error(group.errors[0])
    var = _variances(group, config, values.size)
    return _raise_if_error(_sd_or_error(group, 0, var[0], config))


def run_test(sample, config: TestConfig) -> TestResult:
    """Full pipeline: recenter, statistic, variance, Kolmogorov p-value."""
    return run_suite(sample, [config])[0]


def _groups(configs: list[TestConfig]) -> list[list[int]]:
    """Config indices by shared per-family work, groups in order of first appearance."""
    by_key: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        by_key.setdefault((cfg.family, cfg.gamma, cfg.recenter, cfg.r), []).append(i)
    return list(by_key.values())


def studentize(stats: SplitMax, sds: list, ks: np.ndarray, n: int, name: str,
               config: TestConfig | None = None, sides=None) -> list:
    """Per row, a TestResult with p-value kolmogorov(statistic / sd), or the
    row's error in ``sds``.  ``sides``: the (R, len(ks), 3) side estimates."""
    p_values = kolmogorov(stats.value / np.array([sd if isinstance(sd, float) else 1.0 for sd in sds]))
    out = []
    for row, sd in enumerate(sds):
        if isinstance(sd, Exception):
            out.append(sd)
            continue
        idx = int(stats.index[row])
        left = right = None
        if sides is not None:
            try:
                left = GevParams(*sides[0][row, idx].tolist())
                right = GevParams(*sides[1][row, idx].tolist())
            except ValueError:
                pass  # side estimates are descriptive only
        out.append(
            TestResult(
                statistic=float(stats.value[row]),
                sigma_hat=sd,
                p_value=float(p_values[row]),
                argmax_k=int(ks[idx]),
                left_params=left,
                right_params=right,
                skipped_k=tuple(ks[~stats.valid[row]].tolist()),
                config=config,
                n=n,
                name=name,
            )
        )
    return out


def _cells(group: _Group, config: TestConfig, n: int) -> list:
    """One test over every row of a group: a TestResult or the row's error."""
    if group.ks is None:
        return list(group.errors)
    col = TARGETS.index(config.target)
    stats = split_max(group.left[:, :, col], group.right[:, :, col], group.ks, n)
    var = _variances(group, config, n)
    sds = [
        error or _no_split(stats.valid[row]) or _sd_or_error(group, row, var[row], config)
        for row, error in enumerate(group.errors)
    ]
    return studentize(stats, sds, group.ks, n, config.name, config, (group.left, group.right))


def finite_rows(samples):
    """An (R, n) batch with non-finite values set to 0, and per row its as_sample error or None."""
    values = np.asarray(samples, dtype=float)
    bad = [_error_of(as_sample, row) for row in values] if values.ndim == 2 else []
    return as_rows(np.where(np.isfinite(values), values, 0.0)), bad


def run_batch(samples, configs: list[TestConfig]) -> list[list]:
    """Run several tests on each row of an (R, n) array of samples.

    Returns one list per row with one entry per config: the TestResult, or
    the FeasibilityError/DataError that the test raises on that row alone.
    Tests of one family share the per-family work, which runs once over all
    rows; a row that is not finite fails every test.  Every product is
    taken row by row, so a row's results do not depend on the other rows.
    """
    values, bad = finite_rows(samples)
    n = values.shape[1]
    cells = [[None] * len(configs) for _ in values]
    for idxs in _groups(configs):
        group = _family_group(values, configs[idxs[0]], configs[idxs[0]].recenter)
        group = group._replace(errors=[b or e for b, e in zip(bad, group.errors)])
        for i in idxs:
            for row, cell in enumerate(_cells(group, configs[i], n)):
                cells[row][i] = cell
        del group  # free this family's arrays before the next family's
    return cells


def run_suite(sample, configs: list[TestConfig]) -> list[TestResult]:
    """Run several tests on one sample, sharing per-family heavy work.

    The one-row case of :func:`run_batch`.  Raises the first failure: groups
    in order of first appearance, targets in config order.
    """
    cells = run_batch(as_sample(sample)[None], configs)[0]
    for idxs in _groups(configs):
        for i in idxs:
            _raise_if_error(cells[i])
    return cells


def family_suite(family: Family, r: int = 10, recenter: bool = True) -> list[TestConfig]:
    """The three per-parameter tests of one family."""
    return [TestConfig(family=family, target=t, r=r, recenter=recenter) for t in TARGETS]
