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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import kolmogorov

from .distributions import DataError, FeasibilityError, GevParams, as_rows, as_sample
from .gev_maps import PARAMS, approx_map_rows, map_outcome, params_ok_rows
from .moments import (
    GPWM,
    PWM,
    Estimator,
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
        self.resolved_gamma()  # an offset the weights cannot take fails here, not on every row

    def resolved_gamma(self) -> float:
        return _FAMILY_SETUP[self.family][1].resolve_gamma(self.gamma)

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


class Reason(enum.IntEnum):
    """Why a test gives no decision on a row, with the exception and message
    of each: the one table of them.  ``run_batch`` reports the codes as
    int8.  A row keeps its first failure; the checks run in code order,
    except that recentering fails a row whose moments are not finite with
    TRIPLE_NOT_FINITE.  In a message, {two_r} is 2r, {family} the test
    family and {detail} the approximate map's own error on the row's
    moment triple."""

    def __new__(cls, code: int, kind=None, message: str = ""):
        reason = int.__new__(cls, code)
        reason._value_, reason.kind, reason.message = code, kind, message
        return reason

    OK = 0
    NOT_FINITE = 1, DataError, "a sample must contain only finite values"
    ALL_TIED = 2, DataError, "all values are tied"
    FEW_DISTINCT = 3, DataError, "fewer than 3 distinct values"
    SHORT = 4, DataError, "need n >= 2r = {two_r} observations"
    CANNOT_RECENTER = 5, FeasibilityError, "cannot recenter: full-sample moments outside the {family} map domain ({detail})"
    TRIPLE_NOT_FINITE = 6, DataError, "moment triple entries must be finite"
    NO_SPLIT = 7, FeasibilityError, "no feasible split: every k was skipped"
    OFF_DOMAIN = 8, FeasibilityError, "{detail}"
    DEGENERATE_VARIANCE = 9, DataError, "degenerate variance estimate (near-constant sample?)"
    ZERO_VARIANCE = 10, DataError, "degenerate sample: zero variance"  # the baselines' check

    def error(self, r: int = 0, family: Family | None = None, triple=None) -> ValueError:
        """The exception of this reason for a test with trim r of ``family``;
        ``triple`` is the row's moment triple, which the map-domain messages show."""
        detail = None
        if self in (Reason.CANNOT_RECENTER, Reason.OFF_DOMAIN):
            tag = _FAMILY_SETUP[family][1].tag
            detail = map_outcome(tag, triple, approx_map_rows(tag, triple[None])[0])
        exc = self.kind(self.message.format(two_r=2 * r, family=family and family.value, detail=detail))
        exc.__cause__ = detail
        return exc


def fail_rows(reason: np.ndarray, failed, code: Reason) -> None:
    """Give ``code`` to the rows that fail a check and passed every earlier one."""
    reason[(reason == Reason.OK) & failed] = code


class BatchResult(NamedTuple):
    """One test over the R rows of a batch; a row's numbers hold where its
    ``reason`` is OK.  :func:`batch_cell` gives a row as one series would."""

    statistic: np.ndarray   # (R,) in data units
    sigma_hat: np.ndarray   # (R,) in data units
    p_value: np.ndarray     # (R,)
    argmax_k: np.ndarray    # (R,) split of the maximum
    valid: np.ndarray       # (R, len(ks)) splits where both sides are feasible
    ks: np.ndarray          # splits r..n-r
    reason: np.ndarray      # (R,) int8 Reason codes
    left: np.ndarray | None = None   # (R, 3) side estimates at the maximum, in data units
    right: np.ndarray | None = None
    triples: np.ndarray | None = None  # (R, 3) unit-scaled full-sample moments


def failed_batch(reason: np.ndarray) -> BatchResult:
    """The record of a test that every row fails before any split: ``reason``
    holds each row's failure."""
    rows = reason.size
    nan = np.full(rows, np.nan)
    return BatchResult(nan, nan, nan, np.zeros(rows, int), np.zeros((rows, 0), bool), np.arange(0), reason)


def _full_sample_rows(values: np.ndarray, config: TestConfig) -> np.ndarray:
    estimator, weights = _FAMILY_SETUP[config.family]
    return full_sample_rows(values, estimator, weights, config.resolved_gamma())


def _recenter_rows(values: np.ndarray, config: TestConfig, reason: np.ndarray):
    """Subtract each row's full-sample location estimate; returns the rows
    and their full-sample triples.  Rows where the estimate is undefined
    fail in ``reason`` and are left unshifted."""
    triples = _full_sample_rows(values, config)
    params = approx_map_rows(_FAMILY_SETUP[config.family][1].tag, triples)
    finite = np.isfinite(triples).all(axis=1)
    ok = finite & params_ok_rows(params)
    fail_rows(reason, ~finite, Reason.TRIPLE_NOT_FINITE)
    fail_rows(reason, ~ok, Reason.CANNOT_RECENTER)
    return values - np.where(ok, params[:, 0], 0.0)[:, None], triples


def recenter(sample, config: TestConfig) -> np.ndarray:
    """Subtract the full-sample location estimate of the config's family."""
    reason = np.zeros(1, np.int8)
    values, triples = _recenter_rows(as_sample(sample)[None], config, reason)
    if reason[0]:
        raise Reason(reason[0]).error(config.r, config.family, triples[0])
    return values[0]


class _Group(NamedTuple):
    """Per-family work shared by every target of a test group, over R rows."""

    reason: np.ndarray      # (R,) the rows' failures so far
    ks: np.ndarray          # splits r..n-r
    left: np.ndarray        # (R, len(ks), 3) prefix parameters, NaN where skipped
    right: np.ndarray       # suffix parameters, likewise
    cov: np.ndarray         # (R, 3, 3) covariance of the pseudo-observations
    triples: np.ndarray     # (R, 3) full-sample moments
    params: np.ndarray      # (R, 3) their map, NaN off the map's domain
    jac: np.ndarray         # (R, 3, 3) Jacobian of the map at the triples
    exponent: np.ndarray    # (R,) power of two that takes each row back to data units


# Powers of the data scale in mu, sigma and xi: location and scale carry the
# data's units, the shape is a pure number.
_DATA_UNITS = np.array([1, 1, 0])


def unit_rows(values: np.ndarray):
    """Each row times 2^-e, where e is the frexp exponent of its largest
    |value|, and the exponents e.  The scaling is exact, so the tests run on
    numbers near 1 whatever the data's units; outputs in data units are the
    scaled ones times 2^e."""
    exponent = np.frexp(np.max(np.abs(values), axis=1))[1]
    return np.ldexp(values, -exponent[:, None]), exponent


def _family_group(values: np.ndarray, config: TestConfig, do_recenter: bool, reason: np.ndarray) -> _Group:
    """The shared work of one test group; ``reason`` holds the rows' failures
    so far and is not changed."""
    rows, n = values.shape
    r, family, gamma = config.r, config.family, config.resolved_gamma()
    estimator, weights = _FAMILY_SETUP[family]
    reason = reason.copy()
    # fewer than 3 distinct values cannot identify three GEV parameters
    s = np.sort(values, axis=1)
    distinct = 1 + np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)
    fail_rows(reason, distinct == 1, Reason.ALL_TIED)
    fail_rows(reason, distinct == 2, Reason.FEW_DISTINCT)
    fail_rows(reason, n < 2 * r, Reason.SHORT)
    if not (reason == Reason.OK).any():  # no row left to test, as at every n < 3
        return _Group(reason, *[None] * 8)
    values, exponent = unit_rows(values)
    if do_recenter:
        values, _ = _recenter_rows(values, config, reason)
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
    fail_rows(reason, ~np.isfinite(triples).all(axis=1), Reason.TRIPLE_NOT_FINITE)
    return _Group(reason, ks, left, right, cov, triples, params, jac, exponent)


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


def _sd_rows(group: _Group, config: TestConfig, n: int, reason: np.ndarray) -> np.ndarray:
    """Per row, the plug-in standard deviation of the statistic on the
    unit-scaled data; fails the rows where it is undefined in ``reason``
    and gives them 1."""
    grad = group.jac[:, TARGETS.index(config.target)]
    with np.errstate(invalid="ignore", over="ignore"):
        var = np.vecdot((grad[:, None, :] @ group.cov)[:, 0], grad) * config.resolved_correction(n)
    fail_rows(reason, np.isnan(group.params[:, 2]), Reason.OFF_DOMAIN)
    fail_rows(reason, ~(var > 0.0), Reason.DEGENERATE_VARIANCE)
    return np.sqrt(np.where(reason == Reason.OK, var, 1.0))


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
    batch = _test_rows(_family_group(values[None], config, False, np.zeros(1, np.int8)), config, values.size)
    if Reason.OK < batch.reason[0] <= Reason.NO_SPLIT:  # the later checks are the variance's
        raise batch_cell(batch, 0, values.size, config)
    skipped = tuple(batch.ks[~batch.valid[0]].tolist())
    return float(batch.statistic[0]), int(batch.argmax_k[0]), skipped


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
    group = _family_group(values[None], config, False, np.zeros(1, np.int8))
    if group.reason[0]:  # a failure before any split needs no triple
        raise Reason(group.reason[0]).error(config.r)
    sd = _sd_rows(group, config, values.size, group.reason)
    if group.reason[0]:
        raise Reason(group.reason[0]).error(config.r, config.family, group.triples[0])
    return float(np.ldexp(sd[0], group.exponent[0] * _DATA_UNITS[TARGETS.index(config.target)]))


def run_test(sample, config: TestConfig) -> TestResult:
    """Full pipeline: recenter, statistic, variance, Kolmogorov p-value."""
    return run_suite(sample, [config])[0]


def _groups(configs: list[TestConfig]) -> list[list[int]]:
    """Config indices by shared per-family work, groups in order of first appearance."""
    by_key: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        by_key.setdefault((cfg.family, cfg.gamma, cfg.recenter, cfg.r), []).append(i)
    return list(by_key.values())


def studentize(stats: SplitMax, sd: np.ndarray, ks: np.ndarray, exponent: np.ndarray,
               reason: np.ndarray) -> BatchResult:
    """The record of one test: per row the p-value kolmogorov(statistic / sd),
    with statistic and sd reported times 2^exponent, in data units.  ``sd``
    is 1 on the rows that ``reason`` fails."""
    with np.errstate(over="ignore"):  # a squared-unit statistic of data near 1e300 is not finite
        stat_units, sd_units = np.ldexp(stats.value, exponent), np.ldexp(sd, exponent)
    return BatchResult(stat_units, sd_units, kolmogorov(stats.value / sd), ks[stats.index], stats.valid, ks, reason)


def _test_rows(group: _Group, config: TestConfig, n: int) -> BatchResult:
    """One test over every row of a group."""
    if group.ks is None:
        return failed_batch(group.reason)
    col = TARGETS.index(config.target)
    stats = split_max(group.left[:, :, col], group.right[:, :, col], group.ks, n)
    reason = group.reason.copy()
    fail_rows(reason, ~stats.valid.any(axis=1), Reason.NO_SPLIT)
    sd = _sd_rows(group, config, n, reason)
    at = (np.arange(reason.size), stats.index)
    exponent = group.exponent[:, None] * _DATA_UNITS
    left, right = (np.ldexp(side[at], exponent) for side in (group.left, group.right))
    batch = studentize(stats, sd, group.ks, exponent[:, col], reason)
    return batch._replace(left=left, right=right, triples=group.triples)


def batch_cell(batch: BatchResult, row: int, n: int, config: TestConfig | None = None, *, name: str = "", r: int = 0):
    """One row of a batch record as the one-series functions give it: the
    TestResult, or the exception that the test raises on that row alone.
    A baseline, which has no config, passes its name and trim r."""
    if config is not None:
        name, r = config.name, config.r
    if batch.reason[row]:
        triple = None if batch.triples is None else batch.triples[row]
        return Reason(batch.reason[row]).error(r, config and config.family, triple)
    left = right = None
    if batch.left is not None:
        try:
            left = GevParams(*batch.left[row].tolist())
            right = GevParams(*batch.right[row].tolist())
        except ValueError:
            pass  # side estimates are descriptive only
    return TestResult(
        statistic=float(batch.statistic[row]), sigma_hat=float(batch.sigma_hat[row]),
        p_value=float(batch.p_value[row]), argmax_k=int(batch.argmax_k[row]),
        left_params=left, right_params=right, skipped_k=tuple(batch.ks[~batch.valid[row]].tolist()),
        config=config, n=n, name=name,
    )


def finite_rows(samples):
    """An (R, n) batch with non-finite values set to 0, and per row its
    reason so far: NOT_FINITE where it held any, else OK."""
    values = np.asarray(samples, dtype=float)
    finite = np.isfinite(values)
    rows = as_rows(np.where(finite, values, 0.0))
    return rows, np.where(finite.all(axis=1), Reason.OK, Reason.NOT_FINITE).astype(np.int8)


def run_batch(samples, configs: list[TestConfig]) -> list[BatchResult]:
    """Run several tests on each row of an (R, n) array of samples.

    Returns one BatchResult per config, whose ``reason`` tells per row
    whether the test gave a decision and why not.  Tests of one family
    share the per-family work, which runs once over all rows; a row that
    is not finite fails every test.  Every product is taken row by row, so
    a row's results do not depend on the other rows.
    """
    values, reason = finite_rows(samples)
    n = values.shape[1]
    batches = [None] * len(configs)
    for idxs in _groups(configs):
        group = _family_group(values, configs[idxs[0]], configs[idxs[0]].recenter, reason)
        for i in idxs:
            batches[i] = _test_rows(group, configs[i], n)
        del group  # free this family's arrays before the next family's
    return batches


def run_suite(sample, configs: list[TestConfig]) -> list[TestResult]:
    """Run several tests on one sample, sharing per-family heavy work.

    The one-row case of :func:`run_batch`.  Raises the first failure: groups
    in order of first appearance, targets in config order.
    """
    values = as_sample(sample)
    batches = run_batch(values[None], configs)
    cells = [batch_cell(b, 0, values.size, cfg) for b, cfg in zip(batches, configs)]
    for idxs in _groups(configs):
        for i in idxs:
            _raise_if_error(cells[i])
    return cells


def family_suite(family: Family, r: int = 10, recenter: bool = True) -> list[TestConfig]:
    """The three per-parameter tests of one family."""
    return [TestConfig(family=family, target=t, r=r, recenter=recenter) for t in TARGETS]
