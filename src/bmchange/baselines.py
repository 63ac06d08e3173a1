"""Classical studentized CUSUM tests for changes in mean and variance.

These serve as comparison columns next to the moment-based tests; they share
the split maximum, the Kolmogorov p-value and the batch record of
:mod:`bmchange.cusum`.
"""
from __future__ import annotations

import numpy as np

from .distributions import DataError, as_sample
from .cusum import (BatchResult, Reason, TestResult, _raise_if_error, batch_cell, fail_rows, failed_batch,
                    finite_rows, split_max, studentize, unit_rows)

# Unused here, but bench/spans.py wraps this name in this module.
from .distributions import kolmogorov_cdf  # noqa: F401

BASELINES = ("mean", "variance")


def _batch(values: np.ndarray, reason: np.ndarray, r: int, name: str) -> BatchResult:
    """One baseline over every row of an (R, n) array whose rows so far fail
    for ``reason``.  The variance test is the mean test applied to squared
    deviations from each row's mean."""
    if r < 1:
        raise DataError("trim r must be at least 1")
    rows, n = values.shape
    reason = reason.copy()
    if n < 2 * r:
        fail_rows(reason, True, Reason.SHORT)
        return failed_batch(reason)
    values, exponent = unit_rows(values)
    if name == "variance":
        values = (values - values.mean(axis=1, keepdims=True)) ** 2
        exponent = 2 * exponent
    var = np.var(values, axis=1)  # 1/n normalization, matching the plug-in covariances
    ks = np.arange(r, n - r + 1)
    csum = np.cumsum(values, axis=1)
    left_mean = csum[:, ks - 1] / ks
    right_mean = (csum[:, -1:] - csum[:, ks - 1]) / (n - ks)
    fail_rows(reason, ~(var > 0.0), Reason.ZERO_VARIANCE)
    sd = np.sqrt(np.where(reason == Reason.OK, var, 1.0))
    return studentize(split_max(left_mean, right_mean, ks, n), sd, ks, exponent, reason)


def run_baselines(samples, r: int = 10) -> list[BatchResult]:
    """The mean and the variance test, in ``BASELINES`` order, over the rows
    of an (R, n) array: one BatchResult each."""
    values, reason = finite_rows(samples)
    return [_batch(values, reason, r, name) for name in BASELINES]


def _one(sample, r: int, name: str) -> TestResult:
    values = as_sample(sample)
    batch = _batch(values[None], np.zeros(1, np.int8), r, name)
    return _raise_if_error(batch_cell(batch, 0, values.size, name=name, r=r))


def mean_cusum(sample, r: int = 10) -> TestResult:
    """CUSUM test for a change in expectation, studentized by the sample s.d."""
    return _one(sample, r, "mean")


def variance_cusum(sample, r: int = 10) -> TestResult:
    """CUSUM test for a change in variance: the mean test applied to squared
    deviations from the full-sample mean."""
    return _one(sample, r, "variance")
