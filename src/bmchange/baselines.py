"""Classical studentized CUSUM tests for changes in mean and variance.

These serve as comparison columns next to the moment-based tests; they share
the split maximum and the Kolmogorov p-value of :mod:`bmchange.cusum`.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import DataError, as_sample
from .cusum import TestResult, _raise_if_error, finite_rows, split_max, studentize

# Unused here, but bench/spans.py wraps this name in this module.
from .distributions import kolmogorov_cdf  # noqa: F401

BASELINES = ("mean", "variance")


def _cells(values: np.ndarray, r: int, name: str) -> list:
    """One baseline over every row of an (R, n) array: a TestResult or the
    row's DataError.  The variance test is the mean test applied to squared
    deviations from each row's mean."""
    if r < 1:
        raise DataError("trim r must be at least 1")
    rows, n = values.shape
    if n < 2 * r:
        return [DataError(f"need n >= 2r = {2 * r} observations")] * rows
    if name == "variance":
        values = (values - values.mean(axis=1, keepdims=True)) ** 2
    var = np.var(values, axis=1)  # 1/n normalization, matching the plug-in covariances
    ks = np.arange(r, n - r + 1)
    csum = np.cumsum(values, axis=1)
    left_mean = csum[:, ks - 1] / ks
    right_mean = (csum[:, -1:] - csum[:, ks - 1]) / (n - ks)
    sds = [math.sqrt(v) if v > 0.0 else DataError("degenerate sample: zero variance") for v in var.tolist()]
    return studentize(split_max(left_mean, right_mean, ks, n), sds, ks, n, name)


def run_baselines(samples, r: int = 10) -> list[list]:
    """Per row of an (R, n) array, ``[mean, variance]``: each the TestResult
    or the DataError that the test raises on that row alone."""
    values, bad = finite_rows(samples)
    cells = [_cells(values, r, name) for name in BASELINES]
    return [[b or c for c in row] for b, row in zip(bad, zip(*cells))]


def mean_cusum(sample, r: int = 10) -> TestResult:
    """CUSUM test for a change in expectation, studentized by the sample s.d."""
    return _raise_if_error(_cells(as_sample(sample)[None], r, "mean")[0])


def variance_cusum(sample, r: int = 10) -> TestResult:
    """CUSUM test for a change in variance: the mean test applied to squared
    deviations from the full-sample mean."""
    return _raise_if_error(_cells(as_sample(sample)[None], r, "variance")[0])
