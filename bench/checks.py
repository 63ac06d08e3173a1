"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into the package under test: the moment estimators, the
closed-form GEV maps and the per-split CUSUM statistic are written out again
from their definitions, in the plainest form (sort each side of every
split).  They are slow on purpose and run outside the timed region.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kolmogorov

EULER = 0.57721566490153286061
LOG2, LOG3, LOG32 = math.log(2.0), math.log(3.0), math.log(1.5)
XI_ZERO = 1e-8  # below this |xi| the approximate maps return the Gumbel limit

# family -> (estimator, gamma): the unbiased order-statistics moments, or
# plotting-position moments with the classical or the logarithmic weights
FAMILIES = {"pwm-t": ("b", -0.35), "pwm-s": ("pwm", -0.35), "gpwm": ("gpwm", 0.0)}
TARGETS = ("mu", "sigma", "xi")


def weights(size: int, family: str) -> np.ndarray:
    """(size, 3) weights on the sorted sample, already divided by the size."""
    kind, gamma = FAMILIES[family]
    j = np.arange(1.0, size + 1.0)
    if kind == "b":
        w = np.stack([np.ones(size), (j - 1) / (size - 1), (j - 1) * (j - 2) / ((size - 1) * (size - 2))], 1)
    else:
        u = (j + gamma) / size
        if kind == "pwm":
            w = np.stack([np.ones(size), u, u * u], 1)
        else:
            lu = np.log(u)
            w = np.stack([-u * lu, u * lu * lu, -u * u * lu], 1)
    return w / size


def moments(sorted_x: np.ndarray, family: str) -> np.ndarray:
    return sorted_x @ weights(sorted_x.size, family)


def _q(xi: float) -> float:
    return -1.0 / LOG32 if xi == 0.0 else -xi / math.expm1(xi * LOG32)


Q_LO, Q_HI = _q(-5.0), _q(2.0 - 1e-6)  # image of the log-weight shape bracket


def approx_params(m: np.ndarray, family: str):
    """Closed-form GEV (mu, sigma, xi) per row of an (k, 3) moment array, plus
    the rows on which the family's map and feasibility indicator accept."""
    m = np.atleast_2d(m)
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    with np.errstate(all="ignore"):
        if family == "gpwm":
            x = 2.0 * (m1 - m2) / (m1 - 2.25 * m3)
            ok = (x < 0) & (m1 - m2 > 0) & (x > Q_LO) & (x < Q_HI)
            xi = (1.442853 - np.power(-x, 0.4054651)) / 0.1183375
        else:
            ok = (2 * m2 - m1 > 0) & (3 * m3 - 2 * m2 > 0) & (-m1 + 4 * m2 - 3 * m3 > 0)
            x = (2 * m2 - m1) / (3 * m3 - m1) - LOG2 / LOG3
            xi = -7.8590 * x - 2.9554 * x * x
        xi = np.where(np.abs(xi) < XI_ZERO, 0.0, xi)
        nz = np.where(xi == 0.0, 0.5, xi)
        if family == "gpwm":
            sigma = (m1 - m2) * np.power(2.0, 3.0 - xi) / gamma_fn(2.0 - xi)
            shift = np.where(xi == 0.0, 1.0 - EULER - LOG2, (1.0 - np.power(2.0, nz) * gamma_fn(2.0 - nz)) / nz)
            mu = 4.0 * m1 + sigma * shift
        else:
            scale = np.where(xi == 0.0, 1.0 / LOG2, nz / (gamma_fn(1.0 - nz) * np.expm1(nz * LOG2)))
            sigma = (2 * m2 - m1) * scale
            mu = m1 + sigma * np.where(xi == 0.0, -EULER, (1.0 - gamma_fn(1.0 - nz)) / nz)
    return {"mu": mu, "sigma": sigma, "xi": xi}, ok


def naive_cusum(x: np.ndarray, family: str, r: int = 10) -> dict:
    """Per-split CUSUM statistic and its argmax for each target, after
    subtracting the full-sample location estimate (the ``test`` default)."""
    n = x.size
    params, ok = approx_params(moments(np.sort(x), family), family)
    if not ok[0]:
        raise ValueError("full-sample moments outside the map domain")
    d = x - params["mu"][0]
    ks = np.arange(r, n - r + 1)
    left = np.empty((ks.size, 3))
    right = np.empty((ks.size, 3))
    for i, k in enumerate(ks):
        left[i] = moments(np.sort(d[:k]), family)
        right[i] = moments(np.sort(d[k:]), family)
    lp, lok = approx_params(left, family)
    rp, rok = approx_params(right, family)
    out = {}
    for t in TARGETS:
        with np.errstate(invalid="ignore"):
            diff = np.abs(lp[t] - rp[t])
        valid = lok & rok & np.isfinite(diff)
        vals = np.where(valid, ks * (n - ks) / n**1.5 * diff, -np.inf)
        i = int(np.argmax(vals))
        out[t] = (float(vals[i]), int(ks[i]))
    return out


def check_test_report(report: dict, family: str, problems: list, label: str) -> None:
    """Every p-value equals the Kolmogorov survival function at stat/sigma_hat."""
    for t in report["tests"]:
        p_ref = float(kolmogorov(t["statistic"] / t["sigma_hat"]))
        if not (0.0 <= t["p_value"] <= 1.0 and abs(t["p_value"] - p_ref) <= 1e-9):
            problems.append(f"{label} {family}:{t['target']}: p {t['p_value']!r} vs kolmogorov {p_ref!r}")


def check_against_naive(report: dict, x: np.ndarray, family: str, problems: list, label: str) -> None:
    ref = naive_cusum(x, family, r=report["config"]["r"])
    for t in report["tests"]:
        stat, k = ref[t["target"]]
        if abs(t["statistic"] - stat) > 1e-8 * abs(stat) or t["argmax_k"] != k:
            problems.append(
                f"{label} {family}:{t['target']}: statistic {t['statistic']!r} k*={t['argmax_k']} "
                f"vs naive {stat!r} k*={k}"
            )


def binomial_z(hits: int, reps: int, ref_pct: float, ref_reps: int = 1000) -> float:
    """Two-sample z score of a simulated rejection rate against a published
    one, both binomial; the pooled rate is kept off 0 and 1."""
    pooled = (hits + ref_pct / 100.0 * ref_reps + 0.5) / (reps + ref_reps + 1.0)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / reps + 1.0 / ref_reps))
    return abs(hits / reps - ref_pct / 100.0) / se


def detie_reach(x: np.ndarray, d: float) -> dict:
    """Range of the full-sample pwm-t estimates that U(0, d) jitter can reach.

    Every order statistic of the jittered copy lies in [x_(j), x_(j) + d], and
    the unbiased weights are nonnegative with means (1, 1/2, 1/3), so the
    moments stay in the box [m, m + d (1, 1/2, 1/3)].  Each estimate is
    bounded over the box by its linearisation at the centre (finite-difference
    gradient), widened by a quarter for curvature.
    """
    m = moments(np.sort(x), "pwm-t")
    half = 0.5 * d * np.array([1.0, 0.5, 1.0 / 3.0])
    centre = m + half
    f0, _ = approx_params(centre, "pwm-t")
    out = {}
    for t in TARGETS:
        width = 0.0
        for i in range(3):
            h = 1e-6 * max(abs(centre[i]), 1.0)
            hi, lo = centre.copy(), centre.copy()
            hi[i] += h
            lo[i] -= h
            g = (approx_params(hi, "pwm-t")[0][t][0] - approx_params(lo, "pwm-t")[0][t][0]) / (2 * h)
            width += abs(g) * half[i]
        slack = 0.25 * width + 1e-12 * max(abs(f0[t][0]), 1.0)
        out[t] = (f0[t][0] - width - slack, f0[t][0] + width + slack)
    return out
