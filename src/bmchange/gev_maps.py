"""Maps from moment triples to GEV parameters.

For each weight family there are two routes: an exact numeric solve of the
moment system by a bracketed root search on the shape equation, and the
classical closed-form approximations.  Both routes share the scale and
location step that follows the shape.  The approximations are written once,
row-wise, with an optional closed-form Jacobian that feeds the
asymptotic-variance estimator of the tests; the scalar maps and
:func:`jacobian` wrap the row form.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma as sp_gamma
from scipy.special import psi as sp_psi

from .distributions import EULER_GAMMA, XI_ZERO_TOL, DataError, FeasibilityError, GevParams
from .moments import (
    GPWM_SHAPE_HI,
    LOG2,
    LOG3,
    PWM_SHAPE_HI,
    SHAPE_BRACKET_LO,
    _as_triple_array,
    _gpwm_q,
    gpwm_ratio_rows,
    in_dxi,
    in_dxi_rows,
    shape_ratio_target,
)

ZETA2 = math.pi * math.pi / 6.0

# Column order of the parameter rows returned by approx_map_rows.
PARAMS = ("mu", "sigma", "xi")

# xi below which the Gumbel-limit series branches of the derivatives of the
# scale/location helpers are used (the helpers themselves use XI_ZERO_TOL).
_DXI_SMALL = 1e-5

# Constants of the log-weight shape approximation.
_HF_C1 = 1.442853
_HF_EXP = 0.4054651
_HF_C0 = 0.1183375


class GevMapKind(enum.Enum):
    PWM_EXACT = "pwm_exact"
    PWM_APPROX = "pwm_approx"
    GPWM_EXACT = "gpwm_exact"
    GPWM_APPROX = "gpwm_approx"


class SolveFailure(FeasibilityError):
    """The shape equation has no root inside the search bracket."""


def _solve_shape(fn, hi: float, target: float) -> float:
    """Root of fn(xi) = target on [SHAPE_BRACKET_LO, hi]."""
    # Imported here: scipy.optimize adds about 0.26 s and 23 MB to the start
    # of every process, and only the exact maps need it.
    from scipy.optimize import brentq

    try:
        return brentq(lambda xi: fn(xi) - target, SHAPE_BRACKET_LO, hi, xtol=1e-12)
    except ValueError:  # no sign change over the bracket, or a NaN value
        raise SolveFailure("shape equation has no root in the search bracket") from None


# --- shape equation and scale/location factors -----------------------------


def _pwm_shape_ratio(xi: float) -> float:
    """(3^xi - 1)/(2^xi - 1), extended by continuity at 0."""
    if abs(xi) < 1e-12:
        return LOG3 / LOG2
    return math.expm1(xi * LOG3) / math.expm1(xi * LOG2)


def _gumbel_limit(tol: float, limit: float):
    """Decorate a function of xi with a removable singularity at 0: below
    ``tol`` in absolute value it gives ``limit``, and the function is
    evaluated at 0.5 there instead of near 0."""

    def decorate(fn):
        @functools.wraps(fn)
        def at(xi):
            small = np.abs(xi) < tol
            return np.where(small, limit, fn(np.where(small, 0.5, xi)))

        return at

    return decorate


@_gumbel_limit(XI_ZERO_TOL, 1.0 / LOG2)
def _w(xi):
    """Scale factor xi / (Gamma(1-xi) (2^xi - 1)); w(0) = 1/log 2."""
    return xi / (sp_gamma(1.0 - xi) * np.expm1(xi * LOG2))


@_gumbel_limit(XI_ZERO_TOL, -EULER_GAMMA)
def _v(xi):
    """Location shift (1 - Gamma(1-xi))/xi; v(0) = -EulerGamma."""
    return (1.0 - sp_gamma(1.0 - xi)) / xi


def _u(xi):
    """2^(3-xi)/Gamma(2-xi), the log-weight scale factor (no singularity)."""
    return np.power(2.0, 3.0 - xi) / sp_gamma(2.0 - xi)


@_gumbel_limit(XI_ZERO_TOL, 1.0 - EULER_GAMMA - LOG2)
def _z(xi):
    """(1 - 2^xi Gamma(2-xi))/xi; z(0) = 1 - EulerGamma - log 2."""
    return (1.0 - np.power(2.0, xi) * sp_gamma(2.0 - xi)) / xi


@_gumbel_limit(_DXI_SMALL, -(EULER_GAMMA + LOG2 / 2.0) / LOG2)
def _w_prime(xi):
    e = np.expm1(xi * LOG2)
    gam = sp_gamma(1.0 - xi)
    d = gam * e
    dprime = gam * (-sp_psi(1.0 - xi) * e + np.power(2.0, xi) * LOG2)
    return (d - xi * dprime) / (d * d)


@_gumbel_limit(_DXI_SMALL, -(EULER_GAMMA**2 + ZETA2) / 2.0)
def _v_prime(xi):
    gam = sp_gamma(1.0 - xi)
    return (xi * gam * sp_psi(1.0 - xi) + gam - 1.0) / (xi * xi)


def _u_prime(xi):
    return _u(xi) * (-LOG2 + sp_psi(2.0 - xi))


@_gumbel_limit(_DXI_SMALL, -((LOG2 - 1.0 + EULER_GAMMA) ** 2 + ZETA2 - 1.0) / 2.0)
def _z_prime(xi):
    g = np.power(2.0, xi) * sp_gamma(2.0 - xi)
    gprime = g * (LOG2 - sp_psi(2.0 - xi))
    return (g - 1.0 - xi * gprime) / (xi * xi)


# --- approximations ---------------------------------------------------------


def _pwm_shape(m, grad):
    m1, m2, m3 = m.T
    a, b = 2 * m2 - m1, 3 * m3 - m1
    x = a / b - LOG2 / LOG3
    xi = -7.8590 * x - 2.9554 * x * x
    if not grad:
        return in_dxi_rows(m), xi, None
    dx = np.array([(a - b) / (b * b), 2.0 / b, -3.0 * a / (b * b)]).T
    return in_dxi_rows(m), xi, (-7.8590 - 2.0 * 2.9554 * x)[:, None] * dx


def _gpwm_shape(m, grad):
    p, q, x = gpwm_ratio_rows(m)
    xi = (_HF_C1 - np.power(-x, _HF_EXP)) / _HF_C0
    ok = (q != 0.0) & (x < 0.0)
    if not grad:
        return ok, xi, None
    dx = np.array([(2.0 * q - p) / (q * q), -2.0 / q, 2.25 * p / (q * q)]).T
    return ok, xi, (_HF_EXP * np.power(-x, _HF_EXP - 1.0) / _HF_C0)[:, None] * dx


@dataclass(frozen=True)
class _MapForm:
    """What tells the two approximate maps apart.

    ``shape(m, grad)`` gives the domain mask, the shape and (with ``grad``)
    its gradient.  Given the shape, sigma = (m @ scale) * factor(xi) and
    mu = m @ location + sigma * shift(xi); the exact solves share this step.
    """

    shape: Callable
    scale: np.ndarray
    location: np.ndarray
    factor: Callable
    factor_prime: Callable
    shift: Callable
    shift_prime: Callable


_PWM = _MapForm(
    _pwm_shape, np.array([-1.0, 2.0, 0.0]), np.array([1.0, 0.0, 0.0]), _w, _w_prime, _v, _v_prime
)
_GPWM = _MapForm(
    _gpwm_shape, np.array([1.0, -1.0, 0.0]), np.array([4.0, 0.0, 0.0]), _u, _u_prime, _z, _z_prime
)
_FORMS = {"pwm": _PWM, "gpwm": _GPWM}
_APPROX_TAGS = {GevMapKind.PWM_APPROX: "pwm", GevMapKind.GPWM_APPROX: "gpwm"}


def _scale_location(form: _MapForm, m: np.ndarray, xi: np.ndarray, dxi=None):
    """Rows (mu, sigma, xi) given the shape column; with the shape gradient
    ``dxi`` also the (n, 3, 3) Jacobian d(mu, sigma, xi)/d(m1, m2, m3)."""
    num, factor, shift = np.vecdot(m, form.scale), form.factor(xi), form.shift(xi)
    sigma = num * factor
    params = np.array([np.vecdot(m, form.location) + sigma * shift, sigma, xi]).T
    if dxi is None:
        return params
    dsigma = factor[:, None] * form.scale + (num * form.factor_prime(xi))[:, None] * dxi
    dmu = form.location + shift[:, None] * dsigma + (sigma * form.shift_prime(xi))[:, None] * dxi
    return params, np.array([dmu, dsigma, dxi]).transpose(1, 0, 2)


def approx_map_rows(family_tag: str, m: np.ndarray, grad: bool = False):
    """Approximate map over the rows of an (n, 3) moment array.

    Returns the (n, 3) columns mu, sigma, xi (see ``PARAMS``) and, with
    ``grad``, also the (n, 3, 3) Jacobian.  Rows outside the map's domain
    come back as NaN; callers mask them.
    """
    form = _FORMS[family_tag]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ok, xi, dxi = form.shape(m, grad)
        # below the Gumbel-branch threshold the shape is indistinguishable
        # from 0, so use 0 exactly and keep (mu, sigma, 0) consistent
        xi = np.where(ok, np.where(np.abs(xi) < XI_ZERO_TOL, 0.0, xi), np.nan)
        return _scale_location(form, m, xi, dxi)


def _domain_error(family_tag: str, m) -> FeasibilityError:
    return FeasibilityError(
        f"moment triple {tuple(np.asarray(m, dtype=float).tolist())} outside the domain of the {family_tag} approximation"
    )


def _approx_one(family_tag: str, m, grad: bool = False):
    """:func:`approx_map_rows` on one triple; FeasibilityError off the domain."""
    arr = _as_triple_array(m)
    out = approx_map_rows(family_tag, arr[None], grad)
    if np.isnan((out[0] if grad else out)[0, 2]):
        raise _domain_error(family_tag, arr)
    return out


def map_outcome(family_tag: str, m, row: np.ndarray):
    """What the scalar approximate map gives for triple ``m``, from its row
    ``row`` of :func:`approx_map_rows`: GevParams, or the error it raises."""
    if np.isnan(row[2]):
        return _domain_error(family_tag, m)
    try:
        return GevParams(*row.tolist())
    except ValueError as exc:
        return exc


def params_ok_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of :func:`approx_map_rows` that :func:`map_outcome` turns into
    GevParams: finite, with a positive scale."""
    return np.isfinite(rows).all(axis=1) & (rows[:, 1] > 0.0)


def pwm_to_gev_approx(m) -> GevParams:
    return GevParams(*_approx_one("pwm", m)[0].tolist())


def gpwm_to_gev_approx(m) -> GevParams:
    return GevParams(*_approx_one("gpwm", m)[0].tolist())


def jacobian(kind: GevMapKind, component: str, m) -> np.ndarray:
    """Closed-form gradient (d/dm1, d/dm2, d/dm3) of an approximate map."""
    if component not in PARAMS:
        raise DataError(f"unknown component {component!r}")
    if kind not in _APPROX_TAGS:
        raise DataError("gradients are defined for the approximate maps only")
    return _approx_one(_APPROX_TAGS[kind], m, grad=True)[1][0, PARAMS.index(component)]


# --- exact solves -----------------------------------------------------------


def pwm_to_gev_exact(m) -> GevParams:
    """Solve the classical moment system by a root search on the shape equation."""
    arr = _as_triple_array(m)
    if not in_dxi(arr):
        raise FeasibilityError(f"moment triple {tuple(arr.tolist())} outside the feasibility region")
    xi = _solve_shape(_pwm_shape_ratio, PWM_SHAPE_HI, shape_ratio_target(arr))
    return GevParams(*_scale_location(_PWM, arr[None], np.array([xi]))[0].tolist())


def gpwm_to_gev_exact(m) -> GevParams:
    """Solve the log-weight moment system; raises SolveFailure when the shape
    equation has no root in the bracket (that failure is what domain
    membership checks consume)."""
    arr = _as_triple_array(m)
    _, den, target = gpwm_ratio_rows(arr[None])
    if den[0] == 0.0:
        raise SolveFailure("degenerate shape-equation denominator")
    xi = _solve_shape(_gpwm_q, GPWM_SHAPE_HI, float(target[0]))
    mu, sigma, _ = _scale_location(_GPWM, arr[None], np.array([xi]))[0].tolist()
    if sigma <= 0.0:
        raise SolveFailure("scale equation gives a nonpositive scale")
    return GevParams(mu, sigma, xi)


def map_triple(kind: GevMapKind, m) -> GevParams:
    if kind is GevMapKind.PWM_EXACT:
        return pwm_to_gev_exact(m)
    if kind is GevMapKind.PWM_APPROX:
        return pwm_to_gev_approx(m)
    if kind is GevMapKind.GPWM_EXACT:
        return gpwm_to_gev_exact(m)
    return gpwm_to_gev_approx(m)
