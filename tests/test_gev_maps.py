import math

import numpy as np
import pytest
from scipy.integrate import quad

from bmchange.distributions import DataError, FeasibilityError, GevParams, gev_quantile
from bmchange.gev_maps import (
    GevMapKind,
    SolveFailure,
    approx_map_rows,
    gpwm_to_gev_approx,
    gpwm_to_gev_exact,
    jacobian,
    map_triple,
    pwm_to_gev_approx,
    pwm_to_gev_exact,
)
from bmchange.moments import GPWM, MomentTriple, exact_pwm_gev

EULER_GAMMA = 0.57721566490153286061


def exact_gpwm_gev(p: GevParams) -> MomentTriple:
    """Population log-weight moments by quadrature (oracle)."""
    out = []
    for j in range(3):
        nu = lambda u: GPWM.nu_matrix(np.array([u]))[0, j]
        val, _ = quad(lambda u: gev_quantile(u, p) * nu(u), 0, 1)
        out.append(val)
    return MomentTriple(*out, family=GPWM)


def test_pwm_exact_roundtrip():
    shapes = (1e-9, -1e-9, -0.9, 0.95)  # Gumbel branch, both bracket ends
    for p in (GevParams(0, 1, 0.3), GevParams(2, 0.5, -0.6), GevParams(-3, 4, 0.9), *(GevParams(1, 2, x) for x in shapes)):
        got = pwm_to_gev_exact(exact_pwm_gev(p))
        assert got.mu == pytest.approx(p.mu, abs=1e-8)
        assert got.sigma == pytest.approx(p.sigma, abs=1e-8)
        assert got.xi == pytest.approx(p.xi, abs=1e-8)


def test_gpwm_exact_roundtrip():
    shapes = (1e-9, -1e-9, -0.9, 1.9)  # Gumbel branch, both bracket ends
    for p in (GevParams(0, 1, 0.0), GevParams(1, 2, 0.5), GevParams(-1, 0.5, -0.4), GevParams(0, 1, 1.5), *(GevParams(1, 2, x) for x in shapes)):
        got = gpwm_to_gev_exact(exact_gpwm_gev(p))
        assert got.mu == pytest.approx(p.mu, abs=1e-6)
        assert got.sigma == pytest.approx(p.sigma, abs=1e-6)
        assert got.xi == pytest.approx(p.xi, abs=1e-6)


def test_gumbel_round_trip_both_maps():
    m = MomentTriple(
        EULER_GAMMA, (EULER_GAMMA + math.log(2)) / 2, (EULER_GAMMA + math.log(3)) / 3
    )
    e = pwm_to_gev_exact(m)
    assert abs(e.mu) < 1e-8 and abs(e.sigma - 1) < 1e-8 and abs(e.xi) < 1e-8
    a = pwm_to_gev_approx(m)
    assert a.xi == 0.0
    assert abs(a.mu) < 1e-10 and abs(a.sigma - 1) < 1e-10


def test_pwm_approx_close_to_exact():
    for xi in (-0.5, -0.2, 0.0, 0.2, 0.5):
        m = exact_pwm_gev(GevParams(0, 1, xi))
        a, e = pwm_to_gev_approx(m), pwm_to_gev_exact(m)
        assert a.xi == pytest.approx(e.xi, abs=5e-3)
        assert a.sigma == pytest.approx(e.sigma, rel=0.02)
        assert a.mu == pytest.approx(e.mu, abs=0.02)


def test_gpwm_approx_close_to_exact():
    for xi in (-0.5, 0.0, 0.5, 1.0):
        m = exact_gpwm_gev(GevParams(0, 1, xi))
        a, e = gpwm_to_gev_approx(m), gpwm_to_gev_exact(m)
        assert a.xi == pytest.approx(e.xi, abs=2e-2)
        assert a.sigma == pytest.approx(e.sigma, rel=0.05)
        assert a.mu == pytest.approx(e.mu, abs=0.05)


def test_infeasible_triple_rejected():
    bad = MomentTriple(1.0, 0.4, 0.2)  # 2 m2 - m1 < 0
    with pytest.raises(FeasibilityError):
        pwm_to_gev_exact(bad)
    with pytest.raises(FeasibilityError):
        pwm_to_gev_approx(bad)
    with pytest.raises(SolveFailure):
        gpwm_to_gev_exact(MomentTriple(1.0, 2.0, 0.0))


def population_gpwm_moments(p: GevParams) -> np.ndarray:
    """Closed-form log-weight moments of a GEV (inverse of the exact map)."""
    from bmchange.gev_maps import _u, _z
    from bmchange.moments import _gpwm_q

    u, z, q = float(_u(p.xi)), float(_z(p.xi)), _gpwm_q(p.xi)
    m1 = (p.mu - p.sigma * z) / 4.0
    m2 = m1 - p.sigma / u
    m3 = (m1 - 2.0 * p.sigma / (u * q)) / 2.25
    return np.array([m1, m2, m3])


def _random_feasible_triples(n, which, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p = GevParams(rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(-0.8, 0.8))
        if which == "pwm":
            out.append(exact_pwm_gev(p).as_array())
        else:
            out.append(population_gpwm_moments(p))
    return out


def test_population_gpwm_moments_consistent():
    # the synthetic feasible points must invert back through the exact solver
    p = GevParams(0.7, 1.3, -0.35)
    got = gpwm_to_gev_exact(population_gpwm_moments(p))
    assert got.mu == pytest.approx(p.mu, abs=1e-9)
    assert got.sigma == pytest.approx(p.sigma, abs=1e-9)
    assert got.xi == pytest.approx(p.xi, abs=1e-9)


@pytest.mark.parametrize("kind,which", [(GevMapKind.PWM_APPROX, "pwm"), (GevMapKind.GPWM_APPROX, "gpwm")])
def test_jacobian_matches_finite_differences(kind, which):
    # per-coordinate relative step: small enough that truncation error stays
    # below the comparison tolerance even near the domain boundary
    for arr in _random_feasible_triples(30, which):
        for comp in ("mu", "sigma", "xi"):
            grad = jacobian(kind, comp, arr)
            for j in range(3):
                h = 1e-7 * max(abs(arr[j]), 1.0)
                lo, hi = arr.copy(), arr.copy()
                lo[j] -= h
                hi[j] += h
                fd = (
                    getattr(map_triple(kind, hi), comp) - getattr(map_triple(kind, lo), comp)
                ) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-4


def test_jacobian_rejects_exact_kinds():
    m = exact_pwm_gev(GevParams(0, 1, 0.1))
    with pytest.raises(DataError):
        jacobian(GevMapKind.PWM_EXACT, "mu", m)
    with pytest.raises(DataError):
        jacobian(GevMapKind.PWM_APPROX, "nu", m)


def test_approx_map_rows_matches_scalar_and_masks():
    good = exact_pwm_gev(GevParams(0, 1, 0.2)).as_array()
    bad = np.array([1.0, 0.4, 0.2])
    rows = np.vstack([good, bad])
    out, jac = approx_map_rows("pwm", rows, grad=True)
    for col, target in enumerate(("mu", "sigma", "xi")):
        assert out[0, col] == pytest.approx(getattr(pwm_to_gev_approx(good), target), rel=1e-12)
        assert np.isnan(out[1, col])
        np.testing.assert_array_equal(jac[0, col], jacobian(GevMapKind.PWM_APPROX, target, good))


def test_map_triple_dispatch():
    m = exact_pwm_gev(GevParams(0, 1, 0.1))
    assert map_triple(GevMapKind.PWM_EXACT, m).xi == pytest.approx(0.1, abs=1e-8)
    assert map_triple(GevMapKind.PWM_APPROX, m).xi == pytest.approx(0.1, abs=5e-3)
