import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bmchange.distributions import DataError, GevParams, gev_quantile
from bmchange.moments import (
    GPWM,
    PWM,
    Estimator,
    MomentTriple,
    b_hat,
    beta_hat,
    ecdf,
    exact_pwm_gev,
    in_dh,
    in_dh_rows,
    in_dxi,
    in_dxi_rows,
    prefix_suffix_moments,
    gpwm_solver_target,
    shape_ratio_target,
)

# well-separated values: with ties (or near-ties at float resolution) the
# order-statistics estimator can land exactly on the feasibility boundary
samples = st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=40, unique=True).map(
    lambda ls: [v / 1000.0 for v in ls]
)


def test_beta_hat_frozen_example():
    # {1,2,3} with gamma=-0.35: positions (0.65/3, 1.65/3, 2.65/3)
    m = beta_hat([1.0, 2.0, 3.0])
    assert m.m1 == pytest.approx(2.0, abs=1e-12)
    assert m.m2 == pytest.approx(11.9 / 9.0, abs=1e-12)
    assert m.m3 == pytest.approx((0.65**2 + 2 * 1.65**2 + 3 * 2.65**2) / 27.0, abs=1e-12)


def test_b_hat_frozen_example():
    m = b_hat([3.0, 1.0, 2.0])  # order must not matter
    assert m.m1 == pytest.approx(2.0)
    assert m.m2 == pytest.approx(8.0 / 6.0)
    assert m.m3 == pytest.approx(1.0)


def test_b_hat_needs_three():
    with pytest.raises(DataError):
        b_hat([1.0, 2.0])


def test_ecdf_modified():
    assert ecdf([1.0, 2.0, 3.0], 2.0, -0.35) == pytest.approx((2 - 0.35) / 3)
    assert ecdf([1.0, 2.0, 3.0], 0.0, 0.0) == 0.0


def test_beta_hat_gpwm_rejects_nonpositive_positions():
    with pytest.raises(DataError):
        beta_hat([1.0, 2.0, 3.0], GPWM, gamma=-1.0)


@given(samples, st.floats(0.1, 5), st.floats(-10, 10))
@settings(max_examples=60)
def test_b_hat_affine_equivariance(xs, a, c):
    base = b_hat(xs)
    shifted = b_hat([a * x + c for x in xs])
    assert shifted.m1 == pytest.approx(a * base.m1 + c, rel=1e-9, abs=1e-9)
    assert shifted.m2 == pytest.approx(a * base.m2 + c / 2, rel=1e-9, abs=1e-9)
    assert shifted.m3 == pytest.approx(a * base.m3 + c / 3, rel=1e-9, abs=1e-9)


@given(samples)
@settings(max_examples=100)
def test_b_hat_always_feasible(xs):
    assert in_dxi(b_hat(xs))


def test_exact_pwm_gev_against_quadrature():
    # beta_i = int_0^1 Q(u) u^(i-1) du
    for p in (GevParams(0, 1, 0.0), GevParams(1, 2, 0.3), GevParams(-1, 0.5, -0.4)):
        m = exact_pwm_gev(p)
        for i, got in enumerate((m.m1, m.m2, m.m3), start=1):
            want, _ = quad(lambda u: gev_quantile(u, p) * u ** (i - 1), 0, 1)
            assert got == pytest.approx(want, abs=1e-8)


def test_exact_pwm_gev_rejects_heavy_tail():
    with pytest.raises(DataError):
        exact_pwm_gev(GevParams(0, 1, 1.0))


def test_exact_moments_are_feasible():
    for xi in (-0.9, -0.4, 0.0, 0.4, 0.9):
        assert in_dxi(exact_pwm_gev(GevParams(0, 1, xi)))


def test_shape_targets():
    m = exact_pwm_gev(GevParams(0, 1, 0.0))
    assert shape_ratio_target(m) == pytest.approx(np.log(3) / np.log(2), abs=1e-10)
    assert gpwm_solver_target(MomentTriple(1.0, 0.5, 0.2)) == pytest.approx(
        2 * 0.5 / (1 - 0.45)
    )


def test_in_dh_examples():
    # population log-weight moments of a Gumbel sample are solvable
    rng = np.random.default_rng(0)
    x = gev_quantile(rng.random(5000), GevParams(0, 1, 0.0))
    m = beta_hat(x, GPWM, gamma=0.0)
    assert in_dh(m)
    assert not in_dh(MomentTriple(1.0, 2.0, 0.0))  # m1 - m2 <= 0


def test_row_predicates_match_scalar(rng):
    rows = []
    for _ in range(50):
        x = rng.normal(size=20)
        mp = beta_hat(x, PWM, -0.35)
        mg = beta_hat(np.abs(x) + 0.1, GPWM, 0.0)
        rows.append(([mp.m1, mp.m2, mp.m3], [mg.m1, mg.m2, mg.m3]))
    pwm_rows = np.array([r[0] for r in rows])
    gpwm_rows = np.array([r[1] for r in rows])
    np.testing.assert_array_equal(in_dxi_rows(pwm_rows), [in_dxi(r) for r in pwm_rows])
    np.testing.assert_array_equal(in_dh_rows(gpwm_rows), [in_dh(r) for r in gpwm_rows])


def _naive_engine(values, estimator, family, gamma):
    n = values.size
    pre = np.full((n + 1, 3), np.nan)
    suf = np.full((n + 1, 3), np.nan)
    min_size = 3 if estimator is Estimator.B_HAT else 1
    for k in range(n + 1):
        if k >= min_size:
            t = b_hat(values[:k]) if estimator is Estimator.B_HAT else beta_hat(values[:k], family, gamma)
            pre[k] = [t.m1, t.m2, t.m3]
        if n - k >= min_size:
            t = b_hat(values[k:]) if estimator is Estimator.B_HAT else beta_hat(values[k:], family, gamma)
            suf[k] = [t.m1, t.m2, t.m3]
    return pre, suf


@pytest.mark.parametrize(
    "estimator,family,gamma",
    [
        (Estimator.B_HAT, PWM, -0.35),
        (Estimator.BETA_HAT, PWM, -0.35),
        (Estimator.BETA_HAT, GPWM, 0.0),
    ],
)
def test_prefix_suffix_against_naive(rng, estimator, family, gamma):
    values = rng.gumbel(size=60)
    pre, pre_ok, suf, suf_ok = prefix_suffix_moments(values, estimator, family, gamma)
    naive_pre, naive_suf = _naive_engine(values, estimator, family, gamma)
    min_size = 3 if estimator is Estimator.B_HAT else 1
    for k in range(61):
        if k >= min_size:
            assert pre_ok[k]
            np.testing.assert_allclose(pre[k], naive_pre[k], atol=1e-12, rtol=1e-12)
        else:
            assert not pre_ok[k]
        if 60 - k >= min_size:
            assert suf_ok[k]
            np.testing.assert_allclose(suf[k], naive_suf[k], atol=1e-12, rtol=1e-12)
        else:
            assert not suf_ok[k]


def test_prefix_suffix_reversal_symmetry(rng):
    values = rng.normal(size=30)
    pre, _, _, _ = prefix_suffix_moments(values, Estimator.B_HAT, PWM, -0.35)
    _, _, suf_r, _ = prefix_suffix_moments(values[::-1], Estimator.B_HAT, PWM, -0.35)
    # prefix of length k equals the suffix of the reversed sample past n-k
    for k in range(3, 31):
        np.testing.assert_allclose(pre[k], suf_r[30 - k], atol=1e-12)


def test_prefix_suffix_rejects_bhat_gpwm():
    with pytest.raises(DataError):
        prefix_suffix_moments([1.0, 2.0, 3.0], Estimator.B_HAT, GPWM, 0.0)


# batches of equally long samples on a coarse grid, so that ties are common
tied_batches = st.integers(6, 30).flatmap(
    lambda n: st.sampled_from([1, 3, 7]).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=rows, max_size=rows
        )
    )
).map(lambda rows: np.array(rows, dtype=float) / 4.0)


@given(tied_batches)
@settings(max_examples=40, deadline=None)
def test_prefix_suffix_rows_against_naive(batch):
    rows, n = batch.shape
    for estimator, family, gamma in (
        (Estimator.B_HAT, PWM, -0.35),
        (Estimator.BETA_HAT, PWM, -0.35),
        (Estimator.BETA_HAT, GPWM, 0.0),
    ):
        pre, pre_ok, suf, suf_ok = prefix_suffix_moments(batch, estimator, family, gamma)
        assert pre.shape == suf.shape == (rows, n + 1, 3)
        min_size = 3 if estimator is Estimator.B_HAT else 1
        np.testing.assert_array_equal(pre_ok, np.arange(n + 1) >= min_size)
        np.testing.assert_array_equal(suf_ok, n - np.arange(n + 1) >= min_size)
        for row in range(rows):
            naive_pre, naive_suf = _naive_engine(batch[row], estimator, family, gamma)
            np.testing.assert_allclose(pre[row][pre_ok], naive_pre[pre_ok], atol=1e-12, rtol=1e-12)
            np.testing.assert_allclose(suf[row][suf_ok], naive_suf[suf_ok], atol=1e-12, rtol=1e-12)
