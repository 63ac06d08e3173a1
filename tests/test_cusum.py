import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmchange.baselines import BASELINES, run_baselines
from bmchange.cusum import (
    Family,
    Reason,
    TestConfig,
    TestResult,
    batch_cell,
    family_suite,
    pseudo_observations,
    recenter,
    run_batch,
    run_suite,
    run_test,
    sigma_hat,
    statistic,
)
from bmchange.distributions import DataError, FeasibilityError, GevParams, sample_gev
from bmchange.gev_maps import GevMapKind, map_triple
from bmchange.moments import (
    GPWM,
    PWM,
    Estimator,
    b_hat,
    beta_hat,
    ecdf,
    in_dh,
    in_dxi,
    prefix_suffix_moments,
)


def _naive_statistic(values, config):
    """Per-split recomputation of the CUSUM statistic (normative oracle)."""
    n = values.size
    fam = config.family
    gamma = config.resolved_gamma()
    kind = GevMapKind.GPWM_APPROX if fam is Family.GPWM_S else GevMapKind.PWM_APPROX
    best, best_k, skipped = -np.inf, None, []
    for k in range(config.r, n - config.r + 1):
        try:
            if fam is Family.PWM_T:
                left, right = b_hat(values[:k]), b_hat(values[k:])
            else:
                wf = GPWM if fam is Family.GPWM_S else PWM
                left, right = beta_hat(values[:k], wf, gamma), beta_hat(values[k:], wf, gamma)
            if fam is Family.PWM_S and not (in_dxi(left) and in_dxi(right)):
                raise FeasibilityError
            if fam is Family.GPWM_S and not (in_dh(left) and in_dh(right)):
                raise FeasibilityError
            d = abs(
                getattr(map_triple(kind, left), config.target)
                - getattr(map_triple(kind, right), config.target)
            )
        except (DataError, FeasibilityError, ValueError):
            skipped.append(k)
            continue
        val = k * (n - k) / n**1.5 * d
        if val > best:
            best, best_k = val, k
    return best, best_k, tuple(skipped)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("target", ["mu", "sigma", "xi"])
def test_statistic_matches_naive(rng, family, target):
    x = sample_gev(80, GevParams(0, 1, 0.1), rng)
    cfg = TestConfig(family=family, target=target, recenter=False)
    got = statistic(x, cfg)
    want = _naive_statistic(x, cfg)
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
    assert got[1] == want[1]
    assert got[2] == want[2]


def _naive_pseudo(values, family, gamma):
    n = values.size
    y = np.empty((n, 3))
    F = np.array([ecdf(values, v, gamma) for v in values])
    nu = family.nu_matrix(F)
    nup = family.nu_prime_matrix(F)
    for i in range(n):
        tail = np.zeros(3)
        for m in range(n):
            if values[i] <= values[m]:
                tail += values[m] * nup[m]
        y[i] = values[i] * nu[i] + tail / n
    return y


@pytest.mark.parametrize("family,gamma", [(PWM, -0.35), (GPWM, 0.0)])
def test_pseudo_observations_match_naive(rng, family, gamma):
    x = np.abs(rng.normal(size=40)) + 0.1
    got = pseudo_observations(x, family, gamma)
    want = _naive_pseudo(x, family, gamma)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)


def test_run_suite_matches_run_test(rng):
    x = sample_gev(60, GevParams(0, 1, 0.0), rng)
    configs = family_suite(Family.PWM_T) + family_suite(Family.GPWM_S)
    suite = run_suite(x, configs)
    for cfg, res in zip(configs, suite):
        single = run_test(x, cfg)
        assert single.statistic == res.statistic
        assert single.p_value == res.p_value
        assert single.argmax_k == res.argmax_k


@pytest.mark.parametrize("family", list(Family))
def test_p_value_scale_invariant(rng, family):
    # studentization makes every test invariant under positive scaling
    x = sample_gev(60, GevParams(0, 1, 0.1), rng)
    for target in ("mu", "sigma", "xi"):
        cfg = TestConfig(family=family, target=target)
        base = run_test(x, cfg)
        moved = run_test(3.0 * x, cfg)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-6)
        assert moved.argmax_k == base.argmax_k


def test_p_value_shift_invariant_pwm_t(rng):
    # the order-statistics moments are exactly affine equivariant, so the
    # recentered pwm-t pipeline is also shift invariant; the
    # plotting-position families are only approximately so
    x = sample_gev(60, GevParams(0, 1, 0.1), rng)
    for target in ("mu", "sigma", "xi"):
        cfg = TestConfig(family=Family.PWM_T, target=target)
        base = run_test(x, cfg)
        moved = run_test(x + 7.0, cfg)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-6)


def test_recenter_subtracts_location(rng):
    x = sample_gev(50, GevParams(5, 2, 0.1), rng)
    cfg = TestConfig(family=Family.PWM_T, target="mu")
    y = recenter(x, cfg)
    loc = map_triple(GevMapKind.PWM_APPROX, b_hat(x)).mu
    np.testing.assert_allclose(y, x - loc)


def test_sigma_hat_positive_and_corrected(rng):
    x = sample_gev(100, GevParams(0, 1, 0.0), rng)
    plain = sigma_hat(x, TestConfig(family=Family.PWM_T, target="xi", variance_correction=1.0))
    corrected = sigma_hat(x, TestConfig(family=Family.PWM_T, target="xi"))
    assert plain > 0
    assert corrected == pytest.approx(plain * np.sqrt(120 / 100))


def test_resolved_corrections():
    cfg = TestConfig(family=Family.PWM_T, target="sigma")
    assert cfg.resolved_correction(100) == pytest.approx(1.1)
    cfg = TestConfig(family=Family.PWM_T, target="xi")
    assert cfg.resolved_correction(100) == pytest.approx(1.2)
    cfg = TestConfig(family=Family.GPWM_S, target="xi")
    assert cfg.resolved_correction(100) == 1.0
    cfg = TestConfig(family=Family.PWM_S, target="mu", variance_correction=2.0)
    assert cfg.resolved_correction(100) == 2.0


def test_resolved_gamma():
    assert TestConfig(family=Family.PWM_T, target="mu").resolved_gamma() == -0.35
    assert TestConfig(family=Family.GPWM_S, target="mu").resolved_gamma() == 0.0
    assert TestConfig(family=Family.GPWM_S, target="mu", gamma=0.1).resolved_gamma() == 0.1


def test_config_validation():
    with pytest.raises(DataError):
        TestConfig(target="scale")
    with pytest.raises(DataError):
        TestConfig(r=0)
    with pytest.raises(DataError):
        TestConfig(variance_correction=-1.0)


def test_config_rejects_gamma_the_log_weights_cannot_take():
    with pytest.raises(DataError, match="log-weight moments need strictly positive ecdf values"):
        TestConfig(family=Family.GPWM_S, gamma=-1.0)
    TestConfig(family=Family.GPWM_S, gamma=-0.5)


@pytest.mark.parametrize("family", [Family.PWM_S, Family.GPWM_S])
@pytest.mark.parametrize("recenter_first", [True, False])
def test_moments_overflow_with_a_huge_offset(family, recenter_first):
    # Plotting positions near 1e160 overflow the weights, so the full-sample
    # moment triple is not finite at any data scale.
    x = sample_gev(40, GevParams(0, 1, 0.1), np.random.default_rng(0))
    cfg = TestConfig(family=family, target="xi", gamma=1e160, recenter=recenter_first)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_batch(x[None], [cfg])[0]
        assert batch.reason.tolist() == [Reason.TRIPLE_NOT_FINITE]
        cell = batch_cell(batch, 0, x.size, cfg)
        assert (type(cell), str(cell)) == (DataError, "moment triple entries must be finite")
        for fn in (run_test, statistic, sigma_hat, recenter):
            with pytest.raises(DataError, match="^moment triple entries must be finite$"):
                fn(x, cfg)


def test_sample_too_short():
    with pytest.raises(DataError):
        statistic(np.arange(15.0), TestConfig(family=Family.PWM_T, target="mu", recenter=False))


def test_no_feasible_split():
    # three distinct values: two would be rejected before any split is tried
    x = np.concatenate([[-1e6, 0.5], np.ones(28)])
    with pytest.raises(FeasibilityError, match="no feasible split"):
        statistic(x, TestConfig(family=Family.GPWM_S, target="xi", recenter=False))


def test_skipped_k_reported(rng):
    # short heavy-tailed sample: some gpwm splits fall outside the domain
    x = np.abs(rng.standard_t(1, size=40)) + 0.1
    cfg = TestConfig(family=Family.GPWM_S, target="xi", recenter=False)
    try:
        _, argmax_k, skipped = statistic(x, cfg)
    except FeasibilityError:
        pytest.skip("all splits infeasible for this draw")
    assert all(10 <= k <= 30 for k in skipped)
    assert argmax_k not in skipped


def test_result_to_dict(rng):
    x = sample_gev(60, GevParams(0, 1, 0.0), rng)
    res = run_test(x, TestConfig(family=Family.PWM_T, target="mu"))
    d = res.to_dict()
    assert res.name == "pwm-t:mu"
    assert d["family"] == "pwm-t"
    assert d["target"] == "mu"
    assert "test" not in d
    assert 0.0 <= d["p_value"] <= 1.0
    assert set(d["left_params"]) == {"mu", "sigma", "xi"}


def test_tiny_p_values_not_rounded_to_zero(rng):
    from scipy.special import kolmogorov

    from bmchange.baselines import mean_cusum

    x = sample_gev(2000, GevParams(0, 1, 0.1), rng)
    x[1000:] += 3.0
    step = np.r_[np.zeros(200), np.ones(200)]
    results = run_suite(x, [TestConfig(family=Family.PWM_T, target="mu")]) + [mean_cusum(step)]
    for res in results:
        want = kolmogorov(res.statistic / res.sigma_hat)
        assert res.p_value > 0.0
        assert res.p_value == pytest.approx(want, rel=1e-12, abs=0.0)


_ENGINE = {
    Family.PWM_T: (Estimator.B_HAT, PWM, GevMapKind.PWM_APPROX),
    Family.PWM_S: (Estimator.BETA_HAT, PWM, GevMapKind.PWM_APPROX),
    Family.GPWM_S: (Estimator.BETA_HAT, GPWM, GevMapKind.GPWM_APPROX),
}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("do_recenter", [True, False])
def test_run_suite_agrees_with_its_parts(rng, family, do_recenter):
    x = sample_gev(120, GevParams(0, 1, 0.1), rng)
    estimator, weights, kind = _ENGINE[family]
    configs = family_suite(family, recenter=do_recenter)
    data = recenter(x, configs[0]) if do_recenter else x
    prefix, _, suffix, _ = prefix_suffix_moments(
        data, estimator, weights, configs[0].resolved_gamma()
    )
    for cfg, res in zip(configs, run_suite(x, configs)):
        k = res.argmax_k
        assert res.left_params == map_triple(kind, prefix[k])
        assert res.right_params == map_triple(kind, suffix[k])
        if not do_recenter:
            assert statistic(x, cfg) == (res.statistic, res.argmax_k, res.skipped_k)
            assert sigma_hat(x, cfg) == res.sigma_hat


# Every config of one family is listed together, so the groups of run_suite
# come in config order and its first failure is the first failed cell.
_BATCH_CONFIGS = [
    *family_suite(Family.PWM_T, r=3),
    *family_suite(Family.PWM_S, r=3),
    *family_suite(Family.GPWM_S, r=3),
    TestConfig(family=Family.PWM_S, target="xi", r=3, recenter=False),
]


def _alone(sample, cfg):
    try:
        return run_test(sample, cfg)
    except ValueError as exc:
        return exc


# n <= 30 < 2r: fails every row, so it stays out of the run_suite check
_TOO_SHORT = TestConfig(family=Family.PWM_T, target="mu", r=16)


@given(
    st.integers(12, 30).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4)
    ),
    st.randoms(use_true_random=False),
)
@example([[0] * 13], random.Random(0))  # an n at which the rounding rows below fail as labelled
@settings(max_examples=25, deadline=None)
def test_run_batch_matches_each_row_alone(tied_rows, shuffle):
    n = len(tied_rows[0])
    fixed = [
        np.r_[np.ones(n - 1), np.inf],  # not a sample
        np.full(n, 1.5),  # all tied
        np.r_[np.zeros(n - 1), 1.0],  # fewer than 3 distinct values
        np.r_[np.ones(n - 1), 0.0],  # the same, the other way round
        np.r_[np.zeros(n - 2), 1e-300, 1.0],  # pwm-t and gpwm cannot recenter
        np.r_[np.zeros(n - 3), 1.0, 2.0, 3.0],  # no feasible split
        # The next two fail as labelled at some n only, 13 among them: the
        # rounding decides.  pwm-t: inside the map's domain before
        # recentering, outside it after.
        np.r_[2.0**-50.5, np.zeros(n - 2), 1.0],
        np.r_[1e9, np.zeros(n - 2), 1.0],  # pwm-s:xi without recentering: degenerate variance
    ]
    rows = [np.array(r, dtype=float) / 2.0 for r in tied_rows] + fixed
    shuffle.shuffle(rows)
    configs = _BATCH_CONFIGS + [_TOO_SHORT]
    batches = run_batch(np.array(rows), configs)
    assert [batch.reason.shape for batch in batches] == [(len(rows),)] * len(configs)
    seen = set(np.concatenate([batch.reason for batch in batches]).tolist())
    # Not required: the two that hang on rounding, the moments that overflow
    # (see test_moments_overflow_with_a_huge_offset), and the baselines' reason.
    rounding = {Reason.OFF_DOMAIN, Reason.DEGENERATE_VARIANCE}
    assert seen >= set(Reason) - rounding - {Reason.OK, Reason.TRIPLE_NOT_FINITE, Reason.ZERO_VARIANCE}
    for i, sample in enumerate(rows):
        row_cells = [batch_cell(b, i, n, cfg) for b, cfg in zip(batches, configs)]
        for cfg, cell in zip(configs, row_cells):
            alone = _alone(sample, cfg)
            if isinstance(alone, Exception):
                assert (type(cell), str(cell)) == (type(alone), str(alone))
                continue
            assert isinstance(cell, TestResult)
            assert (cell.argmax_k, cell.skipped_k) == (alone.argmax_k, alone.skipped_k)
            for field in ("statistic", "sigma_hat", "p_value"):
                assert getattr(cell, field) == pytest.approx(getattr(alone, field), rel=1e-12, abs=0.0)
        row_cells = row_cells[: len(_BATCH_CONFIGS)]
        failures = [cell for cell in row_cells if isinstance(cell, Exception)]
        if failures:
            with pytest.raises(type(failures[0]), match=re.escape(str(failures[0]))):
                run_suite(sample, _BATCH_CONFIGS)
        else:
            assert run_suite(sample, _BATCH_CONFIGS) == row_cells


_EVERY_TEST = [cfg for family in Family for cfg in family_suite(family)]


def _p_values(x):
    """p-value of every moment test and both baselines on x, or the failure
    (its type and message)."""
    batches = run_batch(x[None], _EVERY_TEST) + run_baselines(x[None])
    cells = [batch_cell(b, 0, x.size, cfg) for b, cfg in zip(batches, _EVERY_TEST)]
    cells += [batch_cell(b, 0, x.size, name=name, r=10) for b, name in zip(batches[len(_EVERY_TEST):], BASELINES)]
    return [cell.p_value if isinstance(cell, TestResult) else repr(cell) for cell in cells]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 120),
    power=st.integers(-60, 60),
    factor=st.sampled_from([1e300, 1e-300, 1e-200]),
)
@settings(max_examples=15, deadline=None)
def test_p_values_scale_free(seed, n, power, factor):
    x = sample_gev(n, GevParams(0, 1, 0.1), np.random.default_rng(seed))
    # a power of two scales exactly, so every p-value keeps its bits
    assert _p_values(np.ldexp(x, power)) == _p_values(x)
    # any other factor rounds the data once; 1e300 must cost no more than
    # its mantissa, a factor near 1, does
    assert _p_values(x * factor) == _p_values(x * np.frexp(factor)[0])
