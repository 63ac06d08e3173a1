import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmchange.baselines import mean_cusum, run_baselines, variance_cusum
from bmchange.cusum import batch_cell
from bmchange.distributions import DataError, kolmogorov_cdf


def test_mean_cusum_manual_small_case():
    # step sample: split at k=10 separates the two levels exactly
    x = np.concatenate([np.zeros(10), np.ones(10)])
    res = mean_cusum(x, r=10)
    n = 20
    want_stat = 10 * 10 / n**1.5 * 1.0
    assert res.statistic == pytest.approx(want_stat)
    assert res.argmax_k == 10
    sd = np.sqrt(np.var(x))
    assert res.sigma_hat == pytest.approx(sd)
    assert res.p_value == pytest.approx(1.0 - kolmogorov_cdf(want_stat / sd))


def test_mean_cusum_detects_shift(rng):
    x = np.concatenate([rng.normal(0, 1, 100), rng.normal(2, 1, 100)])
    assert mean_cusum(x).p_value < 1e-4


def test_variance_cusum_detects_scale_change(rng):
    x = np.concatenate([rng.normal(0, 1, 150), rng.normal(0, 4, 150)])
    assert variance_cusum(x).p_value < 1e-4


def test_null_p_values_not_tiny(rng):
    # under an i.i.d. null, tiny p-values should be rare
    ps = []
    for _ in range(50):
        x = rng.normal(size=100)
        ps.append(mean_cusum(x).p_value)
    assert np.mean(np.array(ps) < 0.05) < 0.2


def test_degenerate_sample_rejected():
    with pytest.raises(DataError):
        mean_cusum(np.ones(40))
    with pytest.raises(DataError):
        mean_cusum(np.arange(10.0))  # n < 2r


def test_baseline_to_dict_names_the_test(rng):
    x = rng.normal(size=60)
    for fn, name in ((mean_cusum, "mean"), (variance_cusum, "variance")):
        res = fn(x)
        d = res.to_dict()
        assert (res.name, res.config, d["test"]) == (name, None, name)
        assert "family" not in d and "target" not in d


def _alone(fn, row, r):
    try:
        return fn(row, r)
    except DataError as exc:
        return exc


@settings(max_examples=40, deadline=None)
@given(
    rows=st.sampled_from([1, 3, 64, 65]),
    n=st.integers(2, 60),
    r=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    constant=st.booleans(),
    not_finite=st.booleans(),
)
def test_run_baselines_match_each_row_alone(rows, n, r, seed, constant, not_finite):
    rng = np.random.default_rng(seed)
    x = rng.gumbel(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    if constant:
        x[0] = 1.5
    if not_finite:
        x[-1, 0] = np.inf
    batches = run_baselines(x, r)
    assert [batch.reason.shape for batch in batches] == [(rows,)] * 2
    for i, row in enumerate(x):
        for fn, name, batch in zip((mean_cusum, variance_cusum), ("mean", "variance"), batches):
            cell = batch_cell(batch, i, n, name=name, r=r)
            alone = _alone(fn, row, r)
            if isinstance(alone, Exception):
                assert (type(cell), str(cell)) == (type(alone), str(alone))
            else:
                assert cell == alone  # every field, floats exactly
