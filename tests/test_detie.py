import numpy as np
import pytest

from bmchange.detie import (
    count_distinct,
    detie_replicate,
    detie_report,
    load_csv,
    tie_step,
)
from bmchange.distributions import DataError, GevParams, sample_gev


def test_load_csv_plain(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("1.5\n2.5\n3.5\n")
    np.testing.assert_array_equal(load_csv(f), [1.5, 2.5, 3.5])


def test_load_csv_header_and_column(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("year,level\n1901,4.2\n1902,3.9\n")
    np.testing.assert_array_equal(load_csv(f, column="level"), [4.2, 3.9])
    np.testing.assert_array_equal(load_csv(f, column=1), [4.2, 3.9])


@pytest.mark.parametrize("delim", [";", "\t"])
def test_load_csv_delimiters(tmp_path, delim):
    f = tmp_path / "a.txt"
    f.write_text(f"x{delim}y\n1{delim}10\n2{delim}20\n")
    np.testing.assert_array_equal(load_csv(f, column="y"), [10.0, 20.0])


def test_load_csv_errors(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(f, column="y")
    with pytest.raises(DataError, match="several columns"):
        load_csv(f)
    with pytest.raises(DataError, match="no column named"):
        load_csv(f, column="z")
    with pytest.raises(DataError, match="out of range"):
        load_csv(f, column=5)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(DataError, match="no data"):
        load_csv(empty)


def test_load_csv_parses_as_float(tmp_path):
    # repr-written doubles over the whole range load bit for bit as float()
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 0x7FF0000000000000, size=200, dtype=np.int64).view(float)
    signs = np.where(rng.random(200) < 0.5, -1.0, 1.0)
    values = [*(bits * signs), 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    tokens = [repr(float(v)) for v in values]
    f = tmp_path / "a.csv"
    f.write_text("x\n" + "\n".join(f" {tok} " for tok in tokens) + "\n")
    want = np.array([float(tok) for tok in tokens])
    assert load_csv(f).tobytes() == want.tobytes()


def test_load_csv_names_the_bad_row(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("x,y\n1,2\n3,1e\n5,oops\n")
    with pytest.raises(DataError) as err:
        load_csv(f, column="y")
    assert str(err.value) == f"{f}: row 3, column 2: not a number: '1e'"
    f.write_text("x,y\n1,2\n3\n5,oops\n")
    with pytest.raises(DataError) as err:
        load_csv(f, column="y")
    assert str(err.value) == f"{f}: row 3 has only 1 fields"


def test_tie_step():
    assert tie_step([1.0, 1.0, 1.5, 3.0]) == 0.5
    assert tie_step([2.0, 2.0]) == 0.0
    assert count_distinct([1.0, 1.0, 2.0]) == 2


def test_detie_replicate_bounds(rng):
    x = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 4.0])
    d = tie_step(x)
    y = detie_replicate(x, rng)
    assert np.all(y > x)
    assert np.all(y < x + d)
    assert count_distinct(y) == y.size


def test_detie_replicate_needs_two_distinct(rng):
    with pytest.raises(DataError):
        detie_replicate(np.ones(10), rng)


def test_detie_report_deterministic(rng):
    x = np.round(sample_gev(40, GevParams(10, 2, 0.0), rng), 1)
    a = detie_report(x, replications=5, seed=3)
    b = detie_report(x, replications=5, seed=3)
    assert a == b
    c = detie_report(x, replications=5, seed=4)
    assert c != a


def test_detie_report_envelopes(rng):
    x = np.round(sample_gev(50, GevParams(10, 2, 0.0), rng), 1)
    rep = detie_report(x, replications=20, seed=0)
    assert rep.n == 50
    assert rep.n_distinct == count_distinct(x)
    assert rep.failures + 20 >= 20
    for lo, hi in rep.p_env.values():
        assert 0.0 <= lo <= hi <= 1.0
    for lo, hi in rep.est_env.values():
        assert lo <= hi
    body = rep.to_dict()
    assert body["schema_version"] == 1
    assert set(body["p_values"]) == {"mu", "sigma", "xi"}
    lines = rep.csv_text().strip().splitlines()
    assert lines[0] == "quantity,min,max"
    assert len(lines) == 7


def test_single_replicate_collapses_envelope(rng):
    x = np.round(sample_gev(40, GevParams(10, 2, 0.0), rng), 1)
    rep = detie_report(x, replications=1, seed=0)
    for lo, hi in rep.p_env.values():
        assert lo == hi
    for lo, hi in rep.est_env.values():
        assert lo == hi
