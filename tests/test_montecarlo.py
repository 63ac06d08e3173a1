import json

import numpy as np
import pytest

from bmchange.cusum import Family, TestConfig
from bmchange.distributions import DataError, GevParams, GevDist
from bmchange.montecarlo import (
    CHUNK,
    BlockMaxGen,
    ChangeGen,
    NullGen,
    Scenario,
    cell_scenario,
    dist_from_dict,
    dist_to_dict,
    generator_from_dict,
    replicate_rng,
    run_scenario,
    scenario_from_dict,
    table_runner,
    rows_to_csv,
    _run_chunk,
)


def _tiny_scenario(reps=40, tests=None):
    return Scenario(
        name="tiny",
        n=50,
        generator=NullGen(GevDist(GevParams(0, 1, 0.1))),
        tests=tuple(tests or [TestConfig(family=Family.PWM_T, target="mu")]),
        replications=reps,
        include_baselines=True,
        master_seed=99,
    )


def test_scenario_roundtrip_through_dicts():
    s = _tiny_scenario()
    s2 = scenario_from_dict(json.loads(json.dumps(s.to_dict())))
    assert s2 == s


def test_generator_serialization_roundtrip():
    gens = [
        NullGen(dist_from_dict({"family": "normal", "mean": 1.0, "sd": 2.0})),
        BlockMaxGen(dist_from_dict({"family": "gpd", "sigma": 1.0, "xi": 0.2}), 5),
        ChangeGen(
            dist_from_dict({"family": "gev", "mu": 0, "sigma": 1, "xi": 0.0}),
            dist_from_dict({"family": "exponential", "rate": 2.0}),
            0.3,
        ),
    ]
    for g in gens:
        assert generator_from_dict(g.to_dict()) == g


def test_dist_dict_errors():
    with pytest.raises(DataError):
        dist_from_dict({"family": "cauchy"})
    with pytest.raises(DataError):
        dist_from_dict({"family": "gev", "mu": 0})
    with pytest.raises(DataError):
        generator_from_dict({"dist": {}})
    with pytest.raises(DataError):
        dist_to_dict(object())


def test_scenario_validation():
    with pytest.raises(DataError):
        scenario_from_dict({"name": "x"})
    with pytest.raises(DataError):
        _tiny_scenario(reps=0)
    with pytest.raises(DataError):
        Scenario(name="x", n=10, generator=NullGen(GevDist(GevParams(0, 1, 0))), tests=(), include_baselines=False)


def test_replicate_rng_deterministic():
    s = _tiny_scenario()
    a = replicate_rng(s, 3).random(5)
    b = replicate_rng(s, 3).random(5)
    c = replicate_rng(s, 4).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_change_generator_splits_at_floor():
    g = ChangeGen(
        dist_from_dict({"family": "normal", "mean": 0.0, "sd": 0.001}),
        dist_from_dict({"family": "normal", "mean": 100.0, "sd": 0.001}),
        0.5,
    )
    x = g.generate(11, np.random.default_rng(0))
    assert (np.abs(x[:5]) < 1).all()
    assert (x[5:] > 99).all()


def test_run_scenario_jobs_independent():
    s = _tiny_scenario(reps=30)
    serial = run_scenario(s, jobs=1)
    parallel = run_scenario(s, jobs=2)
    assert serial.rejections == parallel.rejections
    assert serial.skipped_splits == parallel.skipped_splits
    assert serial.failures == parallel.failures
    assert serial.to_json() == parallel.to_json()


def test_chunk_boundaries_do_not_move_replicates():
    s = _tiny_scenario(
        reps=70,
        tests=[TestConfig(family=Family.PWM_T, target="xi"), TestConfig(family=Family.GPWM_S, target="mu")],
    )
    whole = _run_chunk((s, 0, 70))
    assert len(whole) == 70
    for bounds in ((0, 32, 64, 70), (0, 1, 5, 69, 70)):
        pieces = [row for lo, hi in zip(bounds, bounds[1:]) for row in _run_chunk((s, lo, hi))]
        assert pieces == whole


def test_simulate_jobs_identical_with_partial_chunk(tmp_path):
    from click.testing import CliRunner

    from bmchange.cli import main

    assert 70 % CHUNK
    spec = {
        "name": "partial-chunk",
        "n": 40,
        "generator": {"kind": "null", "dist": {"family": "gev", "mu": 0, "sigma": 1, "xi": 0.1}},
        "tests": [{"family": "pwm-t", "target": "sigma"}, {"family": "pwm-s", "target": "xi"}],
        "include_baselines": True,
        "replications": 70,
    }
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(spec))
    base = ["simulate", "--scenario", str(f), "--seed", "5"]
    outs = []
    for args, env in ((["--jobs", "1"], {}), (["--jobs", "2"], {}), ([], {"BMCHANGE_JOBS": "2"})):
        res = CliRunner().invoke(main, base + args, env=env)
        assert res.exit_code == 0, res.output
        outs.append(res.stdout.encode())
    assert outs[0] == outs[1] == outs[2]
    res = CliRunner().invoke(main, base, env={"BMCHANGE_JOBS": "abc"})
    assert res.exit_code == 2


def test_report_serialization():
    s = _tiny_scenario(reps=20)
    rep = run_scenario(s)
    body = rep.to_dict()
    assert body["schema_version"] == 1
    assert "wall_time_s" not in body
    assert set(body["results"]) == {"pwm-t:mu", "mean", "variance"}
    assert "wall_time_s" in rep.to_dict(include_timing=True)
    csv_text = rep.csv_text()
    assert csv_text.startswith("scenario,")
    assert len(csv_text.strip().splitlines()) == 4
    for name in s.test_names():
        assert 0.0 <= rep.pct(name) <= 100.0
        assert rep.mc_se_pct(name) >= 0.0


def test_cell_scenario_shapes():
    s = cell_scenario("T5", 0.0, 100, replications=5)
    assert isinstance(s.generator, ChangeGen)
    assert s.include_baselines
    s = cell_scenario("T1", 0.2, 100, replications=5)
    assert isinstance(s.generator, NullGen)
    assert not s.include_baselines
    s = cell_scenario("T2", 0.2, 100, replications=5)
    assert isinstance(s.generator, BlockMaxGen)
    with pytest.raises(DataError):
        cell_scenario("T9", 0.0, 100)


def test_table_runner_reduced_smoke():
    rows, reports = table_runner("T5", reduced=True, replications=10, master_seed=1)
    assert len(reports) == 1
    assert {r["test"] for r in rows} == {
        "pwm-t:mu", "pwm-t:sigma", "pwm-t:xi", "gpwm:mu", "gpwm:sigma", "gpwm:xi",
        "mean", "variance",
    }
    for r in rows:
        assert r["reference_pct"] is not None
        assert r["diff_pct"] == pytest.approx(r["simulated_pct"] - r["reference_pct"], abs=1e-9)
    text = rows_to_csv(rows)
    assert text.splitlines()[0].startswith("table,xi,n,test")
