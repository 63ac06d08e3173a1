import json

import numpy as np
import pytest
from click.testing import CliRunner

from bmchange.cli import main
from bmchange.distributions import GevParams, sample_gev


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def gev_file(tmp_path):
    x = sample_gev(80, GevParams(0, 1, 0.0), np.random.default_rng(5))
    f = tmp_path / "series.csv"
    f.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    return f


@pytest.fixture
def tied_file(tmp_path):
    x = np.round(sample_gev(60, GevParams(10, 2, 0.0), np.random.default_rng(6)), 1)
    f = tmp_path / "tied.csv"
    f.write_text("\n".join(str(v) for v in x) + "\n")
    return f


def test_cmd_test_json(runner, gev_file):
    res = runner.invoke(main, ["test", str(gev_file)])
    assert res.exit_code == 0, res.output
    body = json.loads(res.stdout)
    assert body["schema_version"] == 1
    assert body["config"]["family"] == "pwm-t"
    assert body["config"]["gamma"] == -0.35
    assert len(body["tests"]) == 3
    assert "bonferroni" in body
    assert body["bonferroni"]["per_test_cutoff"] == pytest.approx(0.05 / 3)


def test_cmd_test_single_target_text(runner, gev_file):
    res = runner.invoke(main, ["test", str(gev_file), "--target", "sigma", "--format", "text"])
    assert res.exit_code == 0, res.output
    assert "sigma" in res.output
    assert "p=" in res.output


def test_cmd_test_tie_warning(runner, tied_file):
    res = runner.invoke(main, ["test", str(tied_file)])
    assert res.exit_code == 0, res.output
    assert "tied values" in res.stderr
    assert "detie" in res.stderr


@pytest.mark.parametrize("family", ["pwm-t", "pwm-s", "gpwm"])
def test_cmd_test_all_tied_exit_2(runner, tmp_path, family):
    f = tmp_path / "tied.csv"
    f.write_text("1.5\n" * 40)
    res = runner.invoke(main, ["test", str(f), "--family", family])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.stderr.splitlines() if line.startswith("error: ")]
    assert errors == ["error: all values are tied"]


def test_cmd_test_missing_file(runner):
    res = runner.invoke(main, ["test", "/nonexistent/series.csv"])
    assert res.exit_code == 2


def test_cmd_test_bad_alpha(runner, gev_file):
    res = runner.invoke(main, ["test", str(gev_file), "--alpha", "1.5"])
    assert res.exit_code == 2


def test_cmd_estimate(runner, gev_file):
    res = runner.invoke(main, ["estimate", str(gev_file)])
    assert res.exit_code == 0, res.output
    body = json.loads(res.stdout)
    est = body["estimates"]["b_hat"]
    assert abs(est["approx"]["xi"] - est["exact"]["xi"]) == pytest.approx(
        abs(est["discrepancy"]["xi"]), abs=1e-12
    )
    assert est["exact"]["sigma"] > 0


def test_cmd_estimate_gamma_switch(runner, gev_file):
    a = runner.invoke(main, ["estimate", str(gev_file)])
    b = runner.invoke(main, ["estimate", str(gev_file), "--gamma", "0"])
    assert a.exit_code == b.exit_code == 0
    ja, jb = json.loads(a.stdout), json.loads(b.stdout)
    # gamma feeds the plotting-position estimator only
    assert ja["estimates"]["b_hat"] == jb["estimates"]["b_hat"]
    assert ja["estimates"]["beta_hat"] != jb["estimates"]["beta_hat"]


def test_cmd_estimate_infeasible_exit_3(runner, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("-10\n0\n0\n")
    res = runner.invoke(main, ["estimate", str(f)])
    assert res.exit_code == 3
    assert "3*m3 - 2*m2 > 0" in res.stderr


@pytest.mark.parametrize(
    "series", ["x\n-67.1\n-682.9\n-6.4\n", "1\n1\n1\n1\n"], ids=["bounded-tail", "all-tied"]
)
def test_cmd_estimate_gpwm_unsolvable_exit_3(runner, tmp_path, series):
    # the approximate map accepts these moments; the exact shape equation
    # has no root in the bracket
    f = tmp_path / "bad.csv"
    f.write_text(series)
    res = runner.invoke(main, ["estimate", str(f), "--family", "gpwm"])
    assert res.exit_code == 3
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


def test_cmd_detie(runner, tied_file):
    res = runner.invoke(main, ["detie", str(tied_file), "--replicates", "3", "--seed", "1"])
    assert res.exit_code == 0, res.output
    body = json.loads(res.stdout)
    assert body["replications"] == 3
    again = runner.invoke(main, ["detie", str(tied_file), "--replicates", "3", "--seed", "1"])
    assert again.stdout == res.stdout


def test_cmd_detie_single_replicate_csv(runner, tied_file):
    res = runner.invoke(main, ["detie", str(tied_file), "--replicates", "1", "--format", "csv"])
    assert res.exit_code == 0, res.output
    for line in res.stdout.strip().splitlines()[1:]:
        _, lo, hi = line.split(",")
        assert lo == hi


def test_cmd_simulate_requires_one_source(runner):
    assert runner.invoke(main, ["simulate"]).exit_code == 2
    res = runner.invoke(main, ["simulate", "--table", "T1", "--scenario", "x.json"])
    assert res.exit_code == 2


def test_cmd_simulate_invalid_json(runner, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    res = runner.invoke(main, ["simulate", "--scenario", str(f)])
    assert res.exit_code == 2
    assert "generator" in res.stderr  # schema pointer


def test_cmd_simulate_bad_reps(runner):
    res = runner.invoke(main, ["simulate", "--table", "T1", "--reps", "0"])
    assert res.exit_code == 2


def _scenario_file(tmp_path, reps=25):
    spec = {
        "name": "cli-smoke",
        "n": 50,
        "generator": {"kind": "null", "dist": {"family": "gev", "mu": 0, "sigma": 1, "xi": 0.1}},
        "tests": [{"family": "pwm-t", "target": "mu"}],
        "replications": reps,
    }
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(spec))
    return f


def test_cmd_simulate_scenario(runner, tmp_path):
    f = _scenario_file(tmp_path)
    res = runner.invoke(main, ["simulate", "--scenario", str(f), "--seed", "2", "--format", "json"])
    assert res.exit_code == 0, res.output
    body = json.loads(res.stdout)
    assert body["scenario"]["master_seed"] == 2
    assert "pwm-t:mu" in body["results"]


def test_cmd_simulate_table_reduced(runner):
    res = runner.invoke(main, ["simulate", "--table", "T5", "--reduced", "--reps", "5"])
    assert res.exit_code == 0, res.output
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("table,xi,n,test")
    assert any("pwm-t:sigma" in ln for ln in lines)
