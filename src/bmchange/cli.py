"""Command-line front end: test, estimate, detie, simulate.

Exit codes: 0 success, 2 invalid data or arguments, 3 infeasible moments.
All reports embed the fully resolved configuration and a schema version.
"""
from __future__ import annotations

import contextlib
import json
import sys

import click

from . import detie as detie_mod
from . import montecarlo as mc
from .cusum import TARGETS, Family, TestConfig, run_suite
from .distributions import DataError, FeasibilityError
from .gev_maps import GevMapKind, map_triple
from .moments import DXI_CONDITIONS, GPWM, PWM, b_hat, beta_hat, dxi_margins

SCHEMA_VERSION = 1

_SCENARIO_HINT = (
    "expected: {name, n, generator: {kind: null|block_maxima|change, ...}, "
    "tests?: [{family, target, ...}], replications?, level?, include_baselines?, master_seed?}"
)


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # Pass the stream explicitly: for the default one click caches a wrapper
    # per sys.stdout/sys.stderr object in a weak-key map whose value is that
    # same stream, so every stream an in-process caller redirects output to
    # would stay alive for the life of the process.
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _fail(code: int, message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_codes():
    """Exit 3 on infeasible moments, 2 on invalid data."""
    try:
        yield
    except FeasibilityError as exc:
        _fail(3, str(exc))
    except DataError as exc:
        _fail(2, str(exc))


def _load_series(path, column):
    try:
        with _exit_codes():
            return detie_mod.load_csv(path, column=column)
    except FileNotFoundError:
        _fail(2, f"no such file: {path}")
    except OSError as exc:
        _fail(2, str(exc))


@click.group()
def main():
    """Change-point tests for the parameters of block-maxima distributions."""


@main.command("test")
@click.argument("file", type=click.Path())
@click.option("--column", default=None, help="Column name or 0-based index in FILE.")
@click.option("--family", type=click.Choice([f.value for f in Family]), default="pwm-t", show_default=True)
@click.option("--target", type=click.Choice(list(TARGETS) + ["all"]), default="all", show_default=True)
@click.option("--r", "r", type=int, default=10, show_default=True, help="Splits k < r and k > n-r are not searched.")
@click.option("--no-recenter", is_flag=True, help="Skip subtracting the full-sample location estimate.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Recorded in the report; this command draws nothing.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True)
def cmd_test(file, column, family, target, r, no_recenter, alpha, seed, fmt):
    """Run change-point tests on the series in FILE."""
    if not 0.0 < alpha < 1.0:
        _fail(2, "--alpha must lie strictly inside (0, 1)")
    values = _load_series(file, column)
    n_distinct = detie_mod.count_distinct(values)
    if n_distinct < values.size:
        _echo(
            f"warning: {values.size - n_distinct} tied values "
            f"({n_distinct} distinct of {values.size}); rank-based estimates are "
            "sensitive to ties, consider the detie command",
            err=True,
        )
    fam = Family(family)
    targets = list(TARGETS) if target == "all" else [target]
    with _exit_codes():
        configs = [TestConfig(family=fam, target=t, r=r, recenter=not no_recenter) for t in targets]
        results = run_suite(values, configs)
    per_test = [res.to_dict() for res in results]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "file": str(file),
            "column": column,
            "family": fam.value,
            "target": target,
            "r": r,
            "recenter": not no_recenter,
            "alpha": alpha,
            "seed": seed,
            "gamma": configs[0].resolved_gamma(),
        },
        "n": int(values.size),
        "n_distinct": n_distinct,
        "tests": per_test,
    }
    if target == "all":
        # joint decision at level alpha: reject when any p-value < alpha/3
        cutoff = alpha / 3.0
        report["bonferroni"] = {
            "level": alpha,
            "per_test_cutoff": cutoff,
            "reject": bool(any(t["p_value"] < cutoff for t in per_test)),
        }
    else:
        report["reject"] = bool(per_test[0]["p_value"] < alpha)
    if fmt == "json":
        _echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        for t in per_test:
            _echo(
                f"{t['family']:6s} {t['target']:5s} stat={t['statistic']:.6g} "
                f"sigma_hat={t['sigma_hat']:.6g} p={t['p_value']:.4g} k*={t['argmax_k']}"
            )
        if "bonferroni" in report:
            verdict = "reject" if report["bonferroni"]["reject"] else "no rejection"
            _echo(f"joint decision at alpha={alpha:g} (cutoff {alpha / 3:.4g} per test): {verdict}")


@main.command("estimate")
@click.argument("file", type=click.Path())
@click.option("--column", default=None, help="Column name or 0-based index in FILE.")
@click.option("--family", type=click.Choice(["pwm", "gpwm"]), default="pwm", show_default=True)
@click.option("--gamma", type=float, default=None, help="Plotting-position offset; defaults per family.")
def cmd_estimate(file, column, family, gamma):
    """Estimate GEV parameters from the series in FILE.

    Reports the closed-form approximate map and the exact numeric solve
    side by side, with their discrepancy.
    """
    values = _load_series(file, column)
    with _exit_codes():
        triples = {"beta_hat": beta_hat(values, PWM if family == "pwm" else GPWM, gamma)}
        if family == "pwm":
            if values.size >= 3:
                triples["b_hat"] = b_hat(values)
            exact_kind, approx_kind = GevMapKind.PWM_EXACT, GevMapKind.PWM_APPROX
        else:
            exact_kind, approx_kind = GevMapKind.GPWM_EXACT, GevMapKind.GPWM_APPROX
        report = {
            "schema_version": SCHEMA_VERSION,
            "config": {"file": str(file), "column": column, "family": family, "gamma": triples["beta_hat"].gamma},
            "n": int(values.size),
            "estimates": {},
        }
        for name, triple in triples.items():
            if family == "pwm":
                margins = zip(DXI_CONDITIONS, dxi_margins(triple.as_array()))
                violated = ", ".join(f"{c} (got {v:.6g})" for c, v in margins if not v > 0)
                if violated:
                    raise FeasibilityError(f"moments of {name} are infeasible: violated {violated}")
            approx = map_triple(approx_kind, triple)
            exact = map_triple(exact_kind, triple)
            report["estimates"][name] = {
                "approx": {"mu": approx.mu, "sigma": approx.sigma, "xi": approx.xi},
                "exact": {"mu": exact.mu, "sigma": exact.sigma, "xi": exact.xi},
                "discrepancy": {
                    "mu": approx.mu - exact.mu,
                    "sigma": approx.sigma - exact.sigma,
                    "xi": approx.xi - exact.xi,
                },
            }
    _echo(json.dumps(report, indent=2, sort_keys=True))


@main.command("detie")
@click.argument("file", type=click.Path())
@click.option("--column", default=None, help="Column name or 0-based index in FILE.")
@click.option("--replicates", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--family", type=click.Choice([f.value for f in Family]), default="pwm-t", show_default=True)
@click.option("--r", "r", type=int, default=10, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_detie(file, column, replicates, seed, family, r, fmt):
    """Jitter ties away and report p-value and estimate envelopes."""
    if replicates < 1:
        _fail(2, "--replicates must be at least 1")
    values = _load_series(file, column)
    with _exit_codes():
        report = detie_mod.detie_report(
            values, replications=replicates, seed=seed, family=Family(family), r=r
        )
    if fmt == "csv":
        _echo(report.csv_text(), nl=False)
        return
    body = report.to_dict()
    body["config"] = {
        "file": str(file),
        "column": column,
        "replicates": replicates,
        "seed": seed,
        "family": family,
        "r": r,
    }
    _echo(json.dumps(body, indent=2, sort_keys=True))


@main.command("simulate")
@click.option("--table", "table_id", type=click.Choice(list(mc.TABLE_IDS)), default=None)
@click.option("--scenario", "scenario_path", type=click.Path(), default=None, help="JSON scenario file.")
@click.option("--reps", type=int, default=None, help="Replications per cell (default 1000).")
@click.option("--reduced", is_flag=True, help="Run a small subset of the table's grid.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, envvar="BMCHANGE_JOBS", help="Worker processes (default $BMCHANGE_JOBS or 1).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def cmd_simulate(table_id, scenario_path, reps, reduced, seed, jobs, fmt):
    """Estimate rejection rates by simulation.

    Either reproduce a bundled reference grid (--table) or run a custom
    scenario (--scenario). Output is deterministic for a fixed seed,
    whatever --jobs is; timing goes to stderr.
    """
    if (table_id is None) == (scenario_path is None):
        _fail(2, "pass exactly one of --table or --scenario")
    if reps is not None and reps < 1:
        _fail(2, "--reps must be at least 1")
    jobs = max(1, jobs)
    replications = 1000 if reps is None else reps
    if scenario_path is not None:
        try:
            with open(scenario_path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except FileNotFoundError:
            _fail(2, f"no such file: {scenario_path}")
        except json.JSONDecodeError as exc:
            _fail(2, f"invalid scenario JSON ({exc}); {_SCENARIO_HINT}")
        try:
            if reps is not None:
                spec["replications"] = reps
            spec.setdefault("master_seed", seed)
            scenario = mc.scenario_from_dict(spec)
        except (DataError, ValueError, TypeError) as exc:
            _fail(2, f"invalid scenario ({exc}); {_SCENARIO_HINT}")
        report = mc.run_scenario(scenario, jobs=jobs)
        _echo(f"wall time: {report.wall_time_s:.1f}s", err=True)
        if fmt == "json":
            _echo(report.to_json())
        else:
            _echo(report.csv_text(), nl=False)
        return
    rows, reports = mc.table_runner(
        table_id, reduced=reduced, replications=replications, master_seed=seed, jobs=jobs
    )
    _echo(f"wall time: {sum(r.wall_time_s for r in reports):.1f}s", err=True)
    if fmt == "json":
        _echo(json.dumps({"schema_version": SCHEMA_VERSION, "table": table_id,
                          "replications": replications, "master_seed": seed,
                          "reduced": reduced, "rows": rows}, indent=2, sort_keys=True))
    else:
        _echo(mc.rows_to_csv(rows), nl=False)


if __name__ == "__main__":
    main()
