"""Monte-Carlo harness: rejection rates of the change-point tests under
configurable data-generating processes, plus runners for the bundled
reference grids.

Determinism contract: replicate i of scenario s draws from
``SeedSequence([master_seed, crc32(s.name), i])``, so results are
reproducible and independent of the degree of parallelism.  Replicates run
in fixed chunks of ``CHUNK`` consecutive indices (the last chunk may be
shorter), one batched call of the tests per chunk.  The chunks do not
depend on ``jobs``, which only decides which process runs each chunk, so
the output does not depend on it either.
"""
from __future__ import annotations

import csv
import io
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .baselines import BASELINES, run_baselines
from .cusum import Family, TestConfig, family_suite, run_batch
from .distributions import (
    AbsStudentTDist,
    DataError,
    ExponentialDist,
    FeasibilityError,
    GevDist,
    GevParams,
    GpdDist,
    GpdParams,
    NormalDist,
    sample_block_maxima,
)
from . import reference_values

# Unused here, but bench/spans.py wraps these names in this module.
from .baselines import mean_cusum, variance_cusum  # noqa: F401
from .cusum import run_suite, run_test  # noqa: F401

# --- data-generating processes ----------------------------------------------


def dist_to_dict(dist) -> dict:
    if isinstance(dist, GevDist):
        p = dist.params
        return {"family": "gev", "mu": p.mu, "sigma": p.sigma, "xi": p.xi}
    if isinstance(dist, GpdDist):
        return {"family": "gpd", "sigma": dist.params.sigma, "xi": dist.params.xi}
    if isinstance(dist, AbsStudentTDist):
        return {"family": "abs_t", "df": dist.df}
    if isinstance(dist, NormalDist):
        return {"family": "normal", "mean": dist.mean, "sd": dist.sd}
    if isinstance(dist, ExponentialDist):
        return {"family": "exponential", "rate": dist.rate}
    raise DataError(f"unsupported distribution: {dist!r}")


def dist_from_dict(spec: dict):
    if not isinstance(spec, dict) or "family" not in spec:
        raise DataError("a distribution spec must be an object with a 'family' key")
    fam = spec["family"]
    try:
        if fam == "gev":
            return GevDist(GevParams(float(spec["mu"]), float(spec["sigma"]), float(spec["xi"])))
        if fam == "gpd":
            return GpdDist(GpdParams(float(spec["sigma"]), float(spec["xi"])))
        if fam == "abs_t":
            return AbsStudentTDist(float(spec["df"]))
        if fam == "normal":
            return NormalDist(float(spec.get("mean", 0.0)), float(spec.get("sd", 1.0)))
        if fam == "exponential":
            return ExponentialDist(float(spec.get("rate", 1.0)))
    except KeyError as exc:
        raise DataError(f"distribution spec for {fam!r} is missing key {exc}") from exc
    raise DataError(f"unknown distribution family {fam!r}")


@dataclass(frozen=True)
class NullGen:
    """i.i.d. draws from one distribution."""

    dist: object

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.dist.sample(n, rng)

    def to_dict(self) -> dict:
        return {"kind": "null", "dist": dist_to_dict(self.dist)}


@dataclass(frozen=True)
class BlockMaxGen:
    """Maxima of disjoint blocks drawn from a base distribution."""

    base: object
    block_size: int = 1

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_block_maxima(n, self.block_size, self.base, rng)

    def to_dict(self) -> dict:
        return {"kind": "block_maxima", "base": dist_to_dict(self.base), "block_size": self.block_size}


@dataclass(frozen=True)
class ChangeGen:
    """Distribution switch at observation floor(n t): first before, second after."""

    first: object
    second: object
    t: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.t < 1.0:
            raise DataError("change fraction t must lie strictly inside (0, 1)")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n1 = int(n * self.t)
        out = np.empty(n)
        if n1:
            out[:n1] = self.first.sample(n1, rng)
        out[n1:] = self.second.sample(n - n1, rng)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "change",
            "first": dist_to_dict(self.first),
            "second": dist_to_dict(self.second),
            "t": self.t,
        }


def generator_from_dict(spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DataError("a generator spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "null":
        return NullGen(dist_from_dict(spec["dist"]))
    if kind == "block_maxima":
        return BlockMaxGen(dist_from_dict(spec["base"]), int(spec.get("block_size", 1)))
    if kind == "change":
        return ChangeGen(dist_from_dict(spec["first"]), dist_from_dict(spec["second"]), float(spec.get("t", 0.5)))
    raise DataError(f"unknown generator kind {kind!r}")


# --- scenarios ---------------------------------------------------------------


def test_config_to_dict(cfg: TestConfig) -> dict:
    return {
        "family": cfg.family.value,
        "target": cfg.target,
        "r": cfg.r,
        "gamma": cfg.gamma,
        "recenter": cfg.recenter,
        "variance_correction": cfg.variance_correction,
    }


def test_config_from_dict(spec: dict) -> TestConfig:
    try:
        family = Family(spec.get("family", "pwm-t"))
    except ValueError as exc:
        raise DataError(f"unknown test family {spec.get('family')!r}") from exc
    return TestConfig(
        family=family,
        target=spec.get("target", "mu"),
        r=int(spec.get("r", 10)),
        gamma=spec.get("gamma"),
        recenter=bool(spec.get("recenter", True)),
        variance_correction=spec.get("variance_correction"),
    )


def default_tests() -> tuple[TestConfig, ...]:
    return tuple(family_suite(Family.PWM_T) + family_suite(Family.GPWM_S))


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: a generator, a sample size and a battery of tests."""

    name: str
    n: int
    generator: object
    tests: tuple[TestConfig, ...] = field(default_factory=default_tests)
    replications: int = 1000
    level: float = 0.05
    include_baselines: bool = False
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError("scenario sample size must be at least 1")
        if self.replications < 1:
            raise DataError("need at least one replication")
        if not 0.0 < self.level < 1.0:
            raise DataError("level must lie strictly inside (0, 1)")
        if not self.tests and not self.include_baselines:
            raise DataError("a scenario must run at least one test")
        object.__setattr__(self, "tests", tuple(self.tests))

    def test_names(self) -> list[str]:
        names = [c.name for c in self.tests]
        if self.include_baselines:
            names += BASELINES
        return names

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "generator": self.generator.to_dict(),
            "tests": [test_config_to_dict(c) for c in self.tests],
            "replications": self.replications,
            "level": self.level,
            "include_baselines": self.include_baselines,
            "master_seed": self.master_seed,
        }


def scenario_from_dict(spec: dict) -> Scenario:
    if not isinstance(spec, dict):
        raise DataError("a scenario spec must be a JSON object")
    for key in ("name", "n", "generator"):
        if key not in spec:
            raise DataError(f"scenario spec is missing required key {key!r}")
    tests = spec.get("tests")
    if tests is None:
        configs = default_tests()
    else:
        configs = tuple(test_config_from_dict(t) for t in tests)
    return Scenario(
        name=str(spec["name"]),
        n=int(spec["n"]),
        generator=generator_from_dict(spec["generator"]),
        tests=configs,
        replications=int(spec.get("replications", 1000)),
        level=float(spec.get("level", 0.05)),
        include_baselines=bool(spec.get("include_baselines", False)),
        master_seed=int(spec.get("master_seed", 0)),
    )


# --- running -----------------------------------------------------------------

# Replicates per batched call of the tests, fixed (see the module docstring).
# Of 16, 32, 48 and 64, 64 ran T1 cells at n = 200 and 400 fastest.
CHUNK = 64


def replicate_rng(scenario: Scenario, i: int) -> np.random.Generator:
    key = zlib.crc32(scenario.name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([scenario.master_seed, key, i]))


def _outcome(cell, level: float):
    """(rejected, skipped_splits, failed) of one test on one replicate; a
    test that cannot produce a decision counts as failed, never as a
    rejection."""
    if isinstance(cell, (FeasibilityError, DataError)):
        return (False, 0, True)
    return (cell.p_value < level, len(cell.skipped_k), False)


def _run_chunk(args):
    """Replicates start..stop-1: each draws its own sample, every test runs
    on that sample, and the tests run over all the chunk's samples at once.

    Returns one list of per-test (rejected, skipped_splits, failed) triples
    per replicate, baselines last.
    """
    scenario, start, stop = args
    samples = np.stack(
        [scenario.generator.generate(scenario.n, replicate_rng(scenario, i)) for i in range(start, stop)]
    )
    cells = run_batch(samples, list(scenario.tests))
    if scenario.include_baselines:
        cells = [row + extra for row, extra in zip(cells, run_baselines(samples))]
    return [[_outcome(cell, scenario.level) for cell in row] for row in cells]


@dataclass(frozen=True)
class SimReport:
    """Aggregated rejection rates for one scenario.

    ``rejections[name]`` counts replicates with p-value below the level;
    ``failures[name]`` counts replicates where the test produced no decision
    (excluded from nothing: the denominator stays ``replications``, matching
    how infeasible replicates are reported alongside the published tables).
    """

    scenario: Scenario
    rejections: dict
    skipped_splits: dict
    failures: dict
    wall_time_s: float

    def pct(self, name: str) -> float:
        return 100.0 * self.rejections[name] / self.scenario.replications

    def mc_se_pct(self, name: str) -> float:
        p = self.rejections[name] / self.scenario.replications
        return 100.0 * float(np.sqrt(p * (1.0 - p) / self.scenario.replications))

    def to_dict(self, include_timing: bool = False) -> dict:
        # timing is opt-in so serialized reports compare byte-identical
        # across runs and worker counts
        body = {
            "schema_version": 1,
            "scenario": self.scenario.to_dict(),
            "results": {
                name: {
                    "rejections": self.rejections[name],
                    "pct": round(self.pct(name), 6),
                    "mc_se_pct": round(self.mc_se_pct(name), 6),
                    "skipped_splits": self.skipped_splits[name],
                    "failures": self.failures[name],
                }
                for name in self.scenario.test_names()
            },
        }
        if include_timing:
            body["wall_time_s"] = self.wall_time_s
        return body

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["scenario", "n", "replications", "test", "rejections", "pct", "mc_se_pct", "skipped_splits", "failures"])
        for name in self.scenario.test_names():
            w.writerow([
                self.scenario.name,
                self.scenario.n,
                self.scenario.replications,
                name,
                self.rejections[name],
                f"{self.pct(name):.6g}",
                f"{self.mc_se_pct(name):.6g}",
                self.skipped_splits[name],
                self.failures[name],
            ])
        return buf.getvalue()


def run_scenario(scenario: Scenario, jobs: int = 1) -> SimReport:
    """Run every replicate of a scenario, optionally across processes.

    The per-replicate seeding makes the aggregate independent of ``jobs``.
    """
    t0 = time.perf_counter()
    args = [
        (scenario, start, min(start + CHUNK, scenario.replications))
        for start in range(0, scenario.replications, CHUNK)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs need no process pool

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_chunk, args))
    else:
        chunks = [_run_chunk(a) for a in args]
    rows = [row for chunk in chunks for row in chunk]
    names = scenario.test_names()
    rejections = dict.fromkeys(names, 0)
    skipped = dict.fromkeys(names, 0)
    failures = dict.fromkeys(names, 0)
    for row in rows:
        for name, (rej, n_skip, failed) in zip(names, row):
            rejections[name] += int(rej)
            skipped[name] += n_skip
            failures[name] += int(failed)
    return SimReport(
        scenario=scenario,
        rejections=rejections,
        skipped_splits=skipped,
        failures=failures,
        wall_time_s=time.perf_counter() - t0,
    )


# --- bundled reference grids -------------------------------------------------

TABLE_IDS = tuple(reference_values.TABLES)

# cells kept by --reduced (quick sanity run instead of the full grid)
_REDUCED_CELLS = {
    "T1": ((-0.4, 200), (0.0, 200), (0.2, 200), (0.2, 400)),
    "T2": ((0.0, 200), (0.2, 400)),
    "T3": ((0.4, 200),),
    "T4": ((0.6, 200),),
    "T5": ((0.0, 200),),
    "T6": ((0.0, 200),),
}


def _cell_generator(table_id: str, xi: float):
    gev = lambda mu, sigma, shape: GevDist(GevParams(mu, sigma, shape))
    if table_id == "T1":
        return NullGen(gev(0.0, 1.0, xi))
    if table_id == "T2":
        return BlockMaxGen(GpdDist(GpdParams(1.0, xi)), 1)
    if table_id == "T3":
        return ChangeGen(gev(0.0, 1.0, -0.4), gev(0.0, 1.0, xi), 0.5)
    if table_id == "T4":
        return ChangeGen(gev(0.0, 1.0, 0.2), gev(0.0, 1.0, xi), 0.5)
    if table_id == "T5":
        return ChangeGen(gev(0.0, 0.5, xi), gev(0.0, 1.0, xi), 0.5)
    if table_id == "T6":
        return ChangeGen(gev(0.0, 1.0, xi), gev(0.5, 1.0, xi), 0.5)
    raise DataError(f"unknown table id {table_id!r}")


def cell_scenario(
    table_id: str,
    xi: float,
    n: int,
    replications: int = 1000,
    master_seed: int = 0,
) -> Scenario:
    """The simulation scenario behind one cell of a bundled reference grid."""
    if table_id not in TABLE_IDS:
        raise DataError(f"unknown table id {table_id!r}; expected one of {', '.join(TABLE_IDS)}")
    return Scenario(
        name=f"{table_id}:xi={xi:g}:n={n}",
        n=n,
        generator=_cell_generator(table_id, xi),
        tests=default_tests(),
        replications=replications,
        level=0.05,
        include_baselines=table_id in ("T3", "T4", "T5", "T6"),
        master_seed=master_seed,
    )


def table_runner(
    table_id: str,
    reduced: bool = False,
    replications: int = 1000,
    master_seed: int = 0,
    jobs: int = 1,
):
    """Simulate a reference grid and diff each cell against the embedded values.

    Returns ``(rows, reports)`` where rows are flat dicts, one per
    (cell, test), with simulated and reference percentages side by side.
    """
    table = reference_values.TABLES.get(table_id)
    if table is None:
        raise DataError(f"unknown table id {table_id!r}; expected one of {', '.join(TABLE_IDS)}")
    cells = _REDUCED_CELLS[table_id] if reduced else tuple(table)
    rows = []
    reports = []
    for xi, n in cells:
        scenario = cell_scenario(table_id, xi, n, replications, master_seed)
        report = run_scenario(scenario, jobs=jobs)
        reports.append(report)
        reference = table[(xi, n)]
        for name in scenario.test_names():
            ref = reference.get(name)
            sim = report.pct(name)
            rows.append({
                "table": table_id,
                "xi": xi,
                "n": n,
                "test": name,
                "simulated_pct": round(sim, 6),
                "reference_pct": ref,
                "diff_pct": None if ref is None else round(sim - ref, 6),
                "mc_se_pct": round(report.mc_se_pct(name), 6),
                "failures": report.failures[name],
            })
    return rows, reports


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    cols = ["table", "xi", "n", "test", "simulated_pct", "reference_pct", "diff_pct", "mc_se_pct", "failures"]
    w = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()
