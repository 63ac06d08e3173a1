"""Seeded inputs for the benchmark workloads.

Everything the program reads is written here as files: one-column CSVs for
``test`` and ``detie``, scenario JSON for ``simulate``.  The same seed gives
byte-identical files.  GEV draws use the benchmark's own inverse transform,
not the package's sampler.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LONG_N = 5000
LONG_XI = 0.1
LOC_SHIFT = 0.5          # location change at n/2, in units of the scale
SCALE_AFTER = 1.5        # scale change at n/2: sigma 1 -> 1.5
TINY_FACTOR = 1e-200     # rescaled copy that trips the degenerate-variance fault
TINY_SEED = 20150722     # the rescaled copy never depends on --seed

TIES_N = 80
TIES_PARAMS = (4.0, 0.15, -0.1)  # metres, like annual maximum sea levels
TIES_DECIMALS = 2

SIM_N = 200
SIM_REPS = 20            # replicates per simulate call

# workload tags keep the seed streams of the workloads apart
_TAGS = {"test-long": 1, "sim-cell": 2, "detie-ties": 3}


def gev_draws(rng: np.random.Generator, n: int, mu: float, sigma: float, xi: float) -> np.ndarray:
    u = rng.random(n)
    while np.any(u == 0.0):
        u[u == 0.0] = rng.random(int(np.count_nonzero(u == 0.0)))
    t = -np.log(u)
    if xi == 0.0:
        return mu - sigma * np.log(t)
    return mu + sigma * np.expm1(-xi * np.log(t)) / xi


def round_seed(seed: int, workload: str, k: int) -> int:
    """The program's 31-bit ``--seed`` for round ``k``, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, _TAGS[workload], k]).generate_state(1)[0]) & 0x7FFFFFFF


def write_csv(path: Path, values: np.ndarray, header: str = "x") -> Path:
    # repr round-trips every double exactly
    path.write_text(header + "\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return path


def long_series(seed: int) -> dict[str, np.ndarray]:
    """The three seeded n = 5000 series of the test-long workload."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAGS["test-long"]]))
    half = LONG_N // 2
    null = gev_draws(rng, LONG_N, 0.0, 1.0, LONG_XI)
    loc = np.concatenate([gev_draws(rng, half, 0.0, 1.0, LONG_XI),
                          gev_draws(rng, LONG_N - half, LOC_SHIFT, 1.0, LONG_XI)])
    scale = np.concatenate([gev_draws(rng, half, 0.0, 1.0, LONG_XI),
                            gev_draws(rng, LONG_N - half, 0.0, SCALE_AFTER, LONG_XI)])
    return {"null": null, "loc": loc, "scale": scale}


def tiny_base() -> np.ndarray:
    """Seed-independent null series whose 1e-200 copy is the known-fault input."""
    return gev_draws(np.random.default_rng(TINY_SEED), LONG_N, 0.0, 1.0, LONG_XI)


def ties_series(seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAGS["detie-ties"]]))
    mu, sigma, xi = TIES_PARAMS
    return np.round(gev_draws(rng, TIES_N, mu, sigma, xi), TIES_DECIMALS)


# no master_seed: ``simulate --seed`` supplies it, a fresh one every round
T1_SCENARIO = {
    "name": f"T1:xi=0:n={SIM_N}",
    "n": SIM_N,
    "generator": {"kind": "null", "dist": {"family": "gev", "mu": 0, "sigma": 1, "xi": 0}},
    "replications": SIM_REPS,
}
T5_SCENARIO = {
    "name": f"T5:xi=0:n={SIM_N}",
    "n": SIM_N,
    "generator": {
        "kind": "change",
        "first": {"family": "gev", "mu": 0, "sigma": 0.5, "xi": 0},
        "second": {"family": "gev", "mu": 0, "sigma": 1, "xi": 0},
        "t": 0.5,
    },
    "include_baselines": True,
    "replications": SIM_REPS,
}


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files under ``out``; returns what was written."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "test-long":
        series = long_series(seed)
        series["tiny"] = tiny_base() * TINY_FACTOR
        files = {name: write_csv(out / f"{name}.csv", x) for name, x in series.items()}
        return {"series": series, "files": files}
    if workload == "sim-cell":
        files = {}
        for cell, spec in (("T1", T1_SCENARIO), ("T5", T5_SCENARIO)):
            files[cell] = out / f"{cell}.json"
            files[cell].write_text(json.dumps(spec))
        return {"files": files}
    if workload == "detie-ties":
        x = ties_series(seed)
        return {"series": x, "file": write_csv(out / "ties.csv", x, header="sea_level")}
    raise ValueError(f"unknown workload {workload!r}")

