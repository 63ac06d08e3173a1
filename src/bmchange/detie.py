"""Loading real block-maxima series and handling ties by jittering.

Rounded measurements produce tied values, which the rank-based estimators
dislike.  The remedy: add independent uniform noise on (0, d) to every
observation, d being the smallest gap between distinct values, and repeat
many times to see how much the conclusions move.  Reported are min/max
envelopes of the p-values and of the full-sample parameter estimates.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .cusum import Family, family_suite, run_batch
from .distributions import DataError, GevParams, as_sample
from .gev_maps import approx_map_rows, map_outcome
from .moments import Estimator, full_sample_rows
from .montecarlo import CHUNK

# Unused here, but bench/spans.py wraps these names in this module.
from .cusum import run_suite  # noqa: F401
from .gev_maps import map_triple  # noqa: F401
from .moments import b_hat  # noqa: F401

_DELIMITERS = (",", ";", "\t")


def _try_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def load_csv(path, column: str | int | None = None) -> np.ndarray:
    """Read one numeric column from a delimited text file.

    The delimiter is sniffed among comma, semicolon and tab; a header row is
    assumed when the first row is not fully numeric.  ``column`` selects by
    header name or 0-based index; with one column it can be omitted.
    Malformed values are reported with their row and column.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: file contains no data")
    counts = {d: lines[0].count(d) for d in _DELIMITERS}
    delim = max(counts, key=counts.get)
    rows = list(csv.reader(io.StringIO("\n".join(lines)), delimiter=delim))
    width = len(rows[0])
    header = None
    if any(_try_float(tok.strip()) is None for tok in rows[0]):
        header = [tok.strip() for tok in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")
    if column is None:
        if width != 1:
            names = ", ".join(header) if header else f"{width} columns"
            raise DataError(f"{path}: several columns ({names}); pass column=")
        col_idx = 0
    elif isinstance(column, int):
        if not 0 <= column < width:
            raise DataError(f"{path}: column index {column} out of range (width {width})")
        col_idx = column
    else:
        if header is None or column not in header:
            raise DataError(f"{path}: no column named {column!r}")
        col_idx = header.index(column)
    offset = 2 if header is not None else 1
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        if len(row) <= col_idx:
            raise DataError(f"{path}: row {i + offset} has only {len(row)} fields")
        val = _try_float(row[col_idx].strip())
        if val is None:
            raise DataError(
                f"{path}: row {i + offset}, column {col_idx + 1}: not a number: {row[col_idx]!r}"
            )
        out[i] = val
    return as_sample(out)


def tie_step(sample) -> float:
    """Smallest gap between distinct sorted values; 0.0 when all values tie."""
    values = np.unique(as_sample(sample))
    if values.size < 2:
        return 0.0
    return float(np.diff(values).min())


def count_distinct(sample) -> int:
    return int(np.unique(as_sample(sample)).size)


def detie_replicate(sample, rng: np.random.Generator) -> np.ndarray:
    """One jittered copy: every observation gets an independent U(0, d) shift.

    The uniform is strict on both sides (exact zeros are redrawn), so jittered
    values are almost surely distinct and the original ordering of tied
    values is broken at random.
    """
    values = as_sample(sample)
    d = tie_step(values)
    if d == 0.0:
        raise DataError("cannot jitter: sample has fewer than 2 distinct values")
    u = rng.random(values.size)
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    return values + d * u


@dataclass(frozen=True)
class DetieReport:
    """Envelopes over jittered replicates for one series.

    ``p_env[target]`` and ``est_env[param]`` hold (min, max) pairs over the
    replicates that completed; ``failures`` counts replicates where the test
    battery raised instead of producing p-values.
    """

    n: int
    n_distinct: int
    tie_step: float
    replications: int
    failures: int
    p_env: dict
    est_env: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "n_distinct": self.n_distinct,
            "tie_step": self.tie_step,
            "replications": self.replications,
            "failures": self.failures,
            "p_values": {k: {"min": v[0], "max": v[1]} for k, v in self.p_env.items()},
            "estimates": {k: {"min": v[0], "max": v[1]} for k, v in self.est_env.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["quantity", "min", "max"])
        for k in ("mu", "sigma", "xi"):
            w.writerow([f"estimate:{k}", f"{self.est_env[k][0]:.6g}", f"{self.est_env[k][1]:.6g}"])
        for k in ("mu", "sigma", "xi"):
            w.writerow([f"p:{k}", f"{self.p_env[k][0]:.6g}", f"{self.p_env[k][1]:.6g}"])
        return buf.getvalue()


def detie_report(
    sample,
    replications: int = 1000,
    seed: int = 0,
    family: Family = Family.PWM_T,
    r: int = 10,
) -> DetieReport:
    """Jitter, test, repeat: envelopes of p-values and parameter estimates.

    Each replicate runs the three per-parameter tests of ``family`` on a
    fresh jittered copy and maps the copy's full-sample unbiased moments to
    GEV parameters.  Replicates where any step fails are counted as
    failures and excluded from the envelopes.  The copies are drawn in
    order from one generator and tested in chunks of ``montecarlo.CHUNK``.
    """
    values = as_sample(sample)
    if replications < 1:
        raise DataError("need at least one replication")
    rng = np.random.default_rng(seed)
    configs = family_suite(family, r=r)
    p_rows = []
    est_rows = []
    failures = 0
    for start in range(0, replications, CHUNK):
        jittered = np.stack([detie_replicate(values, rng) for _ in range(min(CHUNK, replications - start))])
        try:
            triples = full_sample_rows(jittered, Estimator.B_HAT)
        except DataError:  # fewer than 3 observations: every copy fails
            triples = np.full((len(jittered), 3), np.nan)
        params = approx_map_rows("pwm", triples)
        for cells, triple, row in zip(run_batch(jittered, configs), triples, params):
            est = map_outcome("pwm", triple, row) if np.isfinite(triple).all() else None
            if not isinstance(est, GevParams) or any(isinstance(cell, ValueError) for cell in cells):
                failures += 1
                continue
            p_rows.append([res.p_value for res in cells])
            est_rows.append([est.mu, est.sigma, est.xi])
    if not p_rows:
        raise DataError("every jittered replicate failed; series too short or degenerate")
    p_arr = np.asarray(p_rows)
    e_arr = np.asarray(est_rows)
    targets = [cfg.target for cfg in configs]
    return DetieReport(
        n=values.size,
        n_distinct=count_distinct(values),
        tie_step=tie_step(values),
        replications=replications,
        failures=failures,
        p_env={t: (float(p_arr[:, j].min()), float(p_arr[:, j].max())) for j, t in enumerate(targets)},
        est_env={t: (float(e_arr[:, j].min()), float(e_arr[:, j].max())) for j, t in enumerate(("mu", "sigma", "xi"))},
    )
