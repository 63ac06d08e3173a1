"""Benchmark of the bmchange command line, run in-process.

    python3 bench/run.py --workload {sim-cell,test-long,detie-ties} \
        --seed N --seconds S --trace {0,1}

Each workload drives the public ``simulate``, ``test`` or ``detie`` command
in a closed loop (one caller, one process, ``--jobs 1``): the next command
starts when the previous one returned.  Inputs are generated from ``--seed``
into ``.bench_out/`` and the program sees only those files.  After the timed
loop every output is checked against the reference computations in
``checks.py``.

``--trace 0`` reports the end-to-end metrics.  The loop's timings are
normalised by a speed probe run before and after each command (see
``speed_probe``), because neighbours on the shared cores slow this machine
by up to 1.7x for seconds at a time.  ``--trace 1`` is a separate
run of a fixed number of rounds per workload (``trace_rounds``, whatever
``--seconds`` says, so that totals compare across commits): it runs them
untraced, then again with spans around the package's public functions, and
reports per-layer self times and counts; the difference of the two walls is
the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every check passes, 1 when
a check fails, 2 when the package cannot be loaded.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import inputs  # noqa: E402

FAMILIES = ("pwm-t", "pwm-s", "gpwm")
DETIE_REPS = 25           # jittered replicates per detie call
SETUP_SPAWNS = 7          # measured cold starts per run, after one warm-up
PLANT_TOLERANCE = 0.05    # argmax_k within 5% of n of the planted change
# binomial z bound of the sim-cell rejection-rate checks: Bonferroni over the
# 14 checked rates (6 tests in T1, 6 tests and 2 baselines in T5), two-sided,
# for a family-wise error of 0.1 % per run when every rate agrees with the
# table.  A comparison of two commits runs the benchmark some 25 times per
# workload, so 1 % per run would flag a correct program in one comparison of
# five (README, "Output checks").
SIM_RATES = 14
SIM_FWER = 0.001
SIM_Z = float(-ndtri(SIM_FWER / (2 * SIM_RATES)))  # 3.97
AFFINE_TOL = {"pwm-t": 1e-9, "pwm-s": 1e-6, "gpwm": 1e-6}
PROBE_REF_S = 0.008       # speed_probe on the reference machine (see README)


def load_cli():
    if not (SRC / "bmchange" / "__init__.py").is_file():
        raise ImportError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    from bmchange.cli import main

    return main


@dataclass
class Op:
    """One closed-loop operation: a label and the command lines it runs."""

    label: str
    commands: list
    series: int


@dataclass
class Outcome:
    op: Op
    round: int
    wall_s: float
    call_s: list
    probe_s: list
    ok: bool
    error: str = ""
    outputs: list = field(default_factory=list)


_PROBE_X = np.random.default_rng(0).random(2048)
_PROBE_SORTED = np.sort(_PROBE_X)


def speed_probe() -> float:
    """Wall time of a fixed kernel shaped like the package's hot loop:
    sorted insertion and short dot products, bound by the interpreter.

    A command's time multiplied by ``PROBE_REF_S`` over the mean of the
    probes run just before and just after it is its time on the machine at
    reference speed.  The ratio
    cancels slowdowns that hit both alike; the package's code never runs in
    the probe, so a change to the package moves only the numerator.
    """
    buf = np.empty(_PROBE_X.size)
    t0 = time.perf_counter()
    for k in range(1, 2000):
        i = int(np.searchsorted(_PROBE_SORTED[:k], _PROBE_X[k]))
        buf[i + 1 : k + 1] = buf[i:k]
        buf[i] = _PROBE_X[k]
        float(_PROBE_SORTED[:k] @ _PROBE_SORTED[:k])
    return time.perf_counter() - t0


class Runner:
    def __init__(self, cli_main, tracer=None):
        self.cli = cli_main
        self.tracer = tracer

    def invoke(self, args: list) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        frame = self.tracer.open("cli.command") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.cli.main(args=[str(a) for a in args], prog_name="bmchange", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if frame is not None:
                self.tracer.close(frame)
        return code, out.getvalue(), err.getvalue()

    def run(self, op: Op, round_no: int) -> Outcome:
        outputs, calls, error = [], [], ""
        probes = [speed_probe()]
        for args in op.commands:
            t0 = time.perf_counter()
            code, out, err = self.invoke(args)
            calls.append(time.perf_counter() - t0)
            probes.append(speed_probe())
            if code != 0:
                lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
                error = lines[-1] if lines else f"exit {code}"
                outputs.append(None)
            else:
                outputs.append(out)
        return Outcome(op, round_no, sum(calls), calls, probes, not error, error, outputs)


# --- workloads ----------------------------------------------------------------


class TestLong:
    """``test --family F`` for the three families on n = 5000 series."""

    name = "test-long"
    trace_rounds = 3

    def __init__(self, data: dict, seed: int):
        self.data = data
        self.ops = [
            Op(label, [["test", path, "--family", fam] for fam in FAMILIES], 1)
            for label, path in data["files"].items()
        ]

    def round(self, k: int) -> list:
        return self.ops

    def check(self, outcomes: list, runner: Runner, workdir: Path) -> list:
        problems = []
        first = {}
        for oc in outcomes:
            if oc.op.label == "tiny":
                continue
            if not oc.ok:
                problems.append(f"{oc.op.label}: unexpected failure: {oc.error}")
                continue
            reports = [json.loads(o) for o in oc.outputs]
            first.setdefault(oc.op.label, reports)
            for fam, rep in zip(FAMILIES, reports):
                checks.check_test_report(rep, fam, problems, oc.op.label)
        if problems or set(first) != {"null", "loc", "scale"}:
            return problems or ["not every series completed once"]
        n = inputs.LONG_N
        for label, target in (("loc", "mu"), ("scale", "sigma")):
            for fam, rep in zip(FAMILIES, first[label]):
                t = next(t for t in rep["tests"] if t["target"] == target)
                if not (t["p_value"] < 1e-6 and abs(t["argmax_k"] - n // 2) <= PLANT_TOLERANCE * n):
                    problems.append(f"{label} {fam}:{target} missed the planted change: "
                                    f"p={t['p_value']!r} k*={t['argmax_k']}")
        x = self.data["series"]["null"]
        for fam, rep in zip(FAMILIES, first["null"]):
            checks.check_against_naive(rep, x, fam, problems, "null")
        affine = inputs.write_csv(workdir / "affine.csv", 10.0 * x + 3.0)
        self._compare("10x+3", affine, first["null"], AFFINE_TOL, runner, problems)
        tiny = next((oc for oc in outcomes if oc.op.label == "tiny" and oc.ok), None)
        if tiny is not None:
            base = inputs.write_csv(workdir / "tiny_base.csv", inputs.tiny_base())
            tiny_reports = [json.loads(o) for o in tiny.outputs]
            self._compare("1e-200 copy", base, tiny_reports, dict.fromkeys(FAMILIES, 1e-9), runner, problems)
        return problems

    @staticmethod
    def _compare(label, path, reports, tol, runner, problems):
        for fam, rep in zip(FAMILIES, reports):
            code, out, err = runner.invoke(["test", path, "--family", fam])
            if code != 0:
                problems.append(f"{label} {fam}: failed: {err.strip()}")
                continue
            for a, b in zip(rep["tests"], json.loads(out)["tests"]):
                if abs(a["p_value"] - b["p_value"]) > tol[fam]:
                    problems.append(f"{label} {fam}:{a['target']}: p {a['p_value']!r} vs {b['p_value']!r}")


class SimCell:
    """``simulate --scenario`` on reduced T1 and T5 cells at n = 200."""

    name = "sim-cell"
    trace_rounds = 14

    def __init__(self, data: dict, seed: int):
        self.files = data["files"]
        self.seed = seed

    def round(self, k: int) -> list:
        seed = inputs.round_seed(self.seed, self.name, k)
        return [Op(cell, [["simulate", "--scenario", path, "--seed", seed, "--jobs", "1", "--format", "json"]],
                   inputs.SIM_REPS) for cell, path in self.files.items()]

    def check(self, outcomes: list, runner: Runner, workdir: Path) -> list:
        from bmchange import reference_values

        problems = []
        hits: dict = {}
        reps: dict = {}
        for oc in outcomes:
            if not oc.ok:
                problems.append(f"{oc.op.label} round {oc.round}: failed: {oc.error}")
                continue
            body = json.loads(oc.outputs[0])
            for name, res in body["results"].items():
                if res["failures"]:
                    problems.append(f"{oc.op.label}:{name} round {oc.round}: {res['failures']} failures")
            for name, res in body["results"].items():
                key = (oc.op.label, name)
                hits[key] = hits.get(key, 0) + res["rejections"]
                reps[key] = reps.get(key, 0) + body["scenario"]["replications"]
        tables = {"T1": reference_values.TABLE_T1, "T5": reference_values.TABLE_T5}
        for (cell, name), h in hits.items():
            ref = tables[cell][(0.0, inputs.SIM_N)][name]
            z = checks.binomial_z(h, reps[(cell, name)], ref)
            print(f"check {cell}:{name}: {h}/{reps[(cell, name)]} rejections, published {ref}% (z={z:.2f})")
            if z > SIM_Z:
                problems.append(f"{cell}:{name}: {h}/{reps[(cell, name)]} rejections vs published {ref}% (z={z:.2f})")
        if {cell for cell, _ in hits} != {"T1", "T5"}:
            problems.append("a cell never completed")
        return problems


class DetieTies:
    """``detie --family pwm-t`` on a short series rounded to 0.01."""

    name = "detie-ties"
    trace_rounds = 100

    def __init__(self, data: dict, seed: int):
        self.data = data
        self.seed = seed

    def round(self, k: int) -> list:
        seed = inputs.round_seed(self.seed, self.name, k)
        return [Op("ties", [["detie", self.data["file"], "--family", "pwm-t",
                             "--replicates", DETIE_REPS, "--seed", seed]], DETIE_REPS)]

    def check(self, outcomes: list, runner: Runner, workdir: Path) -> list:
        x = self.data["series"]
        distinct = np.unique(x)
        step = float(np.diff(distinct).min())
        reach = checks.detie_reach(x, step)
        problems = []
        for oc in outcomes:
            if not oc.ok:
                problems.append(f"round {oc.round}: failed: {oc.error}")
                continue
            body = json.loads(oc.outputs[0])
            if body["failures"] or body["n_distinct"] != distinct.size or body["tie_step"] != step:
                problems.append(f"round {oc.round}: failures={body['failures']} n_distinct={body['n_distinct']} "
                                f"tie_step={body['tie_step']!r}, expected 0, {distinct.size}, {step!r}")
            for target, env in body["p_values"].items():
                if not 0.0 <= env["min"] <= env["max"] <= 1.0:
                    problems.append(f"round {oc.round}: p:{target} envelope {env}")
            for target, env in body["estimates"].items():
                lo, hi = reach[target]
                if not lo <= env["min"] <= env["max"] <= hi:
                    problems.append(f"round {oc.round}: {target} envelope {env} outside [{lo!r}, {hi!r}]")
        return problems


WORKLOADS = {w.name: w for w in (SimCell, TestLong, DetieTies)}


# --- measurement ----------------------------------------------------------------


def closed_loop(workload, runner: Runner, seconds: float | None = None, rounds: int | None = None,
                between=None):
    """Whole rounds until the operations have taken ``seconds`` or ``rounds``
    are done.  ``between(busy_s)`` runs after each operation, off the clock."""
    outcomes = []
    busy = 0.0
    k = 0
    while (busy < seconds) if rounds is None else (k < rounds):
        for op in workload.round(k):
            if runner.tracer is not None:
                runner.tracer.op += 1
            outcomes.append(runner.run(op, k))
            busy += outcomes[-1].wall_s
            if between is not None:
                between(busy)
        k += 1
    return outcomes, busy, k


class ColdStarts:
    """CLI cold starts, process spawn to a parsed ``--help``, spread evenly
    over the timed loop so that they sample the same machine state as it."""

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_SPAWNS
        self.times: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.spawn()  # fills the bytecode cache; not counted
        self.times.clear()

    def spawn(self) -> None:
        cmd = [sys.executable, "-c", "import sys; from bmchange.cli import main; sys.exit(main())", "--help"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or "Usage:" not in proc.stdout or "simulate" not in proc.stdout:
            raise RuntimeError(f"CLI --help failed: {proc.stderr.strip()}")
        self.times.append(wall)

    def __call__(self, busy: float) -> None:
        if len(self.times) < SETUP_SPAWNS and busy >= len(self.times) * self.every:
            self.spawn()

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


def normalised(oc: Outcome) -> list:
    """Command times at reference speed; each command is bracketed by the
    probes run just before and just after it."""
    return [2 * c * PROBE_REF_S / (a + b) for c, a, b in zip(oc.call_s, oc.probe_s, oc.probe_s[1:])]


def end_to_end(outcomes, busy: float, cold: ColdStarts, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same timings before normalisation."""
    done = [oc for oc in outcomes if oc.ok]
    if not done:
        raise RuntimeError("no operation completed: " + "; ".join(sorted({oc.error for oc in outcomes})))
    # attempted series, so that a failing operation (which runs nearly to the
    # end) costs about what it will cost once it succeeds
    series = sum(oc.op.series for oc in outcomes)
    norm = {id(oc): normalised(oc) for oc in outcomes}

    def per_series(times) -> float:
        # median over operations for each command of an operation, summed
        return sum(statistics.median(times(oc)[i] / oc.op.series for oc in done)
                   for i in range(len(done[0].call_s)))

    metrics = {
        "setup_s": {"value": cold.median(), "unit": "s"},
        "reps_per_s": {"value": series / sum(sum(v) for v in norm.values()), "unit": "1/s"},
        "series_s": {"value": per_series(lambda oc: norm[id(oc)]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    raw = {
        "reps_per_s": series / busy,
        "series_s": per_series(lambda oc: oc.call_s),
        "probe_s": statistics.median(p for oc in outcomes for p in oc.probe_s),
    }
    return metrics, raw


def per_layer(tracer, traced: list, untraced: list) -> dict:
    s, c, n = tracer.self_s, tracer.counts, tracer.calls
    traced_wall = sum(oc.wall_s for oc in traced)
    # the overhead compares the same rounds, both at reference speed
    norm_traced, norm_untraced = (sum(sum(normalised(oc)) for oc in ocs) for ocs in (traced, untraced))
    engines = ("moments.engine.b_hat", "moments.engine.beta_pwm", "moments.engine.beta_gpwm")
    values = {
        "distributions.sample_s": s("distributions.sample"),
        "distributions.kolmogorov_s": s("distributions.kolmogorov"),
        "distributions.kolmogorov_calls": n["distributions.kolmogorov"],
        "distributions.kolmogorov_p_zero": c["distributions.kolmogorov_p_zero"],
        **{f"{e}_s": s(e) for e in engines},
        "moments.engine_calls": sum(n[e] for e in engines),
        "moments.engine_rows": c["moments.engine_rows"],
        "moments.full_sample_s": s("moments.full_sample"),
        "moments.mask_s": s("moments.mask"),
        "gev_maps.approx_rows_s": s("gev_maps.approx_rows"),
        "gev_maps.approx_rows_calls": n["gev_maps.approx_rows"],
        "gev_maps.map_triple_s": s("gev_maps.map_triple"),
        "gev_maps.map_triple_calls": n["gev_maps.map_triple"],
        "gev_maps.jacobian_s": s("gev_maps.jacobian"),
        "gev_maps.jacobian_calls": n["gev_maps.jacobian"],
        "cusum.run_suite_self_s": s("cusum.run_suite"),
        "cusum.recenter_s": s("cusum.recenter"),
        "cusum.pseudo_obs_s": s("cusum.pseudo_obs"),
        "cusum.splits_evaluated": c["cusum.splits_evaluated"],
        "cusum.splits_skipped": c["cusum.splits_skipped"],
        "baselines.cusum_s": s("baselines.cusum"),
        "montecarlo.replicate_self_s": s("montecarlo.run_scenario"),
        "montecarlo.suite_attempts": c["montecarlo.suite_attempts"],
        "montecarlo.group_fallbacks": c["montecarlo.group_fallbacks"],
        "detie.report_self_s": s("detie.report"),
        "detie.jitter_s": s("detie.jitter"),
        "detie.load_csv_s": s("detie.load_csv"),
        "cli.command_self_s": s("cli.command"),
        "trace.ops": len(traced),
        "trace.spans": len(tracer.spans),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": norm_traced - norm_untraced,
        "trace.overhead_pct": 100.0 * (norm_traced - norm_untraced) / norm_untraced,
        # share of the command time that a layer below the command claims
        "trace.attributed_pct": 100.0 * (1.0 - s("cli.command") / traced_wall),
    }
    unit = lambda k: "%" if k.endswith("_pct") else "s" if k.endswith("_s") else "count"
    return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli_main = load_cli()
    except ImportError as exc:
        print(f"error: cannot load the package: {exc}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](inputs.write_inputs(args.workload, args.seed, workdir), args.seed)
        runner = Runner(cli_main)
        if args.trace == 0:
            cold = ColdStarts(args.seconds)
            outcomes, busy, rounds = closed_loop(workload, runner, seconds=args.seconds, between=cold)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, raw = end_to_end(outcomes, busy, cold, peak_rss_mb)
        else:
            from spans import Tracer

            rounds = workload.trace_rounds
            untraced, _, _ = closed_loop(workload, runner, rounds=rounds)
            tracer = Tracer()
            tracer.install()
            try:
                outcomes, _, _ = closed_loop(workload, Runner(cli_main, tracer), rounds=rounds)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
            metrics, raw = per_layer(tracer, outcomes, untraced), {}
        problems = workload.check(outcomes, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [oc for oc in outcomes if not oc.ok]
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {len(outcomes)} operations, {len(failed)} failed")
    for message in sorted({f"{oc.op.label}: {oc.error}" for oc in failed}):
        print(f"  failed operation {message}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  unnormalised {name} = {value:.6g}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    print(json.dumps({"correct": not problems, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
