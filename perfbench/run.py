"""Benchmark of ``drdga run``: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all                 # everything, both modes

Run it from the root of a checkout; it imports ``drdga`` from ``src``. Every
sample runs in a fresh process (``experiment.py``), one process at a time,
with BLAS and OpenMP pinned to one thread. ``--seed`` replaces the workload's
graph seed (the ``drdga run --seed`` override); without it the config's own
seed is used, and only there are the CSV columns compared with the goldens.

``--trace 0`` runs whole experiments until ``--seconds`` have passed, at
least one. Each sets up once (``import drdga`` plus ``parse_config``, timed
as ``setup_s``) in its fresh process. A num_s20 experiment alone takes over
a minute on one core, because its oracle runs its full 200k iterations
before it fails; nothing caps or skips it. Timings are medians over the
run's experiments; the human-readable lines also give the sample count,
minimum and maximum, since fewer than forty samples support no upper
percentile with ten samples beyond it.

``--trace 1`` runs one traced experiment, then the untraced round loop alone
in a fresh process. ``trace.overhead_frac`` compares the two round loops:
a second, untraced num_s20 experiment would not fit in the 180 s a run may
take. It rests on one sample of each, so run-to-run noise of about 10% can
hide the tracer's own cost or turn it negative.

The last line of standard output is one JSON object: ``correct`` (every
output check passed), ``attempted`` and ``failed`` operations (seven phases
per experiment: parse, oracle, rounds, constants, write_csv, write_summary,
check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"

# Each workload runs a config through parse_config, as `drdga run` does;
# "seed" is the config's own graph seed, at which the goldens were taken.
# BENCHMARK.json says why each workload is there. num_s20 is not listed
# there: its oracle alone runs over a minute before it fails, so one
# experiment fills a run and its figures spread past their bounds from run to
# run. Run it by name, or with `all`, to see its failed oracle and summary.
WORKLOADS = {
    "fig7": {"config": "src/drdga/configs/fig7.cfg", "algorithm": None, "seed": 7},
    "num_s20": {"config": "src/drdga/configs/num_s20.cfg", "algorithm": None, "seed": 13},
    "quadratic_m5-cdda": {
        "config": "src/drdga/configs/quadratic_m5.cfg", "algorithm": "cdda", "seed": 3,
    },
    "quad_m100": {"config": "perfbench/quad_m100.cfg", "algorithm": None, "seed": 3},
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
}

PER_LAYER = {
    "engine.rounds": "count",
    "reference.solve_s": "s",
    "reference.failed": "count",
    "reference.local_solves": "count",
    "graph.build_W.us": "us",
    "graph.build_W.per_round": "count",
    "baseline.metropolis.us": "us",
    "baseline.advance.self_us": "us",
    "engine.advance.self_us": "us",
    "localsolve.solve.us": "us",
    "localsolve.solve.per_round": "count",
    "metrics.evaluate.us": "us",
    "engine.stop.us": "us",
    "problem.coupling_residual.per_round": "count",
    "problem.objective_evals.per_round": "count",
    "config.parse_s": "s",
    "problem.build_s": "s",
    "graph.pool_s": "s",
    "metrics.constants_s": "s",
    "cli.write_csv_s": "s",
    "cli.write_summary_s": "s",
    "cli.bytes": "bytes",
    "cli.write_summary.failed": "count",
    "trace.overhead_frac": "fraction",
}

# A run must end within 180 s; no sample is started that could overrun this.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SampleError(RuntimeError):
    """A sample process failed to report a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({var: "1" for var in THREAD_VARS})
    return env


def sample(args: list[str], deadline: float) -> dict:
    """Run experiment.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "experiment.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample exceeded the run's time limit: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _config_args(name: str, seed: int | None) -> list[str]:
    workload = WORKLOADS[name]
    args = ["--config", workload["config"], "--workload", name]
    if workload["algorithm"]:
        args += ["--algorithm", workload["algorithm"]]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


def _ops(experiments) -> tuple[int, int, Counter]:
    errors = Counter(
        (phase, rec["error"])
        for exp in experiments
        for phase, rec in exp["phases"].items()
        if not rec["ok"]
    )
    attempted = sum(len(exp["phases"]) for exp in experiments)
    return attempted, sum(errors.values()), errors


def _spread(values) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def measure(name: str, seed: int | None, seconds: float, trace: bool):
    """Samples of one workload. Returns (report lines, metrics, experiments)."""
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    base = _config_args(name, seed)
    prefix = str(OUT / (name + ("-trace" if trace else "")))
    lines = []
    if trace:
        traced = sample(base + ["--out", prefix, "--trace"], deadline)
        f_star = [] if traced["f_star"] is None else ["--f-star", repr(traced["f_star"])]
        plain = sample(base + ["--rounds-only", *f_star], deadline)
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["rounds_s"] / plain["rounds_s"] - 1.0
        lines.append(f"trace round loop {traced['rounds_s']:.6g} s traced, "
                     f"{plain['rounds_s']:.6g} s untraced, spans in {prefix}.spans.npz")
        metrics = {key: (layers[key], unit) for key, unit in PER_LAYER.items()}
        return lines, metrics, [traced]

    experiments = []
    started = time.monotonic()
    longest = 0.0
    while not experiments or (
        time.monotonic() - started < seconds and time.monotonic() + 2 * longest < deadline
    ):
        t0 = time.monotonic()
        experiments.append(sample(base + ["--out", prefix], deadline))
        longest = max(longest, time.monotonic() - t0)

    run_s = [e["run_s"] for e in experiments]
    setup_s = [e["setup_s"] for e in experiments]
    rate = [e["rounds"] / e["rounds_s"] for e in experiments if e["rounds_s"] > 0]
    rss = [e["peak_rss_mb"] for e in experiments]
    attempted, failed, _ = _ops(experiments)
    lines += [f"run_s {_spread(run_s)}", f"setup_s {_spread(setup_s)}"]
    if rate:
        lines.append(f"rounds_per_s {_spread(rate)} rounds={experiments[0]['rounds']}")
    values = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "rounds_per_s": statistics.median(rate) if rate else 0.0,
        "peak_rss_mb": statistics.median(rss),
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    return lines, {key: (values[key], unit) for key, unit in END_TO_END.items()}, experiments


def report(name, seed, trace, lines, metrics, experiments) -> dict:
    """Print one workload's lines and return its result object."""
    attempted, failed, errors = _ops(experiments)
    correct = all(exp["phases"]["check"]["ok"] for exp in experiments)
    shown_seed = seed if seed is not None else f"{WORKLOADS[name]['seed']} (config)"
    print(f"== {name} seed={shown_seed} trace={int(trace)}")
    for line in lines:
        print(f"   {line}")
    for (phase, error), count in sorted(errors.items()):
        print(f"   failed phase {phase}: {error} x{count}")
    for problem in sorted({p for exp in experiments for p in exp["problems"]}):
        print(f"   check: {problem}")
    print(f"   check {'passed' if correct else 'FAILED'}; {failed} of {attempted} operations failed")
    for key, (value, unit) in metrics.items():
        print(f"   {key} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="drdga benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="graph seed (default: each config's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drdga" / "__init__.py").is_file():
        print(f"error: no drdga sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    try:
        for name in names:
            for trace in modes:
                lines, metrics, experiments = measure(name, args.seed, args.seconds, trace)
                if not results:
                    v = experiments[0]["versions"]
                    print(f"env python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
                          f"cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
                          f"threads=1")
                results[name, trace] = report(name, args.seed, trace, lines, metrics, experiments)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for (name, _), r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
