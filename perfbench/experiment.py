"""One benchmark sample in a fresh process: one full experiment, or a round loop.

    python3 experiment.py --config CFG [--algorithm A] [--seed N] --out PREFIX
                          [--workload NAME] [--trace]
    python3 experiment.py --config CFG [--algorithm A] [--seed N] --rounds-only [--f-star F]

The last line of standard output is one JSON object. ``drdga`` must be
importable (run.py puts the checkout's ``src`` on ``PYTHONPATH``).

A full experiment makes the call sequence of ``drdga run``: ``parse_config``
and then ``cli.run_experiment``. Phase timers wrap, from outside, the names
``run_experiment`` looks up: ``cli.solve_centralized``, ``engine.run_until``
or ``baseline.cdda_run_until``, ``metrics.constants_from_run``,
``cli.write_csv`` and ``cli.write_summary``. Each is called once, so the
untraced run pays a few microseconds for them. ``--trace`` also wraps the
per-round layers; their spans stay in memory and are written to
``PREFIX.spans.npz`` after the experiment, and their self times are derived
from the spans.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import traceback
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# The seven operations of one experiment, in order; a failed one counts as a
# failed operation in the benchmark result.
PHASES = ("parse", "oracle", "rounds", "constants", "write_csv", "write_summary", "check")


class Tracer:
    """Spans and counters recorded by wrappers around the program's callables.

    A span is (name, parent span, start, end), kept in flat arrays so that a
    few hundred thousand of them stay small. Calls made millions of times
    get a count and a total time per phase instead of a span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.current = None  # phase whose work is being counted
        self.phases: dict[str, dict] = {}
        self.results: dict[str, object] = {}
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)

    def span(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()

        return wrapper

    def phase(self, name, fn):
        """Span that also records the phase's time, outcome and return value."""
        inner = self.span("phase." + name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.current = name
            t0 = perf_counter()
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                self.phases[name] = {"ok": False, "s": perf_counter() - t0,
                                     "error": type(exc).__name__}
                raise
            self.phases[name] = {"ok": True, "s": perf_counter() - t0}
            self.results[name] = result
            return result

        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (self.current, name)
                self.counts[key] += 1
                self.totals[key] += perf_counter() - t0

        return wrapper

    def by_name(self):
        """Per span name: (calls, total seconds, self seconds)."""
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        name = np.frombuffer(self.name, dtype=np.int32)
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            counted=json.dumps([[phase, name, n, self.totals[phase, name]]
                                for (phase, name), n in self.counts.items()]),
        )


def _patch(tracer, target, attr, wrap, label):
    fn = getattr(target, attr, None)
    if fn is not None:
        setattr(target, attr, wrap(label, fn))


def install(tracer, trace: bool) -> None:
    """Wrap callables at the names where their callers look them up."""
    from drdga import baseline, cli, config, engine, metrics, problem, reference

    for target, attr, label in (
        (config, "parse_config", "parse"),
        (cli, "solve_centralized", "oracle"),
        (engine, "run_until", "rounds"),
        (baseline, "cdda_run_until", "rounds"),
        (metrics, "constants_from_run", "constants"),
        (cli, "write_csv", "write_csv"),
        (cli, "write_summary", "write_summary"),
    ):
        _patch(tracer, target, attr, tracer.phase, label)
    if not trace:
        return
    for target, attr, label in (
        (config, "make_num_problem", "problem.build"),
        (config, "make_quadratic_problem", "problem.build"),
        (config, "generate_graph_sequence", "graph.pool"),
        (engine, "advance_round", "engine.advance"),
        (engine, "build_weight_matrix", "graph.build_W"),
        (engine, "solve_local", "localsolve.solve"),
        (engine, "stopping_residuals", "engine.stop"),
        (baseline, "cdda_advance_round", "baseline.advance"),
        (baseline, "metropolis_matrix", "baseline.metropolis"),
        (baseline, "solve_local", "localsolve.solve"),
        (baseline, "stopping_residuals", "engine.stop"),
        (metrics, "evaluate_round", "metrics.evaluate"),
    ):
        _patch(tracer, target, attr, tracer.span, label)
    for target, attr, label in (
        (reference, "solve_local", "reference.local_solve"),
        (problem.CoupledProblem, "coupling_residual", "problem.coupling_residual"),
        (problem.DiagonalQuadratic, "value", "problem.objective_eval"),
        (problem.LogUtility, "value", "problem.objective_eval"),
    ):
        _patch(tracer, target, attr, tracer.count, label)


def layer_metrics(tracer, rounds: int, csv_bytes: int) -> dict:
    """Per-layer numbers of one traced experiment, keyed by benchmark metric name."""
    spans = tracer.by_name()
    per_round = max(rounds, 1)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def mean_us(name, own=False):
        n, total, self_s = spans.get(name, (0, 0.0, 0.0))
        return 1e6 * (self_s if own else total) / n if n else 0.0

    def phase_s(name):
        return tracer.phases.get(name, {}).get("s", 0.0)

    def failed(name):
        return 0 if tracer.phases.get(name, {}).get("ok") else 1

    def counted(phase, name):
        return tracer.counts[phase, name]

    return {
        "engine.rounds": rounds,
        "reference.solve_s": phase_s("oracle"),
        "reference.failed": failed("oracle"),
        "reference.local_solves": counted("oracle", "reference.local_solve"),
        "graph.build_W.us": mean_us("graph.build_W"),
        "graph.build_W.per_round": calls("graph.build_W") / per_round,
        "baseline.metropolis.us": mean_us("baseline.metropolis"),
        "baseline.advance.self_us": mean_us("baseline.advance", own=True),
        "engine.advance.self_us": mean_us("engine.advance", own=True),
        "localsolve.solve.us": mean_us("localsolve.solve"),
        "localsolve.solve.per_round": calls("localsolve.solve") / per_round,
        "metrics.evaluate.us": mean_us("metrics.evaluate"),
        "engine.stop.us": mean_us("engine.stop"),
        "problem.coupling_residual.per_round":
            counted("rounds", "problem.coupling_residual") / per_round,
        "problem.objective_evals.per_round":
            counted("rounds", "problem.objective_eval") / per_round,
        "config.parse_s": phase_s("parse"),
        "problem.build_s": total_s("problem.build"),
        "graph.pool_s": total_s("graph.pool"),
        "metrics.constants_s": phase_s("constants"),
        "cli.write_csv_s": phase_s("write_csv"),
        "cli.write_summary_s": phase_s("write_summary"),
        "cli.bytes": csv_bytes,
        "cli.write_summary.failed": failed("write_summary"),
    }


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _rounds_only(args) -> dict:
    """The untraced round loop alone, against which a traced one is compared."""
    from drdga import baseline, config, engine

    exp = config.parse_config(args.config, algorithm=args.algorithm, seed=args.seed)
    loop = baseline.cdda_run_until if exp.algorithm == "cdda" else engine.run_until
    t0 = perf_counter()
    _, rows, _ = loop(exp.problem, exp.seq, exp.run, f_star=args.f_star)
    return {"rounds_s": perf_counter() - t0, "rounds": len(rows)}


def _experiment(args) -> dict:
    t_import = perf_counter()
    import drdga  # noqa: F401  (timed as part of set-up)

    import_s = perf_counter() - t_import
    from drdga import cli, config

    tracer = Tracer()
    install(tracer, args.trace)
    csv_path = Path(args.out + ".csv")
    summary_path = Path(str(csv_path) + ".summary")
    for stale in (csv_path, summary_path):
        stale.unlink(missing_ok=True)

    exp = None
    t0 = perf_counter()
    try:
        exp = config.parse_config(args.config, algorithm=args.algorithm, seed=args.seed)
        cli.run_experiment(exp, csv_path)
    except Exception:  # noqa: BLE001 - a failed phase is a measured outcome
        traceback.print_exc(file=sys.stderr)
    run_s = perf_counter() - t0
    # Before the check, whose golden comparison holds the whole CSV as text.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.current = "check"

    from check import check_output

    oracle = tracer.results.get("oracle")
    f_star = None if oracle is None else oracle.objective
    state, rows, reason = tracer.results.get("rounds", (None, [], None))
    t_check = perf_counter()
    problems = check_output(csv_path, summary_path, workload=args.workload, seed=args.seed,
                            exp=exp, state=state, rows=rows, reason=reason, f_star=f_star)
    tracer.phases["check"] = {"ok": not problems, "s": perf_counter() - t_check}
    if problems:
        tracer.phases["check"]["error"] = "OutputMismatch"
    for name in PHASES:
        tracer.phases.setdefault(name, {"ok": False, "s": 0.0, "error": "NotReached"})

    csv_bytes = sum(p.stat().st_size for p in (csv_path, summary_path) if p.exists())
    result = {
        "setup_s": import_s + tracer.phases["parse"]["s"],
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rows),
        "rounds_s": tracer.phases["rounds"]["s"],
        "f_star": f_star,
        "phases": tracer.phases,
        "problems": problems,
        "versions": _versions(),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, len(rows), csv_bytes)
        tracer.save(args.out + ".spans.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--algorithm", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--f-star", type=float, default=None,
                        help="oracle optimum for --rounds-only (default: none)")
    parser.add_argument("--rounds-only", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds_only:
        result = _rounds_only(args)
    else:
        if args.out is None:
            parser.error("--out is required for a full experiment")
        result = _experiment(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
