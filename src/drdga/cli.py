"""Command-line front end: run experiments to CSV, or print the centralized solution.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import baseline, engine, metrics
from .config import ALGORITHMS, Experiment, parse_config
from .errors import ConfigError, InfeasibleProblemError, UncertifiedSolutionError
from .reference import solve_centralized

# One column per field of metrics.Metrics, in order: t, then floats.
CSV_HEADER = ",".join(metrics.Metrics.names)
# One CSV row; "%.12g" prints nan, inf and -0 as format(v, ".12g") does.
_ROW = "%d" + ",%.12g" * (len(metrics.Metrics.names) - 1) + "\n"
# Rows write_csv formats at a time: one chunk's text is all it holds.
_CHUNK = 256


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_atomic(path, lines: Iterable[str]) -> None:
    """Write ``lines`` to a temporary file beside ``path`` as they are made,
    then rename it over ``path``: a failed write leaves neither a partial
    file nor the temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as out:
            out.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(rows: np.ndarray, path) -> None:
    """Serialize Metrics rows, one line per round, floats at 12 significant digits,
    formatted column by column, _CHUNK rows at a time, through :func:`_write_atomic`."""
    chunks = (rows[start : start + _CHUNK] for start in range(0, len(rows), _CHUNK))
    text = ("".join(map(_ROW.__mod__, zip(*(chunk[c].tolist() for c in metrics.Metrics.names))))
            for chunk in chunks)
    _write_atomic(path, itertools.chain([CSV_HEADER + "\n"], text))


def write_summary(path, *, algorithm, stop_reason, rows, f_star, constants) -> None:
    last, T = rows[-1], rows.t[-1]
    pairs = [
        ("algorithm", algorithm),
        ("stop_reason", stop_reason),
        ("terminal_round", str(T)),
        ("objective", _fmt(last.objective)),
        ("f_star", _fmt(f_star) if f_star is not None else "unavailable"),
        ("gap", _fmt(last.gap)),
        ("violation", _fmt(last.violation)),
        ("violation_inst", _fmt(last.violation_inst)),
        ("empirical_D", _fmt(constants.D)),
        ("theorem2_bound", _fmt(metrics.theorem2_bound(T, constants))),
        ("theorem3_bound", _fmt(metrics.theorem3_bound(T, constants))),
    ]
    _write_atomic(path, (f"{k} = {v}\n" for k, v in pairs))


def run_experiment(exp: Experiment, out_path) -> tuple[str, np.ndarray]:
    """Execute the configured algorithm and write the CSV plus summary sidecar."""
    try:
        f_star = solve_centralized(exp.problem).objective
    except (InfeasibleProblemError, UncertifiedSolutionError):
        f_star = None
    if exp.algorithm == "cdda":
        _, rows, reason = baseline.cdda_run_until(exp.problem, exp.seq, exp.run, f_star=f_star)
    else:
        _, rows, reason = engine.run_until(exp.problem, exp.seq, exp.run, f_star=f_star)
    constants = metrics.constants_from_run(
        exp.problem, exp.seq.window, exp.run.q, rows, theta0=exp.run.theta0
    )
    write_csv(rows, out_path)
    write_summary(
        str(out_path) + ".summary",
        algorithm=exp.algorithm,
        stop_reason=reason,
        rows=rows,
        f_star=f_star,
        constants=constants,
    )
    return reason, rows


def _cmd_run(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out: {out} must name a file in an existing directory")
    exp = parse_config(
        args.config,
        algorithm=args.algorithm,
        seed=args.seed,
        t_max=args.tmax,
        epsilon=args.epsilon,
    )
    reason, rows = run_experiment(exp, args.out)
    print(f"{exp.algorithm}: {reason} after {rows[-1].t} rounds -> {args.out}")
    return 0


def _cmd_reference(args) -> int:
    exp = parse_config(args.config)
    solution = solve_centralized(exp.problem)
    with np.printoptions(precision=10):
        for i, (x, lo, hi) in enumerate(zip(solution.x, exp.problem.lower, exp.problem.upper), 1):
            print(f"x*[{i}] = {x[lo < hi]}")  # each agent's free coordinates
        print(f"F* = {_fmt(solution.objective)}")
        print(f"lambda* = {solution.multiplier}")
        print(f"violation = {_fmt(solution.violation)}")
        print(f"duality_gap = {_fmt(solution.duality_gap)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drdga",
        description="Distributed regularized dual gradient simulator over time-varying directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The overrides stay strings: parse_config checks them as config values.
    run = sub.add_parser("run", help="run an experiment and write per-round metrics CSV")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", required=True, help="output CSV path (summary goes to <out>.summary)")
    run.add_argument("--algorithm",
                     help=f"override the configured algorithm ({', '.join(ALGORITHMS)})")
    run.add_argument("--seed", help="override the graph seed")
    run.add_argument("--tmax", help="override the round cap")
    run.add_argument("--epsilon", help="override the stopping tolerance")
    run.set_defaults(func=_cmd_run)

    ref = sub.add_parser("reference", help="print the centralized solution of the configured problem")
    ref.add_argument("--config", required=True, help="experiment config file")
    ref.set_defaults(func=_cmd_reference)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
