"""Golden gate: `drdga run` output must pass the benchmark's own output check.

Each case runs ``cli.run_experiment`` on a config at its own graph seed and
hands its files to ``check_output`` from ``perfbench/check.py``, loaded from
its path: the header, one row per round, finite columns, the ergodic average
inside each box, ``gap`` against the oracle's ``f_star``, the summary against
the CSV, and every column but ``gap`` against the digests in
``perfbench/goldens.json`` (``column_digests``: the first 16 hex digits of the
sha256 of the column's cells joined by newlines). The oracle's answer and the
run loop's ``(state, rows, reason)`` are caught by wrapping the names
``run_experiment`` looks up, as the benchmark does. The summary sidecar is
also compared line by line with the text pinned below, without its
``f_star`` and ``gap`` lines, which move with the reference oracle.
"""

import importlib.util
import json
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from drdga import baseline, cli, engine, parse_config

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
CONFIGS = files("drdga") / "configs"

_spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

CASES = {
    "fig7": (CONFIGS / "fig7.cfg", None),
    "num_s20": (CONFIGS / "num_s20.cfg", None),
    "quadratic_m5-cdda": (CONFIGS / "quadratic_m5.cfg", "cdda"),
    "quad_m100": (ROOT / "perfbench" / "quad_m100.cfg", None),
}

# Each workload's summary without its f_star and gap lines, which move with
# the reference oracle as the CSV's gap column does.
SUMMARIES = {
    "fig7": (
        "algorithm = drdga\n"
        "stop_reason = t_max\n"
        "terminal_round = 5000\n"
        "objective = -4.76550899022\n"
        "violation = 2.2360679775\n"
        "violation_inst = 2.2360679775\n"
        "empirical_D = 3.32756132323\n"
        "theorem2_bound = 120254.150065\n"
        "theorem3_bound = 90190.612549\n"
    ),
    "num_s20": (
        "algorithm = drdga\n"
        "stop_reason = t_max\n"
        "terminal_round = 5000\n"
        "objective = -4.11338670734\n"
        "violation = 6.92820323028\n"
        "violation_inst = 6.92820323028\n"
        "empirical_D = 2.36321228011\n"
        "theorem2_bound = 1.39388891737e+57\n"
        "theorem3_bound = 6.96944458685e+57\n"
    ),
    "quadratic_m5-cdda": (
        "algorithm = cdda\n"
        "stop_reason = t_max\n"
        "terminal_round = 10000\n"
        "objective = 1.58225455222\n"
        "violation = 0.0295499121121\n"
        "violation_inst = 0.0260121787317\n"
        "empirical_D = 5.78029361889\n"
        "theorem2_bound = 21934992640.4\n"
        "theorem3_bound = 27418740800.5\n"
    ),
    "quad_m100": (
        "algorithm = drdga\n"
        "stop_reason = t_max\n"
        "terminal_round = 200\n"
        "objective = -7.99784163776\n"
        "violation = 9.65563678014\n"
        "violation_inst = 9.65400474001\n"
        "empirical_D = 1.22433494739\n"
        "theorem2_bound = inf\n"
        "theorem3_bound = inf\n"
    ),
}


def capture(results, key, fn):
    """``fn``, also storing each return value under ``results[key]``."""

    def wrapper(*args, **kwargs):
        results[key] = fn(*args, **kwargs)
        return results[key]

    return wrapper


@pytest.mark.parametrize("workload", sorted(CASES))
def test_csv_columns_match_goldens(tmp_path, monkeypatch, workload):
    config, algorithm = CASES[workload]
    golden = GOLDENS[workload]
    results = {}
    monkeypatch.setattr(cli, "solve_centralized",
                        capture(results, "oracle", cli.solve_centralized))
    for module, name in ((engine, "run_until"), (baseline, "cdda_run_until")):
        monkeypatch.setattr(module, name, capture(results, "rounds", getattr(module, name)))
    exp = parse_config(str(config), algorithm=algorithm)
    out = tmp_path / "run.csv"
    summary_path = Path(str(out) + ".summary")
    cli.run_experiment(exp, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) - 1 == golden["rows"]
    assert check.column_digests(lines) == golden["columns"]
    state, rows, reason = results["rounds"]
    # Every workload's oracle certifies, so gap is finite in every row.
    f_star = results["oracle"].objective
    assert np.isfinite(rows.gap).all()
    assert check.check_output(out, summary_path, workload=workload, seed=None, exp=exp,
                              state=state, rows=rows, reason=reason, f_star=f_star) == []
    summary = summary_path.read_text().splitlines(keepends=True)
    pinned = [line for line in summary if not line.startswith(("f_star = ", "gap = "))]
    assert "".join(pinned) == SUMMARIES[workload]
