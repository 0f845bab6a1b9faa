"""Golden gate: `drdga run` output must match the benchmark's golden column digests.

Each case runs ``cli.run_experiment`` on a config at its own graph seed and
compares every CSV column except ``gap`` with ``perfbench/goldens.json``:
the first 16 hex digits of the sha256 of the column's cells joined by
newlines. ``gap`` is left out because it moves with the reference oracle.
The summary sidecar is compared line by line with the text pinned below,
without its ``f_star`` and ``gap`` lines for the same reason.
"""

import hashlib
import json
from importlib.resources import files
from pathlib import Path

import pytest

from drdga import parse_config
from drdga.cli import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
CONFIGS = files("drdga") / "configs"

CASES = {
    "fig7": (CONFIGS / "fig7.cfg", None),
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


def column_digests(lines):
    names = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return {
        name: hashlib.sha256("\n".join(row[k] for row in cells).encode()).hexdigest()[:16]
        for k, name in enumerate(names)
        if name != "gap"
    }


@pytest.mark.parametrize("workload", sorted(CASES))
def test_csv_columns_match_goldens(tmp_path, workload):
    config, algorithm = CASES[workload]
    golden = GOLDENS[workload]
    exp = parse_config(str(config), algorithm=algorithm)
    out = tmp_path / "run.csv"
    run_experiment(exp, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) - 1 == golden["rows"]
    assert column_digests(lines) == golden["columns"]
    summary = Path(str(out) + ".summary").read_text().splitlines(keepends=True)
    pinned = [line for line in summary if not line.startswith(("f_star = ", "gap = "))]
    assert "".join(pinned) == SUMMARIES[workload]
