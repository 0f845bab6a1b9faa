"""Golden gate: `drdga run` output must match the benchmark's golden column digests.

Each case runs ``cli.run_experiment`` on a config at its own graph seed and
compares every CSV column except ``gap`` with ``perfbench/goldens.json``:
the first 16 hex digits of the sha256 of the column's cells joined by
newlines. ``gap`` is left out because it moves with the reference oracle.
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
    summary = Path(str(out) + ".summary").read_text()
    assert f"terminal_round = {golden['rows']}" in summary
